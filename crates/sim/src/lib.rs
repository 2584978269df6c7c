//! # cbm-sim — scenario-driven fault-injection simulation
//!
//! The paper's system model is fully asynchronous — "there is no bound
//! on the time between the sending and the reception of a message"
//! (§6.1) — and Propositions 6 and 7 are claims about *all* executions
//! of the Fig. 4/5 algorithms. This crate turns those claims into a
//! harness: named, seeded, fault-injected **scenarios** whose recorded
//! histories are verified against the matching consistency criterion
//! after every run.
//!
//! The subsystem has four parts (see `docs/SIMULATION.md` for the
//! architecture):
//!
//! * `scenario` — a [`Scenario`] is one named plan of the fault
//!   catalogue shared with the live engine
//!   ([`cbm_net::fault::CATALOGUE`]: partitions, flapping links,
//!   stragglers, duplicate storms, rolling crashes, skewed clocks,
//!   latency spikes, loss) run in one [`Mode`](cbm_check::Mode), over
//!   one fixed workload;
//! * [`runner`] — executes a `(scenario, seed)` pair through
//!   `cbm-core::Cluster` and verifies the history with
//!   `cbm-check::verify` (CC for the causal mode, CCv for the
//!   convergent one), producing a deterministic
//!   [`ScenarioOutcome`] with a replayable
//!   fingerprint;
//! * [`explore`](mod@explore) + [`corpus`] — sweep seeds looking for failures and
//!   record any failing `(scenario, seed)` into a committed regression
//!   corpus that a tier-1 test replays forever after.
//!
//! ```
//! use cbm_check::Mode;
//! use cbm_sim::runner::run_scenario;
//! use cbm_sim::Scenario;
//!
//! let s = Scenario::by_name("partition-while-writing", Mode::Convergent).unwrap();
//! let outcome = run_scenario(&s, 7);
//! assert!(outcome.verified.is_ok(), "CCv witness must verify");
//! assert!(outcome.converged, "replicas converge once the partition heals");
//! // same (scenario, seed) ⇒ bit-identical run
//! assert_eq!(outcome.fingerprint, run_scenario(&s, 7).fingerprint);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod explore;
pub mod runner;
pub(crate) mod scenario;

pub use runner::{run_scenario, ScenarioOutcome};
pub use scenario::Scenario;

/// The scenario registry as a whole: every catalogue plan in both
/// modes, as [`Scenario::all`] lists them.
#[cfg(test)]
mod registry {
    mod tests {
        use crate::scenario::{EPOCH, PROCS};
        use crate::Scenario;
        use cbm_check::Mode;
        use cbm_net::fault::CATALOGUE;

        #[test]
        fn registry_has_at_least_eight_distinct_scenarios() {
            let all = Scenario::all();
            assert!(all.len() >= 8, "only {} scenarios", all.len());
            let mut keys: Vec<_> = all.iter().map(|s| s.to_string()).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), all.len(), "duplicate scenario keys");
            let mut names: Vec<_> = CATALOGUE.iter().map(|p| p.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), CATALOGUE.len(), "duplicate catalogue names");
        }

        #[test]
        fn by_name_finds_every_entry() {
            for s in Scenario::all() {
                let found = Scenario::by_name(s.name(), s.mode);
                assert!(found.is_some(), "{s} not found");
                assert_eq!(found.unwrap().to_string(), s.to_string());
            }
            for mode in Mode::BOTH {
                assert!(Scenario::by_name("no-such-scenario", mode).is_none());
            }
        }

        #[test]
        fn fault_plans_stay_inside_the_cluster() {
            for s in Scenario::all() {
                assert_eq!(s.faults().check(PROCS), Ok(()), "{s}");
            }
            for p in CATALOGUE {
                for n in [2, 3, 4, 8] {
                    for e in [EPOCH, 100, 500, 2000] {
                        assert_eq!(
                            (p.build)(n, e).check(n),
                            Ok(()),
                            "{} at n {n}, e {e}",
                            p.name
                        );
                    }
                }
            }
        }
    }
}
