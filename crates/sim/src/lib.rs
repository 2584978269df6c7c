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
//! * `scenario` — a [`Scenario`] bundles a
//!   cluster size, replica flavour, workload shape, latency model,
//!   [`FaultPlan`](cbm_net::fault::FaultPlan), and expectations;
//! * [`registry`] — ≥8 built-in scenarios (partitions, flapping
//!   links, stragglers, duplicate storms, rolling crashes, skewed
//!   clocks, asymmetric partitions, latency spikes);
//! * [`runner`] — executes a `(scenario, seed)` pair through
//!   `cbm-core::Cluster` and verifies the history with
//!   `cbm-check::verify` (CC for causal flavours, CCv for arbitrated
//!   ones), producing a deterministic
//!   [`ScenarioOutcome`] with a replayable
//!   fingerprint;
//! * [`explore`](mod@explore) + [`corpus`] — sweep seeds looking for failures and
//!   record any failing `(scenario, seed)` into a committed regression
//!   corpus that a tier-1 test replays forever after.
//!
//! ```
//! use cbm_sim::registry;
//! use cbm_sim::runner::run_scenario;
//!
//! let s = registry::by_name("partition-while-writing").unwrap();
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
pub mod registry;
pub mod runner;
pub(crate) mod scenario;

pub use runner::{run_scenario, ScenarioOutcome};
pub use scenario::{Flavour, Scenario};
