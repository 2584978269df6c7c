//! Scenario descriptions: everything needed to reproduce a run except
//! the seed.
//!
//! A scenario is one entry of the shared fault catalogue
//! ([`cbm_net::fault::CATALOGUE`]) run in one [`Mode`]. The workload
//! is the same for every scenario: [`PROCS`] processes issue 16 window
//! operations each (60% writes, think time ≤ 12 ticks) over links of
//! 2–25 ticks, so writes run for roughly 100–250 ticks and the plans,
//! built with an epoch of [`EPOCH`] ticks, fault that traffic.

use cbm_check::Mode;
use cbm_net::fault::{Fault, FaultPlan, NamedPlan, CATALOGUE};
use cbm_net::latency::LatencyModel;
use std::fmt;

/// Cluster size of every scenario.
pub(crate) const PROCS: usize = 4;
/// The epoch length, in simulated ticks, every catalogue plan is built
/// with here (the live engine passes its `every_ops`).
pub(crate) const EPOCH: u64 = 80;
/// Operations per process.
pub(crate) const OPS_PER_PROC: usize = 16;
/// Number of window streams `K`.
pub(crate) const STREAMS: usize = 2;
/// Window size `k` of each stream.
pub(crate) const WINDOW_K: usize = 2;
/// Probability an operation is a write.
pub(crate) const WRITE_RATIO: f64 = 0.6;
/// Maximum think time between operations.
pub(crate) const MAX_THINK: u64 = 12;
/// Baseline link latency.
pub(crate) const LATENCY: LatencyModel = LatencyModel::Uniform(2, 25);

/// A named, reproducible fault-injection scenario: a catalogue plan and
/// the replica algorithm that runs under it.
///
/// A scenario plus a seed is a complete description of a run: the
/// workload script, the network latencies, and the fault timings are
/// all pure functions of `(scenario, seed)`.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// The catalogue entry.
    pub plan: &'static NamedPlan,
    /// `Causal` runs `CausalShared` (Fig. 4 generalized), verified
    /// against **CC**; `Convergent` runs `ConvergentShared` (Fig. 5
    /// generalized), verified against **CCv**.
    pub mode: Mode,
}

impl Scenario {
    /// Every catalogue plan in both modes, in catalogue order.
    pub fn all() -> Vec<Scenario> {
        CATALOGUE
            .iter()
            .flat_map(|plan| Mode::BOTH.map(|mode| Scenario { plan, mode }))
            .collect()
    }

    /// The catalogue plan called `name`, run in `mode`.
    pub fn by_name(name: &str, mode: Mode) -> Option<Scenario> {
        cbm_net::fault::named(name).map(|plan| Scenario { plan, mode })
    }

    /// The catalogue name (stable; the regression corpus refers to it).
    pub fn name(&self) -> &'static str {
        self.plan.name
    }

    /// The plan's events, in simulated ticks.
    pub fn faults(&self) -> FaultPlan {
        (self.plan.build)(PROCS, EPOCH)
    }

    /// Must all live replicas hold equal state at quiescence? Only the
    /// convergent mode promises it (CC alone never does), and only
    /// under a plan that loses no message: no drop with a nonzero
    /// probability and no crash. Partitions park and release, so they
    /// do not count.
    pub fn expect_converge(&self) -> bool {
        self.mode == Mode::Convergent
            && !self.faults().events().iter().any(|ev| match ev.fault {
                Fault::LinkDrop { prob, .. } | Fault::DropAll { prob } => prob > 0.0,
                Fault::Crash(_) => true,
                _ => false,
            })
    }
}

/// `name mode`, the mode by its criterion: the key of the regression
/// corpus and of the fingerprint fixture.
impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name(), self.mode.criterion())
    }
}

/// The mode whose criterion is named `s` ("CC" or "CCv").
pub(crate) fn parse_mode(s: &str) -> Option<Mode> {
    Mode::BOTH.into_iter().find(|m| m.criterion() == s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_lossless_convergent_run_expects_convergence() {
        let s = |name| Scenario::by_name(name, Mode::Convergent).unwrap();
        assert!(s("partition-while-writing").expect_converge());
        assert!(s("duplicate-burst").expect_converge());
        assert!(!s("lossy-burst").expect_converge(), "a drop loses");
        assert!(!s("crash-recover").expect_converge(), "a crash loses");
        let causal = Scenario::by_name("partition-while-writing", Mode::Causal).unwrap();
        assert!(!causal.expect_converge(), "CC does not promise convergence");
        assert_eq!(parse_mode("CCv"), Some(Mode::Convergent));
        assert_eq!(parse_mode("ccv"), None);
        assert_eq!(Scenario::all().len(), 2 * CATALOGUE.len());
    }
}
