//! Scenario descriptions: everything needed to reproduce a run except
//! the seed.

use cbm_net::fault::FaultPlan;
use cbm_net::latency::LatencyModel;

/// Which replica algorithm runs the scenario, and hence which
/// criterion verifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavour {
    /// `CausalShared` (Fig. 4 generalized): wait-free causal
    /// consistency; runs are verified against **CC** (Def. 9) via
    /// `cbm_check::verify::verify_cc_execution`.
    Causal,
    /// `ConvergentShared` (Fig. 5 generalized): causal convergence
    /// with Lamport arbitration; runs are verified against **CCv**
    /// (Def. 12) via `cbm_check::verify::verify_ccv_execution`.
    Convergent,
}

impl Flavour {
    /// The criterion this flavour is verified against.
    pub fn criterion(&self) -> &'static str {
        match self {
            Flavour::Causal => "CC",
            Flavour::Convergent => "CCv",
        }
    }
}

/// A named, reproducible fault-injection scenario.
///
/// A scenario plus a seed is a complete description of a run: the
/// workload script, the network latencies, and the fault timings are
/// all pure functions of `(scenario, seed)`.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Registry name (stable; referenced by the regression corpus).
    pub name: &'static str,
    /// One-line description for `scenario_runner list`.
    pub description: &'static str,
    /// Cluster size.
    pub procs: usize,
    /// Replica flavour (decides the verified criterion).
    pub flavour: Flavour,
    /// Operations per process.
    pub ops_per_proc: usize,
    /// Number of window streams `K`.
    pub streams: usize,
    /// Window size `k` of each stream.
    pub window_k: usize,
    /// Probability an operation is a write.
    pub write_ratio: f64,
    /// Maximum think time between operations.
    pub max_think: u64,
    /// Baseline link latency model.
    pub latency: LatencyModel,
    /// Timed transport faults.
    pub faults: FaultPlan,
    /// Must all live replicas hold equal state at quiescence?
    /// (Asserted only for [`Flavour::Convergent`] scenarios whose
    /// fault plan lets every message eventually through; CC alone
    /// never promises convergence.)
    pub expect_converge: bool,
}

impl Scenario {
    /// Baseline scenario: no faults, moderate workload. Registry
    /// entries customize from here.
    pub(crate) fn base(name: &'static str, description: &'static str, flavour: Flavour) -> Self {
        Scenario {
            name,
            description,
            procs: 4,
            flavour,
            ops_per_proc: 16,
            streams: 2,
            window_k: 2,
            write_ratio: 0.6,
            max_think: 12,
            latency: LatencyModel::Uniform(2, 25),
            faults: FaultPlan::new(),
            expect_converge: matches!(flavour, Flavour::Convergent),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_scenario_defaults_are_sane() {
        let s = Scenario::base("x", "d", Flavour::Causal);
        assert_eq!(s.procs, 4);
        assert!(!s.expect_converge, "CC does not promise convergence");
        let c = Scenario::base("y", "d", Flavour::Convergent);
        assert!(c.expect_converge);
        assert_eq!(c.flavour.criterion(), "CCv");
    }
}
