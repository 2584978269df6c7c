//! Execute a `(scenario, seed)` pair and verify the recorded history.
//!
//! Runs are bit-reproducible: the workload script, the network RNG,
//! and the fault plan are all derived from the scenario and the seed,
//! and [`ScenarioOutcome::fingerprint`] hashes the full observable
//! result (history labels, apply orders, final transport counters) so
//! two runs of the same pair can be compared exactly.

use crate::scenario::{self, Scenario, LATENCY, PROCS};
use cbm_adt::window::WindowArray;
use cbm_check::verify::{verify_cc_execution, verify_ccv_execution};
use cbm_check::Mode;
use cbm_core::causal::CausalShared;
use cbm_core::cluster::{Cluster, RunResult};
use cbm_core::convergent::ConvergentShared;
use cbm_core::workload::{window_script, WindowWorkload};
use cbm_core::Replica;

/// Everything one verified run produces.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The seed that drove workload, latencies, and fault rolls.
    pub seed: u64,
    /// Checker verdict: `Ok(())` or a description of the violation.
    pub verified: Result<(), String>,
    /// Did all live replicas hold equal state at quiescence?
    pub converged: bool,
    /// Simulated time at which the network went quiescent.
    pub convergence_time: u64,
    /// Time of the last operation completion.
    pub makespan: u64,
    /// Events in the recorded history.
    pub history_len: usize,
    /// Messages sent / bytes sent.
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages lost (crashes + lossy links).
    pub msgs_dropped: u64,
    /// Extra copies injected by duplication faults.
    pub msgs_duplicated: u64,
    /// Messages still parked on blocked links at the end.
    pub msgs_parked: u64,
    /// Losses per recipient node.
    pub dropped_per_node: Vec<u64>,
    /// Operations that never completed (blocking flavours only).
    pub incomplete_ops: usize,
    /// FNV-1a hash of the observable run (see module docs).
    pub fingerprint: u64,
}

impl ScenarioOutcome {
    /// Did the run meet the scenario's expectations?
    pub fn passes(&self) -> bool {
        self.failure().is_none()
    }

    /// Human-readable failure description, if any.
    pub fn failure(&self) -> Option<String> {
        match &self.verified {
            Err(e) => Some(format!("{} violation: {e}", self.scenario.mode.criterion())),
            Ok(()) if !self.converged && self.scenario.expect_converge() => {
                Some("expected convergence, replicas diverged".into())
            }
            Ok(()) => None,
        }
    }
}

/// Run one scenario under one seed and verify the result.
pub fn run_scenario(scenario: &Scenario, seed: u64) -> ScenarioOutcome {
    match scenario.mode {
        Mode::Causal => run_in::<CausalShared<WindowArray>>(*scenario, seed),
        Mode::Convergent => run_in::<ConvergentShared<WindowArray>>(*scenario, seed),
    }
}

fn run_in<R: Replica<WindowArray>>(scenario: Scenario, seed: u64) -> ScenarioOutcome {
    let cfg = WindowWorkload {
        procs: PROCS,
        ops_per_proc: scenario::OPS_PER_PROC,
        streams: scenario::STREAMS,
        write_ratio: scenario::WRITE_RATIO,
        max_think: scenario::MAX_THINK,
        seed,
    };
    let script = window_script(&cfg);
    let adt = WindowArray::new(scenario::STREAMS, scenario::WINDOW_K);
    // decorrelate the network RNG from the workload RNG
    let net_seed = seed ^ 0x9E37_79B9_7F4A_7C15;
    let cluster: Cluster<WindowArray, R> = Cluster::new(PROCS, adt, LATENCY, net_seed);
    let res = cluster.run_faulted(script, scenario.faults());

    let verified = match scenario.mode {
        Mode::Causal => {
            verify_cc_execution(&adt, &res.history, &res.causal, &res.apply_orders, &res.own)
                .map_err(|e| format!("{e:?}"))
        }
        Mode::Convergent => {
            let arb = res
                .arbitration
                .clone()
                .ok_or_else(|| "arbitrated mode produced no arbitration".to_string());
            arb.and_then(|arb| {
                let total = res
                    .ccv_total(&arb)
                    .ok_or_else(|| "arbitration contradicts delivered-before".to_string())?;
                verify_ccv_execution(&adt, &res.history, &res.causal, &total, 1)
                    .map_err(|e| format!("{e:?}"))
            })
        }
    };

    let fingerprint = fingerprint(&res);
    let net = res.stats.net.clone();
    ScenarioOutcome {
        scenario,
        seed,
        verified,
        converged: res.stats.converged,
        convergence_time: res.stats.quiescent_at,
        makespan: res.stats.makespan,
        history_len: res.history.len(),
        msgs_sent: net.msgs_sent,
        bytes_sent: net.bytes_sent,
        msgs_dropped: net.msgs_dropped,
        msgs_duplicated: net.msgs_duplicated,
        msgs_parked: net.msgs_parked,
        dropped_per_node: net.dropped_per_node,
        incomplete_ops: res.stats.incomplete_ops,
        fingerprint,
    }
}

/// FNV-1a (the shared `cbm_history::Fnv`) over the observable run:
/// every history label, every per-replica apply order, and the
/// transport counters. Two runs of the same `(scenario, seed)` must
/// produce the same value.
fn fingerprint(res: &RunResult<WindowArray>) -> u64 {
    use std::hash::Hasher;
    let mut h = cbm_history::Fnv::default();
    for e in res.history.events() {
        h.write(format!("{:?}", res.history.label(e)).as_bytes());
    }
    for order in &res.apply_orders {
        for e in order {
            h.write(&e.0.to_le_bytes());
        }
        h.write(b"|");
    }
    let s = &res.stats;
    for v in [
        s.msgs_sent,
        s.bytes_sent,
        s.net.msgs_dropped,
        s.quiescent_at,
        s.makespan,
        s.converged as u64,
        s.net.msgs_delivered,
        s.net.msgs_duplicated,
        s.net.msgs_parked,
    ] {
        h.write(&v.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_net::fault::{FaultPlan, NamedPlan};

    fn scenario(name: &str, mode: Mode) -> Scenario {
        Scenario::by_name(name, mode).unwrap()
    }

    #[test]
    fn faultless_baseline_verifies_and_converges() {
        const BASELINE: NamedPlan = NamedPlan {
            name: "baseline",
            about: "no faults",
            build: |_, _| FaultPlan::new(),
        };
        let s = Scenario {
            plan: &BASELINE,
            mode: Mode::Convergent,
        };
        let o = run_scenario(&s, 3);
        assert_eq!(o.verified, Ok(()), "{:?}", o.failure());
        assert!(o.converged && s.expect_converge());
        assert_eq!(o.history_len, PROCS * scenario::OPS_PER_PROC);
        assert_eq!(o.incomplete_ops, 0, "wait-free modes never block");
    }

    #[test]
    fn outcomes_are_bit_identical_across_reruns() {
        let s = scenario("partition-while-writing", Mode::Convergent);
        let a = run_scenario(&s, 11);
        let b = run_scenario(&s, 11);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.msgs_sent, b.msgs_sent);
        assert_eq!(a.convergence_time, b.convergence_time);
    }

    #[test]
    fn different_seeds_differ() {
        let s = scenario("partition-while-writing", Mode::Convergent);
        let a = run_scenario(&s, 1);
        let b = run_scenario(&s, 2);
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn failure_reports_are_none_on_pass() {
        let o = run_scenario(&scenario("duplicate-burst", Mode::Convergent), 5);
        assert!(o.passes(), "{:?}", o.failure());
        assert!(o.failure().is_none());
    }
}
