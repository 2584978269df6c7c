//! The built-in scenario registry.
//!
//! Every scenario here is deterministic given a seed, survives its
//! fault plan with a verified history, and exercises a different
//! corner of the fault space. Times are simulated ticks; workloads
//! invoke for roughly 100–250 ticks (16 ops × think ≤ 12), so fault
//! windows in the 30–250 range overlap the write traffic.

use crate::scenario::{Flavour, Scenario};
use cbm_net::fault::{Fault, FaultPlan};

/// All built-in scenarios.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        partition_while_writing(),
        heal_and_converge(),
        asymmetric_partition(),
        flapping_links(),
        straggler_node(),
        duplicate_storm(),
        rolling_crashes(),
        skewed_clocks(),
        latency_spike(),
        lossy_mesh(),
    ]
}

/// Look a scenario up by registry name.
pub fn by_name(name: &str) -> Option<Scenario> {
    scenarios().into_iter().find(|s| s.name == name)
}

/// Cluster splits in half mid-write; the halves keep writing
/// independently, then the partition heals and parked traffic flows.
fn partition_while_writing() -> Scenario {
    let mut s = Scenario::base(
        "partition-while-writing",
        "split 2|2 during writes, heal before quiescence; CCv must converge",
        Flavour::Convergent,
    );
    s.faults = FaultPlan::new()
        .at(40, Fault::Partition { side: vec![0, 1] })
        .at(260, Fault::HealAll);
    s
}

/// Total partition for the whole write phase; convergence happens
/// entirely in the post-heal tail.
fn heal_and_converge() -> Scenario {
    let mut s = Scenario::base(
        "heal-and-converge",
        "full 1|3 outage across the write phase; all mixing happens after heal",
        Flavour::Convergent,
    );
    s.faults = FaultPlan::new()
        .at(1, Fault::Partition { side: vec![0] })
        .at(400, Fault::HealAll);
    s
}

/// One-directional outage: node 0's messages are blocked but it keeps
/// hearing the others.
fn asymmetric_partition() -> Scenario {
    let mut s = Scenario::base(
        "asymmetric-partition",
        "node 0's outbound blocked (inbound open), then healed",
        Flavour::Convergent,
    );
    s.faults = FaultPlan::new()
        .at(
            30,
            Fault::PartitionOneWay {
                from: vec![0],
                to: vec![1, 2, 3],
            },
        )
        .at(240, Fault::HealAll);
    s
}

/// A link that blocks and heals repeatedly.
fn flapping_links() -> Scenario {
    let mut s = Scenario::base(
        "flapping-links",
        "the 0↔1 link flaps every 30 ticks; CC safety under churn",
        Flavour::Causal,
    );
    let mut plan = FaultPlan::new();
    for i in 0..5u64 {
        let down = 20 + i * 60;
        let up = down + 30;
        plan.push(down, Fault::BlockLink { from: 0, to: 1 });
        plan.push(down, Fault::BlockLink { from: 1, to: 0 });
        plan.push(up, Fault::HealLink { from: 0, to: 1 });
        plan.push(up, Fault::HealLink { from: 1, to: 0 });
    }
    s.faults = plan;
    s
}

/// One node's links are an order of magnitude slower than the rest.
fn straggler_node() -> Scenario {
    let mut s = Scenario::base(
        "straggler-node",
        "node 3 is 10× slower both ways; CCv still converges",
        Flavour::Convergent,
    );
    let mut plan = FaultPlan::new();
    for p in 0..3 {
        plan.push(
            0,
            Fault::LinkDelay {
                from: p,
                to: 3,
                extra: 200,
            },
        );
        plan.push(
            0,
            Fault::LinkDelay {
                from: 3,
                to: p,
                extra: 200,
            },
        );
    }
    s.faults = plan;
    s
}

/// Every link duplicates most messages for a window; the causal
/// broadcast must deduplicate.
fn duplicate_storm() -> Scenario {
    let mut s = Scenario::base(
        "duplicate-storm",
        "80% duplication on every link during writes; dedup keeps CCv intact",
        Flavour::Convergent,
    );
    s.faults = FaultPlan::new()
        .at(0, Fault::DupAll { prob: 0.8 })
        .at(200, Fault::DupAll { prob: 0.0 });
    s
}

/// Nodes crash one after another and come back; messages missed while
/// down stay missed (crash-recovery without a log).
fn rolling_crashes() -> Scenario {
    let mut s = Scenario::base(
        "rolling-crashes",
        "nodes 1 then 2 crash and recover in turn; CC safety with lossy recovery",
        Flavour::Causal,
    );
    s.faults = FaultPlan::new()
        .at(50, Fault::Crash(1))
        .at(140, Fault::Recover(1))
        .at(160, Fault::Crash(2))
        .at(250, Fault::Recover(2));
    s
}

/// Two nodes run behind the cluster clock: everything they send
/// arrives late.
fn skewed_clocks() -> Scenario {
    let mut s = Scenario::base(
        "skewed-clocks",
        "nodes 0 and 2 skewed +40/+80 ticks; arbitration untangles the lag",
        Flavour::Convergent,
    );
    s.faults = FaultPlan::new()
        .at(
            0,
            Fault::ClockSkew {
                node: 0,
                offset: 40,
            },
        )
        .at(
            0,
            Fault::ClockSkew {
                node: 2,
                offset: 80,
            },
        )
        .at(300, Fault::ClockSkew { node: 0, offset: 0 })
        .at(300, Fault::ClockSkew { node: 2, offset: 0 });
    s
}

/// A global latency spike (every link degrades) that later clears.
fn latency_spike() -> Scenario {
    let mut s = Scenario::base(
        "latency-spike",
        "all links +150 ticks during the middle of the run, then normal",
        Flavour::Convergent,
    );
    s.faults = FaultPlan::new()
        .at(60, Fault::DelayAll { extra: 150 })
        .at(180, Fault::DelayAll { extra: 0 });
    s
}

/// Moderate random loss on every link: liveness degrades (gaps block
/// causal delivery) but safety must hold.
fn lossy_mesh() -> Scenario {
    let mut s = Scenario::base(
        "lossy-mesh",
        "15% loss on every link during writes; CC safety under loss",
        Flavour::Causal,
    );
    s.faults = FaultPlan::new()
        .at(0, Fault::DropAll { prob: 0.15 })
        .at(220, Fault::DropAll { prob: 0.0 });
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_net::latency::LatencyModel;

    #[test]
    fn registry_has_at_least_eight_distinct_scenarios() {
        let all = scenarios();
        assert!(all.len() >= 8, "only {} scenarios", all.len());
        let mut names: Vec<_> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate scenario names");
    }

    #[test]
    fn by_name_finds_every_entry() {
        for s in scenarios() {
            assert!(by_name(s.name).is_some(), "{} not found", s.name);
        }
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn fault_plans_stay_inside_the_cluster() {
        for s in scenarios() {
            assert_eq!(s.faults.check(s.procs), Ok(()), "{}", s.name);
        }
    }

    #[test]
    fn latency_models_are_positive() {
        for s in scenarios() {
            match s.latency {
                LatencyModel::Constant(d) => assert!(d > 0),
                LatencyModel::Uniform(lo, hi) => assert!(lo > 0 && hi >= lo),
                LatencyModel::HeavyTail { base, .. } => assert!(base > 0),
            }
        }
    }
}
