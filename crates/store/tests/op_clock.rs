//! What `Worker::step` stopped paying for, seen from outside the
//! engine: the op clock times one op per 64-op block and the latency
//! histogram still counts every op; the fault layer's clock is one
//! compare on a quiet tick and still current when a fault arms late.
//! (Which ops are timed, and that the choice is not phase-locked to a
//! flush cadence, is pinned on the sampler itself in
//! `engine/sampler.rs`.)

use cbm_adt::counter::{Counter, CtInput};
use cbm_adt::register::{RegInput, Register};
use cbm_adt::space::SpaceInput;
use cbm_net::chaos::ChaosEventKind;
use cbm_net::fault::{Fault, FaultPlan};
use cbm_obs::SpanKind;
use cbm_store::{
    run, BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, VerifyConfig,
};
use rand::Rng;
use std::collections::BTreeSet;

fn cfg(ops: usize, every: usize, sharding: ShardConfig, chaos: FaultPlan) -> StoreConfig {
    StoreConfig {
        workers: 4,
        objects: 64,
        ops_per_worker: ops,
        mode: Mode::Causal,
        batch: BatchPolicy::Every(32),
        verify: VerifyConfig {
            every_ops: every,
            window_ops: 0,
            sample_every: 1,
            monitor: false,
        },
        seed: 5,
        sharding,
        chaos,
        obs: ObsConfig::default(),
        durable: DurableConfig::default(),
    }
}

/// Epochs that cut sampling blocks anywhere, a script that ends inside
/// one, and routed reads entered one by one between the weighted
/// entries: `count` is the ops, per worker and merged.
#[test]
fn latency_count_is_total_ops_through_the_weights() {
    for (ops, every, sharding) in [
        (3 * 777 + 5, 777, ShardConfig::full()),
        (4 * 1_000 + 63, 1_000, ShardConfig::rf(2)),
        (3, 64, ShardConfig::full()),
    ] {
        let c = cfg(ops, every, sharding, FaultPlan::new());
        let r = run(&Register, &c, |_, _, rng| {
            let obj = rng.gen_range(0u32..64);
            if rng.gen_bool(0.5) {
                SpaceInput::new(obj, RegInput::Read)
            } else {
                SpaceInput::new(obj, RegInput::Write(rng.gen_range(1u64..1_000)))
            }
        });
        assert!(r.verified());
        assert_eq!(r.total_ops, 4 * ops as u64);
        assert_eq!(r.latency.count, r.total_ops, "{ops} ops/worker");
        assert_eq!(r.metric("op_latency_ns.count"), Some(r.total_ops));
        for w in &r.per_worker {
            assert_eq!(w.latency.count, w.ops, "worker {}", w.worker);
        }
        if c.sharding != ShardConfig::full() {
            assert!(r.remote_reads > 0, "the rf-2 leg routes reads");
        }
    }
}

/// 100% updates under `Every(32)`: one op in 32 carries a flush. The
/// sampled clock must see those in proportion, or `op_p99` loses the
/// flush tail it exists to show.
#[test]
fn the_sampled_p99_still_sees_the_flush_tail() {
    let c = cfg(64 * 1_500, 64 * 500, ShardConfig::full(), FaultPlan::new());
    let r = run(&Counter, &c, |_, _, rng| {
        SpaceInput::new(rng.gen_range(0u32..64), CtInput::Add(1))
    });
    assert_eq!(r.latency.count, r.total_ops);
    assert!(
        r.latency.p99_ns >= 2 * r.latency.p50_ns,
        "p50 {} ns, p99 {} ns: the flushing ops are missing from the sample",
        r.latency.p50_ns,
        r.latency.p99_ns
    );
}

/// A latency fault that arms after more than 10⁴ ticks on which the
/// fault layer had nothing to do: every send it holds back is stamped
/// with the tick of that send. (A clock that was skipped instead of
/// compared would stamp them all with the last tick it ran on.)
#[test]
fn a_latency_fault_arming_after_quiet_ticks_sees_the_current_tick() {
    const EVERY: u64 = 8_192;
    const ARMS: u64 = 10_001;
    let plan = FaultPlan::new().at(ARMS, Fault::DelayAll { extra: 5 });
    let c = cfg(
        2 * EVERY as usize,
        EVERY as usize,
        ShardConfig::full(),
        plan,
    );
    let r = run(&Counter, &c, |_, _, rng| {
        SpaceInput::new(rng.gen_range(0u32..64), CtInput::Add(1))
    });
    assert!(r.verified());
    // op i runs on tick i + 1 and every 32nd op flushes to 3 peers
    let flush_ticks: BTreeSet<u64> = (1..=2 * EVERY)
        .filter(|t| t % 32 == 0 && *t > ARMS)
        .collect();
    assert_eq!(r.chaos.delayed, 4 * 3 * flush_ticks.len() as u64);
    let trace = r.trace.expect("chaos runs fly the recorder");
    for worker in 0..4 {
        let delays: Vec<u64> = trace
            .spans
            .iter()
            .filter(|s| {
                s.kind == SpanKind::Fault
                    && s.worker == worker
                    && s.a == ChaosEventKind::Delay.code()
            })
            .map(|s| s.logical)
            .collect();
        assert_eq!(delays.len(), 3 * flush_ticks.len(), "worker {worker}");
        assert_eq!(
            delays.iter().copied().collect::<BTreeSet<u64>>(),
            flush_ticks,
            "worker {worker}: hold-backs stamped off the send's tick"
        );
    }
}
