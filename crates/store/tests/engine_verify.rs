//! End-to-end engine runs: live threads, batched broadcast, sampled
//! window verification, deterministic message accounting.

use cbm_adt::counter::{Counter, CtInput};
use cbm_adt::register::{RegInput, RegOutput, Register};
use cbm_adt::space::SpaceInput;
use cbm_adt::{Adt, OpKind};
use cbm_net::fault::FaultPlan;
use cbm_store::{
    run, run_tcp, BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig,
    StoreReport, VerifyConfig,
};
use rand::rngs::StdRng;
use rand::Rng;

fn reg_gen(
    objects: u32,
    read_ratio: f64,
) -> impl Fn(usize, u64, &mut StdRng) -> SpaceInput<RegInput> + Sync {
    move |_, _, rng| {
        let obj = rng.gen_range(0u32..objects);
        if rng.gen_bool(read_ratio) {
            SpaceInput::new(obj, RegInput::Read)
        } else {
            SpaceInput::new(obj, RegInput::Write(rng.gen_range(1u64..1000)))
        }
    }
}

fn small_cfg(mode: Mode, batch: BatchPolicy) -> StoreConfig {
    StoreConfig {
        workers: 4,
        objects: 32,
        ops_per_worker: 3_000,
        mode,
        batch,
        verify: VerifyConfig {
            every_ops: 1_000,
            window_ops: 24,
            sample_every: 1,
            monitor: false,
        },
        seed: 11,
        sharding: ShardConfig::full(),
        chaos: FaultPlan::new(),
        obs: ObsConfig::default(),
        durable: DurableConfig::default(),
    }
}

fn assert_healthy(r: &StoreReport) {
    assert_eq!(r.total_ops, r.config.total_ops());
    assert!(!r.windows.is_empty(), "sampling produced no windows");
    for w in &r.windows {
        assert!(
            w.result.is_ok(),
            "window {} failed: {:?}",
            w.window,
            w.result
        );
        assert!(w.events > 0);
    }
    assert!(r.verified());
    assert!(r.latency.count == r.total_ops);
}

#[test]
fn causal_mode_verifies_cc_windows() {
    let cfg = small_cfg(Mode::Causal, BatchPolicy::Every(8));
    let r = run(&Register, &cfg, reg_gen(32, 0.5));
    assert_healthy(&r);
    assert!(r.windows.iter().all(|w| w.criterion == "CC"));
    // 2 interior rendezvous (k = 1000, 2000) -> 2 windows
    assert_eq!(r.windows.len(), 2);
    // message fan-out: every batch goes to n-1 peers
    assert_eq!(r.msgs_sent, r.batches_sent * 3);
    assert!(r.bytes_sent > 0);
    assert!(r.mean_batch > 4.0, "mean batch {}", r.mean_batch);
}

#[test]
fn convergent_mode_verifies_ccv_windows_and_converges() {
    let cfg = small_cfg(Mode::Convergent, BatchPolicy::Every(8));
    let r = run(&Register, &cfg, reg_gen(32, 0.5));
    assert_healthy(&r);
    assert!(r.windows.iter().all(|w| w.criterion == "CCv"));
    assert!(r.drains_converged);
}

#[test]
fn convergent_mode_with_counter_updates() {
    // commutative updates: convergence must also hold
    let cfg = small_cfg(Mode::Convergent, BatchPolicy::Every(4));
    let r = run(&Counter, &cfg, |_, _, rng: &mut StdRng| {
        let obj = rng.gen_range(0u32..16);
        if rng.gen_bool(0.4) {
            SpaceInput::new(obj, CtInput::Read)
        } else {
            SpaceInput::new(obj, CtInput::Add(rng.gen_range(1i64..5)))
        }
    });
    assert_healthy(&r);
}

#[test]
fn batching_cuts_messages_at_least_5x() {
    let on = run(
        &Register,
        &small_cfg(Mode::Causal, BatchPolicy::Every(16)),
        reg_gen(32, 0.5),
    );
    let off = run(
        &Register,
        &small_cfg(Mode::Causal, BatchPolicy::Off),
        reg_gen(32, 0.5),
    );
    assert_healthy(&on);
    assert_healthy(&off);
    // same seed => same update stream => same payload counts
    assert_eq!(on.payloads_sent, off.payloads_sent);
    assert!(
        off.msgs_sent >= 5 * on.msgs_sent,
        "batching cut only {}x ({} vs {})",
        off.msgs_sent as f64 / on.msgs_sent as f64,
        off.msgs_sent,
        on.msgs_sent
    );
    assert!((off.mean_batch - 1.0).abs() < f64::EPSILON);
}

#[test]
fn message_counts_are_deterministic_across_runs() {
    let cfg = small_cfg(Mode::Causal, BatchPolicy::Every(8));
    let a = run(&Register, &cfg, reg_gen(32, 0.5));
    let b = run(&Register, &cfg, reg_gen(32, 0.5));
    assert_eq!(a.msgs_sent, b.msgs_sent);
    // bytes_sent is interleaving-dependent (delta-encoded knowledge
    // headers size by what changed per edge) and deliberately not part
    // of the deterministic contract — see docs/SHARDING.md
    assert_eq!(a.batches_sent, b.batches_sent);
    assert_eq!(a.payloads_sent, b.payloads_sent);
    assert_eq!(a.windows.len(), b.windows.len());
    for (x, y) in a.per_worker.iter().zip(&b.per_worker) {
        assert_eq!(x.updates, y.updates);
        assert_eq!(x.batches_sent, y.batches_sent);
    }
}

#[test]
fn single_worker_degenerates_gracefully() {
    let cfg = StoreConfig {
        workers: 1,
        objects: 8,
        ops_per_worker: 500,
        mode: Mode::Causal,
        batch: BatchPolicy::Every(8),
        verify: VerifyConfig {
            every_ops: 200,
            window_ops: 16,
            sample_every: 1,
            monitor: false,
        },
        seed: 3,
        sharding: ShardConfig::full(),
        chaos: FaultPlan::new(),
        obs: ObsConfig::default(),
        durable: DurableConfig::default(),
    };
    let r = run(&Register, &cfg, reg_gen(8, 0.5));
    assert_healthy(&r);
    assert_eq!(r.msgs_sent, 0, "no peers, no messages");
}

#[test]
fn sampling_disabled_still_completes() {
    let cfg = StoreConfig {
        workers: 3,
        objects: 16,
        ops_per_worker: 1_000,
        mode: Mode::Causal,
        batch: BatchPolicy::Every(8),
        verify: VerifyConfig {
            every_ops: 0,
            window_ops: 16,
            sample_every: 1,
            monitor: false,
        },
        seed: 5,
        sharding: ShardConfig::full(),
        chaos: FaultPlan::new(),
        obs: ObsConfig::default(),
        durable: DurableConfig::default(),
    };
    let r = run(&Register, &cfg, reg_gen(16, 0.5));
    assert_eq!(r.total_ops, 3_000);
    assert!(r.windows.is_empty());
    assert!(r.verified());
}

fn sharded_cfg(mode: Mode, rf: usize) -> StoreConfig {
    StoreConfig {
        sharding: ShardConfig::rf(rf),
        ..small_cfg(mode, BatchPolicy::Every(8))
    }
}

/// Health check for partially replicated runs: every sampled window
/// splits per shard, every split verifies, and every shard shows up.
fn assert_sharded_healthy(r: &StoreReport, shards: usize) {
    assert_eq!(r.total_ops, r.config.total_ops());
    assert!(!r.windows.is_empty(), "sampling produced no windows");
    for w in &r.windows {
        assert!(
            w.result.is_ok(),
            "window {} shard {:?} failed: {:?}",
            w.window,
            w.shard,
            w.result
        );
        assert!(w.shard.is_some(), "partial replication verifies per shard");
    }
    for s in 0..shards {
        assert!(
            r.windows.iter().any(|w| w.shard == Some(s as u32)),
            "shard {s} never verified"
        );
    }
    assert!(r.verified());
    assert!(r.latency.count == r.total_ops);
}

#[test]
fn rf2_verifies_per_shard_windows_and_routes_reads() {
    let r = run(&Register, &sharded_cfg(Mode::Causal, 2), reg_gen(32, 0.5));
    assert_sharded_healthy(&r, 4);
    assert!(
        r.remote_reads > 0,
        "half the objects are non-hosted: reads must route"
    );
    let served: u64 = r.per_worker.iter().map(|w| w.reads_served).sum();
    assert_eq!(served, r.remote_reads, "every routed read was answered");
    // updates always executed at replicas: every worker's updates ran
    // locally, so payload counts match the update counts
    let updates: u64 = r.per_worker.iter().map(|w| w.updates).sum();
    assert!(r.payloads_sent <= updates);
}

#[test]
fn rf2_cuts_replication_traffic_vs_full() {
    // update-only workload isolates the multicast fan-out: at rf 2 of
    // 4 workers each batch goes to 1 peer instead of 3
    let full = run(&Register, &sharded_cfg(Mode::Causal, 0), reg_gen(32, 0.0));
    let rf2 = run(&Register, &sharded_cfg(Mode::Causal, 2), reg_gen(32, 0.0));
    assert_healthy(&full);
    assert_sharded_healthy(&rf2, 4);
    assert_eq!(rf2.remote_reads, 0, "no reads in this workload");
    assert!(
        rf2.msgs_sent * 2 <= full.msgs_sent,
        "rf=2/4 workers must at least halve messages ({} vs {})",
        rf2.msgs_sent,
        full.msgs_sent
    );
    assert!(rf2.bytes_sent * 2 <= full.bytes_sent);
}

#[test]
fn rf1_replicates_nothing_and_still_serves_reads() {
    let r = run(&Register, &sharded_cfg(Mode::Causal, 1), reg_gen(32, 0.5));
    assert_sharded_healthy(&r, 4);
    assert_eq!(r.batches_sent, 0, "single replicas have no peers");
    assert!(r.remote_reads > 0);
    // the only traffic is read request/reply pairs
    assert_eq!(r.msgs_sent, 2 * r.remote_reads);
}

/// Eight single-replica workers that only read, with a drain every 16
/// ops: seven reads in eight are routed, so drains open while other
/// workers still have reads in flight. A waiting reader and a waiting
/// rendezvous both spin serving their inbox; neither may starve the
/// other, on either transport.
#[test]
fn routed_reads_and_drains_spin_without_starving_each_other() {
    let cfg = StoreConfig {
        workers: 8,
        ops_per_worker: 2_000,
        verify: VerifyConfig {
            every_ops: 16,
            window_ops: 4,
            sample_every: 1,
            monitor: false,
        },
        ..sharded_cfg(Mode::Causal, 1)
    };
    for r in [
        run(&Register, &cfg, reg_gen(32, 1.0)),
        run_tcp(&Register, &cfg, reg_gen(32, 1.0)),
    ] {
        assert_sharded_healthy(&r, 8);
        assert!(r.remote_reads > r.total_ops / 2, "{}", r.remote_reads);
        let served: u64 = r.per_worker.iter().map(|w| w.reads_served).sum();
        assert_eq!(served, r.remote_reads, "every routed read was answered");
        assert_eq!(r.msgs_sent, 2 * r.remote_reads);
    }
}

#[test]
fn convergent_rf2_converges_per_shard() {
    let r = run(
        &Register,
        &sharded_cfg(Mode::Convergent, 2),
        reg_gen(32, 0.5),
    );
    assert_sharded_healthy(&r, 4);
    assert!(r.drains_converged, "shard replicas must agree at drains");
    assert!(r.windows.iter().all(|w| w.criterion == "CCv"));
}

#[test]
fn sharded_counts_are_deterministic_across_runs() {
    let cfg = sharded_cfg(Mode::Causal, 2);
    let a = run(&Register, &cfg, reg_gen(32, 0.5));
    let b = run(&Register, &cfg, reg_gen(32, 0.5));
    assert_eq!(a.msgs_sent, b.msgs_sent);
    // bytes_sent deliberately uncompared: delta headers are
    // interleaving-dependent (see docs/SHARDING.md)
    assert_eq!(a.batches_sent, b.batches_sent);
    assert_eq!(a.payloads_sent, b.payloads_sent);
    assert_eq!(a.remote_reads, b.remote_reads);
    assert_eq!(a.windows.len(), b.windows.len());
    for (x, y) in a.per_worker.iter().zip(&b.per_worker) {
        assert_eq!(x.updates, y.updates);
        assert_eq!(x.remote_reads, y.remote_reads);
        assert_eq!(x.batches_sent, y.batches_sent);
    }
}

#[test]
fn placement_seed_moves_traffic_but_keeps_verification() {
    let mut cfg = sharded_cfg(Mode::Causal, 2);
    cfg.sharding.placement_seed = 1;
    let a = run(&Register, &cfg, reg_gen(32, 0.5));
    cfg.sharding.placement_seed = 99;
    let b = run(&Register, &cfg, reg_gen(32, 0.5));
    assert_sharded_healthy(&a, 4);
    assert_sharded_healthy(&b, 4);
}

#[test]
fn read_heavy_workloads_send_fewer_payloads() {
    let mostly_reads = run(
        &Register,
        &small_cfg(Mode::Causal, BatchPolicy::Every(8)),
        reg_gen(32, 0.9),
    );
    let mostly_writes = run(
        &Register,
        &small_cfg(Mode::Causal, BatchPolicy::Every(8)),
        reg_gen(32, 0.1),
    );
    assert_healthy(&mostly_reads);
    assert_healthy(&mostly_writes);
    assert!(mostly_reads.payloads_sent < mostly_writes.payloads_sent / 4);
    let rw: u64 = mostly_reads.per_worker.iter().map(|w| w.reads).sum();
    assert!(rw > mostly_reads.total_ops * 8 / 10);
}

thread_local! {
    /// The worker whose thread this is, set by [`skewed_writes`] before
    /// each op it generates.
    static WORKER: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// A register whose transition is wrong on worker 1's thread only: a
/// write there stores one more than it was told. Every write still
/// answers `Ack`, so no recorded output can show it; only the replicas'
/// states disagree.
#[derive(Debug, Clone)]
struct SkewedAtWorker1;

impl Adt for SkewedAtWorker1 {
    type Input = RegInput;
    type Output = RegOutput;
    type State = u64;

    fn initial(&self) -> u64 {
        Register.initial()
    }
    fn transition(&self, q: &u64, i: &RegInput) -> u64 {
        match i {
            RegInput::Write(v) if WORKER.get() == 1 => v + 1,
            _ => Register.transition(q, i),
        }
    }
    fn output(&self, q: &u64, i: &RegInput) -> RegOutput {
        Register.output(q, i)
    }
    fn kind(&self, i: &RegInput) -> OpKind {
        Register.kind(i)
    }
    fn overwrites(&self, i: &RegInput) -> bool {
        Register.overwrites(i)
    }
}

/// Writes only, each tagging the generating thread with its worker.
fn skewed_writes(w: usize, _: u64, rng: &mut StdRng) -> SpaceInput<RegInput> {
    WORKER.set(w);
    let obj = rng.gen_range(0u32..32);
    SpaceInput::new(obj, RegInput::Write(rng.gen_range(1u64..1000)))
}

/// The drain's convergence check is the one divergence detector: two
/// live replicas of a shard that disagree at a convergent drain fail
/// the run, though every window verifies (a write's output is `Ack`
/// whatever state it leaves).
#[test]
fn live_replicas_that_disagree_at_a_convergent_drain_fail_the_run() {
    let cfg = sharded_cfg(Mode::Convergent, 2);
    let healthy = run(&Register, &cfg, skewed_writes);
    assert_sharded_healthy(&healthy, 4);
    assert!(healthy.drains_converged);

    let r = run(&SkewedAtWorker1, &cfg, skewed_writes);
    assert!(!r.windows.is_empty());
    assert!(r.windows.iter().all(|w| w.result.is_ok()));
    assert!(
        !r.drains_converged,
        "worker 1 disagrees with its co-replicas"
    );
    assert!(!r.verified());
}
