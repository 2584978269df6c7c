//! The determinism contract over real sockets: for a given
//! `(StoreConfig, seed)`, [`cbm_store::run_tcp`] must reproduce the
//! deterministic report columns of [`cbm_store::run`] **exactly** —
//! same messages, same batches, same payloads, same monitor verdicts.
//! This is what lets one committed `--gate` baseline file gate both
//! transports (docs/DEPLOYMENT.md).

use cbm_adt::counter::{Counter, CtInput};
use cbm_adt::register::{RegInput, Register};
use cbm_adt::space::SpaceInput;
use cbm_net::fault::FaultPlan;
use cbm_store::{
    run, run_tcp, BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig,
    StoreReport, VerifyConfig,
};
use rand::Rng;

fn cfg(workers: usize, mode: Mode) -> StoreConfig {
    StoreConfig {
        workers,
        objects: 16,
        ops_per_worker: 600,
        mode,
        batch: BatchPolicy::Every(4),
        verify: VerifyConfig {
            every_ops: 200,
            window_ops: 24,
            sample_every: 1,
            monitor: true,
        },
        seed: 0xC0FFEE,
        sharding: ShardConfig::full(),
        chaos: FaultPlan::new(),
        obs: ObsConfig::default(),
        durable: DurableConfig::default(),
    }
}

/// The columns the `--gate` contract pins: everything that is a pure
/// function of `(config, seed)` — deliberately excluding wall-clock
/// derived fields and `bytes_sent` (a declared estimate that stays
/// transport-independent by construction, asserted separately).
fn deterministic_columns(r: &StoreReport) -> (u64, u64, u64, f64, u64, usize, usize, bool) {
    (
        r.msgs_sent,
        r.batches_sent,
        r.payloads_sent,
        r.mean_batch,
        r.remote_reads,
        r.windows.len(),
        r.windows_failed,
        r.drains_converged,
    )
}

fn register_gen(
    objects: u32,
) -> impl Fn(usize, u64, &mut rand::rngs::StdRng) -> SpaceInput<RegInput> + Clone + Sync {
    move |_, _, rng| {
        let obj = rng.gen_range(0u32..objects);
        if rng.gen_bool(0.5) {
            SpaceInput::new(obj, RegInput::Read)
        } else {
            SpaceInput::new(obj, RegInput::Write(rng.gen_range(1u64..1_000_000)))
        }
    }
}

#[test]
fn tcp_reproduces_thread_net_columns_register_cc() {
    let c = cfg(3, Mode::Causal);
    let a = run(&Register, &c, register_gen(16));
    let b = run_tcp(&Register, &c, register_gen(16));
    assert!(a.verified(), "{:?}", a.windows);
    assert!(b.verified(), "{:?}", b.windows);
    assert_eq!(deterministic_columns(&a), deterministic_columns(&b));
    // bytes_sent is deliberately NOT asserted: the declared batch size
    // includes the delta-encoded knowledge header, a function of
    // delivery interleaving — the one column the gate also excludes.
    // Ditto final_state_hashes in CC mode: concurrent writes apply in
    // delivery order, so the final register values are a function of
    // the interleaving (the CCv test asserts them instead).
    assert_eq!(a.monitor.ops_checked, b.monitor.ops_checked);
    assert_eq!(a.monitor.folds, b.monitor.folds);
    assert_eq!(a.monitor.violations, b.monitor.violations);
}

#[test]
fn tcp_reproduces_thread_net_columns_counter_ccv() {
    let c = cfg(4, Mode::Convergent);
    let gen = |_: usize, _: u64, rng: &mut rand::rngs::StdRng| {
        let obj = rng.gen_range(0u32..16);
        if rng.gen_bool(0.3) {
            SpaceInput::new(obj, CtInput::Read)
        } else {
            SpaceInput::new(obj, CtInput::Add(rng.gen_range(1i64..1_000)))
        }
    };
    let a = run(&Counter, &c, gen);
    let b = run_tcp(&Counter, &c, gen);
    assert!(a.verified(), "{:?}", a.windows);
    assert!(b.verified(), "{:?}", b.windows);
    assert_eq!(deterministic_columns(&a), deterministic_columns(&b));
    assert_eq!(a.final_state_hashes, b.final_state_hashes);
}

#[test]
fn tcp_runs_partial_replication_with_routed_reads() {
    let mut c = cfg(4, Mode::Causal);
    c.sharding = ShardConfig::rf(2);
    let a = run(&Register, &c, register_gen(16));
    let b = run_tcp(&Register, &c, register_gen(16));
    assert!(b.verified(), "{:?}", b.windows);
    assert!(b.remote_reads > 0, "rf=2 must route some reads over TCP");
    assert_eq!(deterministic_columns(&a), deterministic_columns(&b));
}

#[test]
fn tcp_survives_a_chaos_profile_identically() {
    // One fault profile over real sockets: the chaos layer sits above
    // the transport, so the deterministic columns and the repair
    // counters must match ThreadNet exactly.
    let mut c = cfg(3, Mode::Causal);
    let lossy = cbm_net::fault::named("lossy-mesh").expect("a catalogue plan");
    c.chaos = (lossy.build)(c.workers, c.verify.every_ops as u64);
    let a = run(&Register, &c, register_gen(16));
    let b = run_tcp(&Register, &c, register_gen(16));
    assert!(b.verified(), "{:?}", b.windows);
    assert_eq!(deterministic_columns(&a), deterministic_columns(&b));
    assert_eq!(a.chaos.drops, b.chaos.drops);
    assert_eq!(a.chaos.nacks, b.chaos.nacks);
    assert_eq!(a.chaos.repairs, b.chaos.repairs);
}

fn metric(r: &StoreReport, name: &str) -> u64 {
    r.metric(name)
        .unwrap_or_else(|| panic!("metric {name} not in snapshot"))
}

#[test]
fn tcp_transport_counters_show_coalescing_and_a_clean_run() {
    // One envelope per update: the workers out-produce their writer
    // threads, so a pass regularly finds several frames for one peer
    // and carries them in a single write.
    let mut c = cfg(4, Mode::Causal);
    c.ops_per_worker = 20_000;
    c.batch = BatchPolicy::Every(1);
    c.verify.every_ops = 5_000;
    c.verify.monitor = false;
    let r = run_tcp(&Register, &c, register_gen(16));
    assert!(r.verified(), "{:?}", r.windows);
    let frames = metric(&r, "tcp_frames_written_total");
    let syscalls = metric(&r, "tcp_write_syscalls_total");
    // every counted message crossed a socket, plus the uncounted
    // flush markers
    assert!(
        frames > r.msgs_sent,
        "{frames} frames, {} msgs",
        r.msgs_sent
    );
    assert!(
        frames > syscalls,
        "{frames} frames took {syscalls} writes: nothing coalesced"
    );
    assert_eq!(metric(&r, "tcp_frames_rejected_total"), 0);
    assert!(metric(&r, "tcp_backlog_peak_bytes") > 0);
    // present (and usually zero at this size): looked up by name
    let _ = metric(&r, "tcp_backpressure_waits_total");

    // the in-process transport publishes none of them
    let t = run(&Register, &c, register_gen(16));
    assert!(!t.metrics.iter().any(|(n, _)| n.starts_with("tcp_")));
}
