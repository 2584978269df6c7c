//! Durable epoch log: disk-first crash recovery, cold fleet restart,
//! and corruption hardening (`docs/DURABILITY.md`).
//!
//! Three properties ride on the chaos twin contract:
//!
//! * **disk recovery** — a crashed worker that replays its own
//!   snapshot + log tail and fetches only the post-cut delta from its
//!   co-replicas converges to the same final object space as the
//!   fault-free run of the same seed;
//! * **cold restart** — halting the whole fleet at a sealed boundary
//!   and resuming every worker from disk ends byte-identical (state
//!   hashes *and* monitor totals) to the uninterrupted twin;
//! * **corruption** — truncating or flipping bytes anywhere in a
//!   recorded log makes `durable::recover` fall back to an earlier
//!   seal or fail with a typed error; it never panics and never
//!   returns a state that disagrees with its seal.

use cbm_adt::counter::{Counter, CtInput};
use cbm_adt::register::{RegInput, Register};
use cbm_adt::space::SpaceInput;
use cbm_net::fault::{Fault, FaultPlan};
use cbm_store::durable::{self, LogError};
use cbm_store::{
    run, BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, StoreReport,
    VerifyConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const EVERY: usize = 80;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Fresh scratch directory per call: proptest cases and parallel test
/// threads must never share a log directory.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cbm-durable-it-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_cfg(dir: &Path, snapshot_every: u64) -> DurableConfig {
    DurableConfig {
        log_dir: Some(dir.to_string_lossy().into_owned()),
        snapshot_every,
        recover_from_disk: true,
        resume: false,
        halt_at_boundary: 0,
    }
}

fn cfg(mode: Mode, workers: usize, ops: usize, seed: u64, chaos: FaultPlan) -> StoreConfig {
    StoreConfig {
        workers,
        objects: 16,
        ops_per_worker: ops,
        mode,
        batch: BatchPolicy::Every(4),
        verify: VerifyConfig {
            every_ops: EVERY,
            window_ops: 12,
            sample_every: 1,
            monitor: false,
        },
        seed,
        sharding: ShardConfig::full(),
        chaos,
        obs: ObsConfig::default(),
        durable: DurableConfig::default(),
    }
}

fn counter_gen(objects: u32) -> impl Fn(usize, u64, &mut StdRng) -> SpaceInput<CtInput> + Sync {
    move |_, _, rng| {
        let obj = rng.gen_range(0u32..objects);
        if rng.gen_bool(0.3) {
            SpaceInput::new(obj, CtInput::Read)
        } else {
            SpaceInput::new(obj, CtInput::Add(rng.gen_range(1i64..100)))
        }
    }
}

/// Register writes with values that are unique with high probability,
/// so two writes to one object leave different states in either order.
fn register_gen(objects: u32) -> impl Fn(usize, u64, &mut StdRng) -> SpaceInput<RegInput> + Sync {
    move |_, _, rng| {
        let obj = rng.gen_range(0u32..objects);
        if rng.gen_bool(0.3) {
            SpaceInput::new(obj, RegInput::Read)
        } else {
            SpaceInput::new(obj, RegInput::Write(rng.gen_range(1u64..1 << 40)))
        }
    }
}

fn assert_windows_ok(r: &StoreReport) {
    assert!(!r.windows.is_empty(), "no verification windows sampled");
    for w in &r.windows {
        assert!(
            w.result.is_ok(),
            "window {} [{}] failed: {:?}",
            w.window,
            w.criterion,
            w.result
        );
    }
    assert!(r.verified());
}

fn assert_same_final_state(a: &StoreReport, b: &StoreReport, what: &str) {
    let h = a.final_state_hashes[0];
    assert!(
        a.final_state_hashes.iter().all(|&x| x == h),
        "{what}: replicas diverged: {:?}",
        a.final_state_hashes
    );
    assert!(
        b.final_state_hashes.iter().all(|&x| x == h),
        "{what}: twin disagrees: {:?} vs {h:#x}",
        b.final_state_hashes
    );
}

/// Crash `victim` at `crash_e`, recover it at `recover_e` *from its
/// own disk* (rung 1 of the ladder) plus the co-replica delta (rung
/// 2), and require convergence with the fault-free in-memory twin.
fn check_disk_recovery(mode: Mode, victim: usize, crash_e: u64, recover_e: u64, seed: u64) {
    let dir = tmpdir("crash");
    let ops = 4 * EVERY;
    let plan = FaultPlan::new()
        .at(crash_e * EVERY as u64, Fault::Crash(victim))
        .at(recover_e * EVERY as u64, Fault::Recover(victim));
    let mut chaos_cfg = cfg(mode, 3, ops, seed, plan);
    // snapshot_every = 0: never compact, so the victim's replay always
    // walks log records and the replayed_records assertion is exact
    chaos_cfg.durable = durable_cfg(&dir, 0);
    let chaos = run(&Counter, &chaos_cfg, counter_gen(16));
    let free = run(
        &Counter,
        &cfg(mode, 3, ops, seed, FaultPlan::new()),
        counter_gen(16),
    );

    assert_eq!(chaos.total_ops, free.total_ops, "script must resume fully");
    assert_same_final_state(&chaos, &free, "disk-recovery");
    assert_windows_ok(&chaos);
    assert_windows_ok(&free);

    assert_eq!(chaos.chaos.recoveries.len(), 1);
    let rec = &chaos.chaos.recoveries[0];
    assert_eq!(rec.worker, victim);
    assert_eq!((rec.crash_epoch, rec.recover_epoch), (crash_e, recover_e));
    assert!(
        rec.replayed_records > 0,
        "disk replay must reconstruct the crash cut, not the helpers"
    );
    assert!(rec.log_bytes > 0, "the victim's log was non-empty");
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// The tentpole property: restart-from-disk converges to the
    /// fault-free twin across random cuts, seeds, and both modes.
    #[test]
    fn disk_recovery_matches_fault_free_run(
        crash_e in 1u64..=2,
        extra in 1u64..=2,
        seed in 0u64..1_000,
        convergent in proptest::bool::ANY,
    ) {
        let mode = if convergent { Mode::Convergent } else { Mode::Causal };
        check_disk_recovery(mode, 2, crash_e, crash_e + extra, seed);
    }
}

/// Counter adds commute, so the legs above would pass a replay that
/// put a delivered batch anywhere among the victim's own updates.
/// Register writes do not: a batch replayed at any other position than
/// the one it was applied at leaves a state the seal's hash rejects,
/// and the victim would fall through to the full transfer with no
/// records replayed. Causal mode, where the apply order alone decides
/// each replica's state.
#[test]
fn register_disk_recovery_replays_the_apply_order() {
    let e = EVERY as u64;
    for seed in [4, 21] {
        let dir = tmpdir("register");
        let plan = FaultPlan::new()
            .at(2 * e, Fault::Crash(2))
            .at(3 * e, Fault::Recover(2));
        let mut c = cfg(Mode::Causal, 3, 4 * EVERY, seed, plan);
        c.durable = durable_cfg(&dir, 0);
        let r = run(&Register, &c, register_gen(16));
        assert_eq!(r.total_ops, 3 * 4 * EVERY as u64, "seed {seed}");
        assert_windows_ok(&r);
        assert_eq!(r.chaos.recoveries.len(), 1, "seed {seed}");
        let rec = &r.chaos.recoveries[0];
        assert_eq!((rec.worker, rec.crash_epoch), (2, 2), "seed {seed}");
        assert!(
            rec.replayed_records > 0 && rec.log_bytes > 0,
            "seed {seed}: the replay must land on the crash cut (rung 1 or 2): {rec:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Rolling disk recoveries with live compaction: snapshots truncate
/// the log prefix mid-run, and the disk columns (`log_bytes`,
/// `replayed_records`) are deterministic across identical runs.
#[test]
fn rolling_disk_recoveries_with_snapshots_are_deterministic() {
    let e = EVERY as u64;
    let plan = FaultPlan::new()
        .at(e, Fault::Crash(2))
        .at(2 * e, Fault::Recover(2))
        .at(2 * e, Fault::Crash(1))
        .at(3 * e, Fault::Recover(1));
    let make = |dir: &Path| {
        let mut c = cfg(Mode::Convergent, 3, 4 * EVERY, 9, plan.clone());
        c.durable = durable_cfg(dir, 2);
        run(&Counter, &c, counter_gen(16))
    };
    let (da, db) = (tmpdir("rolla"), tmpdir("rollb"));
    let a = make(&da);
    let b = make(&db);
    let free = run(
        &Counter,
        &cfg(Mode::Convergent, 3, 4 * EVERY, 9, FaultPlan::new()),
        counter_gen(16),
    );
    assert_same_final_state(&a, &free, "rolling-disk");
    assert_windows_ok(&a);
    assert_eq!(a.chaos.recoveries.len(), 2);
    assert_eq!(b.chaos.recoveries.len(), 2);
    for (x, y) in a.chaos.recoveries.iter().zip(&b.chaos.recoveries) {
        assert_eq!(x.worker, y.worker);
        assert_eq!(x.replayed_records, y.replayed_records, "replayed_records");
        assert_eq!(x.log_bytes, y.log_bytes, "log_bytes");
        assert_eq!(x.synced_shards, y.synced_shards);
        assert_eq!(x.synced_objects, y.synced_objects);
    }
    let _ = fs::remove_dir_all(&da);
    let _ = fs::remove_dir_all(&db);
}

/// Two workers crash at one cut and recover from disk at one boundary:
/// every helper serves both recoverers, whichever handshake reaches it
/// first, and nothing is left over or discarded.
#[test]
fn two_workers_recover_from_disk_at_one_boundary() {
    let e = EVERY as u64;
    let plan = FaultPlan::new()
        .at(e, Fault::Crash(2))
        .at(e, Fault::Crash(3))
        .at(3 * e, Fault::Recover(2))
        .at(3 * e, Fault::Recover(3));
    for mode in [Mode::Causal, Mode::Convergent] {
        for seed in [3, 14, 15] {
            let twin = cfg(mode, 4, 4 * EVERY, seed, FaultPlan::new());
            let free = run(&Counter, &twin, counter_gen(16));
            for snapshot_every in [0, 2] {
                let dir = tmpdir("pair");
                let mut c = cfg(mode, 4, 4 * EVERY, seed, plan.clone());
                c.durable = durable_cfg(&dir, snapshot_every);
                let chaos = run(&Counter, &c, counter_gen(16));
                let what = format!("{mode:?} seed {seed} snapshot_every {snapshot_every}");
                assert_same_final_state(&chaos, &free, &what);
                assert_windows_ok(&chaos);
                let recs = &chaos.chaos.recoveries;
                assert_eq!(recs.len(), 2, "{what}");
                assert!(recs.iter().all(|r| r.replayed_records > 0), "{what}");
                assert_eq!(chaos.metric("msgs_discarded_total"), Some(0), "{what}");
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Halt the whole fleet at a sealed boundary, restart it from disk,
/// and require the resumed run to finish byte-identical — state
/// hashes *and* monitor counter totals — to the uninterrupted twin.
fn check_cold_restart(mode: Mode, seed: u64) -> (StoreReport, StoreReport) {
    let dir = tmpdir("cold");
    let ops = 4 * EVERY;
    let mut halted_cfg = cfg(mode, 3, ops, seed, FaultPlan::new());
    halted_cfg.verify.monitor = true;
    // snapshot_every = 4 keeps the halt boundary (2) out of the
    // compaction cadence, so resume replays actual log records
    halted_cfg.durable = durable_cfg(&dir, 4);
    halted_cfg.durable.halt_at_boundary = 2;
    let halted = run(&Counter, &halted_cfg, counter_gen(16));
    assert_eq!(
        halted.total_ops,
        3 * 2 * EVERY as u64,
        "halt must stop the script at the boundary cut"
    );
    assert!(halted.verified(), "{:?}", halted.windows);

    let mut resumed_cfg = halted_cfg.clone();
    resumed_cfg.durable.halt_at_boundary = 0;
    resumed_cfg.durable.resume = true;
    let resumed = run(&Counter, &resumed_cfg, counter_gen(16));

    let mut twin_cfg = cfg(mode, 3, ops, seed, FaultPlan::new());
    twin_cfg.verify.monitor = true;
    let twin = run(&Counter, &twin_cfg, counter_gen(16));

    assert_eq!(resumed.total_ops, twin.total_ops, "script must complete");
    assert_eq!(
        resumed.final_state_hashes, twin.final_state_hashes,
        "cold restart must land on the twin's exact final state"
    );
    assert_windows_ok(&resumed);
    // the sealed monitor counters are seeded back on resume, so the
    // totals cover the whole script exactly once
    assert_eq!(resumed.monitor.ops_checked, twin.monitor.ops_checked);
    assert_eq!(resumed.monitor.folds, twin.monitor.folds);
    assert_eq!(resumed.monitor.violations, 0);
    assert_eq!(twin.monitor.violations, 0);
    // every worker resumed from its own disk: self-helper rows with a
    // non-trivial replay
    assert_eq!(resumed.chaos.recoveries.len(), 3);
    for rec in &resumed.chaos.recoveries {
        assert_eq!(rec.helper, rec.worker, "resume is served from own disk");
        assert!(rec.replayed_records > 0, "worker {}", rec.worker);
        assert!(rec.log_bytes > 0, "worker {}", rec.worker);
    }
    let _ = fs::remove_dir_all(&dir);
    (resumed, twin)
}

#[test]
fn cold_restart_resumes_to_the_twin_state_causal() {
    check_cold_restart(Mode::Causal, 77);
}

#[test]
fn cold_restart_resumes_to_the_twin_state_convergent() {
    check_cold_restart(Mode::Convergent, 78);
}

/// The halt → resume pair itself is deterministic: two independent
/// cold restarts of the same `(config, seed)` produce identical final
/// hashes and monitor totals.
#[test]
fn cold_restart_is_deterministic() {
    let (a, _) = check_cold_restart(Mode::Convergent, 79);
    let (b, _) = check_cold_restart(Mode::Convergent, 79);
    assert_eq!(a.final_state_hashes, b.final_state_hashes);
    assert_eq!(a.monitor.ops_checked, b.monitor.ops_checked);
    assert_eq!(a.monitor.folds, b.monitor.folds);
    for (x, y) in a.chaos.recoveries.iter().zip(&b.chaos.recoveries) {
        assert_eq!(x.replayed_records, y.replayed_records);
        assert_eq!(x.log_bytes, y.log_bytes);
    }
}

/// One uncompacted durable run, recorded once and shared by the
/// corruption cases below: worker 0's full log plus the final state
/// hash its seal carries.
fn recorded_log() -> &'static (Vec<u8>, u64) {
    static BASE: OnceLock<(Vec<u8>, u64)> = OnceLock::new();
    BASE.get_or_init(|| {
        let dir = tmpdir("base");
        let mut c = cfg(Mode::Convergent, 3, 2 * EVERY, 55, FaultPlan::new());
        c.durable = durable_cfg(&dir, 0);
        let r = run(&Counter, &c, counter_gen(16));
        assert!(r.verified());
        let bytes = fs::read(dir.join("worker-0.log")).unwrap();
        assert!(!bytes.is_empty(), "an uncompacted run must leave a log");
        let hash = r.final_state_hashes[0];
        let _ = fs::remove_dir_all(&dir);
        (bytes, hash)
    })
}

/// The pristine log replays to the run's final cut: the last seal is
/// the final drain's boundary seal and the re-hashed states match the
/// report's published hash.
#[test]
fn pristine_log_replays_to_the_final_cut() {
    let (bytes, hash) = recorded_log();
    let dir = tmpdir("pristine");
    fs::write(dir.join("worker-0.log"), bytes).unwrap();
    let rec = durable::recover::<Counter>(&Counter, &dir, 0, 16, Mode::Convergent)
        .expect("pristine log must replay");
    assert_eq!(rec.seal.epoch, 2, "final drain seals n_epochs");
    assert!(rec.seal.boundary);
    assert_eq!(rec.seal.state_hash, *hash);
    assert_eq!(rec.states.len(), 16);
    assert!(rec.replayed_records > 0);
    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Corruption hardening: truncate the log at an arbitrary offset,
    /// or flip an arbitrary byte, and recovery either lands on a seal
    /// whose state re-verifies or fails with a typed error — it never
    /// panics, and a seal-less prefix is exactly `NoSeal`.
    #[test]
    fn corrupted_logs_never_install_wrong_state(
        permille in 0u64..1000,
        flip in proptest::bool::ANY,
        xor in 1u64..=255,
    ) {
        let (bytes, _) = recorded_log();
        let off = (bytes.len() - 1) * permille as usize / 1000;
        let mut mauled = bytes.clone();
        if flip {
            mauled[off] ^= xor as u8;
        } else {
            mauled.truncate(off);
        }
        let dir = tmpdir("maul");
        fs::write(dir.join("worker-0.log"), &mauled).unwrap();
        match durable::recover::<Counter>(&Counter, &dir, 0, 16, Mode::Convergent) {
            Ok(rec) => {
                // landed on some intact seal: the arity is right and
                // recover() has already re-verified the state hash
                prop_assert_eq!(rec.states.len(), 16);
                prop_assert!(rec.seal.epoch <= 2);
                prop_assert!(rec.log_bytes <= bytes.len() as u64);
            }
            Err(e) => {
                // typed, descriptive failure — never a panic
                let shown = format!("{e}");
                prop_assert!(!shown.is_empty(), "error must render: {:?}", e);
                let typed = matches!(
                    e,
                    LogError::NoSeal
                        | LogError::StateHash
                        | LogError::Arity
                        | LogError::CorruptRecord { .. }
                        | LogError::CorruptSnapshot
                        | LogError::Io(_)
                );
                prop_assert!(typed, "unexpected error shape: {:?}", e);
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
