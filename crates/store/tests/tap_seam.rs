//! The engine's tap seam (`engine/taps.rs`): every attachment —
//! streaming monitor, flight recorder, durable log with the disk
//! recovery ladder — hangs off the Fig. 4/5 handlers through one
//! struct that is told about each event once. Two properties pin it:
//!
//! * **attachments observe, they do not steer** — a run with all of
//!   them on at once produces the traffic, verdicts and final states
//!   of its all-off twin (each attachment was only ever tested against
//!   the bare engine before, never against the others);
//! * **the logical timeline is pinned across builds** — the trace
//!   JSONL of a small crash/recover leg reproduces a committed fixture
//!   byte for byte, so a refactor that reorders span emission inside
//!   an epoch, drops a span kind or changes a logical key fails here
//!   (`trace_determinism.rs` only ever compares a build with itself).

use cbm_adt::register::{RegInput, Register};
use cbm_adt::space::SpaceInput;
use cbm_net::fault::{Fault, FaultPlan};
use cbm_obs::export::jsonl;
use cbm_store::durable;
use cbm_store::{
    run, BatchPolicy, ChaosSchedule, DurableConfig, Mode, ObsConfig, ShardConfig, ShardMap,
    StoreConfig, StoreReport, VerifyConfig,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

const WORKERS: usize = 4;
const OBJECTS: u32 = 16;
const EVERY: usize = 80;
const VICTIM: usize = 2;

/// 4 workers at rf 2, three script epochs, worker 2 down for epoch 1.
fn base_cfg(seed: u64) -> StoreConfig {
    let e = EVERY as u64;
    StoreConfig {
        workers: WORKERS,
        objects: OBJECTS as usize,
        ops_per_worker: 3 * EVERY,
        mode: Mode::Causal,
        batch: BatchPolicy::Every(4),
        verify: VerifyConfig {
            every_ops: EVERY,
            window_ops: 12,
            sample_every: 1,
            monitor: false,
        },
        seed,
        sharding: ShardConfig::rf(2),
        chaos: FaultPlan::new()
            .at(e, Fault::Crash(VICTIM))
            .at(2 * e, Fault::Recover(VICTIM)),
        obs: ObsConfig::default(),
        durable: DurableConfig::default(),
    }
}

fn traced() -> ObsConfig {
    ObsConfig {
        trace: true,
        op_sample_every: 16,
        batch_sample_every: 2,
        epoch_cap: 1_000_000,
    }
}

/// A register workload whose final state is a function of the script
/// alone: every object has one writer (the first replica of its
/// shard), so per-origin FIFO delivery fixes each register's last
/// value in either mode, under any interleaving and across a crash.
/// Everyone reads everything, so reads still roam to remote shards.
fn single_writer_gen(
    map: &ShardMap,
) -> impl Fn(usize, u64, &mut StdRng) -> SpaceInput<RegInput> + Sync {
    let mine: Vec<Vec<u32>> = (0..WORKERS)
        .map(|w| {
            (0..OBJECTS)
                .filter(|&o| map.replicas(map.shard_of(o))[0] == w)
                .collect()
        })
        .collect();
    move |me, _, rng| {
        let any = rng.gen_range(0u32..OBJECTS);
        let val = rng.gen_range(1u64..1_000);
        if rng.gen_bool(0.5) || mine[me].is_empty() {
            SpaceInput::new(any, RegInput::Read)
        } else {
            SpaceInput::new(
                mine[me][any as usize % mine[me].len()],
                RegInput::Write(val),
            )
        }
    }
}

/// What a window verdict says, minus nothing: every field is a
/// function of `(config, seed)`.
fn verdicts(r: &StoreReport) -> Vec<(u64, Option<u32>, usize, usize, bool, bool)> {
    r.windows
        .iter()
        .map(|w| {
            (
                w.window,
                w.shard,
                w.events,
                w.crashed_workers,
                w.spans_recovery,
                w.result.is_ok(),
            )
        })
        .collect()
}

#[test]
fn every_attachment_at_once_matches_the_bare_engine() {
    let dir = std::env::temp_dir().join(format!("cbm-tap-seam-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    let off_cfg = base_cfg(41);
    let mut on_cfg = off_cfg.clone();
    on_cfg.verify.monitor = true;
    on_cfg.obs = traced();
    on_cfg.durable = DurableConfig {
        log_dir: Some(dir.to_string_lossy().into_owned()),
        snapshot_every: 2,
        recover_from_disk: true,
        resume: false,
        halt_at_boundary: 0,
    };
    let map = ShardMap::build(&off_cfg);
    let on = run(&Register, &on_cfg, single_writer_gen(&map));
    let off = run(&Register, &off_cfg, single_writer_gen(&map));

    assert!(on.verified() && off.verified(), "{:?}", on.windows);
    assert_eq!(on.total_ops, (WORKERS * 3 * EVERY) as u64);
    assert_eq!(on.total_ops, off.total_ops);
    assert_eq!(on.batches_sent, off.batches_sent);
    assert_eq!(on.payloads_sent, off.payloads_sent);
    assert_eq!(on.remote_reads, off.remote_reads);
    assert!(on.remote_reads > 0, "rf 2 must route some reads");
    assert_eq!(verdicts(&on), verdicts(&off));
    assert!(on.windows.iter().any(|w| w.spans_recovery));
    assert_eq!(on.final_state_hashes, off.final_state_hashes);
    assert_eq!(on.epochs, off.epochs, "per-epoch counter rows");

    // the one message an attachment may add: the disk ladder's
    // handshake, one `SyncReq` per elected helper (its reply replaces
    // the memory path's state transfer one for one)
    let sched = ChaosSchedule::build(&on_cfg);
    let span = &sched.spans[0];
    let helpers: BTreeSet<usize> = map
        .hosted(VICTIM)
        .iter()
        .filter_map(|&s| sched.shard_helper(span, map.replicas(s)))
        .collect();
    assert_eq!(on.msgs_sent, off.msgs_sent + helpers.len() as u64);

    // monitor: every op certified once, through a crash and a disk
    // recovery, with the log and the recorder running beside it
    assert!(on.monitor.certified(on.total_ops), "{:?}", on.monitor);
    assert_eq!(on.monitor.escalations, 0, "{:?}", on.monitor.records);
    assert!(!off.monitor.enabled);

    // recorder: both runs fly it (chaos runs always do); the
    // attachments add no span and change no logical key
    let (t_on, t_off) = (on.trace.as_ref().unwrap(), off.trace.as_ref().unwrap());
    assert_eq!(t_on.dropped, 0);
    let kinds = |t: &cbm_obs::FlightRecord| -> BTreeSet<&'static str> {
        t.spans.iter().map(|s| s.kind.name()).collect()
    };
    assert!(kinds(t_on).is_superset(&kinds(t_off)));
    for k in ["crash", "recover", "drain", "batch_flush", "deliver"] {
        assert!(kinds(t_on).contains(k), "no {k} span: {:?}", kinds(t_on));
    }

    // durable log: the victim replayed its own disk (rungs 1+2), and
    // every worker's finished log re-opens onto the final cut
    let rec = &on.chaos.recoveries[0];
    assert_eq!(
        (rec.worker, rec.crash_epoch, rec.recover_epoch),
        (VICTIM, 1, 2)
    );
    assert!(rec.replayed_records > 0 && rec.log_bytes > 0);
    assert_eq!(off.chaos.recoveries[0].replayed_records, 0);
    // (the seals carry the monitor's counters alongside the state)
    let mut sealed_checks = 0;
    for w in 0..WORKERS {
        let r = durable::recover::<Register>(&Register, &dir, w, OBJECTS as usize, Mode::Causal)
            .unwrap_or_else(|e| panic!("worker {w}'s log does not re-open: {e}"));
        assert_eq!(r.seal.epoch, sched.n_epochs);
        assert_eq!(r.seal.state_hash, on.final_state_hashes[w]);
        assert_eq!(r.seal.issued, (3 * EVERY) as u64);
        sealed_checks += r.seal.monitor.ops_checked;
    }
    assert_eq!(sealed_checks, on.total_ops);

    assert_eq!(on.metric("msgs_discarded_total"), Some(0));
    assert_eq!(off.metric("msgs_discarded_total"), Some(0));
    let _ = fs::remove_dir_all(&dir);
}

/// `msgs_discarded_total` makes the tolerate-and-count arms visible.
/// Peers stop addressing a crashed worker at its cut and the recovery
/// handshake stays inside the recovery phase, so on a correct engine
/// nothing is ever discarded — fault-free or across a crash. A
/// non-zero count is the protocol-bug signal the counter exists for
/// (the counting itself is unit-tested in `engine/drain.rs`).
#[test]
fn nothing_is_discarded_on_a_correct_run() {
    let mut free = base_cfg(43);
    free.chaos = FaultPlan::new();
    for cfg in [free, base_cfg(43)] {
        let map = ShardMap::build(&cfg);
        let r = run(&Register, &cfg, single_writer_gen(&map));
        assert!(r.verified());
        assert_eq!(r.metric("msgs_discarded_total"), Some(0));
    }
}

/// The small leg behind `golden/trace_rf2_crash.jsonl`: 4 workers,
/// rf 2, monitor on, one crash/recover span, trace on. Sampling is
/// sparse and only one read in eight of a non-hosted object roams
/// (`read_route` spans are unsampled), to keep the fixture small while
/// every span kind a correct run emits still appears in it.
fn golden_leg() -> StoreReport {
    let mut cfg = base_cfg(17);
    cfg.verify.monitor = true;
    cfg.obs = ObsConfig {
        op_sample_every: 32,
        batch_sample_every: 4,
        ..traced()
    };
    let map = ShardMap::build(&cfg);
    run(&Register, &cfg, |me, _, rng: &mut StdRng| {
        let obj = rng.gen_range(0u32..OBJECTS);
        let roam = rng.gen_range(0u32..8) == 0;
        if rng.gen_bool(0.5) {
            let obj = if roam { obj } else { map.localize(me, obj) };
            SpaceInput::new(obj, RegInput::Read)
        } else {
            SpaceInput::new(obj, RegInput::Write(rng.gen_range(1u64..1_000)))
        }
    })
}

/// The fixture was generated by the build *before* the engine was
/// split into parts; a mismatch means the engine's logical timeline
/// changed, not that the fixture is stale. On failure the produced
/// timeline is left in `target/tmp/` (CI uploads it beside the
/// fixture) for a line diff.
#[test]
fn logical_trace_reproduces_the_golden_fixture() {
    let report = golden_leg();
    assert!(report.verified(), "{:?}", report.windows);
    assert!(report.monitor.certified(report.total_ops));
    let got = jsonl(report.trace.as_ref().expect("tracing was enabled"));
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_rf2_crash.jsonl");
    let want = fs::read_to_string(&fixture).unwrap_or_default();
    if got != want {
        let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace_rf2_crash.jsonl");
        fs::write(&out, &got).expect("write the produced timeline");
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "logical timeline diverges from {} at line {} ({} vs {} lines); produced file: {}",
            fixture.display(),
            line + 1,
            got.lines().count(),
            want.lines().count(),
            out.display()
        );
    }
}
