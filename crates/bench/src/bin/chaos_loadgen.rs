//! Drive the live store engine through the chaos fault-profile matrix
//! and emit the committed chaos baseline (`BENCH_chaos.json`).
//!
//! ```text
//! chaos_loadgen [--quick] [--out PATH] [--seeds N] [--summary PATH] [--rf N]
//!               [--workers N] [--locality N] [--monitor] [--trace] [--trace-dir DIR]
//!               [--transport thread|tcp] [--log-dir DIR]
//! ```
//!
//! `--transport tcp` runs every cell's replica mesh over real loopback
//! sockets; the chaos layer (`ChaosEndpoint`) wraps the socket
//! endpoint unchanged, and the flush-marker cut protocol
//! (`docs/DEPLOYMENT.md`) keeps every deterministic column — fault
//! counts included — equal to the in-process transport's, so the
//! replay and twin gates below hold identically. The workload is a
//! commutative counter space, so even the byte-identical twin-state
//! gate is transport-independent.
//!
//! Tracing is **automatic** for chaos runs (the engine's flight
//! recorder turns on whenever a fault schedule is active), so every
//! failing cell dumps its flight record into `--trace-dir` (default
//! `traces/`) as `<profile>-<mode>-s<seed>.trace.json` +
//! `.jsonl` without any flag; `--trace` additionally dumps the green
//! cells. The nightly chaos matrix uploads these dumps as artifacts
//! for non-green cells (see `docs/OBSERVABILITY.md`).
//!
//! For every **fault profile × mode × seed** cell this binary runs the
//! engine **three times**:
//!
//! 1. the chaos run — fault plan active, sampled online verification
//!    on (CC or CCv per mode);
//! 2. the chaos run again — every deterministic column (messages,
//!    drops, dups, nacks, repairs, replay counts) must reproduce
//!    **exactly**, which is the live-engine determinism contract of
//!    `docs/CHAOS.md`. Byte totals are *not* in the fingerprint:
//!    delta-encoded knowledge headers size by flush-time knowledge,
//!    which depends on thread interleaving (`docs/SHARDING.md`);
//! 3. the fault-free twin of the same `(config, seed)` — the workload
//!    is a counter space (commutative updates), so the chaos run must
//!    converge to **byte-identical final state**: a crashed-and-
//!    recovered worker resumes its script, and the recovery protocol
//!    loses and duplicates nothing.
//!
//! A cell fails on: any unverified window, a drain divergence, a
//! missing recovery (crash profiles must report every span recovered,
//! with at least one verified window spanning the recovery drain), a
//! final-state mismatch against the twin, or any determinism mismatch
//! between the two chaos runs. Exit status is non-zero iff any cell
//! failed — this is what the `chaos-smoke` CI job (and the nightly
//! extended sweep) gates on. Wall-clock columns are recorded but never
//! gate.
//!
//! `--workers`/`--locality` override the matrix dimensions — the
//! nightly sweep runs one 128-worker rf-2 locality-8 cell to keep the
//! large-cluster delivery path (wide interest masks, delta headers
//! over many edges, crash recovery at scale) under the twin-state and
//! determinism gates.
//!
//! `--monitor` turns the tier-3 streaming monitor on for every cell
//! (`docs/VERIFICATION.md`): each monitored cell must then certify
//! 100% of its ops (`ops_checked == total_ops`, zero confirmed
//! violations) *under the fault plan*, and the monitor counters join
//! the deterministic fingerprint so the replay pins the escalation
//! count too. The nightly sweep runs one monitor-on rf-2 sweep this
//! way.
//!
//! Beyond the fault-profile matrix, the sweep always runs the
//! **durability cells** of `docs/DURABILITY.md`:
//!
//! * `crash-recover-disk` / `rolling-crashes-disk` — the same crash
//!   profiles with the per-worker epoch log on (`--log-dir`,
//!   `recover_from_disk`): a crashed worker's in-memory replica is
//!   discarded and it restarts by replaying its own snapshot + log
//!   tail, then fetching only the post-cut delta from co-replicas.
//!   The twin stays memory-only, so the byte-identical state gate
//!   proves the disk path equivalent to the live transfer; the
//!   `log_bytes` / `replayed_records` columns join the deterministic
//!   fingerprint.
//! * `cold-restart` — no faults at all: the run is halted at its
//!   middle epoch boundary (every worker seals and exits), the whole
//!   fleet restarts from disk and resumes its scripts, and the final
//!   state must be byte-identical to the uninterrupted twin. The
//!   halt+resume pair runs twice to pin its determinism.

use cbm_bench::{run_workload, Transport, Workload};
use cbm_store::{
    profile, BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, StoreReport,
    VerifyConfig, PROFILE_NAMES,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Cell {
    profile: String,
    mode: Mode,
    seed: u64,
    report: StoreReport,
    ops_survived: u64,
    windows_spanning_recovery: usize,
    determinism_match: bool,
    state_match: bool,
    failures: Vec<String>,
}

/// Shared matrix dimensions: (workers, every_ops) feed both the
/// config and the fault-profile constructors, so crash/recover ticks
/// always land on this config's epoch boundaries. `workers` = 0 takes
/// the default 4; larger clusters shrink the per-worker op count so
/// the cell's total work stays bounded on oversubscribed runners.
fn dims(quick: bool, workers: usize) -> (usize, usize) {
    let w = if workers == 0 { 4 } else { workers };
    if quick {
        (w, 500)
    } else {
        (w, 2_000)
    }
}

/// Per-worker ops for a cell: the quick/full defaults, divided down
/// when the cluster axis grows past the default 4 workers — but never
/// below 4 epochs, because the crash profiles schedule their last
/// `Recover` at tick `3 * every_ops` and the recovery drain needs one
/// more epoch boundary after it.
fn cell_ops(quick: bool, workers: usize, every: usize) -> (usize, usize) {
    let (ops, window) = if quick { (2_000, 16) } else { (20_000, 32) };
    let scale = (workers.max(4) / 4).max(1);
    ((ops / scale).max(4 * every), window)
}

fn cfg(
    mode: Mode,
    seed: u64,
    quick: bool,
    dim: Dims,
    chaos: cbm_net::fault::FaultPlan,
) -> StoreConfig {
    let (workers, every) = dims(quick, dim.workers);
    let (ops, window) = cell_ops(quick, workers, every);
    StoreConfig {
        workers,
        // partial replication needs every worker to host a shard
        // (shards = min(objects, workers)), so the object space grows
        // with the cluster axis; at the default 4 workers this is the
        // long-standing 64-object space of the committed baseline
        objects: 64.max(workers),
        ops_per_worker: ops,
        mode,
        batch: BatchPolicy::Every(8),
        verify: VerifyConfig {
            every_ops: every,
            window_ops: window,
            sample_every: 1,
            monitor: dim.monitor,
        },
        seed,
        sharding: ShardConfig::rf_local(dim.rf, dim.locality),
        chaos,
        obs: ObsConfig::default(),
        durable: DurableConfig::default(),
    }
}

/// The deterministic fingerprint of a run, diffed across the replay.
fn det_columns(r: &StoreReport) -> Vec<(&'static str, String)> {
    vec![
        ("total_ops", r.total_ops.to_string()),
        ("msgs_sent", r.msgs_sent.to_string()),
        // bytes_sent is deliberately absent: delta-encoded knowledge
        // headers are interleaving-dependent (docs/SHARDING.md)
        ("batches_sent", r.batches_sent.to_string()),
        ("payloads_sent", r.payloads_sent.to_string()),
        ("drops", r.chaos.drops.to_string()),
        ("dups", r.chaos.dups.to_string()),
        ("parked", r.chaos.parked.to_string()),
        ("released", r.chaos.released.to_string()),
        ("delayed", r.chaos.delayed.to_string()),
        ("pruned", r.chaos.pruned.to_string()),
        ("crash_discarded", r.chaos.crash_discarded.to_string()),
        ("nacks", r.chaos.nacks.to_string()),
        ("repairs", r.chaos.repairs.to_string()),
        ("repaired_batches", r.chaos.repaired_batches.to_string()),
        (
            "dropped_per_node",
            format!("{:?}", r.chaos.dropped_per_node),
        ),
        ("dup_per_node", format!("{:?}", r.chaos.dup_per_node)),
        (
            "syncs",
            format!(
                "{:?}",
                r.chaos
                    .recoveries
                    .iter()
                    .map(|x| (x.worker, x.synced_shards, x.synced_objects))
                    .collect::<Vec<_>>()
            ),
        ),
        ("remote_reads", r.remote_reads.to_string()),
        ("windows", r.windows.len().to_string()),
        // present (and zero) even with the monitor off, so the
        // fingerprint shape never depends on the flag
        ("monitor_ops_checked", r.monitor.ops_checked.to_string()),
        ("monitor_escalations", r.monitor.escalations.to_string()),
        ("monitor_violations", r.monitor.violations.to_string()),
        // the disk columns: zero for memory-only cells, the epoch-log
        // replay footprint for the durable ones — log record framing
        // is knowledge-free (unlike delta headers), so sizes reproduce
        ("log_bytes", disk_cols(r).0.to_string()),
        ("replayed_records", disk_cols(r).1.to_string()),
    ]
}

/// Summed disk-recovery footprint of a run: `(log_bytes,
/// replayed_records)` across every recovery (and resume) row.
fn disk_cols(r: &StoreReport) -> (u64, u64) {
    r.chaos.recoveries.iter().fold((0, 0), |(lb, rr), x| {
        (lb + x.log_bytes, rr + x.replayed_records)
    })
}

/// The sweep's cluster-axis overrides (defaults = the 4-worker
/// full-replication matrix of `docs/CHAOS.md`).
#[derive(Clone, Copy)]
struct Dims {
    workers: usize,
    rf: usize,
    locality: usize,
    monitor: bool,
}

/// The durable override for one cell run: its own subdirectory (cells
/// must never share logs) with the disk-first recovery ladder on.
fn cell_durable(base: &Path, label: &str, mode: Mode, seed: u64) -> DurableConfig {
    DurableConfig {
        log_dir: Some(
            base.join(format!("{label}-{}-s{seed}", mode.criterion()))
                .to_string_lossy()
                .into_owned(),
        ),
        snapshot_every: 2,
        recover_from_disk: true,
        resume: false,
        halt_at_boundary: 0,
    }
}

fn run_cell(
    name: &'static str,
    mode: Mode,
    seed: u64,
    quick: bool,
    dim: Dims,
    transport: Transport,
    log_base: Option<&Path>,
) -> Cell {
    let (workers, every) = dims(quick, dim.workers);
    let label = if log_base.is_some() {
        format!("{name}-disk")
    } else {
        name.to_string()
    };
    let plan = profile(name, workers, every).expect("known profile");
    let mut chaos_cfg = cfg(mode, seed, quick, dim, plan);
    if let Some(base) = log_base {
        // the replay (run 2) reopens the same directory fresh — the
        // log is wiped and rewritten, which is exactly the contract
        chaos_cfg.durable = cell_durable(base, &label, mode, seed);
    }
    // the twin stays memory-only: byte-identical convergence then
    // proves the disk ladder equivalent to the live state transfer
    let free_cfg = cfg(mode, seed, quick, dim, cbm_net::fault::FaultPlan::new());

    let a = run_workload(&Workload::Counter, &chaos_cfg, transport);
    let a2 = run_workload(&Workload::Counter, &chaos_cfg, transport);
    let twin = run_workload(&Workload::Counter, &free_cfg, transport);

    let mut failures = Vec::new();
    for w in a.windows.iter().filter(|w| w.result.is_err()) {
        failures.push(format!(
            "window {} [{}]: {:?}",
            w.window, w.criterion, w.result
        ));
    }
    if !a.drains_converged {
        failures.push("drain divergence".into());
    }

    let determinism_match = det_columns(&a) == det_columns(&a2);
    if !determinism_match {
        for ((k, va), (_, vb)) in det_columns(&a).iter().zip(det_columns(&a2).iter()) {
            if va != vb {
                failures.push(format!("nondeterministic {k}: {va} vs {vb}"));
            }
        }
    }

    // the chaos run must end byte-identical to its fault-free twin,
    // replica by replica; under full replication every replica must
    // additionally agree (partial replicas host different shards, so
    // cross-replica equality only holds per shard there — the drain
    // convergence check covers that)
    let full =
        chaos_cfg.sharding.replication == 0 || chaos_cfg.sharding.replication >= chaos_cfg.workers;
    let state_match = a.final_state_hashes == twin.final_state_hashes
        && (!full
            || a.final_state_hashes
                .iter()
                .all(|&x| x == a.final_state_hashes[0]));
    if !state_match {
        failures.push(format!(
            "final state mismatch: chaos {:x?} vs twin {:x?}",
            a.final_state_hashes, twin.final_state_hashes
        ));
    }

    // the schedule itself says how many crash spans the profile has —
    // no hand-maintained table to drift out of sync with the profiles
    let want_rec = cbm_store::ChaosSchedule::build(&chaos_cfg).spans.len();
    if a.chaos.recoveries.len() != want_rec {
        failures.push(format!(
            "expected {want_rec} recoveries, saw {}",
            a.chaos.recoveries.len()
        ));
    }
    let windows_spanning_recovery = a
        .windows
        .iter()
        .filter(|w| w.spans_recovery && w.result.is_ok())
        .count();
    if want_rec > 0 && windows_spanning_recovery == 0 {
        failures.push("no verified window spans a recovery".into());
    }
    if a.total_ops != chaos_cfg.total_ops() {
        failures.push(format!(
            "ops lost: {} of {}",
            a.total_ops,
            chaos_cfg.total_ops()
        ));
    }

    // a monitored cell must certify every op despite the fault plan:
    // nack-repaired deliveries fold exactly once, recovered workers
    // rebuild their shadows from the state transfer
    if dim.monitor {
        if a.monitor.ops_checked != a.total_ops {
            failures.push(format!(
                "monitor certified {} of {} ops",
                a.monitor.ops_checked, a.total_ops
            ));
        }
        if a.monitor.violations != 0 {
            failures.push(format!(
                "{} confirmed monitor violation(s): {:?}",
                a.monitor.violations, a.monitor.records
            ));
        }
    }

    Cell {
        profile: label,
        mode,
        seed,
        ops_survived: a.total_ops,
        windows_spanning_recovery,
        determinism_match,
        state_match,
        failures,
        report: a,
    }
}

/// The fault-free cold-restart cell: run to the middle epoch boundary
/// and halt (every worker seals its cut and exits), restart the whole
/// fleet from disk and resume the scripts, and require byte-identical
/// convergence with the uninterrupted memory-only twin. The
/// halt+resume pair runs **twice** (fresh directories) so the disk
/// columns sit under the same determinism gate as everything else.
fn run_cold_cell(
    mode: Mode,
    seed: u64,
    quick: bool,
    dim: Dims,
    transport: Transport,
    log_base: &Path,
) -> Cell {
    let base_cfg = cfg(mode, seed, quick, dim, cbm_net::fault::FaultPlan::new());
    let epochs = (base_cfg.ops_per_worker / base_cfg.verify.every_ops.max(1)) as u64;
    let halt = (epochs / 2).max(1);

    let pair = |tag: &str| -> (StoreReport, StoreReport) {
        let mut halted_cfg = base_cfg.clone();
        halted_cfg.durable = cell_durable(log_base, &format!("cold-restart-{tag}"), mode, seed);
        // snapshot cadence off the halt boundary, so the resume
        // replays real log records, not just the compacted snapshot
        halted_cfg.durable.snapshot_every = 4;
        halted_cfg.durable.halt_at_boundary = halt;
        let halted = run_workload(&Workload::Counter, &halted_cfg, transport);
        let mut resumed_cfg = halted_cfg.clone();
        resumed_cfg.durable.halt_at_boundary = 0;
        resumed_cfg.durable.resume = true;
        let resumed = run_workload(&Workload::Counter, &resumed_cfg, transport);
        (halted, resumed)
    };

    let (halted, a) = pair("a");
    let (_, a2) = pair("b");
    let twin = run_workload(&Workload::Counter, &base_cfg, transport);

    let mut failures = Vec::new();
    if !halted.verified() {
        failures.push("halted prefix run had unverified windows".into());
    }
    for w in a.windows.iter().filter(|w| w.result.is_err()) {
        failures.push(format!(
            "window {} [{}]: {:?}",
            w.window, w.criterion, w.result
        ));
    }
    if !a.drains_converged {
        failures.push("drain divergence".into());
    }
    if a.total_ops != base_cfg.total_ops() {
        failures.push(format!(
            "resume lost ops: {} of {}",
            a.total_ops,
            base_cfg.total_ops()
        ));
    }

    let determinism_match = det_columns(&a) == det_columns(&a2);
    if !determinism_match {
        for ((k, va), (_, vb)) in det_columns(&a).iter().zip(det_columns(&a2).iter()) {
            if va != vb {
                failures.push(format!("nondeterministic {k}: {va} vs {vb}"));
            }
        }
    }

    let full =
        base_cfg.sharding.replication == 0 || base_cfg.sharding.replication >= base_cfg.workers;
    let state_match = a.final_state_hashes == twin.final_state_hashes
        && (!full
            || a.final_state_hashes
                .iter()
                .all(|&x| x == a.final_state_hashes[0]));
    if !state_match {
        failures.push(format!(
            "cold restart diverged from uninterrupted twin: {:x?} vs {:x?}",
            a.final_state_hashes, twin.final_state_hashes
        ));
    }

    // every worker resumed from its own disk: one self-helper row each
    if a.chaos.recoveries.len() != base_cfg.workers {
        failures.push(format!(
            "expected {} resume rows, saw {}",
            base_cfg.workers,
            a.chaos.recoveries.len()
        ));
    }
    for rec in &a.chaos.recoveries {
        if rec.helper != rec.worker {
            failures.push(format!(
                "worker {} resumed through helper {} instead of its own disk",
                rec.worker, rec.helper
            ));
        }
    }
    if disk_cols(&a).1 == 0 {
        failures.push("resume replayed no log records".into());
    }

    if dim.monitor {
        if a.monitor.ops_checked != a.total_ops {
            failures.push(format!(
                "monitor certified {} of {} ops across the restart",
                a.monitor.ops_checked, a.total_ops
            ));
        }
        if a.monitor.violations != 0 {
            failures.push(format!(
                "{} confirmed monitor violation(s): {:?}",
                a.monitor.violations, a.monitor.records
            ));
        }
    }

    Cell {
        profile: "cold-restart".into(),
        mode,
        seed,
        ops_survived: a.total_ops,
        windows_spanning_recovery: 0,
        determinism_match,
        state_match,
        failures,
        report: a,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path = String::from("BENCH_chaos.json");
    let mut summary_path: Option<String> = None;
    let mut seeds: u64 = 0;
    let mut rf: usize = 0;
    let mut workers: usize = 0;
    let mut locality: usize = 0;
    let mut trace = false;
    let mut trace_dir = String::from("traces");
    let mut monitor = false;
    let mut transport = Transport::Thread;
    let mut log_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--trace" => trace = true,
            "--monitor" => monitor = true,
            "--log-dir" => match it.next() {
                Some(p) => log_dir = Some(p.clone()),
                None => {
                    eprintln!("--log-dir needs a path");
                    return ExitCode::from(2);
                }
            },
            "--transport" => match it.next().map(String::as_str).and_then(Transport::parse) {
                Some(t) => transport = t,
                None => {
                    eprintln!("--transport needs thread or tcp");
                    return ExitCode::from(2);
                }
            },
            "--trace-dir" => match it.next() {
                Some(p) => trace_dir = p.clone(),
                None => {
                    eprintln!("--trace-dir needs a path");
                    return ExitCode::from(2);
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::from(2);
                }
            },
            "--summary" => match it.next() {
                Some(p) => summary_path = Some(p.clone()),
                None => {
                    eprintln!("--summary needs a path");
                    return ExitCode::from(2);
                }
            },
            "--seeds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => seeds = n,
                None => {
                    eprintln!("--seeds needs a number");
                    return ExitCode::from(2);
                }
            },
            "--rf" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => rf = n,
                None => {
                    eprintln!("--rf needs a replication factor (0 = full)");
                    return ExitCode::from(2);
                }
            },
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => workers = n,
                None => {
                    eprintln!("--workers needs a worker count (0 = default 4)");
                    return ExitCode::from(2);
                }
            },
            "--locality" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => locality = n,
                None => {
                    eprintln!("--locality needs a window size (0 = global draw)");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "chaos_loadgen [--quick] [--out PATH] [--seeds N] [--summary PATH] \
                     [--rf N] [--workers N] [--locality N] [--monitor] [--trace] \
                     [--trace-dir DIR] [--transport thread|tcp] [--log-dir DIR]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    if seeds == 0 {
        seeds = if quick { 2 } else { 3 };
    }

    let dim = Dims {
        workers,
        rf,
        locality,
        monitor,
    };
    // the durability cells always run; without --log-dir they write
    // under a process-scoped scratch directory in $TMPDIR
    let log_base: PathBuf = log_dir.map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("cbm-chaos-logs-{}", std::process::id()))
    });
    if let Err(e) = std::fs::create_dir_all(&log_base) {
        eprintln!("could not create --log-dir {}: {e}", log_base.display());
        return ExitCode::from(2);
    }

    let mut cells: Vec<Cell> = Vec::new();
    let mut failed = 0usize;
    let finish = |cell: Cell, cells: &mut Vec<Cell>, failed: &mut usize| {
        eprint!(
            "{:>20} {} seed {}: {} msgs, {} drops [{}], {} dups [{}], \
             {} delayed, {} repairs",
            cell.profile,
            cell.mode.criterion(),
            cell.seed,
            cell.report.msgs_sent,
            cell.report.chaos.drops,
            per_node(&cell.report.chaos.dropped_per_node),
            cell.report.chaos.dups,
            per_node(&cell.report.chaos.dup_per_node),
            cell.report.chaos.delayed,
            cell.report.chaos.repairs,
        );
        let green = cell.failures.is_empty();
        if green {
            eprintln!(" ... ok");
        } else {
            *failed += 1;
            eprintln!(" ... FAIL");
            for f in &cell.failures {
                eprintln!("    {f}");
            }
        }
        // tracing is auto-on under chaos, so every non-green cell has
        // a flight record to dump for post-mortems; --trace keeps the
        // green ones too
        if let Some(rec) = &cell.report.trace {
            if trace || !green {
                let fname = format!("{}-{}-s{}", cell.profile, cell.mode.criterion(), cell.seed);
                match cbm_bench::write_trace(&trace_dir, &fname, rec) {
                    Ok((chrome, jsonl)) => eprintln!("    trace: {chrome} + {jsonl}"),
                    Err(e) => eprintln!("    trace: could not write to {trace_dir}: {e}"),
                }
            }
        }
        cells.push(cell);
    };
    for name in PROFILE_NAMES {
        for mode in [Mode::Causal, Mode::Convergent] {
            for s in 0..seeds {
                let seed = 42 + s;
                let cell = run_cell(name, mode, seed, quick, dim, transport, None);
                finish(cell, &mut cells, &mut failed);
            }
        }
    }
    // the durability matrix: the crash profiles again, recovering
    // from the epoch log instead of the live transfer...
    for name in ["crash-recover", "rolling-crashes"] {
        for mode in [Mode::Causal, Mode::Convergent] {
            for s in 0..seeds {
                let seed = 42 + s;
                let cell = run_cell(name, mode, seed, quick, dim, transport, Some(&log_base));
                finish(cell, &mut cells, &mut failed);
            }
        }
    }
    // ...and the fault-free cold restart of the whole fleet
    for mode in [Mode::Causal, Mode::Convergent] {
        for s in 0..seeds {
            let seed = 42 + s;
            let cell = run_cold_cell(mode, seed, quick, dim, transport, &log_base);
            finish(cell, &mut cells, &mut failed);
        }
    }

    let json = render_json(quick, seeds, rf, &cells);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("could not write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path} ({} cells)", cells.len());

    if let Some(path) = summary_path {
        if let Err(e) = append_summary(&path, quick, &cells) {
            eprintln!("could not write summary {path}: {e}");
        }
    }

    if failed > 0 {
        eprintln!("chaos_loadgen: {failed} cell(s) failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Hand-rolled JSON (the workspace vendors no serializer;
/// the explicit schema doubles as documentation).
fn render_json(quick: bool, seeds: u64, rf: usize, cells: &[Cell]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"cbm-chaos-v1\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"seeds_per_cell\": {seeds},\n"));
    s.push_str(&format!("  \"replication\": {rf},\n"));
    // bytes_sent stays in each cell as an informational column but is
    // not deterministic: delta headers depend on delivery interleaving
    s.push_str(
        "  \"deterministic_columns\": [\"total_ops\", \"msgs_sent\", \
         \"drops\", \"dups\", \"parked\", \"released\", \"delayed\", \"pruned\", \"crash_discarded\", \"nacks\", \"repairs\", \
         \"repaired_batches\", \"recoveries\", \"remote_reads\", \"windows\", \
         \"monitor_ops_checked\", \"monitor_escalations\", \
         \"log_bytes\", \"replayed_records\"],\n",
    );
    s.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let r = &c.report;
        s.push_str("    {\n");
        s.push_str(&format!("      \"profile\": \"{}\",\n", c.profile));
        s.push_str(&format!("      \"mode\": \"{}\",\n", c.mode.criterion()));
        s.push_str(&format!("      \"seed\": {},\n", c.seed));
        s.push_str(&format!("      \"workers\": {},\n", r.config.workers));
        s.push_str(&format!(
            "      \"ops_per_worker\": {},\n",
            r.config.ops_per_worker
        ));
        s.push_str(&format!("      \"ops_survived\": {},\n", c.ops_survived));
        s.push_str(&format!("      \"wall_ms\": {},\n", r.wall_ns / 1_000_000));
        s.push_str(&format!("      \"msgs_sent\": {},\n", r.msgs_sent));
        s.push_str(&format!("      \"bytes_sent\": {},\n", r.bytes_sent));
        s.push_str(&format!("      \"drops\": {},\n", r.chaos.drops));
        s.push_str(&format!("      \"dups\": {},\n", r.chaos.dups));
        s.push_str(&format!("      \"parked\": {},\n", r.chaos.parked));
        s.push_str(&format!("      \"released\": {},\n", r.chaos.released));
        s.push_str(&format!("      \"delayed\": {},\n", r.chaos.delayed));
        s.push_str(&format!("      \"pruned\": {},\n", r.chaos.pruned));
        s.push_str(&format!(
            "      \"crash_discarded\": {},\n",
            r.chaos.crash_discarded
        ));
        s.push_str(&format!("      \"nacks\": {},\n", r.chaos.nacks));
        s.push_str(&format!("      \"repairs\": {},\n", r.chaos.repairs));
        s.push_str(&format!(
            "      \"repaired_batches\": {},\n",
            r.chaos.repaired_batches
        ));
        s.push_str(&format!(
            "      \"dropped_per_node\": {:?},\n",
            r.chaos.dropped_per_node
        ));
        s.push_str(&format!("      \"remote_reads\": {},\n", r.remote_reads));
        let (log_bytes, replayed) = disk_cols(r);
        s.push_str(&format!("      \"log_bytes\": {log_bytes},\n"));
        s.push_str(&format!("      \"replayed_records\": {replayed},\n"));
        s.push_str("      \"recoveries\": [\n");
        for (j, rec) in r.chaos.recoveries.iter().enumerate() {
            s.push_str(&format!(
                "        {{\"worker\": {}, \"helper\": {}, \"crash_epoch\": {}, \
                 \"recover_epoch\": {}, \"synced_shards\": {}, \"synced_objects\": {}, \
                 \"replayed_records\": {}, \"log_bytes\": {}, \"sync_ms\": {}}}{}\n",
                rec.worker,
                rec.helper,
                rec.crash_epoch,
                rec.recover_epoch,
                rec.synced_shards,
                rec.synced_objects,
                rec.replayed_records,
                rec.log_bytes,
                rec.sync_wall_ns / 1_000_000,
                if j + 1 < r.chaos.recoveries.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("      ],\n");
        s.push_str(&format!("      \"windows\": {},\n", r.windows.len()));
        s.push_str(&format!(
            "      \"windows_failed\": {},\n",
            r.windows_failed
        ));
        s.push_str(&format!(
            "      \"windows_spanning_recovery\": {},\n",
            c.windows_spanning_recovery
        ));
        if r.monitor.enabled {
            s.push_str(&format!(
                "      \"monitor_ops_checked\": {},\n",
                r.monitor.ops_checked
            ));
            s.push_str(&format!(
                "      \"monitor_escalations\": {},\n",
                r.monitor.escalations
            ));
            s.push_str(&format!(
                "      \"monitor_violations\": {},\n",
                r.monitor.violations
            ));
        }
        s.push_str(&format!(
            "      \"determinism_match\": {},\n",
            c.determinism_match
        ));
        s.push_str(&format!("      \"state_match\": {},\n", c.state_match));
        s.push_str(&format!("      \"ok\": {}\n", c.failures.is_empty()));
        s.push_str(&format!(
            "    }}{}\n",
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

/// Per-recipient fault counts as `a/b/c/d` (one slot per node), the
/// compact breakdown for one-line reports and summary cells.
fn per_node(counts: &[u64]) -> String {
    counts
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join("/")
}

/// Append a GitHub Actions job-summary markdown table.
fn append_summary(path: &str, quick: bool, cells: &[Cell]) -> std::io::Result<()> {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let r = &c.report;
            vec![
                c.profile.to_string(),
                c.mode.criterion().to_string(),
                c.seed.to_string(),
                r.msgs_sent.to_string(),
                format!(
                    "{} ({})",
                    r.chaos.drops,
                    per_node(&r.chaos.dropped_per_node)
                ),
                format!("{} ({})", r.chaos.dups, per_node(&r.chaos.dup_per_node)),
                r.chaos.delayed.to_string(),
                r.chaos.repairs.to_string(),
                r.chaos.recoveries.len().to_string(),
                {
                    let (lb, rr) = disk_cols(r);
                    if lb == 0 && rr == 0 {
                        "—".to_string()
                    } else {
                        format!("{} KiB / {}", lb / 1024, rr)
                    }
                },
                format!("{}/{}", r.windows.len() - r.windows_failed, r.windows.len()),
                if !r.monitor.enabled {
                    "—".to_string()
                } else if r.monitor.certified(r.total_ops) {
                    format!("{} ✓", r.monitor.ops_checked)
                } else {
                    format!("{}/{} ✗", r.monitor.ops_checked, r.total_ops)
                },
                (if c.state_match { "✓" } else { "✗" }).to_string(),
                (if c.determinism_match { "✓" } else { "✗" }).to_string(),
                (if c.failures.is_empty() { "✓" } else { "✗" }).to_string(),
            ]
        })
        .collect();
    cbm_bench::append_summary_table(
        path,
        &format!("Chaos sweep ({})", if quick { "quick" } else { "full" }),
        &[
            "profile",
            "mode",
            "seed",
            "msgs",
            "drops (per node)",
            "dups (per node)",
            "delayed",
            "repairs",
            "recoveries",
            "log / replayed",
            "windows",
            "certified",
            "state",
            "det",
            "ok",
        ],
        &rows,
    )
}
