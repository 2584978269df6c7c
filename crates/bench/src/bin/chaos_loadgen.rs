//! Drive the live store engine through the chaos matrix — every plan of
//! the fault catalogue (`cbm_net::fault::CATALOGUE`) the engine can
//! run — and emit the committed chaos baseline (`BENCH_chaos.json`).
//!
//! ```text
//! chaos_loadgen [--quick] [--out PATH] [--seeds N] [--summary PATH] [--gate PATH]
//!               [--rf N] [--workers N] [--locality N] [--monitor] [--trace]
//!               [--trace-dir DIR] [--transport thread|tcp] [--log-dir DIR]
//! ```
//!
//! `--gate PATH` holds every cell to a committed baseline written by
//! this binary (`BENCH_chaos.json` for the full matrix): each scalar
//! column the baseline lists in `deterministic_columns`, plus the
//! number of `recoveries` rows, must reproduce exactly in the cell of
//! the same profile, mode, seed, workers and ops per worker. A cell the
//! baseline lacks fails; a baseline that cannot be read, has no cells
//! or lists no deterministic columns exits 2 before any cell runs.
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
//! A plan runs if every `Crash`/`Recover` it schedules falls on an
//! epoch boundary of the cell (`FaultPlan::crashes_on_epochs`): the
//! engine cuts a crash at a drain. Plans are built with the cell's
//! worker count and `e = verify.every_ops`; the `profile` column is the
//! plan's name.
//!
//! For every **plan × mode × seed** cell this binary runs the
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
//! missing recovery (crash plans must report every span recovered,
//! with at least one verified window spanning the recovery drain), a
//! final-state mismatch against the twin, or any determinism mismatch
//! between the two chaos runs. Exit status is 1 iff any cell failed or
//! deviated from the `--gate` baseline — this is what the `chaos-smoke`
//! CI job (and the nightly extended sweep) gates on — and 2 on a usage
//! error, before any cell runs.
//! Wall-clock columns are recorded but never gate.
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
//! Beyond the catalogue matrix, the sweep always runs the
//! **durability cells** of `docs/DURABILITY.md`:
//!
//! * `crash-recover-disk` / `rolling-crashes-disk` — the same crash
//!   plans with the per-worker epoch log on (`--log-dir`,
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

use cbm_bench::flags::{usage_error, Flags};
use cbm_bench::gate::Gate;
use cbm_bench::json::Json;
use cbm_bench::report::{self, append_summary_table};
use cbm_bench::{leg_config, outln, run_workload, Transport, Workload, SEED};
use cbm_net::fault::{named, NamedPlan, CATALOGUE};
use cbm_store::{BatchPolicy, DurableConfig, Mode, ShardConfig, StoreConfig, StoreReport};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "chaos_loadgen [--quick] [--out PATH] [--seeds N] [--summary PATH] \
     [--gate PATH] [--rf N] [--workers N] [--locality N] [--monitor] [--trace] \
     [--trace-dir DIR] [--transport thread|tcp] [--log-dir DIR]";

/// A cell row's gate key: profile / mode / seed / workers /
/// ops_per_worker.
fn cell_key(row: &Json) -> Option<String> {
    let lit = |k: &str| row.get(k)?.lit::<u64>();
    Some(format!(
        "{}/{}/{}/{}/{}",
        row.get("profile")?.as_str()?,
        row.get("mode")?.as_str()?,
        lit("seed")?,
        lit("workers")?,
        lit("ops_per_worker")?
    ))
}

/// One judged cell; its mode and seed are its report's.
struct Cell {
    profile: String,
    report: StoreReport,
    windows_spanning_recovery: usize,
    determinism_match: bool,
    state_match: bool,
    failures: Vec<String>,
}

/// Per-worker ops for a cell: the quick/full defaults, divided down
/// when the cluster axis grows past the default 4 workers — but never
/// below 4 epochs, because the crash plans schedule their last
/// `Recover` at tick `3 * every_ops` and the recovery drain needs one
/// more epoch boundary after it.
fn cell_ops(quick: bool, workers: usize, every: usize) -> (usize, usize) {
    let (ops, window) = if quick { (2_000, 16) } else { (20_000, 32) };
    let scale = (workers.max(4) / 4).max(1);
    ((ops / scale).max(4 * every), window)
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
#[derive(Clone, Copy, Default)]
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

/// A cell's fault-free configuration. Its `workers` and
/// `verify.every_ops` are the `(n, e)` its catalogue plan is built
/// with. `workers` = 0 takes the default 4; larger clusters shrink the
/// per-worker op count so the cell's total work stays bounded on
/// oversubscribed runners.
fn cfg(mode: Mode, seed: u64, quick: bool, dim: Dims) -> StoreConfig {
    let workers = if dim.workers == 0 { 4 } else { dim.workers };
    let every = if quick { 500 } else { 2_000 };
    let (ops, window) = cell_ops(quick, workers, every);
    // partial replication needs every worker to host a shard
    // (shards = min(objects, workers)), so the object space grows
    // with the cluster axis; at the default 4 workers this is the
    // long-standing 64-object space of the committed baseline
    let objects = 64.max(workers);
    let mut c = StoreConfig {
        seed,
        sharding: ShardConfig::rf_local(dim.rf, dim.locality),
        ..leg_config(
            mode,
            workers,
            objects,
            ops,
            BatchPolicy::Every(8),
            every,
            window,
        )
    };
    c.verify.monitor = dim.monitor;
    c
}

fn run(cfg: &StoreConfig, transport: Transport) -> StoreReport {
    run_workload(&Workload::Counter, cfg, transport)
}

/// Judge a cell's run `a` (configured by `cfg`) on top of the
/// cell-specific `failures`: the checks every run gets, no lost ops,
/// every deterministic column equal in its replay `a2`, and final state
/// byte-identical to its fault-free `twin`.
fn judge(
    profile: String,
    cfg: &StoreConfig,
    runs: [StoreReport; 3],
    mut failures: Vec<String>,
    windows_spanning_recovery: usize,
) -> Cell {
    let [a, a2, twin] = runs;
    failures.extend(report::run_failures(&a));
    if a.total_ops != cfg.total_ops() {
        failures.push(format!("ops lost: {} of {}", a.total_ops, cfg.total_ops()));
    }
    let (det_a, det_a2) = (det_columns(&a), det_columns(&a2));
    for ((k, va), (_, vb)) in det_a.iter().zip(&det_a2) {
        if va != vb {
            failures.push(format!("nondeterministic {k}: {va} vs {vb}"));
        }
    }
    // the run must end byte-identical to its fault-free twin, replica
    // by replica; under full replication every replica must
    // additionally agree (partial replicas host different shards, so
    // cross-replica equality only holds per shard there — the drain
    // convergence check covers that)
    let full = cfg.sharding.replication == 0 || cfg.sharding.replication >= cfg.workers;
    let hashes = &a.final_state_hashes;
    let state_match =
        *hashes == twin.final_state_hashes && (!full || hashes.iter().all(|&x| x == hashes[0]));
    if !state_match {
        failures.push(format!(
            "final state mismatch: {hashes:x?} vs twin {:x?}",
            twin.final_state_hashes
        ));
    }
    Cell {
        profile,
        determinism_match: det_a == det_a2,
        state_match,
        windows_spanning_recovery,
        failures,
        report: a,
    }
}

/// A catalogue-plan cell, run three times: under the fault plan, again
/// (the replay), and fault-free (the twin). With `log_base` the
/// crashed workers recover from their own epoch logs.
fn run_cell(
    plan: &NamedPlan,
    mode: Mode,
    seed: u64,
    quick: bool,
    dim: Dims,
    transport: Transport,
    log_base: Option<&Path>,
) -> Cell {
    let label = match log_base {
        Some(_) => format!("{}-disk", plan.name),
        None => plan.name.to_string(),
    };
    let free_cfg = cfg(mode, seed, quick, dim);
    let mut chaos_cfg = free_cfg.clone();
    chaos_cfg.chaos = (plan.build)(free_cfg.workers, free_cfg.verify.every_ops as u64);
    if let Some(base) = log_base {
        // the replay (run 2) reopens the same directory fresh — the
        // log is wiped and rewritten, which is exactly the contract
        chaos_cfg.durable = cell_durable(base, &label, mode, seed);
    }
    let a = run(&chaos_cfg, transport);
    let a2 = run(&chaos_cfg, transport);
    // the twin stays memory-only: byte-identical convergence then
    // proves the disk ladder equivalent to the live state transfer
    let twin = run(&free_cfg, transport);

    let mut failures = Vec::new();
    // the schedule itself says how many crash spans the plan has — no
    // hand-maintained table to drift out of sync with the catalogue
    let want_rec = cbm_store::ChaosSchedule::build(&chaos_cfg).spans.len();
    if a.chaos.recoveries.len() != want_rec {
        failures.push(format!(
            "expected {want_rec} recoveries, saw {}",
            a.chaos.recoveries.len()
        ));
    }
    let spanning = a
        .windows
        .iter()
        .filter(|w| w.spans_recovery && w.result.is_ok())
        .count();
    if want_rec > 0 && spanning == 0 {
        failures.push("no verified window spans a recovery".into());
    }
    judge(label, &chaos_cfg, [a, a2, twin], failures, spanning)
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
    let base_cfg = cfg(mode, seed, quick, dim);
    let epochs = (base_cfg.ops_per_worker / base_cfg.verify.every_ops.max(1)) as u64;
    let halt = (epochs / 2).max(1);

    let pair = |tag: &str| -> (StoreReport, StoreReport) {
        let mut halted_cfg = base_cfg.clone();
        halted_cfg.durable = cell_durable(log_base, &format!("cold-restart-{tag}"), mode, seed);
        // snapshot cadence off the halt boundary, so the resume
        // replays real log records, not just the compacted snapshot
        halted_cfg.durable.snapshot_every = 4;
        halted_cfg.durable.halt_at_boundary = halt;
        let halted = run(&halted_cfg, transport);
        let mut resumed_cfg = halted_cfg.clone();
        resumed_cfg.durable.halt_at_boundary = 0;
        resumed_cfg.durable.resume = true;
        (halted, run(&resumed_cfg, transport))
    };
    let (halted, a) = pair("a");
    let (_, a2) = pair("b");
    let twin = run(&base_cfg, transport);

    let mut failures = Vec::new();
    if !halted.verified() {
        failures.push("halted prefix run had unverified windows".into());
    }
    // every worker resumed from its own disk: one self-helper row each
    if a.chaos.recoveries.len() != base_cfg.workers {
        failures.push(format!(
            "expected {} resume rows, saw {}",
            base_cfg.workers,
            a.chaos.recoveries.len()
        ));
    }
    for rec in a.chaos.recoveries.iter().filter(|r| r.helper != r.worker) {
        failures.push(format!(
            "worker {} resumed through helper {} instead of its own disk",
            rec.worker, rec.helper
        ));
    }
    if disk_cols(&a).1 == 0 {
        failures.push("resume replayed no log records".into());
    }
    judge("cold-restart".into(), &base_cfg, [a, a2, twin], failures, 0)
}

/// Print a judged cell's line and failures, and dump its flight record
/// if it failed (every cell under `--trace`).
fn finish(cell: Cell, trace: bool, trace_dir: &str) -> Cell {
    let r = &cell.report;
    let (mode, seed) = (r.config.mode.criterion(), r.config.seed);
    eprint!(
        "{:>20} {mode} seed {seed}: {} msgs, {} drops [{}], {} dups [{}], \
         {} delayed, {} repairs",
        cell.profile,
        r.msgs_sent,
        r.chaos.drops,
        per_node(&r.chaos.dropped_per_node),
        r.chaos.dups,
        per_node(&r.chaos.dup_per_node),
        r.chaos.delayed,
        r.chaos.repairs,
    );
    let green = cell.failures.is_empty();
    eprintln!(" ... {}", if green { "ok" } else { "FAIL" });
    for f in &cell.failures {
        eprintln!("    {f}");
    }
    // tracing is auto-on under chaos, so every non-green cell has a
    // flight record to dump for post-mortems; --trace keeps the green
    // ones too
    if trace || !green {
        let name = format!("{}-{mode}-s{seed}", cell.profile);
        report::dump_trace(r, trace_dir, &name, "    ");
    }
    cell
}

fn main() -> ExitCode {
    let mut args = Flags::from_env(USAGE);
    let (mut quick, mut trace) = (false, false);
    let mut out_path = String::from("BENCH_chaos.json");
    let mut summary_path: Option<String> = None;
    let mut gate_path: Option<String> = None;
    let mut seeds: u64 = 0;
    let mut dim = Dims::default();
    let mut trace_dir = String::from("traces");
    let mut transport = Transport::Thread;
    let mut log_dir: Option<PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--trace" => trace = true,
            "--monitor" => dim.monitor = true,
            "--log-dir" => log_dir = Some(args.value(&a, "a path")),
            "--transport" => transport = args.choice(&a, "thread or tcp", Transport::parse),
            "--trace-dir" => trace_dir = args.value(&a, "a path"),
            "--out" => out_path = args.value(&a, "a path"),
            "--summary" => summary_path = Some(args.value(&a, "a path")),
            "--gate" => gate_path = Some(args.value(&a, "a baseline path")),
            "--seeds" => seeds = args.value(&a, "a number"),
            "--rf" => dim.rf = args.value(&a, "a replication factor (0 = full)"),
            "--workers" => dim.workers = args.value(&a, "a worker count (0 = default 4)"),
            "--locality" => dim.locality = args.value(&a, "a window size (0 = global draw)"),
            other => args.other(other),
        }
    }
    let gate = gate_path.map(|path| {
        let gate = Gate::load(&path, "cells", cell_key);
        let columns = gate.strings("deterministic_columns");
        if columns.is_empty() {
            usage_error(format!(
                "gate baseline {path} lists no deterministic_columns"
            ));
        }
        (gate, columns)
    });
    if seeds == 0 {
        seeds = if quick { 2 } else { 3 };
    }
    // the durability cells always run; without --log-dir they write
    // under a process-scoped scratch directory in $TMPDIR
    let log_base = log_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("cbm-chaos-logs-{}", std::process::id()))
    });
    if let Err(e) = std::fs::create_dir_all(&log_base) {
        usage_error(format!(
            "could not create --log-dir {}: {e}",
            log_base.display()
        ));
    }

    let grid = || {
        Mode::BOTH
            .into_iter()
            .flat_map(move |m| (0..seeds).map(move |s| (m, SEED + s)))
    };
    // every catalogue plan the engine can run (its crashes on epoch
    // boundaries), then the durability matrix: the crash plans again,
    // recovering from the epoch log instead of the live transfer...
    let free = cfg(Mode::Causal, SEED, quick, dim);
    let e = free.verify.every_ops as u64;
    let mut matrix: Vec<(&NamedPlan, Option<&Path>)> = CATALOGUE
        .iter()
        .filter(|p| (p.build)(free.workers, e).crashes_on_epochs(e))
        .map(|p| (p, None))
        .collect();
    matrix.extend(["crash-recover", "rolling-crashes"].map(|name| {
        let plan = named(name).expect("a catalogue plan");
        (plan, Some(log_base.as_path()))
    }));
    let mut cells: Vec<Cell> = Vec::new();
    for (plan, log) in matrix {
        for (mode, seed) in grid() {
            let cell = run_cell(plan, mode, seed, quick, dim, transport, log);
            cells.push(finish(cell, trace, &trace_dir));
        }
    }
    // ...and the fault-free cold restart of the whole fleet
    for (mode, seed) in grid() {
        let cell = run_cold_cell(mode, seed, quick, dim, transport, &log_base);
        cells.push(finish(cell, trace, &trace_dir));
    }

    if let Err(e) = std::fs::write(&out_path, document(quick, seeds, dim.rf, &cells).render()) {
        eprintln!("could not write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    outln!("wrote {out_path} ({} cells)", cells.len());

    if let Some(path) = summary_path {
        if let Err(e) = append_summary(&path, quick, &cells) {
            eprintln!("could not write summary {path}: {e}");
        }
    }

    let mut gate_failures = 0usize;
    if let Some((gate, columns)) = &gate {
        for c in &cells {
            let row = cell_json(c);
            let key = cell_key(&row).expect("a cell row carries its key columns");
            let got: Vec<(&str, u64)> = columns
                .iter()
                .filter_map(|col| Some((col.as_str(), row.get(col)?.count()?)))
                .collect();
            if let Some(problem) = gate.exact(&key, &got) {
                eprintln!("GATE {key}: {problem}");
                gate_failures += 1;
            }
        }
        if gate_failures == 0 {
            outln!(
                "gate: {} cell(s) reproduce {} exactly ({} deterministic columns)",
                cells.len(),
                gate.path,
                columns.len()
            );
        }
    }

    let failed = cells.iter().filter(|c| !c.failures.is_empty()).count();
    if failed > 0 || gate_failures > 0 {
        eprintln!(
            "chaos_loadgen: {failed} cell(s) failed, {gate_failures} deviated from the gate baseline"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The `cbm-chaos-v1` document.
fn document(quick: bool, seeds: u64, rf: usize, cells: &[Cell]) -> Json {
    // bytes_sent stays in each cell as an informational column but is
    // not deterministic: delta headers depend on delivery interleaving
    let deterministic = [
        "total_ops",
        "msgs_sent",
        "drops",
        "dups",
        "parked",
        "released",
        "delayed",
        "pruned",
        "crash_discarded",
        "nacks",
        "repairs",
        "repaired_batches",
        "recoveries",
        "remote_reads",
        "windows",
        "monitor_ops_checked",
        "monitor_escalations",
        "log_bytes",
        "replayed_records",
    ];
    Json::obj(vec![
        ("schema", "cbm-chaos-v1".into()),
        ("quick", quick.into()),
        ("seeds_per_cell", seeds.into()),
        ("replication", rf.into()),
        (
            "deterministic_columns",
            Json::Arr(deterministic.map(Json::from).to_vec()),
        ),
        ("cells", Json::List(cells.iter().map(cell_json).collect())),
    ])
}

fn cell_json(c: &Cell) -> Json {
    let r = &c.report;
    let (log_bytes, replayed) = disk_cols(r);
    let recoveries = r.chaos.recoveries.iter().map(|rec| {
        Json::row(vec![
            ("worker", rec.worker.into()),
            ("helper", rec.helper.into()),
            ("crash_epoch", rec.crash_epoch.into()),
            ("recover_epoch", rec.recover_epoch.into()),
            ("synced_shards", rec.synced_shards.into()),
            ("synced_objects", rec.synced_objects.into()),
            ("replayed_records", rec.replayed_records.into()),
            ("log_bytes", rec.log_bytes.into()),
            ("sync_ms", (rec.sync_wall_ns / 1_000_000).into()),
        ])
    });
    let dropped = r.chaos.dropped_per_node.iter().map(|&n| n.into()).collect();
    let mut fields = vec![
        ("profile", c.profile.as_str().into()),
        ("mode", r.config.mode.criterion().into()),
        ("seed", r.config.seed.into()),
        ("workers", r.config.workers.into()),
        ("ops_per_worker", r.config.ops_per_worker.into()),
        ("ops_survived", r.total_ops.into()),
        ("wall_ms", (r.wall_ns / 1_000_000).into()),
        ("msgs_sent", r.msgs_sent.into()),
        ("bytes_sent", r.bytes_sent.into()),
        ("drops", r.chaos.drops.into()),
        ("dups", r.chaos.dups.into()),
        ("parked", r.chaos.parked.into()),
        ("released", r.chaos.released.into()),
        ("delayed", r.chaos.delayed.into()),
        ("pruned", r.chaos.pruned.into()),
        ("crash_discarded", r.chaos.crash_discarded.into()),
        ("nacks", r.chaos.nacks.into()),
        ("repairs", r.chaos.repairs.into()),
        ("repaired_batches", r.chaos.repaired_batches.into()),
        ("dropped_per_node", Json::Arr(dropped)),
        ("remote_reads", r.remote_reads.into()),
        ("log_bytes", log_bytes.into()),
        ("replayed_records", replayed.into()),
        ("recoveries", Json::List(recoveries.collect())),
        ("windows", r.windows.len().into()),
        ("windows_failed", r.windows_failed.into()),
        (
            "windows_spanning_recovery",
            c.windows_spanning_recovery.into(),
        ),
    ];
    if r.monitor.enabled {
        fields.push(("monitor_ops_checked", r.monitor.ops_checked.into()));
        fields.push(("monitor_escalations", r.monitor.escalations.into()));
        fields.push(("monitor_violations", r.monitor.violations.into()));
    }
    fields.push(("determinism_match", c.determinism_match.into()));
    fields.push(("state_match", c.state_match.into()));
    fields.push(("ok", c.failures.is_empty().into()));
    Json::obj(fields)
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
                r.config.mode.criterion().to_string(),
                r.config.seed.to_string(),
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
    append_summary_table(
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
