//! Drive the live store engine (`cbm-store`) across a workload matrix
//! and emit the committed throughput baseline (`BENCH_throughput.json`).
//!
//! ```text
//! loadgen [--quick] [--out PATH] [--summary PATH] [--baseline PATH]
//!         [--gate PATH] [--trace] [--trace-dir DIR] [--monitor]
//!         [--transport thread|tcp] [--procs N] [--log-dir DIR]
//!         [--workers N] [--objects N] [--ops N] [--read-ratio R]
//!         [--batch N|off] [--mode cc|ccv] [--seed S] [--rf N]
//!         [--locality N] [--remote-read-ratio R]
//! ```
//!
//! `--log-dir DIR` turns the per-worker durable epoch log on for every
//! leg (`docs/DURABILITY.md`), one subdirectory per leg. The log is
//! pure write-path — no messages, no ops — so the deterministic
//! columns are unchanged and the same `--gate` baselines hold; this is
//! what the `durability-smoke` CI job gates on.
//!
//! `--transport tcp` runs every leg's replica mesh over real loopback
//! sockets ([`cbm_net::tcp`]) instead of in-process channels. The
//! deterministic columns are transport-independent (the flush-marker
//! cut protocol pins the quiesce decision, `docs/DEPLOYMENT.md`), so
//! the same committed `--gate` baselines gate both transports — the
//! `socket-smoke` CI job holds that equivalence on every push.
//!
//! `--procs N` goes one step further: spawn `N` `cbm-node` worker
//! *processes* on loopback, dispatch the matrix legs across them over
//! a control socket (`cbm_bench::proto`), and collect their reports
//! into the same JSON/summary/gate paths. Each node hosts a full
//! replica set over its own TCP mesh, so every leg's counts stay a
//! pure function of `(config, seed)` while the matrix parallelises
//! across processes. Flight records are dumped node-side into
//! `--trace-dir` (same filesystem on a loopback fleet).
//!
//! `--trace` turns on the `cbm-obs` flight recorder for every leg and
//! dumps each leg's trace into `--trace-dir` (default `traces/`) as
//! both `<leg>.trace.json` (Chrome/Perfetto) and `<leg>.jsonl` (the
//! byte-comparable logical timeline; see `docs/OBSERVABILITY.md`).
//! Even without `--trace`, a leg that fails verification, escalates a
//! monitor suspicion, or needed repair/recovery dumps its flight
//! record automatically whenever the engine recorded one — the
//! `monitor-smoke` CI job uploads exactly those dumps. Tracing never
//! changes the deterministic message/byte counts, so `--trace`
//! composes with `--gate`.
//!
//! `--summary` appends a markdown table (one row per leg, with the
//! committed baseline's deterministic message count alongside when
//! `--baseline` names a readable throughput JSON) — CI points it at
//! `$GITHUB_STEP_SUMMARY` so regressions are readable without
//! downloading artifacts. Leg names key the lookup, so pass the
//! baseline generated from the **same matrix**: the committed
//! `BENCH_throughput_quick.json` for `--quick` runs,
//! `BENCH_throughput.json` for full runs.
//!
//! With no workload flags, runs the **fixed matrix** (threads ×
//! objects × read-ratio × batching × mode) and writes one JSON
//! document; passing any workload flag runs that single configuration
//! instead. Two consumers:
//!
//! * **the perf trajectory** — the matrix output is committed at the
//!   repo root as `BENCH_throughput.json`, the second axis next to
//!   `BENCH_checker.json`: future PRs regenerate it on the same
//!   machine and diff ops/sec, latency percentiles, and message
//!   counts. Message/batch/payload counts are **deterministic**
//!   (rendezvous points are operation-counted, not timed), so those
//!   columns diff exactly; wall-clock columns are machine-dependent.
//! * **CI `throughput-smoke`** — runs `loadgen --quick` and fails on a
//!   panic or on any failed sampled-window verification; wall times
//!   never gate CI.
//!
//! `--gate` turns the committed baseline into a **hard deterministic
//! gate**: every leg's `msgs_sent`, `batches_sent`, and
//! `payloads_sent` must reproduce the baseline's values exactly (they
//! are pure functions of config and seed — any deviation is a
//! behavioural change of the delivery path, not noise). Byte totals
//! are *not* gated: delta-encoded knowledge headers size by how much
//! changed on an edge since its previous envelope, which depends on
//! delivery interleaving (`docs/SHARDING.md`) — `bytes_sent` stays in
//! the JSON as an informational column. The `sharding-smoke` and
//! `scaling-smoke` CI jobs run the quick matrix under
//! `--gate BENCH_throughput_quick.json`, which pins the full-vs-partial
//! replication traffic win count-for-count.
//!
//! The **scaling axis** (`docs/SCALING.md`): the full matrix carries
//! 64/128/256-worker legs at rf 2 with locality-bounded placement
//! (`--locality`, [`ShardConfig::rf_local`]), whose committed curve is
//! the evidence that delta encoding keeps bytes/op flat-to-falling as
//! the cluster grows; the summary renders it as a bytes/op-vs-workers
//! table.
//!
//! The **monitor axis** (`docs/VERIFICATION.md`): both matrices carry
//! `-mon` twins of selected legs — identical workload with the
//! streaming bad-pattern monitor certifying every operation inline.
//! The monitor never sends messages, so a twin's deterministic counts
//! equal its base leg's and the pair measures pure checking tax —
//! wall-clock and machine-dependent; see "The monitor tax, honestly"
//! in `docs/THROUGHPUT.md`. `monitor_ops_checked` and
//! `monitor_escalations` are deterministic per (config, seed) and join
//! the `--gate` contract. `--monitor` forces the monitor on for every
//! leg of the run (or for the single `custom` leg), for ad-hoc
//! certification sweeps.
//!
//! Exit status: non-zero iff any leg reports a failed window, a
//! drain-point divergence (convergent mode), an uncertified op or
//! monitor-confirmed violation on a monitor-enabled leg, or a `--gate`
//! deviation.

use cbm_bench::fleet::NodePool;
use cbm_bench::proto::LegSpec;
use cbm_bench::{run_workload, Transport, Workload};
use cbm_store::{
    BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, StoreReport,
    VerifyConfig,
};
use std::process::ExitCode;

/// One matrix cell.
#[derive(Clone)]
struct Leg {
    name: String,
    cfg: StoreConfig,
    read_ratio: f64,
    /// Fraction of reads that target an arbitrary object (and so may
    /// route to a remote replica under partial replication); the rest
    /// read objects the issuing worker hosts. Irrelevant at full
    /// replication, where every read is local anyway.
    remote_read_ratio: f64,
}

#[allow(clippy::too_many_arguments)] // a matrix-cell literal, not an API
fn leg(
    name: &str,
    mode: Mode,
    workers: usize,
    objects: usize,
    ops: usize,
    batch: BatchPolicy,
    read_ratio: f64,
    verify_every: usize,
    window_ops: usize,
    seed: u64,
) -> Leg {
    Leg {
        name: name.to_string(),
        cfg: StoreConfig {
            workers,
            objects,
            ops_per_worker: ops,
            mode,
            batch,
            verify: VerifyConfig {
                every_ops: verify_every,
                window_ops,
                sample_every: 1,
                monitor: false,
            },
            seed,
            sharding: ShardConfig::full(),
            chaos: cbm_net::fault::FaultPlan::new(),
            obs: ObsConfig::default(),
            durable: DurableConfig::default(),
        },
        read_ratio,
        remote_read_ratio: 0.0,
    }
}

/// A `leg` at replication factor `rf` with `remote` of its reads
/// targeting arbitrary (possibly non-hosted) objects.
fn sharded(mut l: Leg, rf: usize, remote: f64) -> Leg {
    l.cfg.sharding = ShardConfig::rf(rf);
    l.remote_read_ratio = remote;
    l
}

/// A `sharded` leg whose replicas are confined to a `locality`-worker
/// neighborhood of each shard's home — the large-cluster placement
/// that keeps interest fan-in (and delta-header size) bounded.
fn localized(mut l: Leg, rf: usize, locality: usize, remote: f64) -> Leg {
    l.cfg.sharding = ShardConfig::rf_local(rf, locality);
    l.remote_read_ratio = remote;
    l
}

/// The `-mon` twin of a leg: the identical workload with the
/// streaming bad-pattern monitor certifying every op inline
/// (`docs/VERIFICATION.md`). The monitor sends no messages, so the
/// twin's deterministic counts must equal the base leg's — the pair
/// isolates the pure checking tax.
fn monitored(base: &Leg) -> Leg {
    let mut l = base.clone();
    l.name.push_str("-mon");
    l.cfg.verify.monitor = true;
    l
}

/// Append `-mon` twins of the named legs to a matrix.
fn with_monitor_twins(mut legs: Vec<Leg>, names: &[&str]) -> Vec<Leg> {
    let twins: Vec<Leg> = legs
        .iter()
        .filter(|l| names.contains(&l.name.as_str()))
        .map(monitored)
        .collect();
    legs.extend(twins);
    legs
}

/// The committed matrix: the headline 1M-op batched run, its unbatched
/// twin (the ≥5× message-cut comparison), the convergent flavour, and
/// threads / objects / read-ratio sweep legs.
fn full_matrix() -> Vec<Leg> {
    let b32 = BatchPolicy::Every(32);
    let legs = vec![
        leg(
            "cc-4w-1024o-b32-r50",
            Mode::Causal,
            4,
            1024,
            250_000,
            b32,
            0.5,
            50_000,
            48,
            42,
        ),
        leg(
            "cc-4w-1024o-nobatch-r50",
            Mode::Causal,
            4,
            1024,
            250_000,
            BatchPolicy::Off,
            0.5,
            50_000,
            48,
            42,
        ),
        leg(
            "ccv-4w-1024o-b32-r50",
            Mode::Convergent,
            4,
            1024,
            250_000,
            b32,
            0.5,
            50_000,
            48,
            42,
        ),
        leg(
            "cc-2w-1024o-b32-r50",
            Mode::Causal,
            2,
            1024,
            250_000,
            b32,
            0.5,
            50_000,
            48,
            42,
        ),
        leg(
            "cc-8w-1024o-b32-r50",
            Mode::Causal,
            8,
            1024,
            125_000,
            b32,
            0.5,
            25_000,
            48,
            42,
        ),
        leg(
            "cc-4w-64o-b32-r50",
            Mode::Causal,
            4,
            64,
            250_000,
            b32,
            0.5,
            50_000,
            48,
            42,
        ),
        leg(
            "cc-4w-1024o-b32-r90",
            Mode::Causal,
            4,
            1024,
            250_000,
            b32,
            0.9,
            50_000,
            48,
            42,
        ),
        // the partial-replication axis: same workload shape as the
        // 8-worker full-replication leg, at rf 2 and rf 4, with 1% of
        // reads allowed to roam (exercising the request/reply path
        // without letting it dominate the traffic comparison)
        sharded(
            leg(
                "cc-8w-1024o-b32-r50-rf2",
                Mode::Causal,
                8,
                1024,
                125_000,
                b32,
                0.5,
                25_000,
                48,
                42,
            ),
            2,
            0.01,
        ),
        sharded(
            leg(
                "cc-8w-1024o-b32-r50-rf4",
                Mode::Causal,
                8,
                1024,
                125_000,
                b32,
                0.5,
                25_000,
                48,
                42,
            ),
            4,
            0.01,
        ),
        sharded(
            leg(
                "ccv-8w-1024o-b32-r50-rf2",
                Mode::Convergent,
                8,
                1024,
                125_000,
                b32,
                0.5,
                25_000,
                48,
                42,
            ),
            2,
            0.01,
        ),
        // the cluster-scaling axis (docs/SCALING.md): rf 2 with an
        // 8-worker aligned locality block, 64 -> 128 -> 256 workers at
        // a shrinking per-worker op count (the committed curve is
        // about bytes/op, which is per-op — not about wall time on an
        // oversubscribed runner). Roaming reads are rarer than on the
        // 8-worker rf legs (0.2% vs 1%) because a locality-placed
        // deployment is exactly one where clients read their own
        // block; the legs still route a few hundred cross-block reads
        // each, so the read-routing path stays exercised at every
        // cluster size. The curve these legs commit is the acceptance
        // evidence that delta-encoded metadata keeps bytes/op
        // flat-to-falling as the cluster grows.
        localized(
            leg(
                "cc-64w-1024o-b32-r50-rf2-loc8",
                Mode::Causal,
                64,
                1024,
                8_000,
                b32,
                0.5,
                4_000,
                24,
                42,
            ),
            2,
            8,
            0.002,
        ),
        localized(
            leg(
                "cc-128w-1024o-b32-r50-rf2-loc8",
                Mode::Causal,
                128,
                1024,
                4_000,
                b32,
                0.5,
                2_000,
                24,
                42,
            ),
            2,
            8,
            0.002,
        ),
        localized(
            leg(
                "cc-256w-1024o-b32-r50-rf2-loc8",
                Mode::Causal,
                256,
                1024,
                2_000,
                b32,
                0.5,
                1_000,
                24,
                42,
            ),
            2,
            8,
            0.002,
        ),
    ];
    // The monitor axis: the 1M-op 8-worker headline tax comparison,
    // the convergent flavour, and the rf-2 partial-replication leg
    // where served routed reads are certified on the serving side.
    with_monitor_twins(
        legs,
        &[
            "cc-8w-1024o-b32-r50",
            "ccv-4w-1024o-b32-r50",
            "cc-8w-1024o-b32-r50-rf2",
        ],
    )
}

/// CI smoke matrix: small enough for a debug-capable runner, still one
/// leg per mode plus the unbatched comparison.
fn quick_matrix() -> Vec<Leg> {
    let b8 = BatchPolicy::Every(8);
    let legs = vec![
        leg(
            "cc-4w-64o-b8-r50-quick",
            Mode::Causal,
            4,
            64,
            4_000,
            b8,
            0.5,
            1_000,
            24,
            42,
        ),
        leg(
            "cc-4w-64o-nobatch-r50-quick",
            Mode::Causal,
            4,
            64,
            4_000,
            BatchPolicy::Off,
            0.5,
            1_000,
            24,
            42,
        ),
        leg(
            "ccv-4w-64o-b8-r50-quick",
            Mode::Convergent,
            4,
            64,
            4_000,
            b8,
            0.5,
            1_000,
            24,
            42,
        ),
        // rf ∈ {1, 2}: the sharding-smoke axis (5% roaming reads keep
        // the routed-read path exercised in CI every run)
        sharded(
            leg(
                "cc-4w-64o-b8-r50-rf1-quick",
                Mode::Causal,
                4,
                64,
                4_000,
                b8,
                0.5,
                1_000,
                24,
                42,
            ),
            1,
            0.05,
        ),
        sharded(
            leg(
                "cc-4w-64o-b8-r50-rf2-quick",
                Mode::Causal,
                4,
                64,
                4_000,
                b8,
                0.5,
                1_000,
                24,
                42,
            ),
            2,
            0.05,
        ),
        sharded(
            leg(
                "ccv-4w-64o-b8-r50-rf2-quick",
                Mode::Convergent,
                4,
                64,
                4_000,
                b8,
                0.5,
                1_000,
                24,
                42,
            ),
            2,
            0.05,
        ),
        // the scaling-smoke cell: 64 workers, rf 2, locality 8 — keeps
        // the large-cluster delivery path (wide interest masks,
        // locality placement, delta headers over many edges) under the
        // exact-count gate on every push
        localized(
            leg(
                "cc-64w-256o-b8-r50-rf2-loc8-quick",
                Mode::Causal,
                64,
                256,
                1_000,
                b8,
                0.5,
                500,
                16,
                42,
            ),
            2,
            8,
            0.05,
        ),
    ];
    // the monitor-smoke cells: one per mode plus the rf-2 routed-read
    // flavour, gated on exact certified-op and escalation counts
    with_monitor_twins(
        legs,
        &[
            "cc-4w-64o-b8-r50-quick",
            "ccv-4w-64o-b8-r50-quick",
            "cc-4w-64o-b8-r50-rf2-quick",
        ],
    )
}

/// The shared register workload this leg denotes (the generator
/// itself lives in [`cbm_bench::run_workload`], where `cbm-node`
/// reproduces it bit-for-bit in multi-process runs).
fn workload_of(l: &Leg) -> Workload {
    Workload::Register {
        read_ratio: l.read_ratio,
        remote_read_ratio: l.remote_read_ratio,
    }
}

fn run_leg(l: &Leg, transport: Transport) -> StoreReport {
    run_workload(&workload_of(l), &l.cfg, transport)
}

/// Print one leg's verdict diagnostics and dump its flight record when
/// warranted; returns `true` iff the leg failed (a failed window, a
/// drain divergence, or an uncertified monitor-enabled run). In
/// multi-process runs the report arrives without its trace — the node
/// already dumped it into the shared `trace_dir`.
fn report_leg(l: &Leg, r: &StoreReport, trace: bool, trace_dir: &str) -> bool {
    for w in r.windows.iter().filter(|w| w.result.is_err()) {
        eprintln!(
            "{}: FAIL window {} [{}]: {:?}",
            l.name, w.window, w.criterion, w.result
        );
    }
    if r.monitor.enabled {
        eprintln!(
            "{}: monitor {}/{} ops certified, {} escalation(s) ({} cleared, {} violations)",
            l.name,
            r.monitor.ops_checked,
            r.total_ops,
            r.monitor.escalations,
            r.monitor.cleared,
            r.monitor.violations
        );
        for rec in &r.monitor.records {
            eprintln!(
                "  ESCALATE worker {} epoch {} op {}: {} ({} events) -> {}",
                rec.worker, rec.epoch, rec.at_op, rec.pattern, rec.events, rec.verdict
            );
        }
    }
    let uncertified = r.monitor.enabled && !r.monitor.certified(r.total_ops);
    if uncertified {
        eprintln!(
            "{}: FAIL monitor: certification shortfall ({}/{} ops) or confirmed violation",
            l.name, r.monitor.ops_checked, r.total_ops
        );
    }
    // Flight-recorder dump: always under --trace; automatically on a
    // failed verdict, a monitor escalation, or any repair/recovery the
    // engine traced — escalated legs always leave a post-mortem record
    // for CI to upload.
    if let Some(rec) = &r.trace {
        let wanted = trace
            || !r.verified()
            || r.monitor.escalations > 0
            || r.chaos.repairs > 0
            || !r.chaos.recoveries.is_empty();
        if wanted {
            match cbm_bench::write_trace(trace_dir, &l.name, rec) {
                Ok((chrome, jsonl)) => eprintln!("  trace: {chrome} + {jsonl}"),
                Err(e) => eprintln!("  trace: could not write to {trace_dir}: {e}"),
            }
        }
    }
    !r.verified() || uncertified
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut summary_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut gate_path: Option<String> = None;
    let mut trace = false;
    let mut trace_dir = String::from("traces");
    let mut force_monitor = false;
    let mut transport = Transport::Thread;
    let mut procs: usize = 0;
    let mut log_dir: Option<String> = None;
    let mut custom = StoreConfig::default();
    let mut custom_read_ratio = 0.5;
    let mut custom_remote_read_ratio = 0.05;
    let mut is_custom = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let next_usize = |flag: &str, it: &mut std::slice::Iter<String>| -> Option<usize> {
            let v = it.next().and_then(|v| v.parse().ok());
            if v.is_none() {
                eprintln!("{flag} needs a number");
            }
            v
        };
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
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
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(p.clone()),
                None => {
                    eprintln!("--baseline needs a path");
                    return ExitCode::from(2);
                }
            },
            "--gate" => match it.next() {
                Some(p) => gate_path = Some(p.clone()),
                None => {
                    eprintln!("--gate needs a baseline path");
                    return ExitCode::from(2);
                }
            },
            "--trace" => trace = true,
            "--monitor" => force_monitor = true,
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
            "--procs" => match next_usize("--procs", &mut it) {
                Some(v) if v > 0 => procs = v,
                _ => {
                    eprintln!("--procs needs a positive node count");
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
            "--rf" => match next_usize("--rf", &mut it) {
                Some(v) => {
                    custom.sharding = ShardConfig::rf(v);
                    is_custom = true;
                }
                None => return ExitCode::from(2),
            },
            "--locality" => match next_usize("--locality", &mut it) {
                Some(v) => {
                    custom.sharding.locality = v;
                    is_custom = true;
                }
                None => return ExitCode::from(2),
            },
            "--remote-read-ratio" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) => {
                    custom_remote_read_ratio = v.clamp(0.0, 1.0);
                    is_custom = true;
                }
                None => {
                    eprintln!("--remote-read-ratio needs a number in [0,1]");
                    return ExitCode::from(2);
                }
            },
            "--workers" => match next_usize("--workers", &mut it) {
                Some(v) => {
                    custom.workers = v;
                    is_custom = true;
                }
                None => return ExitCode::from(2),
            },
            "--objects" => match next_usize("--objects", &mut it) {
                Some(v) => {
                    custom.objects = v.max(1);
                    is_custom = true;
                }
                None => return ExitCode::from(2),
            },
            "--ops" => match next_usize("--ops", &mut it) {
                Some(v) => {
                    custom.ops_per_worker = v;
                    is_custom = true;
                }
                None => return ExitCode::from(2),
            },
            "--read-ratio" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) => {
                    custom_read_ratio = v.clamp(0.0, 1.0);
                    is_custom = true;
                }
                None => {
                    eprintln!("--read-ratio needs a number in [0,1]");
                    return ExitCode::from(2);
                }
            },
            "--batch" => match it.next().map(String::as_str) {
                Some("off") => {
                    custom.batch = BatchPolicy::Off;
                    is_custom = true;
                }
                Some(v) => match v.parse() {
                    Ok(k) => {
                        custom.batch = BatchPolicy::Every(k);
                        is_custom = true;
                    }
                    Err(_) => {
                        eprintln!("--batch needs a number or 'off'");
                        return ExitCode::from(2);
                    }
                },
                None => {
                    eprintln!("--batch needs a number or 'off'");
                    return ExitCode::from(2);
                }
            },
            "--mode" => match it.next().map(String::as_str) {
                Some("cc") => {
                    custom.mode = Mode::Causal;
                    is_custom = true;
                }
                Some("ccv") => {
                    custom.mode = Mode::Convergent;
                    is_custom = true;
                }
                _ => {
                    eprintln!("--mode needs cc or ccv");
                    return ExitCode::from(2);
                }
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => {
                    custom.seed = v;
                    is_custom = true;
                }
                None => {
                    eprintln!("--seed needs a number");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "loadgen [--quick] [--out PATH] [--summary PATH] [--baseline PATH] \
                     [--gate PATH] [--trace] [--trace-dir DIR] [--monitor] [--log-dir DIR] \
                     [--transport thread|tcp] [--procs N] [--workers N] \
                     [--objects N] [--ops N] [--read-ratio R] [--batch N|off] [--mode cc|ccv] \
                     [--seed S] [--rf N] [--locality N] [--remote-read-ratio R]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag '{other}'");
                return ExitCode::from(2);
            }
        }
    }

    let mut legs: Vec<Leg> = if is_custom {
        custom.verify.every_ops = custom
            .verify
            .every_ops
            .min(custom.ops_per_worker / 2)
            .max(1);
        vec![Leg {
            name: "custom".into(),
            cfg: custom,
            read_ratio: custom_read_ratio,
            remote_read_ratio: custom_remote_read_ratio,
        }]
    } else if quick {
        quick_matrix()
    } else {
        full_matrix()
    };
    if trace {
        for l in &mut legs {
            l.cfg.obs.trace = true;
        }
    }
    if force_monitor {
        for l in &mut legs {
            l.cfg.verify.monitor = true;
        }
    }
    // --log-dir turns the durable epoch log on for every leg (one
    // subdirectory each — legs must never share logs). Logging is
    // write-path only here: it sends no messages and issues no ops,
    // so every deterministic column stays equal to the memory-only
    // run's and the same committed `--gate` baselines keep gating
    // (`docs/DURABILITY.md`). Wall-clock columns absorb the fsyncs.
    if let Some(base) = &log_dir {
        for l in &mut legs {
            let dir = std::path::Path::new(base).join(&l.name);
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("could not create --log-dir {}: {e}", dir.display());
                return ExitCode::from(2);
            }
            l.cfg.durable = DurableConfig {
                log_dir: Some(dir.to_string_lossy().into_owned()),
                ..DurableConfig::default()
            };
        }
    }

    // Load the gate baseline *before* any leg runs: a missing or
    // unparsable baseline is an operator error that must fail fast
    // with a clean message and exit 2 — never a post-run surprise and
    // never a panic.
    let gate: Option<(String, std::collections::HashMap<String, GateCounts>)> = match gate_path {
        None => None,
        Some(path) => match std::fs::read_to_string(&path) {
            Err(e) => {
                eprintln!("loadgen: cannot read gate baseline {path}: {e}");
                return ExitCode::from(2);
            }
            Ok(text) => {
                let baseline = parse_baseline_counts(&text);
                if baseline.is_empty() {
                    eprintln!(
                        "loadgen: gate baseline {path} contains no legs — \
                         not a cbm-throughput document?"
                    );
                    return ExitCode::from(2);
                }
                Some((path, baseline))
            }
        },
    };

    let reports: Vec<(Leg, StoreReport)> = if procs > 0 {
        // Multi-process mode: every leg runs in a cbm-node worker
        // process (over its own in-process TCP mesh); the driver only
        // dispatches specs and collects reports.
        let specs: Vec<LegSpec> = legs
            .iter()
            .map(|l| LegSpec {
                name: l.name.clone(),
                cfg: l.cfg.clone(),
                workload: workload_of(l),
                trace,
                trace_dir: trace_dir.clone(),
            })
            .collect();
        eprintln!(
            "fleet: spawning {procs} cbm-node process(es) for {} leg(s)",
            specs.len()
        );
        let mut pool = match NodePool::spawn(procs) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("loadgen: cannot spawn the node fleet: {e}");
                return ExitCode::FAILURE;
            }
        };
        let collected = match pool.run_batch(&specs) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("loadgen: fleet run failed: {e}");
                pool.shutdown();
                return ExitCode::FAILURE;
            }
        };
        let killed = pool.shutdown();
        if killed > 0 {
            eprintln!("loadgen: {killed} node(s) had to be killed at shutdown");
        }
        legs.iter().cloned().zip(collected).collect()
    } else {
        let mut out: Vec<(Leg, StoreReport)> = Vec::new();
        for l in &legs {
            eprint!("{} [{}] ... ", l.name, transport.name());
            let r = run_leg(l, transport);
            eprintln!(
                "{:.0} ops/s, p50 {} ns, p99 {} ns, {} msgs, mean batch {:.1}, \
                 {} windows ({} failed)",
                r.ops_per_sec,
                r.latency.p50_ns,
                r.latency.p99_ns,
                r.msgs_sent,
                r.mean_batch,
                r.windows.len(),
                r.windows_failed
            );
            out.push((l.clone(), r));
        }
        out
    };

    let mut failures = 0usize;
    for (l, r) in &reports {
        if report_leg(l, r, trace, &trace_dir) {
            failures += 1;
        }
    }

    // default output mirrors the committed baseline the matrix
    // corresponds to, so a `--quick` gate run can't clobber the full
    // baseline
    let out_path = out_path.unwrap_or_else(|| {
        String::from(if quick {
            "BENCH_throughput_quick.json"
        } else {
            "BENCH_throughput.json"
        })
    });
    let json = render_json(quick, is_custom, &reports);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("could not write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path} ({} legs)", reports.len());

    if let Some(path) = summary_path {
        let baseline = baseline_path
            .as_deref()
            .and_then(|p| std::fs::read_to_string(p).ok())
            .map(|s| parse_baseline_msgs(&s))
            .unwrap_or_default();
        if let Err(e) = append_summary(&path, quick, &reports, &baseline) {
            eprintln!("could not write summary {path}: {e}");
        }
    }

    let mut gate_failures = 0usize;
    if let Some((path, baseline)) = &gate {
        for (l, r) in &reports {
            match baseline.get(&l.name) {
                None => {
                    eprintln!(
                        "GATE {}: leg missing from {path} — regenerate the \
                         committed baseline",
                        l.name
                    );
                    gate_failures += 1;
                }
                Some(base) => {
                    let mut deviations: Vec<String> = Vec::new();
                    let mut check = |col: &str, got: u64, want: Option<u64>| {
                        if let Some(w) = want {
                            if got != w {
                                deviations.push(format!("{col} {got} (baseline {w})"));
                            }
                        }
                    };
                    check("msgs", r.msgs_sent, base.msgs);
                    check("batches", r.batches_sent, base.batches);
                    check("payloads", r.payloads_sent, base.payloads);
                    // escalation behaviour is part of the
                    // determinism contract: same (config,
                    // seed) => same certified-op and
                    // escalation counts. Exception: --monitor
                    // forcing the monitor onto a leg whose
                    // baseline recorded it off (mon_ops == 0)
                    // makes the columns incomparable — the
                    // monitor-smoke job pins those legs by
                    // diffing two forced runs instead, and
                    // the uncertified-leg failure still
                    // applies.
                    if !(force_monitor && base.mon_ops == Some(0)) {
                        check("monitor_ops_checked", r.monitor.ops_checked, base.mon_ops);
                        check("monitor_escalations", r.monitor.escalations, base.mon_esc);
                    }
                    if !deviations.is_empty() {
                        eprintln!(
                            "GATE {}: deterministic counts deviate from {path}: {}",
                            l.name,
                            deviations.join(", ")
                        );
                        gate_failures += 1;
                    }
                }
            }
        }
        if gate_failures == 0 {
            println!(
                "gate: {} leg(s) reproduce {} exactly \
                 (msgs + batches + payloads + monitor counters; bytes \
                 are interleaving-dependent and not gated)",
                reports.len(),
                path
            );
        }
    }

    if failures > 0 || gate_failures > 0 {
        eprintln!(
            "loadgen: {failures} leg(s) failed verification, \
             {gate_failures} deterministic gate deviation(s)"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One leg's gated deterministic counts from a committed baseline.
/// `bytes_sent` is deliberately absent — delta headers make byte
/// totals interleaving-dependent. The monitor columns are optional so
/// pre-monitor baselines still parse (they then simply don't gate the
/// monitor counters).
#[derive(Default, Clone, Copy)]
struct GateCounts {
    msgs: Option<u64>,
    batches: Option<u64>,
    payloads: Option<u64>,
    mon_ops: Option<u64>,
    mon_esc: Option<u64>,
}

/// Extract `name -> GateCounts` from a committed baseline document
/// (one field per line; see `cbm_bench::field_str`).
fn parse_baseline_counts(json: &str) -> std::collections::HashMap<String, GateCounts> {
    let mut out = std::collections::HashMap::new();
    let mut current: Option<String> = None;
    let mut acc = GateCounts::default();
    let flush = |name: &mut Option<String>,
                 acc: &mut GateCounts,
                 out: &mut std::collections::HashMap<String, GateCounts>| {
        if let Some(n) = name.take() {
            out.insert(n, *acc);
        }
        *acc = GateCounts::default();
    };
    for line in json.lines() {
        if let Some(name) = cbm_bench::field_str(line, "name") {
            flush(&mut current, &mut acc, &mut out);
            current = Some(name);
        } else if let Some(v) = cbm_bench::field_u64(line, "msgs_sent") {
            acc.msgs = Some(v);
        } else if let Some(v) = cbm_bench::field_u64(line, "batches_sent") {
            acc.batches = Some(v);
        } else if let Some(v) = cbm_bench::field_u64(line, "payloads_sent") {
            acc.payloads = Some(v);
        } else if let Some(v) = cbm_bench::field_u64(line, "monitor_ops_checked") {
            acc.mon_ops = Some(v);
        } else if let Some(v) = cbm_bench::field_u64(line, "monitor_escalations") {
            acc.mon_esc = Some(v);
        }
    }
    flush(&mut current, &mut acc, &mut out);
    out
}

/// Extract `name -> msgs_sent` from a committed baseline document
/// (one field per line; see `cbm_bench::field_str`).
fn parse_baseline_msgs(json: &str) -> std::collections::HashMap<String, u64> {
    let mut out = std::collections::HashMap::new();
    let mut current: Option<String> = None;
    for line in json.lines() {
        if let Some(name) = cbm_bench::field_str(line, "name") {
            current = Some(name);
        } else if let Some(v) = cbm_bench::field_u64(line, "msgs_sent") {
            if let Some(name) = current.take() {
                out.insert(name, v);
            }
        }
    }
    out
}

/// Append a GitHub Actions job-summary markdown table.
fn append_summary(
    path: &str,
    quick: bool,
    reports: &[(Leg, StoreReport)],
    baseline: &std::collections::HashMap<String, u64>,
) -> std::io::Result<()> {
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|(l, r)| {
            vec![
                l.name.clone(),
                l.cfg.mode.criterion().to_string(),
                l.cfg.workers.to_string(),
                if l.cfg.sharding.replication == 0 {
                    "full".into()
                } else {
                    l.cfg.sharding.replication.to_string()
                },
                format!("{:.0}", r.ops_per_sec),
                r.total_ops.to_string(),
                // the op clock is sampled: the weights its samples
                // enter the histogram with must still add up to the ops
                r.metric("op_latency_ns.count")
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "—".into()),
                r.latency.p50_ns.to_string(),
                r.latency.p99_ns.to_string(),
                r.msgs_sent.to_string(),
                baseline
                    .get(&l.name)
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "—".into()),
                r.remote_reads.to_string(),
                format!("{:.1}", r.mean_batch),
                format!("{}/{}", r.windows.len() - r.windows_failed, r.windows.len()),
            ]
        })
        .collect();
    cbm_bench::append_summary_table(
        path,
        &format!(
            "Throughput smoke ({})",
            if quick { "quick" } else { "full" }
        ),
        &[
            "leg",
            "mode",
            "workers",
            "rf",
            "ops/s",
            "total_ops",
            "op_latency_ns.count",
            "p50 ns",
            "p99 ns",
            "msgs",
            "baseline msgs",
            "remote reads",
            "mean batch",
            "windows",
        ],
        &rows,
    )?;

    // The scaling curve (docs/SCALING.md): bytes/op vs cluster size
    // for the partial-replication legs. bytes/op is informational
    // (delta headers are interleaving-dependent) but stable to within
    // a fraction of a percent; the deterministic msgs/op column
    // travels alongside it.
    let mut scaling_rows: Vec<Vec<String>> = reports
        .iter()
        .filter(|(l, _)| l.cfg.sharding.replication > 0)
        .map(|(l, r)| {
            vec![
                l.name.clone(),
                l.cfg.workers.to_string(),
                l.cfg.sharding.replication.to_string(),
                l.cfg.sharding.locality.to_string(),
                r.msgs_sent.to_string(),
                r.bytes_sent.to_string(),
                format!("{:.2}", r.msgs_sent as f64 / r.total_ops as f64),
                format!("{:.1}", r.bytes_sent as f64 / r.total_ops as f64),
            ]
        })
        .collect();
    scaling_rows.sort_by_key(|row| row[1].parse::<usize>().unwrap_or(0));
    if !scaling_rows.is_empty() {
        cbm_bench::append_summary_table(
            path,
            "Scaling: bytes/op vs workers (rf legs)",
            &[
                "leg", "workers", "rf", "locality", "msgs", "bytes", "msgs/op", "bytes/op",
            ],
            &scaling_rows,
        )?;
    }

    // Monitor certification (docs/VERIFICATION.md): certified-op
    // coverage and escalation counts are deterministic; the overhead
    // column compares each `-mon` twin against its monitor-off base
    // leg from the same run (wall-clock, so machine-dependent — see
    // "The monitor tax, honestly" in docs/THROUGHPUT.md for how to
    // read it, especially on single-core runners).
    let monitor_rows: Vec<Vec<String>> = reports
        .iter()
        .filter(|(_, r)| r.monitor.enabled)
        .map(|(l, r)| {
            let base_ops = l
                .name
                .strip_suffix("-mon")
                .and_then(|base| reports.iter().find(|(b, _)| b.name == base))
                .map(|(_, b)| b.ops_per_sec);
            vec![
                l.name.clone(),
                format!(
                    "{}/{} ({:.1}%)",
                    r.monitor.ops_checked,
                    r.total_ops,
                    100.0 * r.monitor.ops_checked as f64 / (r.total_ops.max(1)) as f64
                ),
                r.monitor.escalations.to_string(),
                r.monitor.violations.to_string(),
                format!("{:.0}", r.ops_per_sec),
                base_ops
                    .map(|b| format!("{:.1}%", 100.0 * (1.0 - r.ops_per_sec / b)))
                    .unwrap_or_else(|| "—".into()),
                if r.monitor.certified(r.total_ops) {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]
        })
        .collect();
    if !monitor_rows.is_empty() {
        cbm_bench::append_summary_table(
            path,
            "Monitor certification (streaming bad-pattern checker)",
            &[
                "leg",
                "ops certified",
                "escalations",
                "violations",
                "ops/s",
                "overhead vs base",
                "certified",
            ],
            &monitor_rows,
        )?;
    }

    // Socket transport counters (docs/DEPLOYMENT.md): only legs that
    // ran over the TCP mesh carry them. Scheduling decides how frames
    // coalesce and how deep the backlog gets, so the table is
    // informational and nothing gates on it.
    const TCP_COUNTERS: [&str; 5] = [
        "tcp_frames_written_total",
        "tcp_write_syscalls_total",
        "tcp_backlog_peak_bytes",
        "tcp_backpressure_waits_total",
        "tcp_frames_rejected_total",
    ];
    let tcp_rows: Vec<Vec<String>> = reports
        .iter()
        .filter_map(|(l, r)| {
            let mut row = vec![l.name.clone()];
            for name in TCP_COUNTERS {
                row.push(r.metric(name)?.to_string());
            }
            Some(row)
        })
        .collect();
    if !tcp_rows.is_empty() {
        let mut columns = vec!["leg"];
        columns.extend(TCP_COUNTERS);
        cbm_bench::append_summary_table(
            path,
            "Socket transport counters (informational, never gated)",
            &columns,
            &tcp_rows,
        )?;
    }

    // Envelope buffer stock (docs/THROUGHPUT.md "What replication
    // costs"): the two counts sum to the batch envelopes stamped; how
    // they split is decided by how deep each worker's inbound backlog
    // gets relative to its stock, i.e. by the scheduler.
    let stock_rows: Vec<Vec<String>> = reports
        .iter()
        .filter_map(|(l, r)| {
            let reused = r.metric("envelope_bufs_reused_total")?;
            let allocated = r.metric("envelope_bufs_allocated_total")?;
            (reused + allocated > 0).then(|| {
                vec![
                    l.name.clone(),
                    reused.to_string(),
                    allocated.to_string(),
                    format!(
                        "{:.1}%",
                        100.0 * reused as f64 / (reused + allocated) as f64
                    ),
                ]
            })
        })
        .collect();
    if !stock_rows.is_empty() {
        cbm_bench::append_summary_table(
            path,
            "Envelope buffers (informational, never gated)",
            &["leg", "reused", "allocated", "reuse"],
            &stock_rows,
        )?;
    }

    // Epoch log I/O (docs/DURABILITY.md): only --log-dir legs write
    // records. Where the write groups fill depends on delivery order,
    // so the table is informational and nothing gates on it.
    const DURABLE_COUNTERS: [&str; 4] = [
        "durable_records_total",
        "durable_bytes_total",
        "durable_write_syscalls_total",
        "durable_syncs_total",
    ];
    let durable_rows: Vec<Vec<String>> = reports
        .iter()
        .filter(|(_, r)| r.metric("durable_records_total").unwrap_or(0) > 0)
        .filter_map(|(l, r)| {
            let mut row = vec![l.name.clone()];
            for name in DURABLE_COUNTERS {
                row.push(r.metric(name)?.to_string());
            }
            Some(row)
        })
        .collect();
    if !durable_rows.is_empty() {
        let mut columns = vec!["leg"];
        columns.extend(DURABLE_COUNTERS);
        cbm_bench::append_summary_table(
            path,
            "Epoch log I/O (informational, never gated)",
            &columns,
            &durable_rows,
        )?;
    }

    // Per-epoch dashboard: every column deterministic per
    // (config, seed), so this table diffs exactly across reruns.
    let mut epoch_rows: Vec<Vec<String>> = Vec::new();
    for (l, r) in reports {
        for e in &r.epochs {
            let mut row = vec![l.name.clone()];
            row.extend(cbm_bench::epoch_row(e));
            epoch_rows.push(row);
        }
    }
    let mut columns: Vec<&str> = vec!["leg"];
    columns.extend(cbm_bench::EPOCH_COLUMNS);
    cbm_bench::append_summary_table(path, "Per-epoch activity", &columns, &epoch_rows)
}

/// Hand-rolled JSON (the workspace vendors no serializer;
/// the explicit schema doubles as documentation).
fn render_json(quick: bool, custom: bool, reports: &[(Leg, StoreReport)]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"cbm-throughput-v1\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"custom\": {custom},\n"));
    // bytes_sent is informational, not deterministic: delta-encoded
    // knowledge headers depend on delivery interleaving
    s.push_str(
        "  \"deterministic_columns\": [\"total_ops\", \"msgs_sent\", \
         \"batches_sent\", \"payloads_sent\", \"mean_batch\", \"remote_reads\", \
         \"windows\", \"monitor_ops_checked\", \"monitor_escalations\"],\n",
    );
    s.push_str("  \"legs\": [\n");
    for (i, (l, r)) in reports.iter().enumerate() {
        let batch = match l.cfg.batch {
            BatchPolicy::Off => "\"off\"".to_string(),
            BatchPolicy::Every(k) => k.to_string(),
        };
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", l.name));
        s.push_str(&format!(
            "      \"mode\": \"{}\",\n",
            l.cfg.mode.criterion()
        ));
        s.push_str(&format!("      \"workers\": {},\n", l.cfg.workers));
        s.push_str(&format!("      \"objects\": {},\n", l.cfg.objects));
        s.push_str(&format!(
            "      \"ops_per_worker\": {},\n",
            l.cfg.ops_per_worker
        ));
        s.push_str(&format!("      \"read_ratio\": {},\n", l.read_ratio));
        s.push_str(&format!(
            "      \"replication\": {},\n",
            l.cfg.sharding.replication
        ));
        s.push_str(&format!(
            "      \"locality\": {},\n",
            l.cfg.sharding.locality
        ));
        s.push_str(&format!(
            "      \"remote_read_ratio\": {},\n",
            l.remote_read_ratio
        ));
        s.push_str(&format!("      \"batch\": {batch},\n"));
        s.push_str(&format!("      \"seed\": {},\n", l.cfg.seed));
        s.push_str(&format!("      \"total_ops\": {},\n", r.total_ops));
        s.push_str(&format!("      \"wall_ms\": {},\n", r.wall_ns / 1_000_000));
        s.push_str(&format!("      \"ops_per_sec\": {:.0},\n", r.ops_per_sec));
        s.push_str(&format!("      \"p50_ns\": {},\n", r.latency.p50_ns));
        s.push_str(&format!("      \"p99_ns\": {},\n", r.latency.p99_ns));
        s.push_str(&format!("      \"max_ns\": {},\n", r.latency.max_ns));
        s.push_str(&format!("      \"mean_ns\": {},\n", r.latency.mean_ns));
        s.push_str(&format!("      \"msgs_sent\": {},\n", r.msgs_sent));
        s.push_str(&format!("      \"bytes_sent\": {},\n", r.bytes_sent));
        s.push_str(&format!("      \"batches_sent\": {},\n", r.batches_sent));
        s.push_str(&format!("      \"payloads_sent\": {},\n", r.payloads_sent));
        s.push_str(&format!("      \"mean_batch\": {:.2},\n", r.mean_batch));
        s.push_str(&format!("      \"remote_reads\": {},\n", r.remote_reads));
        s.push_str(&format!("      \"monitor\": {},\n", r.monitor.enabled));
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
        s.push_str(&format!(
            "      \"monitor_certified\": {},\n",
            r.monitor.enabled && r.monitor.certified(r.total_ops)
        ));
        s.push_str(&format!(
            "      \"drains_converged\": {},\n",
            r.drains_converged
        ));
        s.push_str(&format!(
            "      \"windows_failed\": {},\n",
            r.windows_failed
        ));
        s.push_str("      \"windows\": [\n");
        for (j, w) in r.windows.iter().enumerate() {
            let verdict = match &w.result {
                Ok(()) => "\"ok\"".to_string(),
                Err(e) => format!("\"{}\"", e.replace('"', "'")),
            };
            let shard = w
                .shard
                .map(|s| s.to_string())
                .unwrap_or_else(|| "null".into());
            s.push_str(&format!(
                "        {{\"window\": {}, \"shard\": {}, \"criterion\": \"{}\", \"events\": {}, \"verdict\": {}}}{}\n",
                w.window,
                shard,
                w.criterion,
                w.events,
                verdict,
                if j + 1 < r.windows.len() { "," } else { "" }
            ));
        }
        s.push_str("      ]\n");
        s.push_str(&format!(
            "    }}{}\n",
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}
