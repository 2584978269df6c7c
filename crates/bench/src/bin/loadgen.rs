//! Drive the live store engine (`cbm-store`) across a workload matrix
//! and emit the committed throughput baseline (`BENCH_throughput.json`).
//!
//! ```text
//! loadgen [--quick] [--out PATH] [--summary PATH] [--gate PATH]
//!         [--trace] [--trace-dir DIR] [--monitor]
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
//! `--gate` baseline's deterministic message count alongside; its
//! heading names the frame CRC kernel, `cbm_net::crc::kernel`) — CI
//! points it at `$GITHUB_STEP_SUMMARY` so regressions are readable
//! without downloading artifacts. Leg names key the baseline, so gate
//! against the one generated from the **same matrix**: the committed
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
//! * **CI `throughput-smoke`** — runs `loadgen --quick --gate
//!   BENCH_throughput_quick.json` once and fails on a panic, on any
//!   failed sampled-window verification or on a gate deviation; wall
//!   times never gate CI.
//!
//! `--gate` turns the committed baseline into a **hard deterministic
//! gate**: every leg's `msgs_sent`, `batches_sent`, and
//! `payloads_sent` must reproduce the baseline's values exactly (they
//! are pure functions of config and seed — any deviation is a
//! behavioural change of the delivery path, not noise). Byte totals
//! are *not* gated: delta-encoded knowledge headers size by how much
//! changed on an edge since its previous envelope, which depends on
//! delivery interleaving (`docs/SHARDING.md`) — `bytes_sent` stays in
//! the JSON as an informational column. Under
//! `--gate BENCH_throughput_quick.json` the quick matrix pins the
//! full-vs-partial replication traffic win count-for-count.
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
//! Exit status: 1 iff any leg reports a failed window, a drain-point
//! divergence (convergent mode), an uncertified op or
//! monitor-confirmed violation on a monitor-enabled leg, or a `--gate`
//! deviation; 2 on a usage error (an unknown flag, a flag without its
//! value, an unreadable `--gate` baseline), before any leg runs.

use cbm_bench::flags::{usage_error, Flags, WorkloadFlags};
use cbm_bench::fleet::NodePool;
use cbm_bench::gate::Gate;
use cbm_bench::json::Json;
use cbm_bench::proto::LegSpec;
use cbm_bench::report::{self, append_summary_table};
use cbm_bench::{leg_config, outln, run_workload, Transport, Workload, COUNTER_READS};
use cbm_store::{BatchPolicy, DurableConfig, Mode, ShardConfig, StoreConfig, StoreReport};
use std::process::ExitCode;

const USAGE: &str = "loadgen [--quick] [--out PATH] [--summary PATH] [--gate PATH] [--trace] \
     [--trace-dir DIR] [--monitor] [--log-dir DIR] [--transport thread|tcp] [--procs N] \
     [--workers N] [--objects N] [--ops N] [--read-ratio R] [--batch N|off] [--mode cc|ccv] \
     [--seed S] [--rf N] [--locality N] [--remote-read-ratio R]";

/// One matrix cell.
#[derive(Clone)]
struct Leg {
    name: String,
    cfg: StoreConfig,
    /// What the workers issue (the generator lives in
    /// [`cbm_bench::run_workload`], where `cbm-node` reproduces it
    /// bit-for-bit in multi-process runs).
    workload: Workload,
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
) -> Leg {
    Leg {
        name: name.to_string(),
        cfg: leg_config(mode, workers, objects, ops, batch, verify_every, window_ops),
        workload: Workload::Register {
            read_ratio,
            remote_read_ratio: 0.0,
        },
    }
}

/// A `leg` at replication factor `rf` with `remote` of its reads
/// targeting arbitrary (possibly non-hosted) objects and so possibly
/// routing to a remote replica; the rest read objects the issuing
/// worker hosts.
fn sharded(l: Leg, rf: usize, remote: f64) -> Leg {
    roaming(l, ShardConfig::rf(rf), remote)
}

/// A `sharded` leg whose replicas are confined to a `locality`-worker
/// neighborhood of each shard's home — the large-cluster placement
/// that keeps interest fan-in (and delta-header size) bounded.
fn localized(l: Leg, rf: usize, locality: usize, remote: f64) -> Leg {
    roaming(l, ShardConfig::rf_local(rf, locality), remote)
}

fn roaming(mut l: Leg, sharding: ShardConfig, remote: f64) -> Leg {
    l.cfg.sharding = sharding;
    if let Workload::Register {
        remote_read_ratio, ..
    } = &mut l.workload
    {
        *remote_read_ratio = remote;
    }
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
        ),
        // rf ∈ {1, 2}: the sharding axis (5% roaming reads keep
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
            ),
            2,
            0.05,
        ),
        // the convergent refold path: counter increments never
        // overwrite, so a late arrival refolds `ArbLog` (a register
        // write becomes the log's floor instead)
        Leg {
            name: "ccv-4w-64o-b8-ctr-quick".into(),
            cfg: leg_config(Mode::Convergent, 4, 64, 4_000, b8, 1_000, 24),
            workload: Workload::Counter,
        },
        // the scaling cell: 64 workers, rf 2, locality 8 — keeps
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

fn main() -> ExitCode {
    let mut args = Flags::from_env(USAGE);
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut summary_path: Option<String> = None;
    let mut gate_path: Option<String> = None;
    let mut trace = false;
    let mut trace_dir = String::from("traces");
    let mut transport = Transport::Thread;
    let mut procs: usize = 0;
    let mut log_dir: Option<String> = None;
    let mut custom = WorkloadFlags::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--trace" => trace = true,
            "--out" => out_path = Some(args.value(&a, "a path")),
            "--summary" => summary_path = Some(args.value(&a, "a path")),
            "--gate" => gate_path = Some(args.value(&a, "a baseline path")),
            "--log-dir" => log_dir = Some(args.value(&a, "a path")),
            "--trace-dir" => trace_dir = args.value(&a, "a path"),
            "--transport" => transport = args.choice(&a, "thread or tcp", Transport::parse),
            "--procs" => {
                procs = args.choice(&a, "a positive node count", |v| {
                    v.parse().ok().filter(|&n| n > 0)
                })
            }
            flag if custom.take(flag, &mut args) => {}
            other => args.other(other),
        }
    }
    let gate = gate_path
        .map(|path| Gate::load(&path, "legs", |leg| Some(leg.get("name")?.as_str()?.into())));

    // --monitor (a workload flag) forces the monitor onto every leg
    let force_monitor = custom.cfg.verify.monitor;
    let mut legs: Vec<Leg> = if custom.custom {
        vec![Leg {
            name: "custom".into(),
            cfg: custom.config(),
            workload: custom.register(),
        }]
    } else if quick {
        quick_matrix()
    } else {
        full_matrix()
    };
    for l in &mut legs {
        l.cfg.obs.trace |= trace;
        l.cfg.verify.monitor |= force_monitor;
        // --log-dir turns the durable epoch log on for every leg (one
        // subdirectory each — legs must never share logs). Logging is
        // write-path only here: it sends no messages and issues no ops,
        // so every deterministic column stays equal to the memory-only
        // run's and the same committed `--gate` baselines keep gating
        // (`docs/DURABILITY.md`). Wall-clock columns absorb the fsyncs.
        if let Some(base) = &log_dir {
            let dir = std::path::Path::new(base).join(&l.name);
            if let Err(e) = std::fs::create_dir_all(&dir) {
                usage_error(format!("could not create --log-dir {}: {e}", dir.display()));
            }
            l.cfg.durable = DurableConfig {
                log_dir: Some(dir.to_string_lossy().into_owned()),
                ..DurableConfig::default()
            };
        }
    }

    let reports: Vec<(Leg, StoreReport)> = if procs > 0 {
        // Multi-process mode: every leg runs in a cbm-node worker
        // process (over its own in-process TCP mesh); the driver only
        // dispatches specs and collects reports.
        let specs: Vec<LegSpec> = legs
            .iter()
            .map(|l| LegSpec {
                name: l.name.clone(),
                cfg: l.cfg.clone(),
                workload: l.workload.clone(),
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
        legs.into_iter().zip(collected).collect()
    } else {
        let mut out: Vec<(Leg, StoreReport)> = Vec::new();
        for l in legs {
            eprint!("{} [{}] ... ", l.name, transport.name());
            let r = run_workload(&l.workload, &l.cfg, transport);
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
            out.push((l, r));
        }
        out
    };

    let mut failures = 0usize;
    for (l, r) in &reports {
        if let Some(m) = report::monitor_summary(r) {
            eprintln!("{}: {m}", l.name);
        }
        let failed = report::run_failures(r);
        for f in &failed {
            eprintln!("{}: FAIL {f}", l.name);
        }
        // Flight-recorder dump: always under --trace, otherwise when the
        // run warrants a post-mortem. A multi-process report arrives
        // without its record — the node already dumped it.
        if trace || report::wants_trace(r) {
            report::dump_trace(r, &trace_dir, &l.name, "  ");
        }
        failures += usize::from(!failed.is_empty());
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
    if let Err(e) = std::fs::write(&out_path, document(quick, custom.custom, &reports).render()) {
        eprintln!("could not write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    outln!("wrote {out_path} ({} legs)", reports.len());

    if let Some(path) = summary_path {
        if let Err(e) = append_summary(&path, quick, &reports, gate.as_ref()) {
            eprintln!("could not write summary {path}: {e}");
        }
    }

    let mut gate_failures = 0usize;
    if let Some(gate) = &gate {
        for (l, r) in &reports {
            let mut got = vec![
                ("msgs_sent", r.msgs_sent),
                ("batches_sent", r.batches_sent),
                ("payloads_sent", r.payloads_sent),
            ];
            // escalation behaviour is part of the determinism contract:
            // same (config, seed) => same certified-op and escalation
            // counts. Exception: --monitor forcing the monitor onto a
            // leg whose baseline recorded it off (0 ops checked) makes
            // the columns incomparable — the monitor-smoke job pins
            // those legs by diffing two forced runs instead, and the
            // uncertified-leg failure still applies.
            if !(force_monitor && gate.count(&l.name, "monitor_ops_checked") == Some(0)) {
                got.push(("monitor_ops_checked", r.monitor.ops_checked));
                got.push(("monitor_escalations", r.monitor.escalations));
            }
            if let Some(problem) = gate.exact(&l.name, &got) {
                eprintln!("GATE {}: {problem}", l.name);
                gate_failures += 1;
            }
        }
        if gate_failures == 0 {
            outln!(
                "gate: {} leg(s) reproduce {} exactly \
                 (msgs + batches + payloads + monitor counters; bytes \
                 are interleaving-dependent and not gated)",
                reports.len(),
                gate.path
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

/// Append the GitHub Actions job-summary tables; the "baseline msgs"
/// column is the `--gate` baseline's.
fn append_summary(
    path: &str,
    quick: bool,
    reports: &[(Leg, StoreReport)],
    gate: Option<&Gate>,
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
                gate.and_then(|g| g.count(&l.name, "msgs_sent"))
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "—".into()),
                r.remote_reads.to_string(),
                format!("{:.1}", r.mean_batch),
                format!("{}/{}", r.windows.len() - r.windows_failed, r.windows.len()),
            ]
        })
        .collect();
    append_summary_table(
        path,
        &format!(
            "Throughput smoke ({}, frame CRC kernel: {})",
            if quick { "quick" } else { "full" },
            cbm_net::crc::kernel()
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
        append_summary_table(
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
        append_summary_table(
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
        append_summary_table(
            path,
            "Socket transport counters (informational, never gated)",
            &columns,
            &tcp_rows,
        )?;
    }

    // Envelope buffer stocks (docs/THROUGHPUT.md "What replication
    // costs"): reused and allocated sum to the batch envelopes stamped,
    // and pooled is the part of reused the engine-wide pool supplied;
    // how they split is decided by how deep each worker's inbound
    // backlog gets relative to its stock, i.e. by the scheduler.
    let stock_rows: Vec<Vec<String>> = reports
        .iter()
        .filter_map(|(l, r)| {
            let reused = r.metric("envelope_bufs_reused_total")?;
            let pooled = r.metric("envelope_bufs_pooled_total")?;
            let allocated = r.metric("envelope_bufs_allocated_total")?;
            (reused + allocated > 0).then(|| {
                vec![
                    l.name.clone(),
                    reused.to_string(),
                    pooled.to_string(),
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
        append_summary_table(
            path,
            "Envelope buffers (informational, never gated)",
            &["leg", "reused", "pooled", "allocated", "reuse"],
            &stock_rows,
        )?;
    }

    // Convergent-mode arbitration (docs/THROUGHPUT.md "What
    // arbitration costs"): late arrivals, the δ steps their refolds
    // replayed, and those absorbed behind an overwrite. Only CCv legs
    // arbitrate; how many of each depends on interleaving.
    let refold_rows: Vec<Vec<String>> = reports
        .iter()
        .filter_map(|(l, r)| {
            let refolds = r.metric("objects_refolds_total")?;
            let steps = r.metric("objects_refold_steps_total")?;
            let absorbed = r.metric("objects_absorbed_total")?;
            (refolds + absorbed > 0).then(|| {
                vec![
                    l.name.clone(),
                    refolds.to_string(),
                    steps.to_string(),
                    match refolds {
                        0 => "-".to_string(),
                        _ => format!("{:.1}", steps as f64 / refolds as f64),
                    },
                    absorbed.to_string(),
                ]
            })
        })
        .collect();
    if !refold_rows.is_empty() {
        append_summary_table(
            path,
            "Arbitration refolds (informational, never gated)",
            &["leg", "refolds", "steps", "steps/refold", "absorbed"],
            &refold_rows,
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
        append_summary_table(
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
            row.extend(report::epoch_row(e));
            epoch_rows.push(row);
        }
    }
    let mut columns: Vec<&str> = vec!["leg"];
    columns.extend(report::EPOCH_COLUMNS);
    append_summary_table(path, "Per-epoch activity", &columns, &epoch_rows)
}

/// The `cbm-throughput-v1` document.
fn document(quick: bool, custom: bool, reports: &[(Leg, StoreReport)]) -> Json {
    // bytes_sent is informational, not deterministic: delta-encoded
    // knowledge headers depend on delivery interleaving
    let deterministic = [
        "total_ops",
        "msgs_sent",
        "batches_sent",
        "payloads_sent",
        "mean_batch",
        "remote_reads",
        "windows",
        "monitor_ops_checked",
        "monitor_escalations",
    ];
    let legs = reports.iter().map(|(l, r)| leg_json(l, r)).collect();
    Json::obj(vec![
        ("schema", "cbm-throughput-v1".into()),
        ("quick", quick.into()),
        ("custom", custom.into()),
        (
            "deterministic_columns",
            Json::Arr(deterministic.map(Json::from).to_vec()),
        ),
        ("legs", Json::List(legs)),
    ])
}

fn leg_json(l: &Leg, r: &StoreReport) -> Json {
    let windows = r.windows.iter().map(|w| {
        let verdict = match &w.result {
            Ok(()) => "ok".to_string(),
            Err(e) => e.replace('"', "'"),
        };
        Json::row(vec![
            ("window", w.window.into()),
            ("shard", w.shard.into()),
            ("criterion", w.criterion.into()),
            ("events", w.events.into()),
            ("verdict", verdict.into()),
        ])
    });
    let batch = match l.cfg.batch {
        BatchPolicy::Off => "off".into(),
        BatchPolicy::Every(k) => k.into(),
    };
    let (read_ratio, remote_read_ratio) = match l.workload {
        Workload::Register {
            read_ratio,
            remote_read_ratio,
        } => (read_ratio, remote_read_ratio),
        Workload::Counter => (COUNTER_READS, 0.0),
    };
    Json::obj(vec![
        ("name", l.name.as_str().into()),
        ("mode", l.cfg.mode.criterion().into()),
        ("workers", l.cfg.workers.into()),
        ("objects", l.cfg.objects.into()),
        ("ops_per_worker", l.cfg.ops_per_worker.into()),
        ("read_ratio", read_ratio.into()),
        ("replication", l.cfg.sharding.replication.into()),
        ("locality", l.cfg.sharding.locality.into()),
        ("remote_read_ratio", remote_read_ratio.into()),
        ("batch", batch),
        ("seed", l.cfg.seed.into()),
        ("total_ops", r.total_ops.into()),
        ("wall_ms", (r.wall_ns / 1_000_000).into()),
        ("ops_per_sec", Json::fixed(r.ops_per_sec, 0)),
        ("p50_ns", r.latency.p50_ns.into()),
        ("p99_ns", r.latency.p99_ns.into()),
        ("max_ns", r.latency.max_ns.into()),
        ("mean_ns", r.latency.mean_ns.into()),
        ("msgs_sent", r.msgs_sent.into()),
        ("bytes_sent", r.bytes_sent.into()),
        ("batches_sent", r.batches_sent.into()),
        ("payloads_sent", r.payloads_sent.into()),
        ("mean_batch", Json::fixed(r.mean_batch, 2)),
        ("remote_reads", r.remote_reads.into()),
        ("monitor", r.monitor.enabled.into()),
        ("monitor_ops_checked", r.monitor.ops_checked.into()),
        ("monitor_escalations", r.monitor.escalations.into()),
        ("monitor_violations", r.monitor.violations.into()),
        ("monitor_certified", r.monitor.certified(r.total_ops).into()),
        ("drains_converged", r.drains_converged.into()),
        ("windows_failed", r.windows_failed.into()),
        ("windows", Json::List(windows.collect())),
    ])
}
