//! Emit the committed checker performance baseline (`BENCH_checker.json`).
//!
//! ```text
//! perf_baseline [--quick] [--out PATH] [--iters N] [--gate PATH] [--summary PATH]
//! ```
//!
//! `--summary` appends a markdown table of checker cells (nodes vs
//! the `--gate` baseline when given) — CI points it at
//! `$GITHUB_STEP_SUMMARY` so node regressions are readable without
//! downloading artifacts.
//!
//! Runs a **fixed workload matrix** — every generic criterion over the
//! recorded window-array histories of
//! `cbm_bench::recorded_window_history` (3/5/7 ops per process, seed
//! 7), plus a scenario-sweep leg over the registry — and
//! writes one JSON document with, per cell: the verdict, the search
//! nodes used, and best/mean wall time over the measured iterations.
//!
//! Two consumers:
//!
//! * **the perf trajectory** — the emitted file is committed at the
//!   repo root as `BENCH_checker.json`; future PRs regenerate it on
//!   the same machine and diff `best_ns`/`nodes` to demonstrate (or
//!   catch) checker-speed movement;
//! * **CI `perf-smoke`** — runs `perf_baseline --quick --gate
//!   BENCH_checker.json`: fails on a panic, on any `unknown` verdict
//!   in the matrix (an "Unknown-storm" means a search regression blew
//!   the node budget), or — the deterministic regression gate — when a
//!   fresh cell's **search node count** exceeds the committed
//!   baseline's by more than 10% (node counts are a pure function of
//!   the seeded workload and the search, so they diff exactly across
//!   machines). Wall times are recorded but **never** gate CI, since
//!   runner hardware varies.
//!
//! Exit status: 1 iff a verdict in the matrix is `unknown`, a scenario
//! run fails verification, or the node gate trips; 2 on a usage error
//! (an unknown flag, a flag without its value, an unreadable `--gate`
//! baseline), before any cell runs.
//!
//! The run also measures **tracing overhead**: one quick store leg
//! with the `cbm-obs` flight recorder off, then on, reporting the
//! throughput ratio to stdout and `--summary`. The column is
//! **non-gating** (wall-clock, machine-dependent) and is not part of
//! the committed JSON; the observability acceptance bar (tracing-on
//! within 10% of tracing-off) is checked by eye on this line.

use cbm_bench::flags::Flags;
use cbm_bench::gate::Gate;
use cbm_bench::json::Json;
use cbm_bench::report::append_summary_table;
use cbm_bench::{leg_config, recorded_window_adt, recorded_window_history, run_workload};
use cbm_bench::{Transport, Workload};
use cbm_check::{check, Budget, Criterion, Verdict};
use cbm_sim::{registry, run_scenario};
use cbm_store::{BatchPolicy, Mode, StoreConfig};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "perf_baseline [--quick] [--out PATH] [--iters N] [--gate PATH] [--summary PATH]";

struct CheckerCell {
    criterion: &'static str,
    ops_per_proc: usize,
    events: usize,
    verdict: Verdict,
    nodes: u64,
    best_ns: u128,
    mean_ns: u128,
}

struct ScenarioCell {
    scenario: String,
    seeds: u64,
    failures: usize,
    total_ms: u128,
}

fn main() -> ExitCode {
    let mut args = Flags::from_env(USAGE);
    let mut quick = false;
    let mut out_path = String::from("BENCH_checker.json");
    let mut iters: u32 = 0;
    let mut gate_path: Option<String> = None;
    let mut summary_path: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.value(&a, "a path"),
            "--gate" => gate_path = Some(args.value(&a, "a path")),
            "--summary" => summary_path = Some(args.value(&a, "a path")),
            "--iters" => iters = args.value(&a, "a number"),
            other => args.other(other),
        }
    }
    let gate = gate_path.map(|path| {
        Gate::load(&path, "checker", |c| {
            Some(cell_key(
                c.get("criterion")?.as_str()?,
                c.get("ops_per_proc")?.lit()?,
            ))
        })
    });
    if iters == 0 {
        iters = if quick { 3 } else { 15 };
    }
    let ops_matrix: &[usize] = if quick { &[3, 5] } else { &[3, 5, 7] };
    let seeds_per_scenario: u64 = if quick { 2 } else { 4 };

    // --- Checker matrix -------------------------------------------------
    let adt = recorded_window_adt();
    let budget = Budget::default();
    let mut cells: Vec<CheckerCell> = Vec::new();
    let mut unknowns = 0usize;
    for &ops in ops_matrix {
        let h = recorded_window_history(ops, 7);
        for crit in Criterion::ALL {
            let mut best = u128::MAX;
            let mut total = 0u128;
            let mut verdict = Verdict::Unknown;
            let mut nodes = 0u64;
            for _ in 0..iters {
                let t = Instant::now();
                let r = check(crit, &adt, &h, &budget);
                let ns = t.elapsed().as_nanos();
                best = best.min(ns);
                total += ns;
                verdict = r.verdict;
                nodes = r.nodes_used;
            }
            if verdict == Verdict::Unknown {
                unknowns += 1;
                eprintln!(
                    "UNKNOWN verdict: {} at {} ops/proc — node budget exhausted",
                    crit.name(),
                    ops
                );
            }
            cells.push(CheckerCell {
                criterion: crit.name(),
                ops_per_proc: ops,
                events: h.len(),
                verdict,
                nodes,
                best_ns: best,
                mean_ns: total / iters as u128,
            });
        }
    }

    // --- Scenario leg ---------------------------------------------------
    let mut scen_cells: Vec<ScenarioCell> = Vec::new();
    let mut scen_failures = 0usize;
    for scenario in registry::scenarios() {
        let t = Instant::now();
        let mut failures = 0usize;
        for seed in 0..seeds_per_scenario {
            let o = run_scenario(&scenario, seed);
            if !o.passes() {
                failures += 1;
                eprintln!("FAIL {} seed {}: {:?}", scenario.name, seed, o.failure());
            }
        }
        scen_failures += failures;
        scen_cells.push(ScenarioCell {
            scenario: scenario.name.to_string(),
            seeds: seeds_per_scenario,
            failures,
            total_ms: t.elapsed().as_millis(),
        });
    }

    // --- Tracing overhead (non-gating) ----------------------------------
    let (ops_off, ops_on) = tracing_overhead(quick);
    let overhead_pct = (ops_off / ops_on - 1.0) * 100.0;
    println!(
        "tracing overhead (store leg, non-gating): off {:.0} ops/s, on {:.0} ops/s ({:+.1}%)",
        ops_off, ops_on, overhead_pct
    );

    // --- Emit -----------------------------------------------------------
    if let Err(e) = std::fs::write(
        &out_path,
        document(quick, iters, &cells, &scen_cells).render(),
    ) {
        eprintln!("could not write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {out_path} ({} checker cells, {} scenarios)",
        cells.len(),
        scen_cells.len()
    );
    for c in &cells {
        println!(
            "  {:>4} {:>2} ops  {:>3}ev  {:>8}  nodes {:>6}  best {:>9} ns  mean {:>9} ns",
            c.criterion, c.ops_per_proc, c.events, c.verdict, c.nodes, c.best_ns, c.mean_ns
        );
    }

    // --- Node-count regression gate -------------------------------------
    let mut gate_failures = 0usize;
    if let Some(gate) = &gate {
        let mut compared = 0usize;
        for c in &cells {
            // >10% growth fails; node counts are deterministic, so this
            // is machine-independent (wall times never gate). A quick
            // run covers a subset of the committed matrix.
            let key = cell_key(c.criterion, c.ops_per_proc);
            let Some(off) =
                gate.deviations(&key, &[("nodes", c.nodes)], |n, base| n * 10 <= base * 11)
            else {
                continue;
            };
            compared += 1;
            if !off.is_empty() {
                gate_failures += 1;
                eprintln!("NODE REGRESSION: {key}: {}", off.join(", "));
            }
        }
        if compared == 0 {
            eprintln!(
                "gate baseline {} shares no cells with this run's matrix",
                gate.path
            );
            gate_failures += 1;
        }
        println!(
            "node gate: {compared} cell(s) compared against {}",
            gate.path
        );
    }

    if let Some(path) = summary_path {
        if let Err(e) = append_summary(&path, quick, &cells, &scen_cells, gate.as_ref()) {
            eprintln!("could not write summary {path}: {e}");
        }
        let row = vec![vec![
            format!("{ops_off:.0}"),
            format!("{ops_on:.0}"),
            format!("{overhead_pct:+.1}%"),
        ]];
        if let Err(e) = append_summary_table(
            &path,
            "Tracing overhead (non-gating)",
            &["ops/s trace off", "ops/s trace on", "overhead"],
            &row,
        ) {
            eprintln!("could not write summary {path}: {e}");
        }
    }

    if unknowns > 0 || scen_failures > 0 || gate_failures > 0 {
        eprintln!(
            "perf_baseline: {unknowns} unknown verdict(s), {scen_failures} scenario failure(s), \
             {gate_failures} gate failure(s)"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Run one small store leg — the quick throughput matrix's
/// `cc-4w-64o-b8-r50` register workload — with the flight recorder
/// off, then on, and return `(ops_per_sec_off, ops_per_sec_on)`. Same
/// `(config, seed)` both times — tracing must not change any
/// deterministic column, only (bounded) wall time.
fn tracing_overhead(quick: bool) -> (f64, f64) {
    let ops = if quick { 4_000 } else { 40_000 };
    let mut cfg = leg_config(Mode::Causal, 4, 64, ops, BatchPolicy::Every(8), ops / 4, 24);
    let workload = Workload::Register {
        read_ratio: 0.5,
        remote_read_ratio: 0.0,
    };
    // best-of-3 per side: the legs are short, so single runs are too
    // noisy to read a ~5% effect from
    let best = |cfg: &StoreConfig| {
        (0..3)
            .map(|_| run_workload(&workload, cfg, Transport::Thread).ops_per_sec)
            .fold(0.0f64, f64::max)
    };
    let off = best(&cfg);
    cfg.obs.trace = true;
    (off, best(&cfg))
}

/// Append a GitHub Actions job-summary markdown table: checker node
/// counts against the committed baseline, plus the scenario sweep.
fn append_summary(
    path: &str,
    quick: bool,
    cells: &[CheckerCell],
    scen: &[ScenarioCell],
    gate: Option<&Gate>,
) -> std::io::Result<()> {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let key = cell_key(c.criterion, c.ops_per_proc);
            let (base, delta) = match gate.and_then(|g| g.count(&key, "nodes")) {
                Some(b) if b > 0 => (
                    b.to_string(),
                    format!("{:+.1}%", (c.nodes as f64 / b as f64 - 1.0) * 100.0),
                ),
                _ => ("—".into(), "—".into()),
            };
            vec![
                c.criterion.to_string(),
                c.ops_per_proc.to_string(),
                c.verdict.to_string(),
                c.nodes.to_string(),
                base,
                delta,
                format!("{:.1}", c.best_ns as f64 / 1_000.0),
            ]
        })
        .collect();
    append_summary_table(
        path,
        &format!(
            "Checker perf smoke ({})",
            if quick { "quick" } else { "full" }
        ),
        &[
            "criterion",
            "ops/proc",
            "verdict",
            "nodes",
            "baseline",
            "Δ nodes",
            "best µs",
        ],
        &rows,
    )?;
    let scen_rows: Vec<Vec<String>> = scen
        .iter()
        .map(|s| {
            vec![
                s.scenario.clone(),
                s.seeds.to_string(),
                s.failures.to_string(),
                s.total_ms.to_string(),
            ]
        })
        .collect();
    append_summary_table(
        path,
        "",
        &["scenario", "seeds", "failures", "total ms"],
        &scen_rows,
    )
}

/// A checker cell's gate key.
fn cell_key(criterion: &str, ops_per_proc: usize) -> String {
    format!("{criterion}/{ops_per_proc}")
}

/// The `cbm-perf-baseline-v1` document.
fn document(quick: bool, iters: u32, cells: &[CheckerCell], scens: &[ScenarioCell]) -> Json {
    let checker = cells.iter().map(|c| {
        Json::row(vec![
            ("criterion", c.criterion.into()),
            ("ops_per_proc", c.ops_per_proc.into()),
            ("events", c.events.into()),
            ("verdict", c.verdict.to_string().into()),
            ("nodes", c.nodes.into()),
            ("best_ns", c.best_ns.into()),
            ("mean_ns", c.mean_ns.into()),
        ])
    });
    let scenarios = scens.iter().map(|c| {
        Json::row(vec![
            ("scenario", c.scenario.as_str().into()),
            ("seeds", c.seeds.into()),
            ("failures", c.failures.into()),
            ("total_ms", c.total_ms.into()),
        ])
    });
    Json::obj(vec![
        ("schema", "cbm-perf-baseline-v1".into()),
        ("quick", quick.into()),
        ("iters", iters.into()),
        (
            "workload",
            "recorded_window_history(ops, seed=7), 2 procs, W2^1".into(),
        ),
        ("checker", Json::List(checker.collect())),
        ("scenarios", Json::List(scenarios.collect())),
    ])
}
