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
//! recorded window-array histories of `checker_scaling` (3/5/7 ops per
//! process, seed 7), plus a scenario-sweep leg over the registry — and
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
//! Exit status: non-zero iff a verdict in the matrix is `unknown`, a
//! scenario run fails verification, or the node gate trips.
//!
//! The run also measures **tracing overhead**: one quick store leg
//! with the `cbm-obs` flight recorder off, then on, reporting the
//! throughput ratio to stdout and `--summary`. The column is
//! **non-gating** (wall-clock, machine-dependent) and is not part of
//! the committed JSON; the observability acceptance bar (tracing-on
//! within 10% of tracing-off) is checked by eye on this line.

use cbm_bench::{field_str, field_u64, recorded_window_adt, recorded_window_history};
use cbm_check::{check, Budget, Criterion, Verdict};
use cbm_sim::{registry, run_scenario};
use std::process::ExitCode;
use std::time::Instant;

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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path = String::from("BENCH_checker.json");
    let mut iters: u32 = 0;
    let mut gate_path: Option<String> = None;
    let mut summary_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => {
                    eprintln!("--out needs a path");
                    return ExitCode::from(2);
                }
            },
            "--gate" => match it.next() {
                Some(p) => gate_path = Some(p.clone()),
                None => {
                    eprintln!("--gate needs a path");
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
            "--iters" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => iters = n,
                None => {
                    eprintln!("--iters needs a number");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "perf_baseline [--quick] [--out PATH] [--iters N] [--gate PATH] \
                     [--summary PATH]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag '{other}'");
                return ExitCode::from(2);
            }
        }
    }
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
    let json = render_json(quick, iters, &cells, &scen_cells);
    if let Err(e) = std::fs::write(&out_path, &json) {
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
    // parsed once; reused by the job summary below
    let mut committed_nodes: std::collections::HashMap<(String, usize), u64> =
        std::collections::HashMap::new();
    if let Some(path) = gate_path.as_deref() {
        match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("could not read gate baseline {path}: {e}");
                gate_failures += 1;
            }
            Ok(baseline) => {
                let committed = parse_checker_nodes(&baseline);
                if committed.is_empty() {
                    eprintln!("gate baseline {path} has no checker cells");
                    gate_failures += 1;
                }
                let mut compared = 0usize;
                for c in &cells {
                    let Some(&base_nodes) =
                        committed.get(&(c.criterion.to_string(), c.ops_per_proc))
                    else {
                        continue; // quick runs cover a subset of the committed matrix
                    };
                    compared += 1;
                    // >10% growth fails; node counts are deterministic, so
                    // this is machine-independent (wall times never gate)
                    if c.nodes * 10 > base_nodes * 11 {
                        gate_failures += 1;
                        eprintln!(
                            "NODE REGRESSION: {} at {} ops/proc used {} nodes vs committed {} (+{:.0}%)",
                            c.criterion,
                            c.ops_per_proc,
                            c.nodes,
                            base_nodes,
                            (c.nodes as f64 / base_nodes as f64 - 1.0) * 100.0
                        );
                    }
                }
                if compared == 0 {
                    eprintln!("gate baseline {path} shares no cells with this run's matrix");
                    gate_failures += 1;
                }
                println!("node gate: {compared} cell(s) compared against {path}");
                committed_nodes = committed;
            }
        }
    }

    if let Some(path) = summary_path {
        if let Err(e) = append_summary(&path, quick, &cells, &scen_cells, &committed_nodes) {
            eprintln!("could not write summary {path}: {e}");
        }
        let row = vec![vec![
            format!("{ops_off:.0}"),
            format!("{ops_on:.0}"),
            format!("{overhead_pct:+.1}%"),
        ]];
        if let Err(e) = cbm_bench::append_summary_table(
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

/// Run one small store leg with the flight recorder off, then on,
/// and return `(ops_per_sec_off, ops_per_sec_on)`. Same
/// `(config, seed)` both times — tracing must not change any
/// deterministic column, only (bounded) wall time.
fn tracing_overhead(quick: bool) -> (f64, f64) {
    use cbm_adt::register::{RegInput, Register};
    use cbm_adt::space::SpaceInput;
    use cbm_store::{
        BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, VerifyConfig,
    };
    use rand::Rng;

    let ops = if quick { 4_000 } else { 40_000 };
    let mut cfg = StoreConfig {
        workers: 4,
        objects: 64,
        ops_per_worker: ops,
        mode: Mode::Causal,
        batch: BatchPolicy::Every(8),
        verify: VerifyConfig {
            every_ops: ops / 4,
            window_ops: 24,
            sample_every: 1,
            monitor: false,
        },
        seed: 42,
        sharding: ShardConfig::full(),
        chaos: cbm_net::fault::FaultPlan::new(),
        obs: ObsConfig::default(),
        durable: DurableConfig::default(),
    };
    let gen = |_: usize, _: u64, rng: &mut rand::rngs::StdRng| {
        let obj = rng.gen_range(0u32..64);
        if rng.gen_bool(0.5) {
            SpaceInput::new(obj, RegInput::Read)
        } else {
            SpaceInput::new(obj, RegInput::Write(rng.gen_range(1u64..1_000_000)))
        }
    };
    // best-of-3 per side: the legs are short, so single runs are too
    // noisy to read a ~5% effect from
    let best = |cfg: &cbm_store::StoreConfig| {
        (0..3)
            .map(|_| cbm_store::run(&Register, cfg, gen).ops_per_sec)
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
    committed: &std::collections::HashMap<(String, usize), u64>,
) -> std::io::Result<()> {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let (base, delta) = match committed.get(&(c.criterion.to_string(), c.ops_per_proc)) {
                Some(&b) if b > 0 => (
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
    cbm_bench::append_summary_table(
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
    cbm_bench::append_summary_table(
        path,
        "",
        &["scenario", "seeds", "failures", "total ms"],
        &scen_rows,
    )
}

/// Extract `(criterion, ops_per_proc) -> nodes` from a committed
/// baseline document (the workspace vendors no deserializer; the
/// emitter writes one checker cell per line, which
/// this scanner relies on).
fn parse_checker_nodes(json: &str) -> std::collections::HashMap<(String, usize), u64> {
    let mut out = std::collections::HashMap::new();
    for line in json.lines() {
        let Some(criterion) = field_str(line, "criterion") else {
            continue;
        };
        let (Some(ops), Some(nodes)) = (field_u64(line, "ops_per_proc"), field_u64(line, "nodes"))
        else {
            continue;
        };
        out.insert((criterion, ops as usize), nodes);
    }
    out
}

/// Hand-rolled JSON writer: the workspace vendors no serializer,
/// and the schema is small enough that explicit rendering
/// doubles as its documentation.
fn render_json(quick: bool, iters: u32, cells: &[CheckerCell], scens: &[ScenarioCell]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"cbm-perf-baseline-v1\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"iters\": {iters},\n"));
    s.push_str("  \"workload\": \"recorded_window_history(ops, seed=7), 2 procs, W2^1\",\n");
    s.push_str("  \"checker\": [\n");
    for (i, c) in cells.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"criterion\": \"{}\", \"ops_per_proc\": {}, \"events\": {}, \"verdict\": \"{}\", \"nodes\": {}, \"best_ns\": {}, \"mean_ns\": {}}}{}\n",
            c.criterion,
            c.ops_per_proc,
            c.events,
            c.verdict,
            c.nodes,
            c.best_ns,
            c.mean_ns,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"scenarios\": [\n");
    for (i, c) in scens.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"seeds\": {}, \"failures\": {}, \"total_ms\": {}}}{}\n",
            c.scenario,
            c.seeds,
            c.failures,
            c.total_ms,
            if i + 1 < scens.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}
