//! List, run, and explore `cbm-sim` fault-injection scenarios.
//!
//! ```text
//! scenario_runner list
//! scenario_runner run [NAME] [--seed N]
//! scenario_runner explore [NAME] --seeds LO..HI [--threads N] [--record PATH]
//! ```
//!
//! * `list` — every registry scenario with flavour and expectations;
//! * `run` — run one scenario (or all of them) under one seed and
//!   print per-scenario stats: verification verdict, convergence time,
//!   messages/bytes, drop/duplicate counts;
//! * `explore` — sweep a seed range hunting for verification
//!   failures; `--threads N` spreads the `(scenario, seed)` pairs over
//!   N workers (reports stay byte-identical to `--threads 1`); with
//!   `--record`, failing `(scenario, seed)` pairs are appended to the
//!   regression corpus so `tests/scenarios.rs` replays them forever
//!   (see `docs/SIMULATION.md` and `docs/PERFORMANCE.md`).
//!
//! Exit status is 1 if any run or sweep failed, so the binary can gate
//! CI jobs, and 2 on a usage error (an unknown command, flag or
//! scenario, a flag without its value).

use cbm_bench::flags::{usage_error, Flags};
use cbm_bench::render_table;
use cbm_sim::corpus::CorpusEntry;
use cbm_sim::{corpus, explore, registry, run_scenario, Scenario, ScenarioOutcome};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "scenario_runner — fault-injection scenarios over the cbm stack\n\n\
     USAGE:\n  scenario_runner list\n  scenario_runner run [NAME] [--seed N]\n  \
     scenario_runner explore [NAME] --seeds LO..HI [--threads N] [--record PATH]\n\n\
     Scenarios come from cbm-sim's registry; every run is verified\n\
     against its criterion (CC/CCv) and is a pure function of\n\
     (scenario, seed).";

fn main() -> ExitCode {
    let mut args = Flags::from_env(USAGE);
    match args.next().as_deref() {
        None | Some("run") => cmd_run(args),
        Some("list") => {
            cmd_list();
            ExitCode::SUCCESS
        }
        Some("explore") => cmd_explore(args),
        Some("help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => args.other(other),
    }
}

/// The registry scenario called `name`.
fn scenario(name: &str) -> Scenario {
    registry::by_name(name).unwrap_or_else(|| {
        usage_error(format!(
            "unknown scenario '{name}' (try `scenario_runner list`)"
        ))
    })
}

fn cmd_list() {
    let rows: Vec<Vec<String>> = registry::scenarios()
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                s.flavour.criterion().to_string(),
                s.procs.to_string(),
                format!("{}x{}", s.ops_per_proc, s.procs),
                if s.expect_converge { "yes" } else { "-" }.to_string(),
                s.description.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "scenario",
                "checks",
                "procs",
                "ops",
                "converge",
                "description"
            ],
            &rows
        )
    );
}

fn cmd_run(mut args: Flags) -> ExitCode {
    let mut seed = 0u64;
    let mut name: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = args.value(&a, "a value"),
            other if !other.starts_with('-') => name = Some(a.clone()),
            other => args.other(other),
        }
    }
    let targets = match &name {
        Some(n) => vec![scenario(n)],
        None => registry::scenarios(),
    };

    let outcomes: Vec<ScenarioOutcome> = targets.iter().map(|s| run_scenario(s, seed)).collect();
    let rows: Vec<Vec<String>> = outcomes.iter().map(outcome_row).collect();
    print!(
        "{}",
        render_table(
            &[
                "scenario", "seed", "verdict", "conv", "t_conv", "msgs", "bytes", "dropped", "dup",
                "parked",
            ],
            &rows
        )
    );
    let failed: Vec<&ScenarioOutcome> = outcomes.iter().filter(|o| !o.passes()).collect();
    if failed.is_empty() {
        println!(
            "\n{} scenario(s) verified under seed {seed}",
            outcomes.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &failed {
            eprintln!("FAIL {} seed {}: {:?}", f.scenario, f.seed, f.failure());
        }
        ExitCode::FAILURE
    }
}

fn outcome_row(o: &ScenarioOutcome) -> Vec<String> {
    vec![
        o.scenario.clone(),
        o.seed.to_string(),
        match &o.verified {
            Ok(()) => format!("{} ok", o.criterion),
            Err(_) => format!("{} FAIL", o.criterion),
        },
        if o.converged { "yes" } else { "-" }.to_string(),
        o.convergence_time.to_string(),
        o.msgs_sent.to_string(),
        o.bytes_sent.to_string(),
        o.msgs_dropped.to_string(),
        o.msgs_duplicated.to_string(),
        o.msgs_parked.to_string(),
    ]
}

fn cmd_explore(mut args: Flags) -> ExitCode {
    let mut name: Option<String> = None;
    let mut seeds = 0u64..16;
    let mut record: Option<PathBuf> = None;
    let mut threads = 1usize;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                threads = args.choice(&a, "a count of at least 1", |v| {
                    v.parse().ok().filter(|&n| n > 0)
                })
            }
            "--seeds" => {
                seeds = args.choice(&a, "a non-empty LO..HI range", |v| {
                    let (lo, hi) = v.split_once("..")?;
                    let (lo, hi) = (lo.parse().ok()?, hi.parse().ok()?);
                    (lo < hi).then_some(lo..hi)
                })
            }
            "--record" => record = Some(args.value(&a, "a path")),
            other if !other.starts_with('-') => name = Some(a.clone()),
            other => args.other(other),
        }
    }

    let reports = match &name {
        Some(n) => vec![explore::explore_threaded(
            &scenario(n),
            seeds.clone(),
            threads,
        )],
        None => explore::explore_all_threaded(seeds.clone(), threads),
    };

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.runs.to_string(),
                r.failures.len().to_string(),
                format!("{}/{}", r.converged_runs, r.runs),
                format!("{:.0}", r.mean_convergence_time),
                format!("{:.0}", r.mean_msgs_sent),
                r.total_dropped.to_string(),
                r.total_duplicated.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "scenario",
                "runs",
                "fails",
                "converged",
                "mean_t_conv",
                "mean_msgs",
                "dropped",
                "dup",
            ],
            &rows
        )
    );

    let mut any_fail = false;
    for r in &reports {
        for f in &r.failures {
            any_fail = true;
            eprintln!("FAIL {} seed {}: {}", f.scenario, f.seed, f.reason);
            if let Some(path) = &record {
                let entry = CorpusEntry {
                    scenario: f.scenario.clone(),
                    seed: f.seed,
                    note: format!("explorer: {}", f.reason),
                };
                // refuse duplicates: overlapping sweeps rediscover the
                // same pairs, and the committed corpus must not bloat
                match corpus::append_unique(path, &entry) {
                    Err(e) => eprintln!("could not record to corpus: {e}"),
                    Ok(true) => {
                        println!("recorded {} {} to {}", f.scenario, f.seed, path.display())
                    }
                    Ok(false) => println!(
                        "{} {} already in {} — not recorded again",
                        f.scenario,
                        f.seed,
                        path.display()
                    ),
                }
            }
        }
    }
    if any_fail {
        ExitCode::FAILURE
    } else {
        println!(
            "\nall scenarios clean over seeds {}..{}",
            seeds.start, seeds.end
        );
        ExitCode::SUCCESS
    }
}
