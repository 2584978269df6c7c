//! List, run, and explore `cbm-sim` fault-injection scenarios.
//!
//! ```text
//! scenario_runner list
//! scenario_runner run [NAME] [--seed N]
//! scenario_runner explore [NAME] --seeds LO..HI [--threads N] [--record PATH]
//! ```
//!
//! A scenario is a plan of the fault catalogue
//! (`cbm_net::fault::CATALOGUE`) in one mode; `NAME` selects a plan,
//! which then runs in both modes.
//!
//! * `list` — every scenario with its criterion and expectations;
//! * `run` — run one plan (or all of them) under one seed and
//!   print per-scenario stats: verification verdict, convergence time,
//!   messages/bytes, drop/duplicate counts;
//! * `explore` — sweep a seed range hunting for verification
//!   failures; `--threads N` spreads the `(scenario, seed)` pairs over
//!   N workers (reports stay byte-identical to `--threads 1`); with
//!   `--record`, failing `(scenario, mode, seed)` triples are appended
//!   to the regression corpus so `tests/scenarios.rs` replays them
//!   forever (see `docs/SIMULATION.md` and `docs/PERFORMANCE.md`).
//!
//! Exit status is 1 if any run or sweep failed, so the binary can gate
//! CI jobs, and 2 on a usage error (an unknown command, flag or
//! scenario, a flag without its value).

use cbm_bench::flags::{usage_error, Flags};
use cbm_bench::{out, outln, render_table};
use cbm_check::Mode;
use cbm_sim::corpus::CorpusEntry;
use cbm_sim::{corpus, explore, run_scenario, Scenario, ScenarioOutcome};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "scenario_runner — fault-injection scenarios over the cbm stack\n\n\
     USAGE:\n  scenario_runner list\n  scenario_runner run [NAME] [--seed N]\n  \
     scenario_runner explore [NAME] --seeds LO..HI [--threads N] [--record PATH]\n\n\
     Scenarios are the fault catalogue's plans, each in both modes;\n\
     every run is verified against its criterion (CC/CCv) and is a\n\
     pure function of (scenario, seed).";

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
            outln!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => args.other(other),
    }
}

/// The catalogue plan called `name`, in both modes.
fn scenarios(name: &str) -> Vec<Scenario> {
    Mode::BOTH
        .into_iter()
        .map(|mode| {
            Scenario::by_name(name, mode).unwrap_or_else(|| {
                usage_error(format!(
                    "unknown scenario '{name}' (try `scenario_runner list`)"
                ))
            })
        })
        .collect()
}

fn cmd_list() {
    let rows: Vec<Vec<String>> = Scenario::all()
        .iter()
        .map(|s| {
            vec![
                s.name().to_string(),
                s.mode.criterion().to_string(),
                if s.expect_converge() { "yes" } else { "-" }.to_string(),
                s.plan.about.to_string(),
            ]
        })
        .collect();
    out!(
        "{}",
        render_table(&["scenario", "checks", "converge", "description"], &rows)
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
        Some(n) => scenarios(n),
        None => Scenario::all(),
    };

    let outcomes: Vec<ScenarioOutcome> = targets.iter().map(|s| run_scenario(s, seed)).collect();
    let rows: Vec<Vec<String>> = outcomes.iter().map(outcome_row).collect();
    out!(
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
        outln!(
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
        o.scenario.to_string(),
        o.seed.to_string(),
        match &o.verified {
            Ok(()) => format!("{} ok", o.scenario.mode.criterion()),
            Err(_) => format!("{} FAIL", o.scenario.mode.criterion()),
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
        Some(n) => scenarios(n)
            .iter()
            .map(|s| explore::explore_threaded(s, seeds.clone(), threads))
            .collect(),
        None => explore::explore_all_threaded(seeds.clone(), threads),
    };

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
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
    out!(
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
                    scenario: f.scenario.name().to_string(),
                    mode: f.scenario.mode,
                    seed: f.seed,
                    note: format!("explorer: {}", f.reason),
                };
                // refuse duplicates: overlapping sweeps rediscover the
                // same pairs, and the committed corpus must not bloat
                match corpus::append_unique(path, &entry) {
                    Err(e) => eprintln!("could not record to corpus: {e}"),
                    Ok(true) => {
                        outln!("recorded {} {} to {}", f.scenario, f.seed, path.display())
                    }
                    Ok(false) => outln!(
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
        outln!(
            "\nall scenarios clean over seeds {}..{}",
            seeds.start,
            seeds.end
        );
        ExitCode::SUCCESS
    }
}
