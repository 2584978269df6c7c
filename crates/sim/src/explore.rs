//! Seed exploration: sweep `(scenario, seed)` pairs hunting for
//! verification failures.
//!
//! A failure found here is a bug — in a replica algorithm, the fault
//! layer, or a checker — and its `(scenario, seed)` coordinates are
//! enough to replay it exactly. The `scenario_runner` binary can
//! append failures to the committed regression corpus
//! (`tests/regression_corpus.txt`), which the tier-1 test
//! `tests/scenarios.rs` replays on every run.
//!
//! ## Parallel sweeps
//!
//! Each `(scenario, seed)` run is a pure function of its coordinates,
//! so sweeps parallelize trivially: [`explore_threaded`] and
//! [`explore_all_threaded`] split the pair list into contiguous chunks
//! across scoped worker threads, with every worker writing into its own
//! disjoint slice of the outcome table. Aggregation then walks the
//! table **in pair order**, so reports — failure lists, means, and the
//! per-run fingerprints inside — are byte-identical whatever the thread
//! count (`--threads 1` and `--threads N` agree exactly).

use crate::runner::{run_scenario, ScenarioOutcome};
use crate::scenario::Scenario;
use std::ops::Range;

/// One failing `(scenario, seed)` pair.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Scenario name.
    pub scenario: String,
    /// The failing seed.
    pub seed: u64,
    /// What went wrong.
    pub reason: String,
}

/// Aggregate result of sweeping one scenario over a seed range.
#[derive(Debug, Clone)]
pub struct ExplorationReport {
    /// Scenario name.
    pub scenario: String,
    /// Seeds run.
    pub runs: usize,
    /// Verification or expectation failures found.
    pub failures: Vec<Failure>,
    /// Mean simulated quiescence time across seeds.
    pub mean_convergence_time: f64,
    /// Mean messages sent per run.
    pub mean_msgs_sent: f64,
    /// Mean bytes sent per run.
    pub mean_bytes_sent: f64,
    /// Total messages lost across all runs.
    pub total_dropped: u64,
    /// Total duplicate copies injected across all runs.
    pub total_duplicated: u64,
    /// How many runs converged.
    pub converged_runs: usize,
}

impl ExplorationReport {
    /// No failures?
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Sweep one scenario across a seed range (single-threaded).
pub fn explore(scenario: &Scenario, seeds: Range<u64>) -> ExplorationReport {
    explore_threaded(scenario, seeds, 1)
}

/// Sweep one scenario across a seed range on up to `threads` workers.
/// The report is byte-identical to the single-threaded sweep.
pub fn explore_threaded(
    scenario: &Scenario,
    seeds: Range<u64>,
    threads: usize,
) -> ExplorationReport {
    let pairs: Vec<(&Scenario, u64)> = seeds.map(|s| (scenario, s)).collect();
    let outcomes = run_pairs(&pairs, threads);
    aggregate(scenario.name, &outcomes)
}

/// Sweep every registry scenario across the same seed range, spreading
/// the full `(scenario, seed)` pair list over up to `threads` workers
/// (one global pool — a slow scenario does not serialize the others).
/// Reports come back in registry order and are byte-identical to the
/// single-threaded sweep.
pub fn explore_all_threaded(seeds: Range<u64>, threads: usize) -> Vec<ExplorationReport> {
    let scenarios = crate::registry::scenarios();
    let pairs: Vec<(&Scenario, u64)> = scenarios
        .iter()
        .flat_map(|s| seeds.clone().map(move |seed| (s, seed)))
        .collect();
    let outcomes = run_pairs(&pairs, threads);
    let per = seeds.end.saturating_sub(seeds.start) as usize;
    scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| aggregate(s.name, &outcomes[i * per..(i + 1) * per]))
        .collect()
}

/// Run every pair, producing outcomes in pair order. With `threads > 1`
/// the list is split into contiguous chunks, one scoped worker per
/// chunk, each writing only its own slice — determinism needs no
/// locks, just the fixed chunk geometry.
fn run_pairs(pairs: &[(&Scenario, u64)], threads: usize) -> Vec<ScenarioOutcome> {
    let mut out: Vec<Option<ScenarioOutcome>> = Vec::new();
    out.resize_with(pairs.len(), || None);
    let threads = threads.max(1).min(pairs.len().max(1));
    if threads <= 1 {
        for (slot, (s, seed)) in out.iter_mut().zip(pairs) {
            *slot = Some(run_scenario(s, *seed));
        }
    } else {
        let chunk = pairs.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (out_chunk, pair_chunk) in out.chunks_mut(chunk).zip(pairs.chunks(chunk)) {
                scope.spawn(move || {
                    for (slot, (s, seed)) in out_chunk.iter_mut().zip(pair_chunk) {
                        *slot = Some(run_scenario(s, *seed));
                    }
                });
            }
        });
    }
    out.into_iter()
        .map(|o| o.expect("every pair ran"))
        .collect()
}

/// Fold outcomes (already in seed order) into a report.
fn aggregate(name: &str, outcomes: &[ScenarioOutcome]) -> ExplorationReport {
    let mut report = ExplorationReport {
        scenario: name.to_string(),
        runs: 0,
        failures: Vec::new(),
        mean_convergence_time: 0.0,
        mean_msgs_sent: 0.0,
        mean_bytes_sent: 0.0,
        total_dropped: 0,
        total_duplicated: 0,
        converged_runs: 0,
    };
    let mut sum_ct = 0u64;
    let mut sum_msgs = 0u64;
    let mut sum_bytes = 0u64;
    for o in outcomes {
        report.runs += 1;
        sum_ct += o.convergence_time;
        sum_msgs += o.msgs_sent;
        sum_bytes += o.bytes_sent;
        report.total_dropped += o.msgs_dropped;
        report.total_duplicated += o.msgs_duplicated;
        if o.converged {
            report.converged_runs += 1;
        }
        if let Some(reason) = o.failure() {
            report.failures.push(Failure {
                scenario: o.scenario.clone(),
                seed: o.seed,
                reason,
            });
        }
    }
    if report.runs > 0 {
        report.mean_convergence_time = sum_ct as f64 / report.runs as f64;
        report.mean_msgs_sent = sum_msgs as f64 / report.runs as f64;
        report.mean_bytes_sent = sum_bytes as f64 / report.runs as f64;
    }
    report
}

/// Replay a single `(scenario, seed)` pair by name (corpus replays and
/// the CLI use this).
pub fn replay(scenario_name: &str, seed: u64) -> Option<ScenarioOutcome> {
    crate::registry::by_name(scenario_name).map(|s| run_scenario(&s, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn exploration_aggregates_runs() {
        let s = registry::by_name("skewed-clocks").unwrap();
        let r = explore(&s, 0..3);
        assert_eq!(r.runs, 3);
        assert!(r.clean(), "failures: {:?}", r.failures);
        assert!(r.mean_msgs_sent > 0.0);
        assert!(r.mean_convergence_time > 0.0);
        assert_eq!(r.converged_runs, 3);
    }

    #[test]
    fn replay_resolves_names() {
        assert!(replay("flapping-links", 1).is_some());
        assert!(replay("nope", 1).is_none());
    }

    /// `--threads N` must not change a single byte of the report: same
    /// failure list, same means, and (transitively) the same per-run
    /// fingerprints, because aggregation walks outcomes in pair order.
    #[test]
    fn threaded_sweep_is_deterministic() {
        let s = registry::by_name("partition-while-writing").unwrap();
        let solo = explore_threaded(&s, 0..6, 1);
        let multi = explore_threaded(&s, 0..6, 3);
        assert_eq!(solo.runs, multi.runs);
        assert_eq!(solo.failures.len(), multi.failures.len());
        assert_eq!(solo.mean_convergence_time, multi.mean_convergence_time);
        assert_eq!(solo.mean_msgs_sent, multi.mean_msgs_sent);
        assert_eq!(solo.mean_bytes_sent, multi.mean_bytes_sent);
        assert_eq!(solo.total_dropped, multi.total_dropped);
        assert_eq!(solo.converged_runs, multi.converged_runs);
    }

    #[test]
    fn threaded_explore_all_matches_sequential() {
        let solo = explore_all_threaded(0..2, 1);
        let multi = explore_all_threaded(0..2, 4);
        assert_eq!(solo.len(), multi.len());
        for (a, b) in solo.iter().zip(&multi) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.runs, b.runs);
            assert_eq!(a.failures.len(), b.failures.len());
            assert_eq!(a.mean_convergence_time, b.mean_convergence_time);
            assert_eq!(a.total_dropped, b.total_dropped);
        }
    }

    /// More workers than pairs must not panic or drop work.
    #[test]
    fn more_threads_than_pairs_is_fine() {
        let s = registry::by_name("skewed-clocks").unwrap();
        let r = explore_threaded(&s, 0..2, 16);
        assert_eq!(r.runs, 2);
    }
}
