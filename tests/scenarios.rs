//! Tier-1 coverage of the `cbm-sim` fault-injection subsystem.
//!
//! Three layers of guarantees:
//!
//! 1. **every scenario verifies** — each catalogue plan, in both
//!    modes, runs under seeds 0..8 and its recorded history must pass
//!    the matching criterion checker (CC for the causal mode, CCv for
//!    the convergent one), plus the scenario's convergence expectation;
//! 2. **runs are reproducible** — the same `(scenario, seed)` is
//!    bit-identical across reruns, and every scenario × seeds 0..8
//!    matches `tests/golden/scenario_fingerprints.txt`;
//! 3. **the regression corpus replays** — every committed
//!    `(scenario, mode, seed)` in `tests/regression_corpus.txt` (seeds
//!    once found failing by the explorer) must pass forever after.

use cbm_check::Mode;
use cbm_sim::runner::run_scenario;
use cbm_sim::{corpus, explore, Scenario};
use std::path::Path;

fn scenario(name: &str, mode: Mode) -> Scenario {
    Scenario::by_name(name, mode).unwrap()
}

/// Every scenario × seeds 0..8: history verifies, expectations hold.
#[test]
fn all_scenarios_verify_under_seed_sweep() {
    for scenario in Scenario::all() {
        let report = explore::explore(&scenario, 0..8);
        assert_eq!(report.runs, 8);
        assert!(report.clean(), "{scenario}: {:?}", report.failures);
    }
}

/// Fault plans are not decorative: the faulty scenarios must actually
/// disturb the transport (drops, duplicates, or delayed convergence).
#[test]
fn faults_leave_observable_traces() {
    let lossy = run_scenario(&scenario("lossy-burst", Mode::Causal), 1);
    assert!(lossy.msgs_dropped > 0, "15% loss dropped nothing");

    let storm = run_scenario(&scenario("duplicate-burst", Mode::Convergent), 1);
    assert!(
        storm.msgs_duplicated > 0,
        "80% duplication duplicated nothing"
    );

    let crashes = run_scenario(&scenario("rolling-crashes-mid-epoch", Mode::Causal), 1);
    assert!(
        crashes.dropped_per_node.iter().any(|&d| d > 0),
        "crashes dropped no inbound messages"
    );

    // a partitioned run takes longer to quiesce than a faultless one
    let partitioned = run_scenario(&scenario("heal-and-converge", Mode::Convergent), 1);
    assert!(
        partitioned.convergence_time >= 400,
        "heal at t=400 must gate quiescence (got {})",
        partitioned.convergence_time
    );
    assert!(partitioned.converged);
}

/// Reruns of the same `(scenario, seed)` are bit-identical.
#[test]
fn reruns_are_bit_identical() {
    for scenario in Scenario::all() {
        let a = run_scenario(&scenario, 9);
        let b = run_scenario(&scenario, 9);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "{scenario} diverged across reruns"
        );
    }
}

/// Every scenario × seeds 0..8 reproduces its committed fingerprint
/// (`name mode seed fingerprint` lines). The fixture's lines for the
/// simulator's original ten scenarios were generated before the
/// simulator and the live engine shared one fault table and one
/// scenario catalogue, so a mismatch means a run changed — a roll
/// order, a release order — not that the fixture is stale. On failure
/// the produced file is left in `target/tmp/` for a line diff.
#[test]
fn fingerprints_reproduce_the_golden_fixture() {
    let mut got = String::new();
    for scenario in Scenario::all() {
        for seed in 0..8 {
            let fp = run_scenario(&scenario, seed).fingerprint;
            got += &format!("{scenario} {seed} {fp:016x}\n");
        }
    }
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/scenario_fingerprints.txt");
    let want = std::fs::read_to_string(&fixture).unwrap_or_default();
    if got != want {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("scenario_fingerprints.txt");
        std::fs::write(&out, &got).expect("write the produced fingerprints");
        panic!(
            "scenario fingerprints diverge from {}; produced file: {}",
            fixture.display(),
            out.display()
        );
    }
}

/// Replay the committed regression corpus: every entry must name a
/// catalogue plan and pass its expectations in its mode.
#[test]
fn regression_corpus_replays_clean() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regression_corpus.txt");
    let entries = corpus::load(&path).expect("corpus parses");
    assert!(
        !entries.is_empty(),
        "corpus must hold at least one (possibly synthetic) entry so the replay path stays exercised"
    );
    for entry in entries {
        let outcome = explore::replay(&entry.scenario, entry.mode, entry.seed)
            .unwrap_or_else(|| panic!("corpus names unknown scenario '{}'", entry.scenario));
        assert!(
            outcome.passes(),
            "corpus regression {} {} seed {} failed again: {:?}",
            entry.scenario,
            entry.mode.criterion(),
            entry.seed,
            outcome.failure()
        );
    }
}
