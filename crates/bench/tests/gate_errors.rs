//! Usage errors — an unknown flag, a flag missing its value, a missing
//! or unparsable `--gate` baseline — fail **before** any work runs, in
//! every harness binary: exit code 2 and a clean one-line message,
//! never a panic, never minutes of legs followed by a post-run
//! surprise, and no document written.

use std::path::Path;
use std::process::Command;

const LOADGEN: &str = env!("CARGO_BIN_EXE_loadgen");
const CHAOS: &str = env!("CARGO_BIN_EXE_chaos_loadgen");
const PERF: &str = env!("CARGO_BIN_EXE_perf_baseline");
const NODE: &str = env!("CARGO_BIN_EXE_cbm-node");
const SCENARIOS: &str = env!("CARGO_BIN_EXE_scenario_runner");

/// `(binary, args, what stderr must say)`.
const CASES: &[(&str, &[&str], &str)] = &[
    (
        PERF,
        &["--quick", "--gate", "missing.json", "--out", "out.json"],
        "cannot read gate baseline",
    ),
    (
        LOADGEN,
        &["--quick", "--out", "out.json", "--bogus"],
        "unknown argument '--bogus'",
    ),
    (
        LOADGEN,
        &["--quick", "--out", "out.json", "--ops"],
        "--ops needs a number",
    ),
    (
        CHAOS,
        &["--quick", "--out", "out.json", "--bogus"],
        "unknown argument '--bogus'",
    ),
    (
        CHAOS,
        &["--quick", "--out", "out.json", "--seeds"],
        "--seeds needs a number",
    ),
    (
        CHAOS,
        &["--quick", "--gate", "missing.json", "--out", "out.json"],
        "cannot read gate baseline",
    ),
    (
        PERF,
        &["--quick", "--out", "out.json", "--bogus"],
        "unknown argument '--bogus'",
    ),
    (
        PERF,
        &["--quick", "--out", "out.json", "--iters"],
        "--iters needs a number",
    ),
    (
        NODE,
        &["run", "--ops", "100", "--bogus"],
        "unknown argument '--bogus'",
    ),
    (NODE, &["run", "--workers"], "--workers needs a number"),
    (SCENARIOS, &["run", "--bogus"], "unknown argument '--bogus'"),
    (SCENARIOS, &["bogus"], "unknown argument 'bogus'"),
    (
        SCENARIOS,
        &["explore", "--seeds"],
        "--seeds needs a non-empty LO..HI range",
    ),
];

/// Runs `bin args` in the test's scratch directory and checks it fails
/// as a usage error that names `expect`, before any work ran.
fn assert_usage_error(bin: &str, args: &[&str], expect: &str) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let unwritten = dir.join("out.json");
    let _ = std::fs::remove_file(&unwritten);
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs");
    let case = format!(
        "{} {}",
        Path::new(bin).file_name().unwrap().to_string_lossy(),
        args.join(" ")
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{case}: usage errors exit 2 (stderr: {stderr})"
    );
    assert!(
        stderr.contains(expect),
        "{case}: stderr should say {expect:?}, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "{case}: operator errors must not panic: {stderr}"
    );
    // fail-fast contract: nothing ran, so no leg progress line, no
    // report on stdout, and no output document
    assert!(!stderr.contains("ops/s"), "{case}: a leg ran: {stderr}");
    assert!(out.stdout.is_empty(), "{case}: work was reported on stdout");
    assert!(!unwritten.exists(), "{case}: a document was written");
}

#[test]
fn missing_gate_baseline_fails_fast_and_cleanly() {
    assert_usage_error(
        LOADGEN,
        &[
            "--quick",
            "--gate",
            "no-such-baseline.json",
            "--out",
            "out.json",
        ],
        "cannot read gate baseline",
    );
}

#[test]
fn unparsable_gate_baseline_fails_fast_and_cleanly() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(
        dir.join("not-a-baseline.json"),
        "{\"schema\": \"something-else\"}\n",
    )
    .unwrap();
    assert_usage_error(
        LOADGEN,
        &[
            "--quick",
            "--gate",
            "not-a-baseline.json",
            "--out",
            "out.json",
        ],
        "has no \"legs\" rows",
    );
}

#[test]
fn usage_errors_exit_2_before_any_work_runs() {
    for &(bin, args, expect) in CASES {
        assert_usage_error(bin, args, expect);
    }
}
