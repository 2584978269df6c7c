//! A harness binary whose reader goes away (`scenario_runner | head`)
//! ends quietly with status 141 instead of panicking with "failed
//! printing to stdout" and status 101.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

/// The panic message `print!` gives on a closed pipe, or any panic.
fn assert_quiet(stderr: &str) {
    assert!(
        !stderr.contains("panicked") && !stderr.contains("failed printing"),
        "scenario_runner panicked on a closed stdout:\n{stderr}"
    );
}

#[test]
fn scenario_runner_survives_a_reader_that_leaves_after_one_line() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_scenario_runner"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn scenario_runner");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read the first line");
    // the reader (and with it the pipe's only read end) is gone here
    assert!(first.contains("scenario"), "header line: {first:?}");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for scenario_runner");
    assert_quiet(&stderr);
    // whether the rest of the output was still written before the pipe
    // closed is a race; either way the run must not end in a panic
    assert!(
        matches!(status.code(), Some(0 | 141)),
        "exit status {status:?}"
    );
}

#[test]
fn scenario_runner_exits_141_when_stdout_has_no_reader() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_scenario_runner"))
        .arg("list")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run scenario_runner");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_quiet(&stderr);
    assert_eq!(out.status.code(), Some(141), "stderr:\n{stderr}");
    assert!(stderr.is_empty(), "stderr:\n{stderr}");
}
