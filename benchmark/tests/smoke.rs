//! `cargo test --manifest-path benchmark/Cargo.toml`: smoke-run every
//! workload at 1/100 of its committed size through the real binary,
//! and pin the binary's metric catalog to `BENCHMARK.json`.

use cbm_benchmark::catalog::{describe, END_TO_END, PER_LAYER};
use cbm_benchmark::json::{parse, Value};
use cbm_benchmark::workloads::WORKLOADS;
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_cbm-benchmark");

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<&str> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("a name"))
        .collect()
}

/// Run one smoke measurement; returns the parsed result line.
fn smoke(workload: &str, trace: u8) -> Value {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", "42", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--scale", "100"])
        .output()
        .expect("spawn cbm-benchmark");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("the result line is JSON");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("a result object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload} --trace {trace} was not correct:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    result
}

/// The metrics of `result` are exactly the `declared` list of
/// `BENCHMARK.json`, each with its declared unit and a finite value.
fn assert_emits(result: &Value, declared: &Value, what: &str) {
    let metrics = result.get("metrics").and_then(Value::as_obj).unwrap();
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(emitted, names(declared), "{what}: emitted metric names");
    for (d, (name, m)) in declared.as_arr().unwrap().iter().zip(metrics) {
        assert_eq!(m.get("unit"), d.get("unit"), "{what}: unit of {name}");
        let v = m.get("value").and_then(Value::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{what}: {name} = {v:?}");
    }
}

fn smoke_workload(name: &str) {
    let spec = benchmark_json();
    let e2e = smoke(name, 0);
    assert_emits(&e2e, spec.get("end_to_end").unwrap(), name);
    for (metric, m) in e2e.get("metrics").and_then(Value::as_obj).unwrap() {
        // the driver takes shares of these: none may ever be zero
        assert!(
            m.get("value").and_then(Value::as_f64).unwrap() > 0.0,
            "{name}: end-to-end metric {metric} is not positive"
        );
    }
    let traced = smoke(name, 1);
    assert_emits(&traced, spec.get("per_layer").unwrap(), name);
}

#[test]
fn smoke_read_local() {
    smoke_workload("read_local");
}

#[test]
fn smoke_write_fanout() {
    smoke_workload("write_fanout");
}

#[test]
fn smoke_write_fanout_tcp() {
    smoke_workload("write_fanout_tcp");
}

#[test]
fn smoke_sharded_routed() {
    smoke_workload("sharded_routed");
}

#[test]
fn smoke_monitored_mixed() {
    smoke_workload("monitored_mixed");
}

#[test]
fn smoke_convergent_hot() {
    smoke_workload("convergent_hot");
}

#[test]
fn smoke_durable_crash() {
    smoke_workload("durable_crash");
}

#[test]
fn every_workload_has_a_smoke_test() {
    let covered = [
        "read_local",
        "write_fanout",
        "write_fanout_tcp",
        "sharded_routed",
        "monitored_mixed",
        "convergent_hot",
        "durable_crash",
    ];
    assert_eq!(WORKLOADS.map(|w| w.name), covered);
}

#[test]
fn describe_equals_benchmark_json() {
    let spec = benchmark_json();
    let described = describe();
    for list in ["workloads", "end_to_end", "per_layer"] {
        assert_eq!(
            described.get(list),
            spec.get(list),
            "`cbm-benchmark describe` and BENCHMARK.json disagree on {list}"
        );
    }
    // and the binary prints what the library describes
    let out = Command::new(BIN).arg("describe").output().unwrap();
    assert!(out.status.success());
    assert_eq!(
        parse(&String::from_utf8_lossy(&out.stdout)).unwrap(),
        described
    );
}

#[test]
fn benchmark_json_is_well_formed() {
    let spec = benchmark_json();
    let keys: Vec<&str> = spec
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let well_formed = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut seen = std::collections::HashSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for name in names(spec.get(list).unwrap()) {
            assert!(well_formed(name), "malformed name {name:?}");
            assert!(seen.insert(name.to_string()), "name {name:?} used twice");
        }
    }
    for list in ["end_to_end", "per_layer"] {
        for m in spec.get(list).and_then(Value::as_arr).unwrap() {
            let unit = m.get("unit").and_then(Value::as_str).unwrap();
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "malformed unit {unit:?}"
            );
            let better = m.get("better").and_then(Value::as_str).unwrap();
            assert!(better == "higher" || better == "lower");
        }
    }
    let workloads = spec.get("workloads").and_then(Value::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "why: {why:?}");
    }
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let e2e = spec.get("end_to_end").and_then(Value::as_arr).unwrap();
    for m in e2e {
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    let secs = spec.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
}
