//! `all` (the full repeated benchmark, written to a result file) and
//! `compare` (the verdict on two result files).
//!
//! `all` runs every workload `repeats` times with tracing off, **each
//! run in a fresh child process** of this binary's single-run mode —
//! so CPU time and peak RSS are per run — then one traced run per
//! workload for the per-layer numbers. Every end-to-end metric is
//! summarised as min / q1 / median / q3 / max over the repeats, with
//! the quartiles Python's `statistics.quantiles(values, n=4)` gives.

use crate::catalog::{MetricDef, END_TO_END, PER_LAYER};
use crate::json::{parse, Value};
use crate::workloads::WORKLOADS;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// `(q1, median, q3)` by the exclusive method (Python's default).
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    assert!(m >= 2, "quartiles need at least two samples");
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers were taken. Thread counts matter: 4 workers on
/// fewer than 4 cores time-share, and results are only comparable
/// between runs of one descriptor.
pub fn machine_descriptor(seed: u64, repeats: usize, seconds: f64) -> Value {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    Value::obj([
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "kernel",
            Value::str(read("/proc/sys/kernel/osrelease").trim()),
        ),
        ("cpu_model", Value::str(cpu_model)),
        ("rustc", Value::str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::Num(seed as f64)),
        ("repeats", Value::Num(repeats as f64)),
        ("seconds", Value::Num(seconds)),
    ])
}

/// One child run: the parsed `detail` line and result line.
struct ChildRun {
    detail: Value,
    result: Value,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn the child run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child run of {workload} exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = parse(lines.next().ok_or("child printed nothing")?)?;
    let detail = parse(lines.next().ok_or("child printed no detail line")?)?;
    Ok(ChildRun { detail, result })
}

fn metric_value(run: &Value, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn summary(def: &MetricDef, samples: &[f64]) -> Value {
    let (q1, med, q3) = quartiles(samples);
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Value::obj([
        ("unit", Value::str(def.unit)),
        ("samples", Value::Num(samples.len() as f64)),
        ("min", Value::Num(min)),
        ("q1", Value::Num(q1)),
        ("median", Value::Num(med)),
        ("q3", Value::Num(q3)),
        ("max", Value::Num(max)),
    ])
}

/// Run everything and write the result file. Returns whether every
/// run was correct.
pub fn all(seed: u64, seconds: f64, repeats: usize, out: &Path) -> Result<bool, String> {
    if repeats < 2 {
        return Err("--repeats must be at least 2 (quartiles need two samples)".into());
    }
    let mut correct = true;
    let mut workloads = Vec::new();
    println!(
        "cbm-benchmark all: seed {seed}, {repeats} runs x {seconds} s per workload, 4 workers on {} core(s), no injected message delay (latency is processor + kernel time only)",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..repeats {
            runs.push(run_child(w.name, seed, seconds, false)?);
        }
        let traced = run_child(w.name, seed, seconds, true)?;

        let ok = |r: &ChildRun| r.result.get("correct") == Some(&Value::Bool(true));
        let sum = |key: &str| -> f64 {
            runs.iter()
                .filter_map(|r| r.result.get(key)?.as_f64())
                .sum()
        };
        let counts = runs[0].detail.get("counts").cloned().unwrap_or(Value::Null);
        let counts_repeat = runs.iter().all(|r| r.detail.get("counts") == Some(&counts));
        let w_correct = runs.iter().all(ok) && ok(&traced) && counts_repeat;
        correct &= w_correct;

        println!("\n{} — {}", w.name, w.why);
        println!(
            "  {:<20} {:>14} {:>14} {:>14} {:>14} {:>14}  unit",
            "end to end", "min", "q1", "median", "q3", "max"
        );
        let mut e2e = Vec::new();
        for def in &END_TO_END {
            let samples: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_value(&r.result, def.name))
                .collect();
            if samples.len() != repeats {
                return Err(format!("{}: a run did not report {}", w.name, def.name));
            }
            let s = summary(def, &samples);
            let f = |k: &str| s.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
            println!(
                "  {:<20} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4}  {}",
                def.name,
                f("min"),
                f("q1"),
                f("median"),
                f("q3"),
                f("max"),
                def.unit
            );
            e2e.push((def.name, s));
        }
        let (attempted, failed) = (sum("attempted"), sum("failed"));
        println!(
            "  failed_share {} ({failed} of {attempted} ops); exact counts {}; correct: {w_correct}",
            failed / attempted.max(1.0),
            if counts_repeat {
                "identical across runs"
            } else {
                "DIFFER across runs"
            }
        );
        println!("  per layer (one traced run):");
        let layer_metrics = traced.result.get("metrics").cloned().unwrap_or(Value::Null);
        for def in &PER_LAYER {
            if let Some(v) = metric_value(&traced.result, def.name) {
                println!("    {:<40} {:>14.3} {}", def.name, v, def.unit);
            }
        }
        workloads.push(Value::obj([
            ("name", Value::str(w.name)),
            ("correct", Value::Bool(w_correct)),
            ("attempted", Value::Num(attempted)),
            ("failed", Value::Num(failed)),
            ("counts", counts),
            ("end_to_end", Value::obj(e2e)),
            ("per_layer", layer_metrics),
        ]));
    }
    let doc = Value::obj([
        ("machine", machine_descriptor(seed, repeats, seconds)),
        ("workloads", Value::Arr(workloads)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(out, doc.render_pretty(5))
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("\nresult file: {}", out.display());
    Ok(correct)
}

/// Verdict of one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Worse,
    /// Run-to-run spread (interquartile range over median, of either
    /// side) is wider than the bound: the runs cannot tell.
    Unresolved,
}

/// `worse_by` is B's median against A's, as a share of A's, positive
/// when B is worse; `spread` the wider side's IQR over its median.
pub fn verdict(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare result file `b` against baseline `a`. `Ok(true)` = no
/// metric worse and every exact count identical.
pub fn compare(a: &Path, b: &Path) -> Result<(bool, String), String> {
    let (da, db) = (load(a)?, load(b)?);
    let workloads = |d: &Value| -> Result<Vec<Value>, String> {
        Ok(d.get("workloads")
            .and_then(Value::as_arr)
            .ok_or("result file has no workloads")?
            .to_vec())
    };
    let (wa, wb) = (workloads(&da)?, workloads(&db)?);
    let mut out = String::new();
    let mut pass = true;
    let _ = writeln!(
        out,
        "{:<18} {:<18} {:>13} {:>13} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B worse", "spread", "bound"
    );
    for a_w in &wa {
        let name = a_w.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(b_w) = wb
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            let _ = writeln!(out, "{name:<18} missing from B");
            pass = false;
            continue;
        };
        for def in &END_TO_END {
            let field = |w: &Value, k: &str| -> Result<f64, String> {
                w.get("end_to_end")
                    .and_then(|e| e.get(def.name))
                    .and_then(|m| m.get(k))
                    .and_then(Value::as_f64)
                    .ok_or(format!("{name}: {} has no {k}", def.name))
            };
            let (ma, mb) = (field(a_w, "median")?, field(b_w, "median")?);
            let spread = |w: &Value| -> Result<f64, String> {
                Ok((field(w, "q3")? - field(w, "q1")?) / field(w, "median")?)
            };
            let spread = spread(a_w)?.max(spread(b_w)?);
            let worse_by = if def.higher { ma - mb } else { mb - ma } / ma;
            let bound = def.bound.expect("end-to-end bound");
            let v = verdict(worse_by, spread, bound);
            pass &= v != Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<18} {:<18} {:>13.4} {:>13.4} {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                name,
                def.name,
                ma,
                mb,
                worse_by * 100.0,
                spread * 100.0,
                bound * 100.0,
                match v {
                    Verdict::WithinBound => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        if a_w.get("counts") != b_w.get("counts") {
            pass = false;
            let _ = writeln!(
                out,
                "{name:<18} EXACT COUNTS DIFFER: {} vs {}",
                a_w.get("counts").map_or("null".into(), Value::render),
                b_w.get("counts").map_or("null".into(), Value::render)
            );
        }
    }
    // the socket path must not change what is sent
    let counts_of = |ws: &[Value], name: &str| -> Option<Vec<f64>> {
        let c = ws
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))?
            .get("counts")?;
        ["msgs", "batches", "payloads"]
            .iter()
            .map(|k| c.get(k)?.as_f64())
            .collect()
    };
    for (side, ws) in [("A", &wa), ("B", &wb)] {
        if counts_of(ws, "write_fanout") != counts_of(ws, "write_fanout_tcp") {
            pass = false;
            let _ = writeln!(
                out,
                "{side}: write_fanout and write_fanout_tcp disagree on msgs/batches/payloads"
            );
        }
    }
    Ok((pass, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn verdict_prefers_unresolved_over_worse() {
        assert_eq!(verdict(0.05, 0.02, 0.10), Verdict::WithinBound);
        assert_eq!(verdict(0.15, 0.02, 0.10), Verdict::Worse);
        assert_eq!(verdict(0.15, 0.12, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(-0.30, 0.02, 0.10), Verdict::WithinBound);
    }
}
