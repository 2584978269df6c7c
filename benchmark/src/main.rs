//! `cbm-benchmark`: one named, repeatable end-to-end + per-layer
//! benchmark of the live `cbm-store` engine. See `BENCHMARK.json` for
//! the contract and `benchmark/README.md` for the rationale.
//!
//! ```text
//! cbm-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (the BENCHMARK.json command)
//! cbm-benchmark all [--seed N] [--seconds S] [--repeats K] [--out FILE]
//! cbm-benchmark compare A.json B.json
//! cbm-benchmark describe
//! ```

use cbm_benchmark::catalog::{describe, metrics_object, END_TO_END};
use cbm_benchmark::json::Value;
use cbm_benchmark::{e2e, layers, report, workloads};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  cbm-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--scale K]
  cbm-benchmark all [--seed N] [--seconds S] [--repeats K] [--out FILE]
  cbm-benchmark compare A.json B.json
  cbm-benchmark describe";

/// `--key value` pairs of a command line.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or(format!("expected a --flag, got {k:?}"))?;
            let v = it.next().ok_or(format!("--{key} needs a value"))?;
            out.push((key.to_string(), v.clone()));
        }
        Ok(Flags(out))
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or(format!("--{key} is required"))
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

/// One driver-contract run. Stdout ends with the result line; the line
/// before it carries the exact counts `all` and `compare` need.
fn single_run(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["workload", "seed", "seconds", "trace", "scale"])?;
    let name: String = flags.require("workload")?;
    let w = workloads::by_name(&name).ok_or(format!(
        "unknown workload {name:?}; known: {}",
        workloads::WORKLOADS.map(|w| w.name).join(", ")
    ))?;
    let seed: u64 = flags.require("seed")?;
    let seconds: f64 = flags.require("seconds")?;
    let trace: u8 = flags.require("trace")?;
    // 1/scale of the committed sizes; the smoke tests run at 1/100
    let scale: usize = flags.get("scale")?.unwrap_or(1);
    if seconds.is_nan() || seconds <= 0.0 || trace > 1 || scale == 0 {
        return Err("--seconds must be positive, --trace 0 or 1, --scale at least 1".into());
    }
    eprintln!(
        "{}: seed {seed}, {} workers on {} core(s), closed loop, no injected message delay (latency is processor + kernel time only)",
        w.name,
        workloads::WORKERS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let (attempted, failed, failure, detail, metrics) = if trace == 0 {
        let m = e2e::measure(w, seed, seconds, scale);
        eprintln!("{} rounds of {} ops", m.rounds, m.counts.total_ops);
        let detail = Value::obj([
            ("rounds", Value::Num(m.rounds as f64)),
            ("counts", m.counts.json()),
        ]);
        let metrics = metrics_object(
            &END_TO_END,
            &[
                ("ops_per_s", m.ops_per_s),
                ("cpu_ns_per_op", m.cpu_ns_per_op),
                ("wire_bytes_per_op", m.wire_bytes_per_op),
                ("peak_rss_mb", m.peak_rss_mb),
                ("setup_s", m.setup_s),
            ],
        );
        (m.attempted, m.failed, m.failure, detail, metrics)
    } else {
        let t = layers::traced_run(w, seed, seconds, scale);
        eprint!("{}", layers::render_ledger(w, &t));
        let metrics = t.metrics();
        (
            t.attempted,
            t.failed,
            t.failure,
            Value::Obj(Vec::new()),
            metrics,
        )
    };
    if let Some(f) = &failure {
        eprintln!("CHECK FAILED: {f}");
    }
    println!("{}", detail.render());
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(failed == 0)),
            ("attempted", Value::Num(attempted as f64)),
            ("failed", Value::Num(failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    );
    Ok(ExitCode::SUCCESS)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("all") => {
            let flags = Flags::parse(&args[1..])?;
            flags.only(&["seed", "seconds", "repeats", "out"])?;
            let seed = flags.get("seed")?.unwrap_or(42);
            let out: PathBuf = flags
                .get("out")?
                .unwrap_or_else(|| e2e::out_dir().join(format!("result-seed{seed}.json")));
            let ok = report::all(
                seed,
                flags.get("seconds")?.unwrap_or(3.0),
                flags.get("repeats")?.unwrap_or(5),
                &out,
            )?;
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err(USAGE.into());
            };
            let (pass, table) = report::compare(a.as_ref(), b.as_ref())?;
            print!("{table}");
            Ok(if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("describe") => {
            print!("{}", describe().render_pretty(2));
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") => single_run(&Flags::parse(args)?),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cbm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
