//! `cbm-node` — host a store replica set in one OS process, its
//! replication traffic on a real loopback TCP mesh.
//!
//! ```text
//! cbm-node serve --control HOST:PORT --id N
//! cbm-node run [--workers N] [--objects N] [--ops N] [--mode cc|ccv]
//!              [--batch N|off] [--seed S] [--rf N] [--locality N]
//!              [--read-ratio R] [--remote-read-ratio R]
//!              [--workload register|counter] [--profile NAME] [--monitor]
//! ```
//!
//! **`serve`** is the fleet worker behind `loadgen --procs N`: dial
//! the driver's control listener, announce the id, then execute
//! [`Ctrl::Run`] legs until [`Ctrl::Shutdown`] — or EOF, so a dead
//! driver never leaves orphaned nodes computing. Each leg runs the
//! shared workload generator over the in-process TCP mesh
//! ([`cbm_bench::run_workload`] with [`Transport::Tcp`]), so its
//! deterministic columns reproduce the driver's committed baselines
//! exactly. Flight records never cross the control socket: a leg that
//! wants one (failed verification, escalation, repair/recovery, or
//! `trace` forced in the spec) dumps it node-side into the spec's
//! `trace_dir`.
//!
//! **`run`** is the standalone deployment demo of `docs/DEPLOYMENT.md`:
//! one self-contained process hosting the whole replica set, printing
//! the report summary, exit status non-zero on any verification
//! failure. `--profile` applies a named chaos profile
//! ([`cbm_store::profile`]) — the full fault-injection story works
//! over sockets. Its workload flags are `loadgen`'s
//! ([`cbm_bench::flags::WorkloadFlags`]).
//!
//! Usage errors exit 2 in both subcommands.

use cbm_bench::flags::{usage_error, Flags, WorkloadFlags};
use cbm_bench::proto::{recv_ctrl, send_ctrl, Ctrl, LegSpec};
use cbm_bench::report::{self, dump_trace};
use cbm_bench::{run_workload, Transport, Workload};
use cbm_store::profile;
use std::net::TcpStream;
use std::process::ExitCode;

const USAGE: &str = "cbm-node serve --control HOST:PORT --id N\n\
     cbm-node run [--workers N] [--objects N] [--ops N] [--mode cc|ccv] \
     [--batch N|off] [--seed S] [--rf N] [--locality N] [--read-ratio R] \
     [--remote-read-ratio R] [--workload register|counter] [--profile NAME] [--monitor]";

fn main() -> ExitCode {
    let mut args = Flags::from_env(USAGE);
    match args.next().as_deref() {
        Some("serve") => serve(args),
        Some("run") => run_once(args),
        Some(other) => args.other(other),
        None => usage_error(format!(
            "cbm-node: expected a subcommand (serve | run)\n{USAGE}"
        )),
    }
}

/// Execute one leg and report node-side: run over the TCP mesh, dump
/// the flight record if the leg wants one, strip it, log one line.
///
/// A durable leg's `log_dir` is rewritten to a `node-{id}`
/// subdirectory first: the driver may dispatch the same spec to
/// several nodes (retries, future replication across nodes), and
/// epoch logs are single-writer files — two processes must never
/// share one (`docs/DURABILITY.md`).
fn execute(id: usize, spec: &LegSpec) -> cbm_store::StoreReport {
    let mut cfg = spec.cfg.clone();
    if let Some(base) = &cfg.durable.log_dir {
        let dir = std::path::Path::new(base).join(format!("node-{id}"));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!(
                "cbm-node[{id}] {}: cannot create log dir {}: {e} — logging disabled",
                spec.name,
                dir.display()
            );
            cfg.durable.log_dir = None;
        } else {
            cfg.durable.log_dir = Some(dir.to_string_lossy().into_owned());
        }
    }
    let mut report = run_workload(&spec.workload, &cfg, Transport::Tcp);
    eprintln!(
        "cbm-node[{id}] {}: {:.0} ops/s, {} msgs, {} windows ({} failed)",
        spec.name,
        report.ops_per_sec,
        report.msgs_sent,
        report.windows.len(),
        report.windows_failed
    );
    if spec.trace || report::wants_trace(&report) {
        dump_trace(
            &report,
            &spec.trace_dir,
            &spec.name,
            &format!("cbm-node[{id}]   "),
        );
    }
    report.trace = None; // never crosses the control socket
    report
}

fn serve(mut args: Flags) -> ExitCode {
    let mut control: Option<String> = None;
    let mut id: usize = 0;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--control" => control = Some(args.value(&a, "HOST:PORT")),
            "--id" => id = args.value(&a, "a number"),
            other => args.other(other),
        }
    }
    let Some(addr) = control else {
        usage_error("cbm-node serve: --control HOST:PORT is required");
    };
    let mut stream = match TcpStream::connect(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cbm-node[{id}]: cannot reach driver at {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let _ = stream.set_nodelay(true);
    if let Err(e) = send_ctrl(&mut stream, &Ctrl::Hello(id as u32)) {
        eprintln!("cbm-node[{id}]: hello failed: {e}");
        return ExitCode::FAILURE;
    }
    loop {
        match recv_ctrl(&mut stream) {
            Ok(Some(Ctrl::Run(spec))) => {
                let report = execute(id, &spec);
                if let Err(e) = send_ctrl(&mut stream, &Ctrl::Report(Box::new(report))) {
                    eprintln!("cbm-node[{id}]: report send failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Ok(Some(Ctrl::Shutdown)) | Ok(None) => return ExitCode::SUCCESS,
            Ok(Some(other)) => {
                let _ = send_ctrl(
                    &mut stream,
                    &Ctrl::Error(format!("unexpected control message {other:?}")),
                );
            }
            Err(e) => {
                // a dying driver must not leave this node computing
                eprintln!("cbm-node[{id}]: control stream lost: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
}

fn run_once(mut args: Flags) -> ExitCode {
    let mut w = WorkloadFlags::default();
    let mut counter = false;
    let mut profile_name: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => {
                counter = args.choice(&a, "register or counter", |v| match v {
                    "register" => Some(false),
                    "counter" => Some(true),
                    _ => None,
                })
            }
            "--profile" => profile_name = Some(args.value(&a, "a chaos profile name")),
            flag if w.take(flag, &mut args) => {}
            other => args.other(other),
        }
    }
    let mut cfg = w.config();
    if let Some(name) = &profile_name {
        cfg.chaos = profile(name, cfg.workers, cfg.verify.every_ops).unwrap_or_else(|| {
            usage_error(format!(
                "cbm-node: unknown chaos profile '{name}' (known: {})",
                cbm_store::PROFILE_NAMES.join(", ")
            ))
        });
    }
    let workload = if counter {
        Workload::Counter
    } else {
        w.register()
    };
    let r = run_workload(&workload, &cfg, Transport::Tcp);
    println!(
        "cbm-node: {} workers over TCP, {} ops, {:.0} ops/s, {} msgs, \
         {} windows ({} failed), drains converged: {}",
        cfg.workers,
        r.total_ops,
        r.ops_per_sec,
        r.msgs_sent,
        r.windows.len(),
        r.windows_failed,
        r.drains_converged
    );
    if let Some(m) = report::monitor_summary(&r) {
        println!("cbm-node: {m}");
    }
    let failures = report::run_failures(&r);
    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        eprintln!("cbm-node: FAIL {f}");
    }
    eprintln!("cbm-node: verification FAILED");
    ExitCode::FAILURE
}
