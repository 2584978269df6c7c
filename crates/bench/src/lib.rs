//! # cbm-bench — the harness layer and figure binaries
//!
//! The binaries that regenerate every committed artifact (`loadgen`,
//! `chaos_loadgen`, `perf_baseline`, `trace_check`), the `cbm-node`
//! fleet worker, the `scenario_runner` CLI, and one binary per paper
//! figure (`fig1_hierarchy` … `fig5_ccv_algorithm`). This library is
//! everything they share, written once:
//!
//! * [`flags`] — the flag parser (exit 2 on every usage error) and the
//!   eleven workload flags of a single-configuration run;
//! * [`json`] — the one document layout and the parser that reads it
//!   back;
//! * [`gate`] — the committed baseline a run's exact counts must
//!   reproduce, loaded before any work runs;
//! * [`report`] — the checks that fail a run, the flight-record dump
//!   policy, and the job-summary tables;
//! * [`Workload`], [`run_workload`] and [`leg_config`] — the op
//!   generators and engine configurations every binary runs;
//! * [`proto`] and [`fleet`] — the control protocol and the process
//!   pool behind `loadgen --procs`;
//! * for the figures: plain-text tables, random history generation,
//!   and the measured classification of a history against every
//!   applicable criterion.
//!
//! A new harness binary builds on these instead of its own parser,
//! writer, gate or verdict.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// `print!` for the harness binaries, which write through it and
/// [`outln!`] only: a reader that went away (`scenario_runner | head`)
/// ends the process quietly with status 141, as a shell reports a
/// writer killed by `SIGPIPE`, instead of a panic and status 101.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` for the harness binaries (see [`out!`]).
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The one stdout writer behind [`out!`] / [`outln!`]: exit 141 on a
/// broken pipe, panic on any other write error as `print!` does.
#[doc(hidden)]
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        panic!("failed printing to stdout: {e}");
    }
}

pub mod flags;
pub mod fleet;
pub mod gate;
pub mod json;
pub mod proto;
pub mod report;

use cbm_adt::counter::{Counter, CtInput};
use cbm_adt::register::{RegInput, Register};
use cbm_adt::space::SpaceInput;
use cbm_adt::window::{WInput, WOutput, WindowStream};
use cbm_adt::Adt;
use cbm_check::{check, Budget, Criterion, Verdict};
use cbm_history::{History, HistoryBuilder};
use cbm_store::{
    run, run_tcp, BatchPolicy, Mode, ShardMap, StoreConfig, StoreReport, VerifyConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which live transport carries the store engine's replication
/// traffic: the in-process channel mesh or real loopback TCP sockets
/// ([`cbm_net::tcp::TcpNet`]). The deterministic report columns are
/// identical by contract (`docs/DEPLOYMENT.md`), so one committed
/// `--gate` baseline gates both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process channels between worker threads (the default).
    Thread,
    /// A real TCP mesh over loopback, one socket pair per worker pair.
    Tcp,
}

impl Transport {
    /// Parse a `--transport` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "thread" => Some(Transport::Thread),
            "tcp" => Some(Transport::Tcp),
            _ => None,
        }
    }

    /// The flag spelling (`thread` / `tcp`).
    pub fn name(&self) -> &'static str {
        match self {
            Transport::Thread => "thread",
            Transport::Tcp => "tcp",
        }
    }
}

/// A named operation generator, defined **once** so `loadgen`,
/// `chaos_loadgen`, and the `cbm-node` process produce byte-identical
/// op scripts for a given `(workload, config, seed)` — the determinism
/// contract would die quietly if the closures ever diverged between
/// binaries.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// The throughput-matrix register space: `read_ratio` of ops read
    /// (a `remote_read_ratio` fraction of those roaming to arbitrary —
    /// possibly non-hosted — objects), the rest write random values.
    Register {
        /// Fraction of operations that are reads.
        read_ratio: f64,
        /// Fraction of reads targeting an arbitrary object (may route
        /// to a remote replica under partial replication).
        remote_read_ratio: f64,
    },
    /// The chaos-matrix counter space: [`COUNTER_READS`] of ops read,
    /// the rest are commutative increments — chaos runs must converge
    /// byte-identically to their fault-free twins, and in convergent
    /// mode no increment overwrites, so late arrivals refold the
    /// arbitration log.
    Counter,
}

/// Fraction of [`Workload::Counter`] operations that read.
pub const COUNTER_READS: f64 = 0.3;

/// Run `cfg` under the named workload over the chosen transport. This
/// is the single definition of both generator closures (see
/// [`Workload`]); every harness binary funnels through it.
pub fn run_workload(w: &Workload, cfg: &StoreConfig, t: Transport) -> StoreReport {
    match w {
        Workload::Register {
            read_ratio,
            remote_read_ratio,
        } => {
            let objects = cfg.objects as u32;
            let (read_ratio, remote) = (*read_ratio, *remote_read_ratio);
            let map = ShardMap::build(cfg);
            let gen = move |w: usize, _: u64, rng: &mut StdRng| {
                let obj = rng.gen_range(0u32..objects);
                if rng.gen_bool(read_ratio) {
                    // most reads stay on hosted objects (the locality a
                    // sharded deployment routes for); a `remote`
                    // fraction may land anywhere and ride the
                    // request/reply path
                    let obj = if remote > 0.0 && rng.gen_bool(remote) {
                        obj
                    } else {
                        map.localize(w, obj)
                    };
                    SpaceInput::new(obj, RegInput::Read)
                } else {
                    SpaceInput::new(obj, RegInput::Write(rng.gen_range(1u64..1_000_000)))
                }
            };
            match t {
                Transport::Thread => run(&Register, cfg, gen),
                Transport::Tcp => run_tcp(&Register, cfg, gen),
            }
        }
        Workload::Counter => {
            let objects = cfg.objects as u32;
            let gen = move |_: usize, _: u64, rng: &mut StdRng| {
                let obj = rng.gen_range(0u32..objects);
                if rng.gen_bool(COUNTER_READS) {
                    SpaceInput::new(obj, CtInput::Read)
                } else {
                    SpaceInput::new(obj, CtInput::Add(rng.gen_range(1i64..1_000)))
                }
            };
            match t {
                Transport::Thread => run(&Counter, cfg, gen),
                Transport::Tcp => run_tcp(&Counter, cfg, gen),
            }
        }
    }
}

/// The seed of every `loadgen` leg, and the first of the seeds each
/// chaos cell sweeps.
pub const SEED: u64 = 42;

/// One harness leg's engine configuration: `workers` workers issuing
/// `ops` operations each over `objects` objects in `mode`, batching by
/// `batch`, verifying a `window_ops`-op window every `every_ops` ops,
/// seeded with [`SEED`]. Everything else — full replication, no faults,
/// no tracing, no disk — is [`StoreConfig::default`]'s.
pub fn leg_config(
    mode: Mode,
    workers: usize,
    objects: usize,
    ops: usize,
    batch: BatchPolicy,
    every_ops: usize,
    window_ops: usize,
) -> StoreConfig {
    StoreConfig {
        workers,
        objects,
        ops_per_worker: ops,
        mode,
        batch,
        verify: VerifyConfig {
            every_ops,
            window_ops,
            ..VerifyConfig::default()
        },
        seed: SEED,
        ..StoreConfig::default()
    }
}

/// Render an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<w$}", cell, w = widths[i]));
        }
        line.push('\n');
        line
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Pretty-print a verdict for tables.
pub fn mark(v: Verdict) -> String {
    match v {
        Verdict::Sat => "yes".into(),
        Verdict::Unsat => "no".into(),
        Verdict::Unknown => "?".into(),
    }
}

/// Pretty-print an expectation.
pub fn expect_mark(e: Option<bool>) -> String {
    match e {
        Some(true) => "yes".into(),
        Some(false) => "no".into(),
        None => "-".into(),
    }
}

/// Measured verdicts of one history against the five generic criteria,
/// in the order SC, CC, CCv, WCC, PC.
pub fn classify<T: Adt>(
    adt: &T,
    h: &History<T::Input, T::Output>,
    budget: &Budget,
) -> [Verdict; 5] {
    [
        check(Criterion::Sc, adt, h, budget).verdict,
        check(Criterion::Cc, adt, h, budget).verdict,
        check(Criterion::Ccv, adt, h, budget).verdict,
        check(Criterion::Wcc, adt, h, budget).verdict,
        check(Criterion::Pc, adt, h, budget).verdict,
    ]
}

/// Configuration for random window-stream histories (hierarchy
/// experiment E1).
#[derive(Debug, Clone, Copy)]
pub struct RandomHistories {
    /// Number of processes (2–3 keeps checking exact).
    pub procs: usize,
    /// Max events per process.
    pub max_ops: usize,
    /// Window size `k`.
    pub k: usize,
    /// Value domain for claimed read windows.
    pub domain: u64,
    /// Number of histories.
    pub count: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for RandomHistories {
    fn default() -> Self {
        RandomHistories {
            procs: 2,
            max_ops: 3,
            k: 2,
            domain: 3,
            count: 500,
            seed: 1,
        }
    }
}

/// Generate random `Wk` histories: each process writes a distinct value
/// then performs reads claiming arbitrary windows over a small domain.
/// Many are inconsistent; the interesting ones land between criteria.
pub fn random_histories(cfg: &RandomHistories) -> Vec<History<WInput, WOutput>> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.count)
        .map(|_| {
            let mut b: HistoryBuilder<WInput, WOutput> = HistoryBuilder::new();
            for p in 0..cfg.procs {
                b.op(p, WInput::Write(p as u64 + 1), WOutput::Ack);
                for _ in 0..rng.gen_range(0..=cfg.max_ops.saturating_sub(1)) {
                    let w: Vec<u64> = (0..cfg.k).map(|_| rng.gen_range(0..cfg.domain)).collect();
                    b.op(p, WInput::Read, WOutput::Window(w));
                }
            }
            b.build()
        })
        .collect()
}

/// The window-stream ADT matching [`random_histories`].
pub fn random_histories_adt(cfg: &RandomHistories) -> WindowStream {
    WindowStream::new(cfg.k)
}

/// Record a `WindowArray` history from a two-replica causal cluster —
/// the fixed checker workload shared by the `perf_baseline` binary and
/// the `profile_cc` example, so both measure the same histories.
pub fn recorded_window_history(
    ops_per_proc: usize,
    seed: u64,
) -> cbm_history::History<cbm_adt::window::WaInput, cbm_adt::window::WaOutput> {
    use cbm_core::causal::CausalShared;
    use cbm_core::cluster::Cluster;
    use cbm_core::workload::{window_script, WindowWorkload};

    let cfg = WindowWorkload {
        procs: 2,
        ops_per_proc,
        streams: 1,
        write_ratio: 0.5,
        max_think: 20,
        seed,
    };
    let adt = cbm_adt::window::WindowArray::new(1, 2);
    let cluster: Cluster<cbm_adt::window::WindowArray, CausalShared<cbm_adt::window::WindowArray>> =
        Cluster::new(2, adt, cbm_net::latency::LatencyModel::Uniform(1, 50), seed);
    cluster.run(window_script(&cfg)).history
}

/// The ADT matching [`recorded_window_history`].
pub fn recorded_window_adt() -> cbm_adt::window::WindowArray {
    cbm_adt::window::WindowArray::new(1, 2)
}

/// Simple text bar for latency tables.
pub fn bar(value: f64, scale: f64, width: usize) -> String {
    let filled = ((value / scale).min(1.0) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a", "long-header"],
            &[vec!["xx".into(), "y".into()], vec!["1".into(), "2".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
    }

    #[test]
    fn random_histories_are_deterministic() {
        let cfg = RandomHistories {
            count: 5,
            ..Default::default()
        };
        let a = random_histories(&cfg);
        let b = random_histories(&cfg);
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), y.len());
            for e in x.events() {
                assert_eq!(x.label(e), y.label(e));
            }
        }
    }

    #[test]
    fn classify_returns_five_verdicts() {
        let cfg = RandomHistories {
            count: 1,
            ..Default::default()
        };
        let h = &random_histories(&cfg)[0];
        let v = classify(&random_histories_adt(&cfg), h, &Budget::default());
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(10.0, 10.0, 4), "####");
        assert_eq!(bar(0.0, 10.0, 4), "....");
        assert_eq!(bar(100.0, 10.0, 4), "####");
    }
}
