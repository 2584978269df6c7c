//! End-to-end measurement: set-up, timed engine rounds, and the
//! process meters (CPU time, peak RSS) around them.
//!
//! One **round** is one full-size `cbm_store::run` / `run_tcp` call on
//! the workload's fixed script. A measurement repeats rounds until
//! `--seconds` have passed and reports the **median over rounds** of
//! every per-op figure, so a slower build completes fewer rounds but
//! every round does the same work. Tracing is off here; the traced
//! run lives in [`crate::layers`].

use crate::workloads::{
    check_report, probe_config, sequential_oracle, store_config, Base, BenchAdt, ExactCounts,
    Script, Workload, WORKERS,
};
use cbm_adt::counter::Counter;
use cbm_adt::register::Register;
use cbm_store::{ShardMap, StoreConfig, StoreReport};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Full-size rounds run and discarded before the timed ones. On the
/// 2-core reference box a fresh process runs its first rounds in a
/// different scheduling regime from the steady one it settles into
/// (`sharded_routed`, some processes: 0.7 s, 1.1 s, then 1.5 s per
/// round from the third on); runs that mix the two regimes in varying
/// shares spread twice as wide as runs that measure only the second.
pub const WARMUP_ROUNDS: usize = 2;
/// Ops per worker of the engine start-up probe that is part of set-up.
const PROBE_OPS: usize = 1024;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

// `Timespec` above is the C `struct timespec` only where `time_t` and
// `long` are both 64 bits wide.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("cbm-benchmark's process meters need 64-bit Linux");

/// Process CPU time (user + system, every thread, exited ones too) in
/// nanoseconds. `/proc/self/stat` has the same figure, but in 10 ms
/// ticks — coarser than a whole smoke-test round.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and reads nothing else; `ts` is a live, exclusively
    // borrowed value of that layout (two 64-bit signed fields on 64-bit
    // Linux, which the `compile_error!` above enforces).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// The benchmark's output directory (`benchmark/out/`, git-ignored).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under `benchmark/out/scratch/`, removed on drop
/// — on success *and* on failure (a panicking round unwinds through
/// it).
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let dir = out_dir()
            .join("scratch")
            .join(format!("{tag}-{}", std::process::id()));
        // a stale directory of a killed earlier process with our pid
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Drop must not panic; a leftover directory is harmless (it is
        // git-ignored and the next run with this pid removes it)
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything that exists before the timed call.
pub struct Prepared {
    pub workload: &'static Workload,
    pub seed: u64,
    pub ops_per_worker: usize,
    pub every_ops: usize,
    pub map: ShardMap,
    pub script: Script,
    pub oracle: Option<u64>,
    pub scratch: Scratch,
}

impl Prepared {
    /// One engine run of the prepared workload at `ops_per_worker`.
    pub fn run_engine<A: BenchAdt>(
        &self,
        ops_per_worker: usize,
        every_ops: usize,
        trace: bool,
    ) -> StoreReport {
        self.run_config::<A>(&store_config(
            self.workload,
            self.seed,
            ops_per_worker,
            every_ops,
            Some(self.scratch.path()),
            trace,
        ))
    }

    fn run_config<A: BenchAdt>(&self, cfg: &StoreConfig) -> StoreReport {
        let gen = |me: usize, idx: u64, _: &mut rand::rngs::StdRng| self.script.input::<A>(me, idx);
        if self.workload.tcp {
            cbm_store::run_tcp(&A::default(), cfg, gen)
        } else {
            cbm_store::run(&A::default(), cfg, gen)
        }
    }
}

/// Set up `w`: generator tables, placement, the scratch directory, the
/// sequential oracle, and one minimal engine run on the workload's
/// config (the **start-up probe**: thread spawn, table allocation,
/// mesh creation, the final drain — the fixed cost every engine run
/// pays before and after its ops, which is where an engine change
/// that moves work out of the hot loop would put it; see
/// [`probe_config`] for what it leaves out).
pub fn prepare<A: BenchAdt>(
    w: &'static Workload,
    seed: u64,
    ops_per_worker: usize,
    every_ops: usize,
) -> Prepared {
    let scratch = Scratch::new(w.name);
    let map = ShardMap::build(&store_config(
        w,
        seed,
        ops_per_worker,
        every_ops,
        Some(scratch.path()),
        false,
    ));
    let script = Script::new(w, seed, &map);
    let oracle = sequential_oracle(w, &script, ops_per_worker);
    let p = Prepared {
        workload: w,
        seed,
        ops_per_worker,
        every_ops,
        map,
        script,
        oracle,
        scratch,
    };
    let probe = p.run_config::<A>(&probe_config(w, seed, PROBE_OPS));
    assert_eq!(
        probe.total_ops,
        (WORKERS * PROBE_OPS) as u64,
        "start-up probe ran an incomplete script"
    );
    p
}

/// What one timed round measured.
#[derive(Clone, Debug)]
pub struct Round {
    pub wall_s: f64,
    pub ops_per_s: f64,
    pub cpu_ns_per_op: f64,
    pub wire_bytes_per_op: f64,
    pub counts: ExactCounts,
    /// `Err` names the failed correctness check.
    pub verdict: Result<(), String>,
}

/// One timed, checked, full-size engine run, and its report.
pub fn timed_round<A: BenchAdt>(p: &Prepared, trace: bool) -> (Round, StoreReport) {
    let cpu0 = process_cpu_ns();
    let t = Instant::now();
    let report = p.run_engine::<A>(p.ops_per_worker, p.every_ops, trace);
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_ns = process_cpu_ns() - cpu0;
    let ops = report.total_ops.max(1) as f64;
    let round = Round {
        wall_s,
        ops_per_s: ops / wall_s,
        cpu_ns_per_op: cpu_ns as f64 / ops,
        wire_bytes_per_op: report.bytes_sent as f64 / ops,
        counts: ExactCounts::of(&report),
        verdict: check_report(p.workload, &report, p.ops_per_worker, p.oracle),
    };
    (round, report)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The end-to-end result of one measurement (one `--trace 0` run).
#[derive(Clone, Debug)]
pub struct Measured {
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    /// First failed check, if any.
    pub failure: Option<String>,
    pub ops_per_s: f64,
    pub cpu_ns_per_op: f64,
    pub wire_bytes_per_op: f64,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
    pub counts: ExactCounts,
}

/// Run [`WARMUP_ROUNDS`] discarded rounds of `w`, then timed rounds for
/// `seconds`, each after a fresh set-up (`setup_s` is the median over
/// all of them). `scale` divides the workload's full size (1 = the
/// committed sizes; the smoke tests use 100).
pub fn measure(w: &'static Workload, seed: u64, seconds: f64, scale: usize) -> Measured {
    match w.base {
        Base::Register => measure_adt::<Register>(w, seed, seconds, scale),
        Base::Counter => measure_adt::<Counter>(w, seed, seconds, scale),
    }
}

/// `(ops per worker, ops per epoch)` of `w` at `1/scale` of its
/// committed size: the epoch shrinks with the run, so a scaled run
/// keeps its drains, verification windows and crash schedule.
pub fn scaled(w: &Workload, scale: usize) -> (usize, usize) {
    let scale = scale.max(1);
    (w.ops_per_worker / scale, w.every_ops / scale)
}

fn measure_adt<A: BenchAdt>(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    scale: usize,
) -> Measured {
    let (ops, every) = scaled(w, scale);
    let mut setups = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut warmups = 0;
    let mut start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        // a fresh set-up before every round: its samples spread over
        // the whole run, so one noisy stretch of the machine cannot
        // move their median
        let t = Instant::now();
        let p = prepare::<A>(w, seed, ops, every);
        setups.push(t.elapsed().as_secs_f64());

        let (mut r, _) = timed_round::<A>(&p, false);
        if warmups < WARMUP_ROUNDS {
            warmups += 1;
            eprintln!(
                "  warm-up:  {:>7.3} s  {:>12.0} ops/s",
                r.wall_s, r.ops_per_s
            );
            start = Instant::now(); // the measured time starts after the last warm-up
            continue;
        }
        if let Some(first) = rounds.first() {
            if r.verdict.is_ok() && r.counts != first.counts {
                r.verdict = Err(format!(
                    "exact counts differ between rounds: {:?} vs {:?}",
                    first.counts, r.counts
                ));
            }
        }
        eprintln!(
            "  round {:>2}: {:>7.3} s  {:>12.0} ops/s  {:>8.1} cpu ns/op{}",
            rounds.len() + 1,
            r.wall_s,
            r.ops_per_s,
            r.cpu_ns_per_op,
            r.verdict
                .as_ref()
                .err()
                .map_or(String::new(), |e| format!("  FAILED: {e}"))
        );
        rounds.push(r);
    }

    let col = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let per_round = (WORKERS * ops) as u64;
    let failed_rounds = rounds.iter().filter(|r| r.verdict.is_err()).count() as u64;
    Measured {
        rounds: rounds.len(),
        attempted: per_round * rounds.len() as u64,
        failed: per_round * failed_rounds,
        failure: rounds.iter().find_map(|r| r.verdict.clone().err()),
        ops_per_s: col(|r| r.ops_per_s),
        cpu_ns_per_op: col(|r| r.cpu_ns_per_op),
        wire_bytes_per_op: col(|r| r.wire_bytes_per_op),
        peak_rss_mb: peak_rss_mb(),
        setup_s: median(&setups),
        counts: rounds[0].counts.clone(),
    }
}
