//! The seven named workloads: config deltas, the seeded op script, and
//! the correctness checks every engine run must pass.
//!
//! Load shape shared by all of them (see `benchmark/README.md`): a
//! closed loop of [`WORKERS`] worker threads, each its own client
//! issuing its next op when the previous one completes, over
//! [`OBJECTS`] objects, `BatchPolicy::Every(32)`, sampled verification
//! windows of 48 ops, and **no injected message delay** — latency is
//! processor + kernel time only.

use crate::json::Value;
use cbm_adt::counter::{Counter, CtInput};
use cbm_adt::register::{RegInput, Register};
use cbm_adt::space::SpaceInput;
use cbm_adt::Adt;
use cbm_net::clock::Timestamp;
use cbm_net::fault::{Fault, FaultPlan};
use cbm_store::codec::PayloadCodec;
use cbm_store::objects::ObjectTable;
use cbm_store::{
    BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, ShardMap, StoreConfig, StoreReport,
    VerifyConfig,
};
use std::path::Path;

/// Cluster size, fixed on every machine: counts are only comparable at
/// a fixed size, and 4 is the smallest cluster where rf-2 placement
/// leaves every worker with non-hosted shards and full-replication
/// fan-out (3) differs from rf-2 fan-out (1).
pub const WORKERS: usize = 4;
/// Objects in the space.
pub const OBJECTS: usize = 1024;
/// Flush threshold of the batched causal multicast.
pub const BATCH: usize = 32;
/// The worker `durable_crash` crashes, and the epoch boundaries it
/// crashes and recovers at.
pub const CRASH_WORKER: usize = 3;
const CRASH_EPOCH: u64 = 3;
const RECOVER_EPOCH: u64 = 5;

/// Base data type of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Base {
    /// `cbm_adt::register::Register` (non-commutative writes).
    Register,
    /// `cbm_adt::counter::Counter` (commutative adds: replicas converge
    /// in causal mode, so the final state has a sequential oracle).
    Counter,
}

/// Which objects the script addresses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Keys {
    /// Uniform over the whole space.
    Uniform,
    /// `hot_share` of ops go to the first `hot` objects, the rest are
    /// uniform.
    Hot { hot: u32, hot_share: f64 },
    /// Reads address an object the issuing worker hosts, except a
    /// `roam_share` of them that address an arbitrary object (and so
    /// route to a remote replica when it is not hosted). Writes are
    /// uniform; the engine re-addresses them to a hosted object.
    Hosted { roam_share: f64 },
}

/// One named workload. Names are permanent: later issues cite them.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub base: Base,
    pub mode: Mode,
    pub sharding: Sharding,
    pub tcp: bool,
    pub read_share: f64,
    pub keys: Keys,
    pub monitor: bool,
    /// Durable epoch log + one crash/disk-recovery cycle of
    /// [`CRASH_WORKER`].
    pub durable_crash: bool,
    /// Ops each worker issues in one full-size engine run.
    pub ops_per_worker: usize,
    /// Ops per worker between drain rendezvous.
    pub every_ops: usize,
}

/// Placement of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sharding {
    Full,
    Rf2,
}

const fn base(name: &'static str, why: &'static str) -> Workload {
    Workload {
        name,
        why,
        base: Base::Register,
        mode: Mode::Causal,
        sharding: Sharding::Full,
        tcp: false,
        read_share: 0.5,
        keys: Keys::Uniform,
        monitor: false,
        durable_crash: false,
        ops_per_worker: 0,
        every_ops: 50_000,
    }
}

/// Every workload, in reporting order. Sizes are one common factor
/// (1/4) of the sizes ISSUE 11 measured at 3-6 s per run on the 2-core
/// reference box, so one engine run ("round") takes about a second
/// and a `--seconds 12` measurement holds 8-18 of them.
///
/// `durable_crash` is the exception: it keeps the issue's 100 000-op
/// epochs and crash schedule but runs 6 epochs instead of 15, with a
/// snapshot every 2 boundary seals instead of 4 (still 3 snapshot
/// cycles). Every cut blocks all four workers on the slowest of four
/// `fdatasync`s, and the sandbox disk's sync latency was seen to jump
/// from 0.3 ms to 6 ms (spikes of 100 ms) for minutes at a time; 14
/// sync points in a 2-second round keep that to a 5-15% swing where
/// 40 in a 1.3-second round swung the round time 4-10x.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        base: Base::Register,
        read_share: 0.95,
        ops_per_worker: 4_000_000,
        ..base(
            "read_local",
            "95% reads, full replication: time is engine execute + object table + clock/histogram; replication near idle, so it is the bypass for every net/codec/monitor/durable change",
        )
    },
    Workload {
        base: Base::Counter,
        read_share: 0.10,
        ops_per_worker: 500_000,
        ..base(
            "write_fanout",
            "90% adds, full replication over in-process channels: every update is stamped, copied to 3 peers, causally buffered and delivered, so broadcast + deliver dominate",
        )
    },
    Workload {
        base: Base::Counter,
        read_share: 0.10,
        ops_per_worker: 500_000,
        tcp: true,
        ..base(
            "write_fanout_tcp",
            "write_fanout's exact config and script over the loopback TCP mesh: the difference is codec + CRC framing + syscalls + reader/writer threads",
        )
    },
    Workload {
        sharding: Sharding::Rf2,
        keys: Keys::Hosted { roam_share: 0.20 },
        ops_per_worker: 625_000,
        ..base(
            "sharded_routed",
            "rf-2 partial replication, 50% reads of which 20% roam (about 5% of ops are routed reads): fan-out 1, delta-encoded edge headers, and the one op that is not wait-free",
        )
    },
    Workload {
        monitor: true,
        ops_per_worker: 1_250_000,
        ..base(
            "monitored_mixed",
            "50/50 registers with the streaming monitor certifying every own op and folding every delivered update (3 folds per write); every other workload bypasses the monitor",
        )
    },
    Workload {
        mode: Mode::Convergent,
        keys: Keys::Hot {
            hot: 16,
            hot_share: 0.80,
        },
        ops_per_worker: 750_000,
        ..base(
            "convergent_hot",
            "Fig. 5 convergent mode with 80% of ops on 16 hot objects: Lamport arbitration, long per-object epoch logs whose late arrivals refold, compaction at every drain",
        )
    },
    Workload {
        base: Base::Counter,
        read_share: 0.30,
        durable_crash: true,
        ops_per_worker: 600_000,
        every_ops: 100_000,
        ..base(
            "durable_crash",
            "durable epoch log: per-update append, fsync'd seal at every cut, 3 snapshot cycles, worker 3 crashes at epoch 3 and recovers from its own disk + co-replica delta at epoch 5",
        )
    },
];

/// Look a workload up by its permanent name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A base type the benchmark can script: how an abstract
/// read/write op becomes the type's input.
pub trait BenchAdt:
    Adt<
        Input: PayloadCodec + Send + Sync + 'static,
        Output: PayloadCodec + Send + 'static,
        State: PayloadCodec + Send + Sync + 'static,
    > + Clone
    + Default
    + Send
    + Sync
    + 'static
{
    fn read() -> Self::Input;
    fn write(v: u64) -> Self::Input;
}

impl BenchAdt for Register {
    fn read() -> RegInput {
        RegInput::Read
    }
    fn write(v: u64) -> RegInput {
        RegInput::Write(v)
    }
}

impl BenchAdt for Counter {
    fn read() -> CtInput {
        CtInput::Read
    }
    fn write(v: u64) -> CtInput {
        // never Add(0): that is a declared no-op, not an update
        CtInput::Add(1 + (v % 99) as i64)
    }
}

/// SplitMix64's output function.
#[inline]
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One abstract operation of a script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScriptOp {
    pub obj: u32,
    /// `None` = read, `Some(v)` = write/add of `v`.
    pub write: Option<u64>,
}

impl ScriptOp {
    /// The op as base type `A`'s input.
    #[inline]
    pub fn input<A: BenchAdt>(&self) -> A::Input {
        match self.write {
            None => A::read(),
            Some(v) => A::write(v),
        }
    }
}

/// [`Keys`] with its shares scaled to 16-bit thresholds and its
/// placement tables built, so [`Script::op`] does integer work only.
enum KeyDraw {
    Uniform,
    /// The first `hot` objects when the selector is below `below`.
    Hot {
        hot: u32,
        below: u64,
    },
    /// A read stays on `hosted[worker]` unless its selector is below
    /// `roam_below`.
    Hosted {
        roam_below: u64,
        hosted: Vec<Vec<u32>>,
    },
}

/// The op generator: a pure function of `(seed, worker, op_index)`,
/// and the only thing the seed touches. The engine's own per-worker
/// RNG is ignored, so the script does not depend on how the engine
/// seeds or advances it.
pub struct Script {
    seed: u64,
    /// An op is a read when its 16-bit draw is below this.
    read_below: u64,
    keys: KeyDraw,
}

/// Scale a share in `[0, 1]` to a 16-bit threshold.
fn threshold(share: f64) -> u64 {
    (share * 65536.0).round() as u64
}

impl Script {
    pub fn new(w: &Workload, seed: u64, map: &ShardMap) -> Script {
        let keys = match w.keys {
            Keys::Uniform => KeyDraw::Uniform,
            Keys::Hot { hot, hot_share } => KeyDraw::Hot {
                hot,
                below: threshold(hot_share),
            },
            Keys::Hosted { roam_share } => KeyDraw::Hosted {
                roam_below: threshold(roam_share),
                hosted: (0..WORKERS)
                    .map(|me| {
                        (0..OBJECTS as u32)
                            .filter(|&o| map.hosts(me, map.shard_of(o)))
                            .collect()
                    })
                    .collect(),
            },
        };
        Script {
            seed,
            read_below: threshold(w.read_share),
            keys,
        }
    }

    /// The `idx`-th op of `worker`.
    #[inline]
    pub fn op(&self, worker: usize, idx: u64) -> ScriptOp {
        let r = mix(self.seed ^ mix(((worker as u64) << 48) | idx));
        let is_read = (r & 0xFFFF) < self.read_below;
        let key = (r >> 16) as u32;
        let sel = r >> 48; // 16 bits, independent of `key` and the read draw
        let uniform = key % OBJECTS as u32;
        let obj = match &self.keys {
            KeyDraw::Uniform => uniform,
            KeyDraw::Hot { hot, below } => {
                if sel < *below {
                    key % hot
                } else {
                    uniform
                }
            }
            KeyDraw::Hosted { roam_below, hosted } => {
                if is_read && sel >= *roam_below {
                    let mine = &hosted[worker];
                    mine[key as usize % mine.len()]
                } else {
                    uniform
                }
            }
        };
        ScriptOp {
            obj,
            write: (!is_read).then(|| mix(r)),
        }
    }

    /// The op as the engine's generator callback returns it.
    #[inline]
    pub fn input<A: BenchAdt>(&self, worker: usize, idx: u64) -> SpaceInput<A::Input> {
        let op = self.op(worker, idx);
        SpaceInput::new(op.obj, op.input::<A>())
    }
}

/// The engine configuration of `w` at `ops_per_worker` ops per worker
/// in epochs of `every_ops` (the workload's own, or a scaled-down test
/// size). `log_dir` is the fresh scratch directory of a
/// `durable_crash` run (ignored by every other workload); `trace`
/// switches the engine's flight recorder on.
pub fn store_config(
    w: &Workload,
    seed: u64,
    ops_per_worker: usize,
    every_ops: usize,
    log_dir: Option<&Path>,
    trace: bool,
) -> StoreConfig {
    let every = every_ops as u64;
    StoreConfig {
        workers: WORKERS,
        objects: OBJECTS,
        ops_per_worker,
        mode: w.mode,
        batch: BatchPolicy::Every(BATCH),
        verify: VerifyConfig {
            every_ops,
            window_ops: 48,
            sample_every: 1,
            monitor: w.monitor,
        },
        seed,
        sharding: match w.sharding {
            Sharding::Full => ShardConfig::full(),
            Sharding::Rf2 => ShardConfig::rf(2),
        },
        chaos: if w.durable_crash {
            FaultPlan::new()
                .at(CRASH_EPOCH * every, Fault::Crash(CRASH_WORKER))
                .at(RECOVER_EPOCH * every, Fault::Recover(CRASH_WORKER))
        } else {
            FaultPlan::new()
        },
        obs: ObsConfig {
            trace,
            ..ObsConfig::default()
        },
        durable: if w.durable_crash {
            DurableConfig {
                log_dir: Some(
                    log_dir
                        .expect("durable_crash runs need a scratch log dir")
                        .to_string_lossy()
                        .into_owned(),
                ),
                snapshot_every: 2,
                recover_from_disk: true,
                resume: false,
                halt_at_boundary: 0,
            }
        } else {
            DurableConfig::default()
        },
    }
}

/// `w`'s configuration for the engine start-up probe of set-up: the
/// same engine at a token size, but fault-free and memory-only. The
/// probe must never touch the disk — set-up time has the tightest
/// run-to-run comparison, and a single `fdatasync` on the sandbox disk
/// costs anywhere from a tenth of the probe to ten times it.
pub fn probe_config(w: &Workload, seed: u64, ops_per_worker: usize) -> StoreConfig {
    let memory_only = Workload {
        durable_crash: false,
        ..*w
    };
    store_config(&memory_only, seed, ops_per_worker, w.every_ops, None, false)
}

/// The final full-space state hash every replica must publish, where
/// the workload has one: commutative counters under full replication
/// converge to the fold of *all* updates in any order, so one
/// sequential pass over the script through a fresh [`ObjectTable`] is
/// an engine-independent oracle (nothing lost or duplicated — across
/// crash + disk replay too). Register workloads in causal mode do not
/// promise convergence and have none.
pub fn sequential_oracle(w: &Workload, script: &Script, ops_per_worker: usize) -> Option<u64> {
    if w.base != Base::Counter || w.sharding != Sharding::Full {
        return None;
    }
    let mut table = ObjectTable::new(&Counter, OBJECTS, Mode::Causal);
    for worker in 0..WORKERS {
        for idx in 0..ops_per_worker as u64 {
            let op = script.op(worker, idx);
            if let Some(v) = op.write {
                table.apply_update(&Counter, op.obj, Timestamp::ZERO, &Counter::write(v));
            }
        }
    }
    Some(table.state_hash())
}

/// The exact-count columns of a run: pure functions of
/// `(workload, seed, size)`, so they must repeat across rounds, runs
/// and machines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactCounts {
    pub total_ops: u64,
    pub msgs: u64,
    pub batches: u64,
    pub payloads: u64,
    pub remote_reads: u64,
    pub monitor_ops_checked: u64,
    pub replayed_records: u64,
    pub log_bytes: u64,
}

impl ExactCounts {
    /// The `counts` object of a run's detail line and of result files.
    pub fn json(&self) -> Value {
        Value::obj(
            [
                ("total_ops", self.total_ops),
                ("msgs", self.msgs),
                ("batches", self.batches),
                ("payloads", self.payloads),
                ("remote_reads", self.remote_reads),
                ("monitor_ops_checked", self.monitor_ops_checked),
                ("replayed_records", self.replayed_records),
                ("log_bytes", self.log_bytes),
            ]
            .map(|(k, v)| (k, Value::Num(v as f64))),
        )
    }

    pub fn of(r: &StoreReport) -> ExactCounts {
        let rec = r.chaos.recoveries.first();
        ExactCounts {
            total_ops: r.total_ops,
            msgs: r.msgs_sent,
            batches: r.batches_sent,
            payloads: r.payloads_sent,
            remote_reads: r.remote_reads,
            monitor_ops_checked: r.monitor.ops_checked,
            replayed_records: rec.map_or(0, |x| x.replayed_records),
            log_bytes: rec.map_or(0, |x| x.log_bytes),
        }
    }
}

/// Check one engine run of `w`; `Err` names the first failed check.
pub fn check_report(
    w: &Workload,
    r: &StoreReport,
    ops_per_worker: usize,
    oracle: Option<u64>,
) -> Result<(), String> {
    let want = (WORKERS * ops_per_worker) as u64;
    if r.total_ops != want {
        return Err(format!("total_ops {} != {want}", r.total_ops));
    }
    if r.windows.is_empty() {
        return Err("no verification window was checked".into());
    }
    if !r.verified() {
        return Err(format!(
            "verification failed: {} window(s) failed, drains_converged={}, monitor violations={}",
            r.windows_failed, r.drains_converged, r.monitor.violations
        ));
    }
    if w.monitor && !r.monitor.certified(r.total_ops) {
        return Err(format!(
            "monitor certified {} of {} ops, {} violations",
            r.monitor.ops_checked, r.total_ops, r.monitor.violations
        ));
    }
    let h = &r.final_state_hashes;
    if (w.mode == Mode::Convergent || oracle.is_some()) && h.iter().any(|&x| x != h[0]) {
        return Err(format!("replicas diverged: {h:x?}"));
    }
    if let Some(o) = oracle {
        if h[0] != o {
            return Err(format!(
                "final state {:#x} != sequential oracle {o:#x}",
                h[0]
            ));
        }
    }
    if w.durable_crash {
        let recs = &r.chaos.recoveries;
        if recs.len() != 1 || recs[0].replayed_records == 0 {
            return Err(format!(
                "expected exactly one disk recovery with replayed records, got {recs:?}"
            ));
        }
    } else if !r.chaos.recoveries.is_empty() {
        return Err("unexpected recovery in a fault-free workload".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script_of(name: &str, seed: u64) -> (&'static Workload, Script, ShardMap) {
        let w = by_name(name).unwrap();
        let dir = std::env::temp_dir(); // named in the config, never opened
        let cfg = store_config(w, seed, 1024, w.every_ops, Some(&dir), false);
        let map = ShardMap::build(&cfg);
        (w, Script::new(w, seed, &map), map)
    }

    #[test]
    fn script_is_a_pure_function_of_seed_worker_and_index() {
        let (_, a, _) = script_of("sharded_routed", 7);
        let (_, b, _) = script_of("sharded_routed", 7);
        let (_, c, _) = script_of("sharded_routed", 8);
        let ops = |s: &Script| -> Vec<ScriptOp> {
            (0..WORKERS)
                .flat_map(|w| (0..1000).map(move |i| (w, i)))
                .map(|(w, i)| s.op(w, i))
                .collect()
        };
        assert_eq!(ops(&a), ops(&b));
        assert_ne!(ops(&a), ops(&c));
        // out-of-order evaluation gives the same op
        assert_eq!(a.op(2, 999), ops(&a)[2 * 1000 + 999]);
    }

    #[test]
    fn scripts_have_their_declared_shape() {
        const N: u64 = 200_000;
        for w in &WORKLOADS {
            let (_, script, map) = script_of(w.name, 42);
            // (worker, op), workers interleaved: placement gives the
            // workers different hosted shares, the shape is the mean
            let ops: Vec<(usize, ScriptOp)> = (0..N)
                .map(|i| (i as usize % WORKERS, script.op(i as usize % WORKERS, i)))
                .collect();
            let reads = ops.iter().filter(|(_, o)| o.write.is_none()).count() as f64 / N as f64;
            assert!(
                (reads - w.read_share).abs() < 0.01,
                "{}: read share {reads}",
                w.name
            );
            assert!(ops.iter().all(|(_, o)| (o.obj as usize) < OBJECTS));
            match w.keys {
                Keys::Uniform => {}
                Keys::Hot { hot, hot_share } => {
                    let on_hot = ops.iter().filter(|(_, o)| o.obj < hot).count() as f64 / N as f64;
                    // the uniform remainder also lands on hot objects
                    let want = hot_share + (1.0 - hot_share) * hot as f64 / OBJECTS as f64;
                    assert!((on_hot - want).abs() < 0.01, "hot share {on_hot}");
                }
                Keys::Hosted { .. } => {
                    let routed = ops
                        .iter()
                        .filter(|(me, o)| o.write.is_none() && !map.hosts(*me, map.shard_of(o.obj)))
                        .count() as f64
                        / N as f64;
                    assert!((0.04..0.06).contains(&routed), "routed share {routed}");
                }
            }
        }
    }

    #[test]
    fn only_commutative_fully_replicated_workloads_have_an_oracle() {
        for w in &WORKLOADS {
            let (_, script, _) = script_of(w.name, 42);
            let oracle = sequential_oracle(w, &script, 2048);
            assert_eq!(
                oracle.is_some(),
                w.base == Base::Counter,
                "{}: oracle {oracle:?}",
                w.name
            );
            // and it depends on the size it is asked about
            assert!(oracle.is_none() || oracle != sequential_oracle(w, &script, 1024));
        }
    }

    #[test]
    fn durable_crash_schedules_one_crash_and_recovery() {
        let w = by_name("durable_crash").unwrap();
        let dir = std::env::temp_dir();
        let cfg = store_config(w, 1, w.ops_per_worker, w.every_ops, Some(&dir), false);
        let sched = cbm_store::ChaosSchedule::build(&cfg);
        assert_eq!(sched.spans.len(), 1);
        let span = &sched.spans[0];
        assert_eq!(
            (span.worker, span.crash_epoch, span.recover_epoch),
            (CRASH_WORKER, CRASH_EPOCH, RECOVER_EPOCH)
        );
        assert!(cfg.durable.recover_from_disk && cfg.durable.enabled());
        assert!(!probe_config(w, 1, 1024).durable.enabled());
        assert!(probe_config(w, 1, 1024).chaos.is_empty());
    }
}
