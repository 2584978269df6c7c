//! Engine configuration.

use cbm_net::fault::FaultPlan;

/// How a replica integrates remote updates, which decides the
/// consistency criterion its sampled windows are verified against:
/// delivery order (**CC**) or Lamport arbitration into a per-object
/// log, converging at every drain (**CCv**).
pub use cbm_check::Mode;

/// When pending update payloads are sealed into one causal batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// One envelope per update (the unbatched baseline).
    Off,
    /// Flush once `k` payloads are pending (plus at every drain point),
    /// cutting envelope counts by roughly `k`.
    Every(usize),
}

impl BatchPolicy {
    /// The pending-payload count that triggers a flush.
    pub(crate) fn threshold(self) -> usize {
        match self {
            BatchPolicy::Off => 1,
            BatchPolicy::Every(k) => k.max(1),
        }
    }
}

/// Partial-replication placement (see [`crate::shard::ShardMap`] and
/// `docs/SHARDING.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Shards the object space is partitioned into (0 = one per
    /// worker; clamped to the object count).
    pub shards: usize,
    /// Replicas hosting each shard (0 = every worker: full
    /// replication, the exact pre-sharding engine behaviour).
    pub replication: usize,
    /// Seed of the placement hash choosing the non-home replicas —
    /// a sweep axis independent of the workload seed.
    pub placement_seed: u64,
    /// Locality window for the non-home replicas: when non-zero, a
    /// shard's extra replicas are drawn from the `max(locality,
    /// replication)` workers starting at its home (wrapping), so most
    /// interest edges stay within a seeded neighborhood — the knob
    /// that keeps per-worker edge fan-in (and therefore dirty-row
    /// counts in the delta-encoded metadata) bounded as the cluster
    /// grows. `0` = the legacy global draw over all workers,
    /// byte-identical to pre-locality placements.
    pub locality: usize,
}

impl ShardConfig {
    /// Full replication (the default): every worker hosts every shard.
    pub fn full() -> Self {
        ShardConfig {
            shards: 0,
            replication: 0,
            placement_seed: 0,
            locality: 0,
        }
    }

    /// Partial replication at factor `rf` with one shard per worker.
    pub fn rf(rf: usize) -> Self {
        ShardConfig {
            shards: 0,
            replication: rf,
            placement_seed: 0,
            locality: 0,
        }
    }

    /// Partial replication at factor `rf` with replicas confined to a
    /// `locality`-worker neighborhood of each shard's home.
    pub fn rf_local(rf: usize, locality: usize) -> Self {
        ShardConfig {
            shards: 0,
            replication: rf,
            placement_seed: 0,
            locality,
        }
    }

    /// The shard count this config denotes for a given worker count.
    pub(crate) fn shards_or(&self, workers: usize) -> usize {
        if self.shards == 0 {
            workers
        } else {
            self.shards
        }
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig::full()
    }
}

/// Sampled online verification: how often to freeze a window and how
/// much of the run it captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Freeze a window every `every_ops` operations of each worker
    /// (0 disables sampling; the workers then never rendezvous until
    /// the final drain).
    pub every_ops: usize,
    /// Own operations each worker records per window (clamped to
    /// `every_ops` so windows never overlap the next rendezvous).
    pub window_ops: usize,
    /// Replay sampling stride handed to the CCv checker (1 = check
    /// every recorded output).
    pub sample_every: usize,
    /// Run the streaming bad-pattern monitor inline on every worker
    /// (`cbm_check::monitor`): every local op and every served routed
    /// read is certified against an independently-derived shadow
    /// state in O(1) amortized, and any mismatch escalates the
    /// minimal implicated window to the exact checkers. Orthogonal to
    /// the sampled windows above — the monitor certifies 100% of
    /// traffic, the windows cross-check bounded slices end to end.
    /// See `docs/VERIFICATION.md`.
    pub monitor: bool,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            every_ops: 50_000,
            window_ops: 48,
            sample_every: 1,
            monitor: false,
        }
    }
}

/// Observability knobs (see `docs/OBSERVABILITY.md`). Metrics are
/// always collected (local accumulation, merged at drains — no hot
/// path cost); span tracing is opt-in here and switched on
/// automatically for chaos runs, whose failures are what the flight
/// recorder exists to explain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record trace spans (`false` = chaos runs only). Tracing never
    /// sends messages or changes protocol decisions, so the
    /// deterministic columns of a run are identical with it on or
    /// off.
    pub trace: bool,
    /// Record every `op_sample_every`-th operation as an `op` span
    /// (deterministic stride on the worker's own op counter; `0`
    /// disables op spans). Drain/repair/fault/crash/recover/verify
    /// spans are always recorded when tracing is on.
    pub op_sample_every: usize,
    /// Record every `batch_sample_every`-th `batch_flush` / `deliver`
    /// span, strided on the envelope's per-edge sequence number (`0`
    /// disables them). Seqs are deterministic logical keys, so the
    /// sampled set is identical across runs **and** the flush and
    /// deliver halves of an envelope sample together — the
    /// clock-domination pairing survives any stride. These two kinds
    /// dominate span volume (one per envelope per direction); the
    /// stride is what keeps full-matrix tracing overhead within the
    /// ~10% budget. Set to `1` for exhaustive envelope tracing when
    /// debugging a specific run.
    pub batch_sample_every: usize,
    /// Retained spans per kind per epoch per worker; deterministic
    /// truncation past this (see `cbm_obs::trace::TraceConfig`).
    pub epoch_cap: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            trace: false,
            op_sample_every: 64,
            batch_sample_every: 32,
            epoch_cap: 4096,
        }
    }
}

/// Durability knobs: the per-worker epoch log, snapshot compaction,
/// and the restart paths built on them (see `docs/DURABILITY.md`).
///
/// Everything is off by default — `log_dir: None` keeps the engine
/// byte-identical to the pre-durability baselines (no files, no
/// fsyncs, no extra branches on the hot path beyond one `Option`
/// check).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableConfig {
    /// Directory of the per-worker epoch logs (`worker-{id}.log` /
    /// `worker-{id}.snap`). `None` disables durability entirely.
    pub log_dir: Option<String>,
    /// Write a compacted snapshot (and truncate the log prefix) every
    /// `snapshot_every` boundary seals (`0` = never snapshot; the log
    /// then grows for the whole run).
    pub snapshot_every: u64,
    /// Crash recovery restarts from **disk**: a recovering worker
    /// discards its in-memory replica, replays its own snapshot + log
    /// tail to the crash cut, and fetches only the per-shard op delta
    /// past that cut from its co-replica helpers (falling back to the
    /// full state transfer when its disk is torn or stale). Off, the
    /// pre-durability full-transfer path runs unchanged.
    pub recover_from_disk: bool,
    /// Cold-start: recover the whole fleet from disk at startup and
    /// resume each worker's op script where its last sealed boundary
    /// left it. Requires a fault-free plan; invalid or disagreeing
    /// disks fall back to a fresh full run.
    pub resume: bool,
    /// Stop the run at this epoch boundary after sealing its cut
    /// (`0` = run to completion). The halted fleet's disks are exactly
    /// what [`DurableConfig::resume`] restarts from — the two knobs
    /// together simulate a whole-fleet power loss.
    pub halt_at_boundary: u64,
}

impl DurableConfig {
    /// Is the epoch log active at all?
    pub fn enabled(&self) -> bool {
        self.log_dir.is_some()
    }
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            log_dir: None,
            snapshot_every: 4,
            recover_from_disk: false,
            resume: false,
            halt_at_boundary: 0,
        }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreConfig {
    /// Replica workers (each a full replica of the space under full
    /// replication). They run on `min(workers, cores)` threads, or one
    /// thread each over TCP.
    pub workers: usize,
    /// Objects in the space (ids are taken modulo this).
    pub objects: usize,
    /// Operations each worker issues.
    pub ops_per_worker: usize,
    /// Replication mode (decides the verified criterion).
    pub mode: Mode,
    /// Batching policy of the causal broadcast.
    pub batch: BatchPolicy,
    /// Sampled verification windows.
    pub verify: VerifyConfig,
    /// Seed for every worker's workload generator.
    pub seed: u64,
    /// Partial-replication placement (default: full replication).
    /// With `replication < workers`, updates execute at replicas of
    /// their object (non-hosted updates are deterministically
    /// re-addressed, see [`crate::shard::ShardMap::localize`]) and
    /// non-replica reads route to a live replica over a request/reply
    /// path; batches multicast only to interested replicas.
    pub sharding: ShardConfig,
    /// Fault plan injected into the live transport (empty = fault-free
    /// run, the exact pre-chaos engine behaviour).
    ///
    /// Event times are **virtual ticks** on each worker's operation
    /// counter (`epoch * verify.every_ops + ops_into_epoch`), so every
    /// endpoint applies the same event at the same deterministic point
    /// of its own timeline. `Crash`/`Recover` must fall on epoch
    /// boundaries (multiples of `verify.every_ops`); link faults may
    /// fire anywhere. See `docs/CHAOS.md`.
    pub chaos: FaultPlan,
    /// Observability: tracing opt-in and bounds (metrics are always
    /// on). See `docs/OBSERVABILITY.md`.
    pub obs: ObsConfig,
    /// Durability: the per-worker epoch log, snapshots, and the
    /// disk-based restart paths (default: all off). See
    /// `docs/DURABILITY.md`.
    pub durable: DurableConfig,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            workers: 4,
            objects: 1024,
            ops_per_worker: 250_000,
            mode: Mode::Causal,
            batch: BatchPolicy::Every(32),
            verify: VerifyConfig::default(),
            seed: 1,
            sharding: ShardConfig::full(),
            chaos: FaultPlan::new(),
            obs: ObsConfig::default(),
            durable: DurableConfig::default(),
        }
    }
}

impl StoreConfig {
    /// Total operations across all workers.
    pub fn total_ops(&self) -> u64 {
        self.workers as u64 * self.ops_per_worker as u64
    }
}
