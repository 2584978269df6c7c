//! Per-worker accounting and the run report.

use crate::config::StoreConfig;
use cbm_obs::LatencyHistogram;

/// Latency percentiles over per-operation wall times, extracted from
/// a log-bucketed [`LatencyHistogram`].
///
/// The engine's op clock is **sampled**: one local op per 64-op block
/// of each worker's op counter is timed and entered with the block's
/// weight (routed reads are always timed, at weight 1), so `count` is
/// the number of operations — `latency.count == total_ops` on every
/// run — while every other field is a statistic **of the sample**,
/// each measurement standing for the ops of its block
/// (`docs/OBSERVABILITY.md`, "Histogram precision").
///
/// Each percentile is the histogram's nearest-rank bucket upper
/// bound: within **3.125 % (2⁻⁵) relative error** of the exact order
/// statistic of the weighted sample, never below it, and never above
/// the sample's maximum (see `cbm_obs::hist` for the bucket layout).
/// This replaces the old sample-and-sort
/// summary, whose `pick(q)` indexed `⌊(len−1)·q⌋` — a floor that
/// systematically understated tail percentiles (for 100 samples its
/// "p99" was the 99th of 100 order statistics, never the 100th) and
/// forced every raw sample to be kept until the end of the run;
/// per-worker histograms merge bucket-wise at the drain rendezvous
/// instead.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Operations summarized (the weights of the timed ops add up to
    /// the ops issued).
    pub count: u64,
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile of the sample, nanoseconds (a run of N ops
    /// has about N/64,000 measurements above it).
    pub p999_ns: u64,
    /// Slowest *timed* op, nanoseconds: the slowest op of the run is
    /// among the timed ones with probability 1/64.
    pub max_ns: u64,
    /// Weighted mean of the timed ops, nanoseconds.
    pub mean_ns: u64,
}

impl LatencySummary {
    /// Extract the summary from a histogram.
    pub(crate) fn from_histogram(h: &LatencyHistogram) -> Self {
        LatencySummary {
            count: h.count(),
            p50_ns: h.quantile(0.50),
            p90_ns: h.quantile(0.90),
            p99_ns: h.quantile(0.99),
            p999_ns: h.quantile(0.999),
            max_ns: h.max(),
            mean_ns: h.mean(),
        }
    }
}

/// One worker's accounting.
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Worker id.
    pub worker: usize,
    /// Operations issued.
    pub ops: u64,
    /// Pure queries among them.
    pub reads: u64,
    /// Updates among them.
    pub updates: u64,
    /// Queries routed to a replica of a non-hosted shard (0 under full
    /// replication).
    pub remote_reads: u64,
    /// Routed queries this worker answered for peers.
    pub reads_served: u64,
    /// Batch envelopes this worker flushed.
    pub batches_sent: u64,
    /// Update payloads across those batches.
    pub payloads_sent: u64,
    /// Batch envelopes delivered from peers.
    pub batches_delivered: u64,
    /// This worker's operation latency profile.
    pub latency: LatencySummary,
}

/// Verdict of one sampled verification window.
#[derive(Debug, Clone)]
pub struct WindowVerdict {
    /// Window number (0-based, in freeze order).
    pub window: u64,
    /// The shard this verdict covers (`None` for a whole-space window
    /// under full replication, or for a window-level failure).
    pub shard: Option<u32>,
    /// Criterion verified ("CC" or "CCv").
    pub criterion: &'static str,
    /// Events in the rebuilt window history.
    pub events: usize,
    /// Workers that were crashed for this window.
    pub crashed_workers: usize,
    /// The window opened at a drain that performed a crash-recovery
    /// state transfer.
    pub spans_recovery: bool,
    /// `Ok(())` or a description of the violation.
    pub result: Result<(), String>,
}

/// One crash/recovery cycle as observed by the engine.
#[derive(Debug, Clone)]
pub struct RecoveryStats {
    /// The worker that crashed and recovered.
    pub worker: usize,
    /// Epoch whose opening drain was the consistent cut.
    pub crash_epoch: u64,
    /// Epoch whose opening drain ran the state transfer.
    pub recover_epoch: u64,
    /// The schedule's anchor helper for the span (statistics; under
    /// partial replication each shard elects its own co-replica
    /// helper, see `ChaosSchedule::shard_helper`).
    pub helper: usize,
    /// Shards whose state was installed from co-replica helpers.
    pub synced_shards: u64,
    /// Object states installed across those shards.
    pub synced_objects: u64,
    /// Wall-clock duration of the state transfer at the recovering
    /// worker (receive + install + replay); nondeterministic.
    pub sync_wall_ns: u64,
    /// Records replayed from the worker's own durable epoch log
    /// (snapshot counts as one; 0 on the memory-only path).
    /// Deterministic: one record per run of own updates, per
    /// delivered batch, and per seal up to the crash cut.
    pub replayed_records: u64,
    /// Bytes read back from disk for that replay (snapshot + log
    /// prefix; 0 on the memory-only path). Deterministic — the epoch
    /// log's framing is a pure function of the ops it records.
    pub log_bytes: u64,
}

/// One streaming-monitor suspicion escalated to the exact checkers
/// (see `cbm_check::monitor` and `docs/VERIFICATION.md`). On a
/// correct run this list is empty; its *presence* is the violation
/// evidence, mirrored as `monitor_escalate` trace spans.
#[derive(Debug, Clone)]
pub struct MonitorEscalation {
    /// Worker whose monitor escalated.
    pub worker: usize,
    /// Engine epoch the suspicion fired in.
    pub epoch: u64,
    /// The worker's op count at escalation.
    pub at_op: u64,
    /// Implicated object slot (`None` for origin-granular patterns
    /// like `cyclic_co`).
    pub obj: Option<u32>,
    /// Bad-pattern classification (snake_case name).
    pub pattern: &'static str,
    /// Events in the rebuilt minimal window.
    pub events: usize,
    /// Did the exact witness re-verification confirm the violation?
    pub confirmed: bool,
    /// Criterion-level kernel verdict on the same window ("sat" =
    /// still causally explainable, "unsat" = criterion violation,
    /// "unknown" = window too large or out of budget).
    pub verdict: &'static str,
    /// The escalation fired in an epoch whose opening drain performed
    /// a crash-recovery state transfer (its window is anchored on the
    /// installed recovery states, like `spans_recovery` windows).
    pub spans_recovery: bool,
    /// Witness-checker violation description (empty when cleared).
    pub detail: String,
}

/// Streaming-monitor accounting for one run. `ops_checked`,
/// `escalations`, and `violations` are deterministic per
/// `(config, seed)` — the `--gate` contract covers them.
#[derive(Debug, Clone, Default)]
pub struct MonitorReport {
    /// Did the run monitor its traffic ([`crate::config::VerifyConfig::monitor`])?
    pub enabled: bool,
    /// Operations certified across all workers: own invocations at
    /// their issuer plus routed reads at their server. Equals
    /// `total_ops` on a complete run.
    pub ops_checked: u64,
    /// Delivered remote updates folded into shadow state.
    pub folds: u64,
    /// Suspicions escalated to the exact checkers.
    pub escalations: u64,
    /// Escalations the witness re-verification cleared.
    pub cleared: u64,
    /// Escalations the witness re-verification confirmed.
    pub violations: u64,
    /// Escalations whose kernel search was skipped or out of budget.
    pub kernel_unknown: u64,
    /// Every escalation, in (worker, op) order.
    pub records: Vec<MonitorEscalation>,
}

impl MonitorReport {
    /// Did the monitor certify every operation of the run? (Vacuously
    /// false when the monitor was off.)
    pub fn certified(&self, total_ops: u64) -> bool {
        self.enabled && self.ops_checked == total_ops && self.violations == 0
    }
}

/// Aggregated fault-layer accounting for one run. All counts except
/// wall times are deterministic per `(config, seed)` — the chaos CI
/// job replays runs and diffs them exactly (`docs/CHAOS.md`).
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Did the run inject any faults?
    pub active: bool,
    /// Sends lost to probabilistic drops or crashed recipients.
    pub drops: u64,
    /// Extra copies injected by duplication faults.
    pub dups: u64,
    /// Sends parked on blocked (partitioned) links.
    pub parked: u64,
    /// Parked sends released by mid-epoch heals.
    pub released: u64,
    /// Sends held back by latency faults.
    pub delayed: u64,
    /// Parked sends pruned at drains (payloads re-delivered by the
    /// repair round).
    pub pruned: u64,
    /// Outbound messages discarded by crashing endpoints.
    pub crash_discarded: u64,
    /// Gap reports sent during drains.
    pub nacks: u64,
    /// Repair retransmissions answering them.
    pub repairs: u64,
    /// Batch envelopes carried by those repairs.
    pub repaired_batches: u64,
    /// Fault-layer losses per recipient node (from the transport's
    /// lock-free counters).
    pub dropped_per_node: Vec<u64>,
    /// Fault-layer duplicate copies per recipient node.
    pub dup_per_node: Vec<u64>,
    /// Every crash/recovery cycle, in crash order.
    pub recoveries: Vec<RecoveryStats>,
}

/// Deterministic per-epoch activity, summed across workers: the rows
/// of the per-epoch dashboard table the bench binaries render into CI
/// step summaries. Every column is a pure function of
/// `(config, seed)` — each worker snapshots its counters at the epoch
/// boundary drain, after the epoch's repair round settled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochMetrics {
    /// Epoch number (0-based).
    pub epoch: u64,
    /// Operations issued during the epoch.
    pub ops: u64,
    /// Updates among them.
    pub updates: u64,
    /// Reads routed to remote replicas.
    pub remote_reads: u64,
    /// Batch envelopes flushed (pre-fan-out).
    pub batches: u64,
    /// Update payloads across those batches.
    pub payloads: u64,
    /// Batch envelopes delivered.
    pub delivered: u64,
    /// Gap nacks sent at the epoch's drains.
    pub nacks: u64,
    /// Repair retransmissions answering them.
    pub repairs: u64,
    /// Fault injections (drops + dups + parks + delays + prunes +
    /// crash discards) during the epoch.
    pub faults: u64,
    /// Workers crashed during the epoch.
    pub crashed: u64,
}

impl EpochMetrics {
    /// Add another worker's row for the same epoch into this one.
    pub(crate) fn absorb(&mut self, other: &EpochMetrics) {
        self.ops += other.ops;
        self.updates += other.updates;
        self.remote_reads += other.remote_reads;
        self.batches += other.batches;
        self.payloads += other.payloads;
        self.delivered += other.delivered;
        self.nacks += other.nacks;
        self.repairs += other.repairs;
        self.faults += other.faults;
        self.crashed += other.crashed;
    }
}

/// Everything one engine run produces.
#[derive(Debug, Clone)]
pub struct StoreReport {
    /// The configuration that ran.
    pub config: StoreConfig,
    /// Wall-clock duration of the run, nanoseconds.
    pub wall_ns: u128,
    /// Total operations completed.
    pub total_ops: u64,
    /// Throughput over the whole run.
    pub ops_per_sec: f64,
    /// Merged latency profile across workers.
    pub latency: LatencySummary,
    /// Transport envelopes sent (per-copy: each batch counts once per
    /// receiving peer).
    pub msgs_sent: u64,
    /// Estimated payload bytes sent.
    pub bytes_sent: u64,
    /// Batch envelopes flushed across workers (pre-fan-out).
    pub batches_sent: u64,
    /// Update payloads shipped across all batches.
    pub payloads_sent: u64,
    /// Mean payloads per batch (`payloads_sent / batches_sent`).
    pub mean_batch: f64,
    /// Reads routed to a replica of a non-hosted shard (request/reply
    /// pairs on the reliable path; 0 under full replication).
    pub remote_reads: u64,
    /// Sampled-window verdicts, in freeze order.
    pub windows: Vec<WindowVerdict>,
    /// Windows whose verification failed.
    pub windows_failed: usize,
    /// Convergent mode: did every drain point find all replicas in
    /// identical states? (Always `true` in causal mode, which does not
    /// promise convergence.)
    pub drains_converged: bool,
    /// Per-worker order-sensitive hash of the full object space at the
    /// final drain. In convergent mode (and for commutative base types
    /// in causal mode) all entries are equal, and — because a crashed
    /// worker resumes its script after recovery — equal to the
    /// fault-free twin run's hashes, which is how the chaos harness
    /// proves recovery lost and duplicated nothing.
    pub final_state_hashes: Vec<u64>,
    /// Streaming-monitor accounting (zeroed when the monitor is off).
    pub monitor: MonitorReport,
    /// Fault-injection accounting (zeroed for fault-free runs).
    pub chaos: ChaosReport,
    /// Per-worker accounting.
    pub per_worker: Vec<WorkerStats>,
    /// Deterministic per-epoch activity rows (epoch order), summed
    /// across workers.
    pub epochs: Vec<EpochMetrics>,
    /// Snapshot of the engine's lock-free metrics registry
    /// (name → value; histogram series expand to `.count`/`.p50`/…
    /// rows). Latency-derived rows are nondeterministic.
    pub metrics: Vec<(String, u64)>,
    /// The merged trace, when tracing ran ([`StoreConfig::obs`], or
    /// automatically for chaos runs). Export with
    /// `cbm_obs::export::{jsonl, chrome_json}`.
    pub trace: Option<cbm_obs::FlightRecord>,
}

impl StoreReport {
    /// Zero failed windows, (in convergent mode) convergence at every
    /// drain, and — when the streaming monitor ran — zero confirmed
    /// monitor violations.
    pub fn verified(&self) -> bool {
        self.windows_failed == 0
            && self.drains_converged
            && (!self.monitor.enabled || self.monitor.violations == 0)
    }

    /// One row of [`StoreReport::metrics`], by name.
    pub fn metric(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_is_zero() {
        assert_eq!(
            LatencySummary::from_histogram(&LatencyHistogram::new()),
            LatencySummary::default()
        );
    }

    #[test]
    fn percentiles_come_from_bucket_upper_bounds() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = LatencySummary::from_histogram(&h);
        assert_eq!(s.count, 100);
        // Nearest-rank on bucket upper bounds: at most 3.125% above
        // the exact order statistic, never below it — the old
        // floor-indexed pick() reported p99 = 99 here, understating
        // the tail.
        assert!(s.p50_ns >= 50 && s.p50_ns <= 52, "{}", s.p50_ns);
        assert!(s.p90_ns >= 90 && s.p90_ns <= 93, "{}", s.p90_ns);
        assert!(s.p99_ns >= 99 && s.p99_ns <= 100, "{}", s.p99_ns);
        assert_eq!(s.p999_ns, 100);
        assert_eq!(s.max_ns, 100, "max is exact");
        assert_eq!(s.mean_ns, 50, "mean is exact"); // 5050 / 100
    }

    #[test]
    fn epoch_metrics_absorb_sums_fields() {
        let mut a = EpochMetrics {
            epoch: 2,
            ops: 10,
            nacks: 1,
            ..Default::default()
        };
        let b = EpochMetrics {
            epoch: 2,
            ops: 5,
            faults: 3,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.ops, 15);
        assert_eq!(a.nacks, 1);
        assert_eq!(a.faults, 3);
        assert_eq!(a.epoch, 2);
    }
}
