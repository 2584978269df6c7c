//! The live engine: replica workers over [`ThreadNet`] or a TCP mesh,
//! hosted on as many threads as there are cores (one thread each over
//! TCP), with partial replication, fault injection and crash recovery.
//!
//! The engine is made of separable parts, one file each:
//!
//! | file          | what it is                                                         |
//! |---------------|--------------------------------------------------------------------|
//! | `worker.rs`   | the paper's Fig. 4/5 handlers — on update, on delivery — and the plumbing between them and the wire; the execution model is documented there |
//! | `drain.rs`    | the epoch schedule and the deterministic rendezvous: drain, nack/repair, convergence check |
//! | `recovery.rs` | the recovery ladder (own disk → co-replica delta → full transfer) and the cold fleet restart |
//! | `host.rs`     | the driver: a thread's hosted workers, stepped as one group — op turns, and the one wait every rendezvous and routed read uses |
//! | `taps.rs`     | the one seam everything that *watches* the handlers hangs off: streaming monitor, flight recorder, durable log, window recorder, latency — and the op path's only clock |
//! | `sampler.rs`  | which ops that clock times (one per 64-op block) and the weight each enters the latency histogram with |
//! | `counters.rs` | every engine counter, named once                                   |
//! | `verifier.rs` | the verifier thread                                                |
//!
//! This file spawns the threads and assembles the [`StoreReport`].

mod counters;
mod drain;
mod host;
mod recovery;
mod sampler;
mod taps;
mod verifier;
mod worker;

use crate::chaos::ChaosSchedule;
use crate::config::StoreConfig;
use crate::record::WindowRecord;
use crate::shard::ShardMap;
use crate::stats::{
    ChaosReport, EpochMetrics, LatencySummary, MonitorReport, RecoveryStats, StoreReport,
    WorkerStats,
};
use crate::wire::StoreMsg;
use cbm_adt::space::SpaceInput;
use cbm_adt::wire::Wire;
use cbm_adt::Adt;
use cbm_check::monitor::MonitorStats;
use cbm_net::broadcast::BufPool;
use cbm_net::endpoint::Endpoint as EndpointApi;
use cbm_net::tcp::TcpNet;
use cbm_net::thread_net::{ThreadNet, ThreadNetStats};
use cbm_net::NodeId;
use cbm_obs::{FlightRecord, Registry, Span};
use counters::{Counters, Published};
use drain::{Coordinator, PanicGuard};
use host::Host;
use rand::rngs::StdRng;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use taps::{TapReport, Taps};
use worker::Worker;

/// Run the engine: `gen(worker, op_index, rng)` supplies each
/// operation. Returns the full report; panics if a worker thread
/// panics (a consistency monitor tripping is a test failure, not data)
/// or if the chaos plan is invalid (see [`ChaosSchedule::build`]).
pub fn run<T, G>(adt: &T, cfg: &StoreConfig, gen: G) -> StoreReport
where
    T: Adt + Clone + Send + Sync,
    T::Input: Wire + Send + Sync,
    T::Output: Send,
    T::State: Wire + Send + Sync,
    G: Fn(NodeId, u64, &mut StdRng) -> SpaceInput<T::Input> + Sync,
{
    run_hosted(adt, cfg, gen, cores())
}

/// [`run`] with its workers hosted on `threads` threads (clamped to
/// `1..=workers`) instead of one per core: how tests reach the
/// hostings a given machine would not pick.
pub(crate) fn run_hosted<T, G>(adt: &T, cfg: &StoreConfig, gen: G, threads: usize) -> StoreReport
where
    T: Adt + Clone + Send + Sync,
    T::Input: Wire + Send + Sync,
    T::Output: Send,
    T::State: Wire + Send + Sync,
    G: Fn(NodeId, u64, &mut StdRng) -> SpaceInput<T::Input> + Sync,
{
    let n = cfg.workers.max(1);
    let net: ThreadNet<StoreMsg<T::Input, T::Output, T::State>> = ThreadNet::new(n);
    let stats = net.stats();
    run_on(adt, cfg, gen, stats, net.into_endpoints(), threads)
}

/// The cores this process may run on: how many threads host workers.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// [`run`], but over the real-socket transport: the replica set talks
/// through a loopback TCP mesh ([`cbm_net::tcp::TcpNet`]) instead of
/// in-process channels. The engine logic, the chaos layer, and the
/// shared-memory drain rendezvous are identical — only the message
/// path changes — so every deterministic column (msgs/batches/payloads
/// and the monitor counters) reproduces the [`run`] baselines exactly;
/// `docs/DEPLOYMENT.md` states the contract. Panics if the loopback
/// mesh cannot be built (bind/connect failure is an environment
/// problem, not a run outcome).
pub fn run_tcp<T, G>(adt: &T, cfg: &StoreConfig, gen: G) -> StoreReport
where
    T: Adt + Clone + Send + Sync,
    T::Input: Wire + Send + Sync + 'static,
    T::Output: Wire + Send + 'static,
    T::State: Wire + Send + Sync + 'static,
    G: Fn(NodeId, u64, &mut StdRng) -> SpaceInput<T::Input> + Sync,
{
    let n = cfg.workers.max(1);
    let net: TcpNet<StoreMsg<T::Input, T::Output, T::State>> =
        TcpNet::new(n).expect("bind + handshake the loopback TCP mesh");
    let stats = net.stats();
    let tcp_stats = net.tcp_stats();
    let mut report = run_on(adt, cfg, gen, stats, net.into_endpoints(), cores());
    // the mesh's transport counters ride along as ordinary metrics:
    // informational (scheduling decides how frames coalesce), looked
    // up by name, in no deterministic column
    report.metrics.extend(
        tcp_stats
            .snapshot()
            .map(|(name, value)| (name.to_string(), value)),
    );
    report
}

/// Does this run fly the flight recorder? Tracing is opt-in, but chaos
/// runs always do — their failures are what it exists to explain.
fn tracing(cfg: &StoreConfig, sched: &ChaosSchedule) -> bool {
    cfg.obs.trace || sched.is_active()
}

/// What a worker returns.
struct WorkerResult {
    worker: NodeId,
    /// The worker's final cumulative counter block.
    counters: Counters,
    chaos: cbm_net::chaos::ChaosCounters,
    recoveries: Vec<RecoveryStats>,
    /// Deterministic per-epoch counter rows, epoch order.
    rows: Vec<EpochMetrics>,
    taps: TapReport,
}

/// Transport-generic engine core: everything [`run`] and [`run_tcp`]
/// share, from worker spawn to report assembly.
fn run_on<T, G, E>(
    adt: &T,
    cfg: &StoreConfig,
    gen: G,
    stats: Arc<ThreadNetStats>,
    endpoints: Vec<E>,
    threads: usize,
) -> StoreReport
where
    T: Adt + Clone + Send + Sync,
    T::Input: Wire + Send + Sync,
    T::Output: Send,
    T::State: Wire + Send + Sync,
    G: Fn(NodeId, u64, &mut StdRng) -> SpaceInput<T::Input> + Sync,
    E: EndpointApi<StoreMsg<T::Input, T::Output, T::State>>,
{
    let n = cfg.workers.max(1);
    let map = ShardMap::build(cfg);
    let sched = ChaosSchedule::build(cfg);
    if cfg.durable.resume || cfg.durable.halt_at_boundary != 0 {
        // the resume/halt pair models a cold fleet restart; combining
        // it with a chaos plan would make the replayed script prefix
        // ambiguous (crashed epochs issue no ops)
        assert!(
            !sched.is_active(),
            "durable resume/halt cannot be combined with a chaos plan"
        );
    }
    let tracing = tracing(cfg, &sched);
    let mut registry = Registry::new();
    let published = Published::register(&mut registry);
    // worker i runs on thread ⌊i·h/n⌋. Over a transport that encodes
    // every message (TCP) each worker keeps its own thread: hosted,
    // `write_fanout_tcp` measured 17% slower (THROUGHPUT.md, "Hosted
    // workers")
    let moves = endpoints.first().is_some_and(|ep| ep.moves_messages());
    let h = if moves { threads.clamp(1, n) } else { n };
    let mut hosted: Vec<Vec<E>> = (0..h).map(|_| Vec::new()).collect();
    for ep in endpoints {
        hosted[ep.me() * h / n].push(ep);
    }
    let coord = Coordinator::new(n, h, map.shards());
    // envelope buffers one worker's stock cannot hold wait here for
    // whichever worker next runs short (in-memory transports only)
    let pool = Arc::new(BufPool::new(n));
    let (tx, rx) = mpsc::channel::<WindowRecord<T>>();

    let t0 = taps::now();
    let (mut results, verdicts, verifier_spans) = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(h);
        for eps in hosted {
            let (tx, pool) = (tx.clone(), Arc::clone(&pool));
            let (coord, gen, sched, map, published) = (&coord, &gen, &sched, &map, &published);
            // named after the range it hosts, for per-thread profiles
            // (`tools/sigprof --by-thread`); Linux keeps 15 bytes, and
            // `worker-32..63` fits
            let (a, b) = (eps[0].me(), eps[eps.len() - 1].me());
            let name = if a == b {
                format!("worker-{a}")
            } else {
                format!("worker-{a}..{b}")
            };
            handles.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn_scoped(s, move || {
                        let _guard = PanicGuard(coord);
                        let ws = eps
                            .into_iter()
                            .map(|ep| {
                                let taps =
                                    Taps::new(adt, cfg, map, ep.me(), tracing, tx.clone(), t0);
                                let pool = Arc::clone(&pool);
                                Worker::new(adt, cfg, sched, map, ep, coord, pool, published, taps)
                            })
                            .collect();
                        Host::new(ws).run(gen)
                    })
                    .expect("spawn worker thread"),
            );
        }
        drop(tx); // verifier's channel closes once every worker exits
        let map = &map;
        let verifier = std::thread::Builder::new()
            .name("verifier".into())
            .spawn_scoped(s, move || {
                verifier::verify_windows(adt, cfg, map, tracing, t0, rx)
            })
            .expect("spawn verifier thread");
        let results: Vec<WorkerResult> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect();
        let (verdicts, vspans) = verifier.join().expect("verifier thread panicked");
        (results, verdicts, vspans)
    });
    let wall_ns = taps::ns_since(t0) as u128;
    results.sort_by_key(|r| r.worker);

    // one pass over the workers; the counter totals come from the one
    // counter list, and the report's totals read them
    let mut total = Counters::default();
    let mut monitor_total = MonitorStats::default();
    let mut monitor = MonitorReport {
        enabled: cfg.verify.monitor,
        ..MonitorReport::default()
    };
    let snap = stats.snapshot();
    let mut chaos = ChaosReport {
        active: sched.is_active(),
        dropped_per_node: snap.dropped_per_node.clone(),
        dup_per_node: snap.dup_per_node.clone(),
        ..ChaosReport::default()
    };
    for r in &mut results {
        total.absorb(&r.counters);
        monitor_total += r.taps.monitor;
        monitor.records.append(&mut r.taps.escalations);
        let c = r.chaos;
        chaos.drops += c.drops;
        chaos.dups += c.dups;
        chaos.parked += c.parked;
        chaos.released += c.released;
        chaos.delayed += c.delayed;
        chaos.pruned += c.pruned;
        chaos.crash_discarded += c.crash_discarded;
        chaos.recoveries.append(&mut r.recoveries);
    }
    monitor.ops_checked = monitor_total.ops_checked;
    monitor.folds = monitor_total.folds;
    monitor.escalations = monitor_total.escalations;
    monitor.cleared = monitor_total.cleared;
    monitor.violations = monitor_total.violations;
    monitor.kernel_unknown = monitor_total.kernel_unknown;
    monitor.records.sort_by_key(|e| (e.worker, e.at_op));
    chaos.nacks = total.nacks;
    chaos.repairs = total.repairs;
    chaos.repaired_batches = total.repaired_batches;
    chaos.recoveries.sort_by_key(|r| (r.crash_epoch, r.worker));

    let per_worker: Vec<WorkerStats> = results
        .iter()
        .map(|r| r.counters.worker_stats(r.worker, r.taps.latency))
        .collect();
    let windows_failed = verdicts.iter().filter(|v| v.result.is_err()).count();
    let final_state_hashes: Vec<u64> = coord
        .hashes
        .iter()
        .map(|h| h.load(Ordering::SeqCst))
        .collect();

    // per-epoch rows: same-epoch rows of different workers merge into
    // one deterministic dashboard row
    let mut epochs: Vec<EpochMetrics> = Vec::new();
    for row in results.iter().flat_map(|r| &r.rows) {
        match epochs.iter_mut().find(|x| x.epoch == row.epoch) {
            Some(x) => x.absorb(row),
            None => epochs.push(*row),
        }
    }
    epochs.sort_by_key(|x| x.epoch);

    let trace = tracing.then(|| {
        let mut parts: Vec<(Vec<Span>, u64)> = results
            .iter_mut()
            .map(|r| std::mem::take(&mut r.taps.trace))
            .collect();
        parts.push((verifier_spans, 0));
        FlightRecord::assemble(n as u32, cfg.seed, parts)
    });

    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    StoreReport {
        config: cfg.clone(),
        wall_ns,
        total_ops: total.ops,
        ops_per_sec: ratio(total.ops as f64, wall_ns as f64 / 1e9),
        latency: LatencySummary::from_histogram(&published.op_latency.snapshot()),
        msgs_sent: snap.msgs_sent,
        bytes_sent: snap.bytes_sent,
        batches_sent: total.batches,
        payloads_sent: total.payloads,
        mean_batch: ratio(total.payloads as f64, total.batches as f64),
        remote_reads: total.remote_reads,
        windows: verdicts,
        windows_failed,
        drains_converged: coord.divergences.load(Ordering::Relaxed) == 0,
        final_state_hashes,
        monitor,
        chaos,
        per_worker,
        epochs,
        metrics: registry.snapshot(),
        trace,
    }
}
