//! The driver: one thread's hosted workers, stepped as one group.
//!
//! An in-memory engine runs its `n` workers on `h = min(n, cores)`
//! threads, worker `i` on thread `⌊i·h/n⌋`, so each thread hosts a
//! contiguous range of workers (one each over TCP: see `mod.rs`).
//! A [`Host`] is that range. Everything the run does is a group step
//! over it:
//!
//! * **ops** — each op segment (a window quota, the rest of an epoch)
//!   runs in turns of [`TURN`] ops per hosted worker;
//! * **rendezvous** — the drain, the hash publication, the recovery
//!   transfers, the cold-start claims and the last cut each run phase
//!   by phase over every hosted worker (`drain.rs`, `recovery.rs`).
//!   The arrive/done counters add the hosted count, and each of the
//!   four `coord.barrier.wait()` calls is one wait per thread;
//! * **one wait** — every wait on a peer is [`Host::wait`]: pump every
//!   hosted worker's inbox until the condition holds, and yield the
//!   timeslice only when none had anything. A routed read waits there
//!   too, so a server on the reader's own thread answers inside the
//!   wait.
//!
//! With one worker per thread the group steps are the per-worker
//! schedule exactly. Message counts never depend on the hosting: ops
//! pause at points counted in each worker's own script, so the flushed
//! envelopes are the same whichever worker a thread runs first.

use super::drain::Coordinator;
use super::worker::Worker;
use super::WorkerResult;
use crate::chaos::ChaosSchedule;
use crate::config::StoreConfig;
use crate::wire::StoreMsg;
use cbm_adt::space::SpaceInput;
use cbm_adt::wire::Wire;
use cbm_adt::Adt;
use cbm_net::endpoint::Endpoint as EndpointApi;
use cbm_net::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::Ordering;

/// Ops a hosted worker runs before the next hosted worker's turn.
///
/// Finer turns interleave the hosted workers more finely: `write_fanout`
/// runs faster, with shallower inboxes. But the edge headers are
/// delta-encoded against what a receiver last knew, and finer
/// interleaving leaves more to encode, so `wire_bytes_per_op` rises as
/// the turn shrinks, and the benchmark bounds that metric at +2%.
/// Swept on 2 cores (`BENCHMARK.json` command, 4 workers on 2 threads,
/// seed 42, three 8 s runs each, medians; THROUGHPUT.md, "Hosted
/// workers"):
///
/// | turn (ops) | `read_local` `wire_bytes_per_op` | `write_fanout` ops/s | `sharded_routed` ops/s |
/// |-----------:|---------------------------------:|---------------------:|-----------------------:|
/// | one worker per thread | 4.758 | 17.5 M | 13.4 M |
/// |        512 |                   4.846 (+1.87%) |               23.1 M |                 19.4 M |
/// |       1024 |                   4.825 (+1.41%) |               21.9 M |                 19.6 M |
/// |       2048 |                   4.793 (+0.74%) |               20.5 M |                 19.8 M |
///
/// 512 passes the bound by under a tenth of it on seeds 42, 7 and 2718
/// alike; 1024 is the finest turn that clears it by more than a
/// quarter on all three.
const TURN: usize = 1024;

/// The workers one thread hosts, and what their group steps share.
pub(super) struct Host<'a, T: Adt, E> {
    pub(super) ws: Vec<Worker<'a, T, E>>,
    pub(super) coord: &'a Coordinator,
    pub(super) cfg: &'a StoreConfig,
    pub(super) sched: &'a ChaosSchedule,
    /// Workers in the whole fleet.
    pub(super) n: usize,
}

impl<'a, T, E> Host<'a, T, E>
where
    T: Adt + Clone + Sync,
    T::Input: Wire + Send + Sync,
    T::Output: Send,
    T::State: Wire + Send + Sync,
    E: EndpointApi<StoreMsg<T::Input, T::Output, T::State>>,
{
    /// Host `ws`, a non-empty contiguous range of the fleet's workers.
    pub(super) fn new(ws: Vec<Worker<'a, T, E>>) -> Self {
        let w = &ws[0];
        let (coord, cfg, sched, n) = (w.coord, w.cfg, w.sched, w.ep.cluster_size());
        Host {
            ws,
            coord,
            cfg,
            sched,
            n,
        }
    }

    /// The thread: every hosted worker's op script, epoch by epoch.
    pub(super) fn run<G>(mut self, gen: &G) -> Vec<WorkerResult>
    where
        G: Fn(NodeId, u64, &mut StdRng) -> SpaceInput<T::Input> + Sync,
    {
        let seed = self.cfg.seed;
        let mut rngs: Vec<StdRng> = self
            .ws
            .iter()
            .map(|w| {
                StdRng::seed_from_u64(
                    seed.wrapping_add((w.me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                )
            })
            .collect();
        let start = if self.cfg.durable.resume && self.ws[0].taps.logging() {
            let r = self.resume_from_disk();
            // the op script is positional: burn the replayed prefix so
            // each RNG stream continues exactly where the halted run's
            // generator stood
            for (w, rng) in self.ws.iter().zip(&mut rngs) {
                for i in 0..w.c.ops {
                    let _ = gen(w.me, i, rng);
                }
            }
            r
        } else {
            0
        };
        let halt = self.cfg.durable.halt_at_boundary;
        let mut halted = false;
        for e in start..self.sched.n_epochs {
            if halt != 0 && e == halt && e > start {
                // deterministic power loss: perform the boundary cut
                // (drain + fsync'd seal) and stop without opening
                // epoch e's window — the sealed disks are what a
                // `resume` run restarts from
                self.last_cut(e);
                halted = true;
                break;
            }
            if e == start && e > 0 {
                // re-entry lands mid-run: the resumed cut already *is*
                // the boundary drain, so only the per-epoch setup runs
                for w in &mut self.ws {
                    w.enter_epoch(e);
                }
            } else {
                self.epoch_boundary(e);
            }
            let sched = self.sched;
            let (quota, all): (Vec<usize>, Vec<usize>) = self
                .ws
                .iter()
                .map(|w| {
                    let my_ops = sched.ops_of(w.me, e);
                    (w.window_quota(e, my_ops), my_ops)
                })
                .unzip();
            self.ops(gen, &mut rngs, |i| quota[i]);
            if e > start {
                self.close_window(e);
            }
            self.ops(gen, &mut rngs, |i| all[i] - quota[i]);
        }
        if !halted {
            self.last_cut(self.sched.n_epochs);
            for w in &self.ws {
                assert_eq!(
                    w.c.ops as usize, self.cfg.ops_per_worker,
                    "worker {} finished with an incomplete script",
                    w.me
                );
            }
        }
        self.ws.into_iter().map(Worker::finish).collect()
    }

    /// An op segment: `count(i)` more ops of hosted worker `i`'s
    /// script, in turns of [`TURN`] ops per worker. A routed read
    /// finishes inside its worker's turn, after the group wait.
    fn ops<G>(&mut self, gen: &G, rngs: &mut [StdRng], count: impl Fn(usize) -> usize)
    where
        G: Fn(NodeId, u64, &mut StdRng) -> SpaceInput<T::Input> + Sync,
    {
        let mut left: Vec<usize> = (0..self.ws.len()).map(count).collect();
        while left.iter().any(|&k| k > 0) {
            for (i, rng) in rngs.iter_mut().enumerate() {
                let turn = left[i].min(TURN);
                left[i] -= turn;
                for _ in 0..turn {
                    if let Some(read) = self.ws[i].step(gen, rng) {
                        self.wait(|ws| !ws[i].awaiting_reply);
                        self.ws[i].read_done(read);
                    }
                }
            }
        }
    }

    /// The engine's one wait on a peer: pump every hosted worker's
    /// inbox — handling whatever arrives, and yielding the timeslice
    /// only when nothing has — until `ready`. Never a blocking receive:
    /// the peer this thread waits on may itself be waiting on a message
    /// only a worker hosted here can serve (the four barriers are the
    /// `worker.rs` module docs' exception). A thread that unwound
    /// raised [`Coordinator::panicked`] and will never send what this
    /// wait needs, so the wait fails too rather than spin for ever.
    pub(super) fn wait(&mut self, ready: impl Fn(&[Worker<'a, T, E>]) -> bool) {
        while !ready(&self.ws) {
            let mut got_any = false;
            for w in &mut self.ws {
                got_any |= w.pump();
            }
            if !got_any {
                assert!(
                    !self.coord.panicked.load(Ordering::Relaxed),
                    "a peer worker panicked"
                );
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{
        BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, VerifyConfig,
    };
    use crate::engine::run_hosted;
    use crate::stats::StoreReport;
    use cbm_adt::counter::{Counter, CtInput};
    use cbm_adt::register::{RegInput, Register};
    use cbm_adt::space::SpaceInput;
    use cbm_net::fault::{named, FaultPlan};
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    const EVERY: usize = 80;

    fn cfg(workers: usize, mode: Mode) -> StoreConfig {
        StoreConfig {
            workers,
            objects: 16,
            ops_per_worker: 5 * EVERY,
            mode,
            batch: BatchPolicy::Every(4),
            verify: VerifyConfig {
                every_ops: EVERY,
                window_ops: 12,
                sample_every: 1,
                monitor: true,
            },
            seed: 0x5EED,
            sharding: ShardConfig::full(),
            chaos: FaultPlan::new(),
            obs: ObsConfig::default(),
            durable: DurableConfig::default(),
        }
    }

    fn with_plan(mut c: StoreConfig, name: &str) -> StoreConfig {
        c.chaos = (named(name).expect(name).build)(c.workers, EVERY as u64);
        c
    }

    /// A fresh log directory per call.
    fn log_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cbm-hosting-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable(dir: &std::path::Path) -> DurableConfig {
        DurableConfig {
            log_dir: Some(dir.to_string_lossy().into_owned()),
            snapshot_every: 4,
            recover_from_disk: true,
            resume: false,
            halt_at_boundary: 0,
        }
    }

    /// Registers written by one worker each (object `o` by worker
    /// `o mod n`), so the final states do not depend on delivery order.
    fn single_writer(n: usize) -> impl Fn(usize, u64, &mut StdRng) -> SpaceInput<RegInput> + Sync {
        move |me, _, rng| {
            let obj = rng.gen_range(0u32..16);
            if obj as usize % n == me && rng.gen_bool(0.5) {
                SpaceInput::new(obj, RegInput::Write(rng.gen_range(1u64..1000)))
            } else {
                SpaceInput::new(obj, RegInput::Read)
            }
        }
    }

    /// Counter adds commute: any causal delivery folds to the same sums.
    fn counters(me: usize, _: u64, rng: &mut StdRng) -> SpaceInput<CtInput> {
        let obj = rng.gen_range(0u32..16);
        if rng.gen_bool(0.3) {
            SpaceInput::new(obj, CtInput::Read)
        } else {
            SpaceInput::new(obj, CtInput::Add(rng.gen_range(1i64..100) + me as i64))
        }
    }

    type Verdict = (
        u64,
        Option<u32>,
        &'static str,
        usize,
        usize,
        bool,
        Result<(), String>,
    );

    /// Everything of a report that must not depend on how the workers
    /// are hosted.
    #[derive(Debug, PartialEq)]
    struct Columns {
        ops: u64,
        /// msgs, batches, payloads, routed reads
        traffic: [u64; 4],
        /// ops checked, folds, escalations, violations
        monitor: [u64; 4],
        /// drops, dups, parked, released, delayed, pruned,
        /// crash-discarded, nacks, repairs, repaired batches
        chaos: [u64; 10],
        recoveries: Vec<(usize, u64, u64, u64, u64, u64)>,
        windows: Vec<Verdict>,
        hashes: Vec<u64>,
        converged: bool,
    }

    fn columns(r: &StoreReport) -> Columns {
        let (m, c) = (&r.monitor, &r.chaos);
        Columns {
            ops: r.total_ops,
            traffic: [r.msgs_sent, r.batches_sent, r.payloads_sent, r.remote_reads],
            monitor: [m.ops_checked, m.folds, m.escalations, m.violations],
            chaos: [
                c.drops,
                c.dups,
                c.parked,
                c.released,
                c.delayed,
                c.pruned,
                c.crash_discarded,
                c.nacks,
                c.repairs,
                c.repaired_batches,
            ],
            recoveries: c
                .recoveries
                .iter()
                .map(|x| {
                    let synced = (x.synced_shards, x.synced_objects);
                    (
                        x.worker,
                        x.crash_epoch,
                        x.recover_epoch,
                        synced.0,
                        synced.1,
                        x.replayed_records,
                    )
                })
                .collect(),
            windows: r
                .windows
                .iter()
                .map(|v| {
                    let shape = (v.window, v.shard, v.criterion, v.events, v.crashed_workers);
                    (
                        shape.0,
                        shape.1,
                        shape.2,
                        shape.3,
                        shape.4,
                        v.spans_recovery,
                        v.result.clone(),
                    )
                })
                .collect(),
            hashes: r.final_state_hashes.clone(),
            converged: r.drains_converged,
        }
    }

    /// Run `run(h)` with every worker on its own thread, on two threads
    /// and on one, and require the same columns from each; returns the
    /// one-per-thread report for the caller's own checks.
    fn same_at_every_hosting(n: usize, run: impl Fn(usize) -> StoreReport) -> StoreReport {
        let own = run(n);
        assert!(own.verified(), "{:?}", own.windows);
        let want = columns(&own);
        for h in [2, 1] {
            assert_eq!(columns(&run(h)), want, "{h} threads for {n} workers");
        }
        own
    }

    #[test]
    fn cc_registers_full_replication() {
        let c = cfg(4, Mode::Causal);
        let r = same_at_every_hosting(4, |h| run_hosted(&Register, &c, single_writer(4), h));
        assert!(r.monitor.ops_checked > 0);
    }

    #[test]
    fn rf2_routed_reads() {
        let mut c = cfg(4, Mode::Causal);
        c.sharding = ShardConfig::rf(2);
        let r = same_at_every_hosting(4, |h| run_hosted(&Counter, &c, counters, h));
        assert!(r.remote_reads > 0, "rf-2 must route reads");
    }

    #[test]
    fn ccv_counter_on_uneven_ranges() {
        // 5 workers on 2 threads host 0..=2 and 3..=4
        let c = cfg(5, Mode::Convergent);
        same_at_every_hosting(5, |h| run_hosted(&Counter, &c, counters, h));
    }

    #[test]
    fn chaos_crash_memory_ladder() {
        let c = with_plan(cfg(4, Mode::Causal), "crash-recover");
        let r = same_at_every_hosting(4, |h| run_hosted(&Counter, &c, counters, h));
        assert_eq!(r.chaos.recoveries.len(), 1);
    }

    #[test]
    fn chaos_crash_disk_ladder() {
        let c = with_plan(cfg(4, Mode::Convergent), "crash-recover");
        let r = same_at_every_hosting(4, |h| {
            let dir = log_dir("crash");
            let c = StoreConfig {
                durable: durable(&dir),
                ..c.clone()
            };
            let r = run_hosted(&Counter, &c, counters, h);
            let _ = std::fs::remove_dir_all(&dir);
            r
        });
        let rec = &r.chaos.recoveries;
        assert!(rec.len() == 1 && rec[0].replayed_records > 0, "{rec:?}");
    }

    #[test]
    fn partition_with_nacks() {
        let c = with_plan(cfg(4, Mode::Causal), "partition-while-writing");
        let r = same_at_every_hosting(4, |h| run_hosted(&Register, &c, single_writer(4), h));
        assert!(r.chaos.nacks > 0, "the partition must be repaired");
    }

    /// A fleet halted at a boundary on one hosting resumes on another
    /// to the same report.
    #[test]
    fn halt_at_a_boundary_then_resume() {
        let c = cfg(4, Mode::Convergent);
        let r = same_at_every_hosting(4, |h| {
            let dir = log_dir("halt");
            let mut halted = StoreConfig {
                durable: durable(&dir),
                ..c.clone()
            };
            halted.durable.halt_at_boundary = 2;
            let first = run_hosted(&Counter, &halted, counters, h);
            assert_eq!(first.total_ops, 4 * 2 * EVERY as u64);
            let mut resumed = halted.clone();
            resumed.durable.halt_at_boundary = 0;
            resumed.durable.resume = true;
            let r = run_hosted(&Counter, &resumed, counters, 3 - h.min(2));
            let _ = std::fs::remove_dir_all(&dir);
            r
        });
        assert_eq!(
            r.chaos.recoveries.len(),
            4,
            "every worker resumed from disk"
        );
    }

    /// A worker that panics takes its thread down, and with it every
    /// worker the thread hosts; the other thread's next wait then fails
    /// too. The run fails instead of hanging.
    #[test]
    fn a_co_hosted_sibling_panic_fails_the_run() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let c = cfg(4, Mode::Causal);
            let gen = |me: usize, i: u64, rng: &mut StdRng| {
                // worker 1 shares thread 0 with worker 0
                assert!(me != 1 || i < 150, "a worker bug");
                counters(me, i, rng)
            };
            let run = std::panic::catch_unwind(|| run_hosted(&Counter, &c, gen, 2));
            let _ = tx.send(run.is_err());
        });
        let failed = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("the run ended instead of hanging");
        assert!(failed, "the run failed");
    }
}
