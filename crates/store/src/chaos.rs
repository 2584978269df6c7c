//! Chaos orchestration for the live engine: fault schedules projected
//! onto the workers' deterministic timelines, crash/recovery spans and
//! helper election. The named plans the chaos loadgen sweeps are
//! `cbm_net::fault::CATALOGUE`'s, built with `e = verify.every_ops`.
//!
//! ## Timelines
//!
//! A [`FaultPlan`]'s event times are **virtual ticks**: worker-local
//! operation counts aligned so that tick `e * every_ops` is the
//! rendezvous opening epoch `e` (every worker passes each boundary at
//! the same barrier, so boundary events are globally agreed even
//! though wall-clock time is not). Link-level faults (drop, dup,
//! delay, partitions, skew) may fire at any tick — each endpoint
//! applies them when its own counter passes the tick. `Crash` and
//! `Recover` must fall **on epoch boundaries**: a crash is a clean cut
//! (the crashing worker completes the boundary drain first), and
//! recovery anchors on another drain — so the state transfer is a
//! plain install of drained shard states plus a frontier reset, never
//! a full resynchronisation (`docs/CHAOS.md`).
//!
//! ## Schedule derivation
//!
//! [`ChaosSchedule::build`] validates a plan against a config and
//! precomputes everything every worker must agree on without
//! communicating: who is crashed in which epoch, how many operations
//! each worker issues per epoch (a crashed worker pauses its script
//! and *resumes* it after recovery, so the run stretches by extra
//! epochs until everyone has issued their full quota — the chaos run
//! executes exactly the op multiset of its fault-free twin), and who
//! serves each recovery. Recovery state moves **per shard** from live
//! co-replicas at the recovery drain ([`ChaosSchedule::shard_helper`];
//! `docs/SHARDING.md`): the build also validates that every shard of a
//! crashing worker has an eligible helper and that every shard keeps a
//! live replica in every epoch (routed reads must always have a
//! server). [`CrashSpan::helper`] remains the span's deterministic
//! anchor worker for statistics.

use crate::config::StoreConfig;
use cbm_net::fault::{Fault, FaultEvent, FaultPlan};
use cbm_net::NodeId;

/// One crash span: the worker is down from the start of `crash_epoch`
/// (exclusive of that boundary's drain, which it completes) to the
/// start of `recover_epoch` (where it rejoins via state transfer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpan {
    /// Crashing worker.
    pub worker: NodeId,
    /// Epoch whose opening drain is the consistent cut.
    pub crash_epoch: u64,
    /// Epoch whose opening drain performs the state transfer.
    pub recover_epoch: u64,
    /// The span's anchor worker for statistics: the smallest id alive
    /// throughout the span. The actual transfer is served per shard by
    /// [`ChaosSchedule::shard_helper`]-elected co-replicas (at full
    /// replication those all resolve to live workers including this
    /// one).
    pub helper: NodeId,
}

/// A [`FaultPlan`] validated against a [`StoreConfig`] and projected
/// onto epochs (see module docs).
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    /// Operations per epoch (the rendezvous stride).
    pub every_ops: usize,
    /// Total epochs the run executes (≥ the fault-free epoch count;
    /// crash spans stretch it until every worker finishes its script).
    pub n_epochs: u64,
    /// All crash spans, in crash-epoch order.
    pub spans: Vec<CrashSpan>,
    /// The plan's non-crash events (link faults), times in virtual
    /// ticks; each worker replays these against its own endpoint.
    pub link_plan: FaultPlan,
    /// Operations worker `w` issues in epoch `e`
    /// (`ops_in_epoch[w][e]`; 0 while crashed or after finishing).
    pub ops_in_epoch: Vec<Vec<usize>>,
}

impl ChaosSchedule {
    /// Derive and validate the schedule for `cfg`. Panics on an
    /// invalid plan (misaligned or unmatched crash events, no live
    /// helper, faults naming unknown workers): a chaos plan is test
    /// infrastructure, and a bad one is a bug in the harness, not a
    /// runtime condition.
    pub fn build(cfg: &StoreConfig) -> Self {
        let n = cfg.workers.max(1);
        if let Err(e) = cfg.chaos.check(n) {
            panic!("{e}");
        }
        let every = cfg.verify.every_ops;
        assert!(
            cfg.chaos.is_empty() || every > 0,
            "chaos plans need rendezvous: set verify.every_ops > 0"
        );
        let every = if every > 0 {
            every
        } else {
            cfg.ops_per_worker.max(1)
        };

        // split crash/recover from link faults
        let mut link_plan = FaultPlan::new();
        let mut crash_marks: Vec<(u64, bool, NodeId)> = Vec::new(); // (epoch, is_crash, worker)
        for FaultEvent { at, fault } in cfg.chaos.events() {
            match fault {
                Fault::Crash(p) | Fault::Recover(p) => {
                    assert!(
                        *at % every as u64 == 0,
                        "crash/recover at tick {at} is not an epoch boundary (every_ops {every})"
                    );
                    crash_marks.push((*at / every as u64, matches!(fault, Fault::Crash(_)), *p));
                }
                f => link_plan.push(*at, f.clone()),
            }
        }
        // recoveries sort before crashes at the same boundary, so a
        // worker may recover and another (or even the same one) crash
        // at one drain
        crash_marks.sort_by_key(|&(e, is_crash, _)| (e, is_crash));

        // pair crashes with recoveries per worker
        let mut open: Vec<Option<u64>> = vec![None; n];
        let mut raw_spans: Vec<(NodeId, u64, u64)> = Vec::new();
        for (e, is_crash, p) in crash_marks {
            if is_crash {
                assert!(
                    open[p].is_none(),
                    "worker {p} crashes twice without recovering"
                );
                assert!(
                    e > 0,
                    "worker {p} cannot crash before the first epoch completes"
                );
                open[p] = Some(e);
            } else {
                let c = open[p]
                    .take()
                    .unwrap_or_else(|| panic!("worker {p} recovers at epoch {e} without a crash"));
                assert!(e > c, "worker {p} must recover strictly after crashing");
                raw_spans.push((p, c, e));
            }
        }
        for (p, o) in open.iter().enumerate() {
            assert!(o.is_none(), "worker {p} crashes and never recovers");
        }

        // liveness per epoch (unbounded query via spans)
        let crashed_at =
            |w: NodeId, e: u64| raw_spans.iter().any(|&(p, c, r)| p == w && e >= c && e < r);

        // helper per span: smallest id alive throughout [crash, recover]
        let mut spans: Vec<CrashSpan> = raw_spans
            .iter()
            .map(|&(worker, crash_epoch, recover_epoch)| {
                let helper = (0..n)
                    .find(|&h| {
                        h != worker && (crash_epoch..=recover_epoch).all(|e| !crashed_at(h, e))
                    })
                    .unwrap_or_else(|| {
                        panic!(
                            "no live helper for worker {worker} across epochs \
                             {crash_epoch}..={recover_epoch}"
                        )
                    });
                CrashSpan {
                    worker,
                    crash_epoch,
                    recover_epoch,
                    helper,
                }
            })
            .collect();
        spans.sort_by_key(|s| (s.crash_epoch, s.worker));

        // per-worker per-epoch op counts: crashed workers pause their
        // script and resume after recovery; the run stretches until
        // everyone has issued ops_per_worker and every span is closed
        let last_recover = spans.iter().map(|s| s.recover_epoch).max().unwrap_or(0);
        let mut ops_in_epoch: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut issued = vec![0usize; n];
        let mut e = 0u64;
        loop {
            let all_done = issued.iter().all(|&i| i >= cfg.ops_per_worker);
            // strictly past the last recovery: the drain opening epoch
            // `recover_epoch` performs the state transfer, so that
            // boundary must be an executed epoch even when the
            // crashed worker already finished its script
            if all_done && e > last_recover && e > 0 {
                break;
            }
            for w in 0..n {
                let take = if crashed_at(w, e) {
                    0
                } else {
                    (cfg.ops_per_worker - issued[w]).min(every)
                };
                issued[w] += take;
                ops_in_epoch[w].push(take);
            }
            e += 1;
            assert!(
                e <= last_recover + (cfg.ops_per_worker / every.max(1)) as u64 + 2,
                "chaos schedule failed to terminate (unrecovered worker?)"
            );
        }

        let sched = ChaosSchedule {
            every_ops: every,
            n_epochs: e,
            spans,
            link_plan,
            ops_in_epoch,
        };

        // sharding-aware liveness: recovery is served per shard by
        // live co-replicas, and routed reads need a live replica per
        // shard in every epoch — a plan that cannot satisfy either is
        // harness misconfiguration, caught here
        if !sched.spans.is_empty() {
            let map = crate::shard::ShardMap::build(cfg);
            for span in &sched.spans {
                for &s in map.hosted(span.worker) {
                    assert!(
                        sched.shard_helper(span, map.replicas(s)).is_some(),
                        "no live co-replica can serve shard {s} of worker {} at its \
                         recovery (epoch {}); raise the replication factor or move \
                         the crash span",
                        span.worker,
                        span.recover_epoch
                    );
                }
            }
            for e in 0..sched.n_epochs {
                for s in 0..map.shards() {
                    assert!(
                        map.replicas(s).iter().any(|&q| !sched.crashed_at(q, e)),
                        "shard {s} has no live replica in epoch {e}: reads could \
                         not route and the shard would stall"
                    );
                }
            }
        }
        sched
    }

    /// The live co-replica elected to ship one shard's state for a
    /// recovery: the first of `replicas` that is not the recovering
    /// worker, was live through the epoch preceding the recovery drain
    /// (so its shard state at that drain is complete — a replica that
    /// crashed *earlier* and already recovered qualifies), and is not
    /// itself mid-recovery at the same boundary. A replica crashing
    /// *at* the recovery boundary still qualifies: it completes the
    /// boundary drain, serves, then stops.
    pub fn shard_helper(&self, span: &CrashSpan, replicas: &[NodeId]) -> Option<NodeId> {
        replicas.iter().copied().find(|&h| {
            h != span.worker
                && !self.crashed_at(h, span.recover_epoch.saturating_sub(1))
                && !self
                    .spans
                    .iter()
                    .any(|s| s.worker == h && s.recover_epoch == span.recover_epoch)
        })
    }

    /// Is `w` crashed during epoch `e`?
    pub(crate) fn crashed_at(&self, w: NodeId, e: u64) -> bool {
        self.spans
            .iter()
            .any(|s| s.worker == w && e >= s.crash_epoch && e < s.recover_epoch)
    }

    /// Operations worker `w` issues in epoch `e`.
    pub(crate) fn ops_of(&self, w: NodeId, e: u64) -> usize {
        self.ops_in_epoch[w].get(e as usize).copied().unwrap_or(0)
    }

    /// Crash spans whose cut is the drain opening epoch `e`.
    pub(crate) fn crashes_at(&self, e: u64) -> impl Iterator<Item = &CrashSpan> {
        self.spans.iter().filter(move |s| s.crash_epoch == e)
    }

    /// Crash spans whose recovery transfer runs at the drain opening
    /// epoch `e`.
    pub(crate) fn recoveries_at(&self, e: u64) -> impl Iterator<Item = &CrashSpan> {
        self.spans.iter().filter(move |s| s.recover_epoch == e)
    }

    /// Does any chaos dimension apply to this run?
    pub(crate) fn is_active(&self) -> bool {
        !self.spans.is_empty() || !self.link_plan.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, VerifyConfig,
    };

    fn cfg(workers: usize, ops: usize, every: usize, chaos: FaultPlan) -> StoreConfig {
        StoreConfig {
            workers,
            objects: 8,
            ops_per_worker: ops,
            mode: Mode::Causal,
            batch: BatchPolicy::Every(4),
            verify: VerifyConfig {
                every_ops: every,
                window_ops: 8,
                sample_every: 1,
                monitor: false,
            },
            seed: 1,
            sharding: ShardConfig::full(),
            chaos,
            obs: ObsConfig::default(),
            durable: DurableConfig::default(),
        }
    }

    #[test]
    fn fault_free_schedule_matches_op_arithmetic() {
        let s = ChaosSchedule::build(&cfg(3, 400, 100, FaultPlan::new()));
        assert_eq!(s.n_epochs, 4);
        assert!(!s.is_active());
        for w in 0..3 {
            assert_eq!(s.ops_in_epoch[w], vec![100; 4]);
        }
    }

    #[test]
    fn partial_last_epoch() {
        let s = ChaosSchedule::build(&cfg(2, 250, 100, FaultPlan::new()));
        assert_eq!(s.n_epochs, 3);
        assert_eq!(s.ops_in_epoch[0], vec![100, 100, 50]);
    }

    #[test]
    fn crash_span_stretches_the_run_and_resumes_the_script() {
        let plan = FaultPlan::new()
            .at(100, Fault::Crash(1))
            .at(300, Fault::Recover(1));
        let s = ChaosSchedule::build(&cfg(2, 400, 100, plan));
        assert_eq!(s.spans.len(), 1);
        let span = s.spans[0];
        assert_eq!(
            (span.worker, span.crash_epoch, span.recover_epoch),
            (1, 1, 3)
        );
        assert_eq!(span.helper, 0);
        // worker 1 pauses two epochs, resumes, and still issues all 400
        assert_eq!(s.ops_in_epoch[1], vec![100, 0, 0, 100, 100, 100]);
        assert_eq!(s.ops_in_epoch[0], vec![100, 100, 100, 100, 0, 0]);
        assert_eq!(s.n_epochs, 6);
        assert!(s.crashed_at(1, 1) && s.crashed_at(1, 2));
        assert!(!s.crashed_at(1, 3));
        assert_eq!(s.recoveries_at(3).count(), 1);
        assert_eq!(s.crashes_at(1).count(), 1);
    }

    #[test]
    fn recovery_at_the_natural_end_still_gets_an_epoch() {
        // the crashing worker has already finished its script before
        // the crash: the run must still stretch past the recovery
        // boundary so the state transfer actually executes
        let plan = FaultPlan::new()
            .at(100, Fault::Crash(1))
            .at(200, Fault::Recover(1));
        let s = ChaosSchedule::build(&cfg(3, 100, 100, plan));
        assert_eq!(s.spans[0].recover_epoch, 2);
        assert!(
            s.n_epochs > s.spans[0].recover_epoch,
            "recovery boundary must be an executed epoch (n_epochs {})",
            s.n_epochs
        );
        assert!(!s.crashed_at(1, s.n_epochs - 1));
    }

    #[test]
    fn helper_skips_workers_crashed_in_overlapping_spans() {
        let plan = FaultPlan::new()
            .at(100, Fault::Crash(0))
            .at(200, Fault::Recover(0))
            .at(100, Fault::Crash(1))
            .at(300, Fault::Recover(1));
        let s = ChaosSchedule::build(&cfg(4, 300, 100, plan));
        for span in &s.spans {
            assert!(span.helper >= 2, "helpers must be alive: {span:?}");
        }
    }

    #[test]
    #[should_panic(expected = "never recovers")]
    fn unrecovered_crash_is_rejected() {
        ChaosSchedule::build(&cfg(2, 200, 100, FaultPlan::new().at(100, Fault::Crash(1))));
    }

    #[test]
    #[should_panic(expected = "not an epoch boundary")]
    fn misaligned_crash_is_rejected() {
        let plan = FaultPlan::new()
            .at(150, Fault::Crash(1))
            .at(300, Fault::Recover(1));
        ChaosSchedule::build(&cfg(2, 400, 100, plan));
    }

    #[test]
    #[should_panic(expected = "outside cluster")]
    fn link_fault_naming_an_unknown_worker_is_rejected() {
        let plan = FaultPlan::new().at(10, Fault::BlockLink { from: 0, to: 7 });
        ChaosSchedule::build(&cfg(4, 400, 100, plan));
    }

    #[test]
    #[should_panic(expected = "outside cluster")]
    fn skew_naming_an_unknown_worker_is_rejected() {
        let plan = FaultPlan::new().at(10, Fault::ClockSkew { node: 9, offset: 1 });
        ChaosSchedule::build(&cfg(4, 400, 100, plan));
    }

    #[test]
    fn link_faults_pass_through_to_the_link_plan() {
        let plan = FaultPlan::new()
            .at(7, Fault::DropAll { prob: 0.1 })
            .at(100, Fault::Crash(1))
            .at(200, Fault::Recover(1));
        let s = ChaosSchedule::build(&cfg(2, 200, 100, plan));
        assert_eq!(s.link_plan.len(), 1);
        assert!(s.is_active());
    }

    /// Every catalogue plan whose crashes fall on epoch boundaries
    /// builds a live schedule at 4 workers whatever the epoch length;
    /// the catalogue's names and its fit inside clusters of 2 to 8
    /// nodes are checked with the simulator's scenarios.
    #[test]
    fn all_profiles_build_valid_schedules() {
        use cbm_net::fault::{named, CATALOGUE};
        let mut live = 0;
        for p in CATALOGUE {
            assert_eq!(named(p.name).map(|q| q.name), Some(p.name));
            for e in [100, 500, 2000] {
                let plan = (p.build)(4, e);
                assert_eq!(plan.check(4), Ok(()), "{} at e {e}", p.name);
                if plan.crashes_on_epochs(e) {
                    let s = ChaosSchedule::build(&cfg(4, 4 * e as usize, e as usize, plan));
                    assert!(s.is_active(), "{} must inject something", p.name);
                    live += 1;
                }
            }
        }
        assert_eq!(
            live,
            3 * (CATALOGUE.len() - 1),
            "only one plan crashes mid-epoch"
        );
    }
}
