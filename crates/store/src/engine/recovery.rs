//! Crash recovery: the ladder a recovering worker climbs at its
//! recovery boundary, the helpers' side of it, and the cold fleet
//! restart (`docs/DURABILITY.md`, `docs/CHAOS.md`).
//!
//! At the recovery boundary each shard the crashed worker hosts is
//! served by a deterministically elected live co-replica
//! ([`ChaosSchedule::shard_helper`](crate::chaos::ChaosSchedule::shard_helper)).
//! Without a disk the helpers ship their post-drain shard states
//! ([`ShardSyncPayload`]) and the recovering worker installs them
//! (rung 3). With one, it first replays its own snapshot + log tail
//! (rung 1) — a clean replay to the crash cut downgrades the fetch to
//! the per-shard op deltas the helpers kept since that cut (rung 2);
//! a torn or stale disk falls back to rung 3. Either way the causal
//! layer then resyncs straight from the drain's published edge matrix
//! (the drain *is* the frontier — no kept-envelope replay needed), and
//! the worker resumes its op script where it paused — so a chaos run
//! issues exactly the op multiset of its fault-free twin, which is
//! what makes final-state comparison against the twin meaningful.
//!
//! Every path ends the same way, [`Worker::adopt_cut`]: the table
//! holds a recovered cut, the attachments restart from it.
//!
//! Neither side receives anything itself. A helper waits in the
//! host's group wait ([`Host::wait`]) until [`Worker::handle`] has put
//! its recoverer's handshake in that recoverer's slot — handshakes
//! from simultaneous recoverers each land in their own — and a
//! recoverer waits there until `handle` has installed every helper's
//! reply, through [`Worker::install_shards`] (rung 3) or
//! [`Worker::apply_delta`] (rung 2). The recoverer is still down while
//! it waits, so anything else that reaches it is dropped and counted.
//!
//! ## Phase order
//!
//! A thread hosts several workers, and any of them may be a recoverer,
//! a helper, or both across simultaneous spans. The transfer therefore
//! runs in one phase order, each phase over every hosted worker
//! ([`Host::recover_at_boundary`]):
//!
//! 1. every recoverer replays its disk, sends its handshakes and opens
//!    its reply slot;
//! 2. helpers wait for the handshakes and ship;
//! 3. recoverers wait for their replies;
//! 4. the barrier.
//!
//! That order is what makes the group wait deadlock-free. Phase 1
//! waits on nothing, so every handshake is sent before any thread
//! waits; a helper in phase 2 waits only on handshakes; a recoverer in
//! phase 3 waits only on helpers, which all reach phase 2. The reply
//! slot opens in phase 1, before anything is pumped, so a reply that
//! arrives while a co-hosted helper waits is installed, not dropped.

use super::host::Host;
use super::taps::{now, ns_since};
use super::worker::Worker;
use crate::chaos::CrashSpan;
use crate::durable::Recovered;
use crate::stats::RecoveryStats;
use crate::wire::{
    delta_bytes, sync_bytes, sync_req_bytes, ShardDeltaPayload, ShardSyncPayload, StoreMsg,
};
use cbm_adt::wire::Wire;
use cbm_adt::Adt;
use cbm_net::clock::LamportClock;
use cbm_net::endpoint::Endpoint as EndpointApi;
use cbm_net::NodeId;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::time::Instant;

impl<'a, T, E> Host<'a, T, E>
where
    T: Adt + Clone + Sync,
    T::Input: Wire + Send + Sync,
    T::Output: Send,
    T::State: Wire + Send + Sync,
    E: EndpointApi<StoreMsg<T::Input, T::Output, T::State>>,
{
    /// Cold fleet restart ([`crate::config::DurableConfig::resume`]):
    /// every hosted worker replays its snapshot + log tail and claims
    /// the boundary it sealed; the fleet agrees on the boundary every
    /// disk sealed, each worker installs that cut, and the epoch to
    /// resume from is returned. Returns 0 (a fresh full run, disks
    /// wiped) when any disk is torn, stale, or disagreeing — the cut
    /// is a fleet-wide property, so resuming from mismatched epochs
    /// would replay mismatched script prefixes.
    pub(super) fn resume_from_disk(&mut self) -> u64 {
        let recs: Vec<_> = self.ws.iter_mut().map(Worker::claim_resume).collect();
        self.coord.barrier.wait(); // claims published
        let starts: Vec<u64> = self
            .ws
            .iter_mut()
            .zip(recs)
            .map(|(w, rec)| w.resume_at(rec))
            .collect();
        debug_assert!(
            starts.iter().all(|&e| e == starts[0]),
            "agreement is fleet-wide"
        );
        starts[0]
    }

    /// The recovery phase of the boundary opening epoch `e`, anchored
    /// on the drain just completed: state transfers for every span
    /// recovering here (per shard, from live co-replica helpers), then
    /// retention start for every span crashing here. Returns whether
    /// any transfer ran.
    ///
    /// The transfers run in the phase order of the [module
    /// docs](self), each phase over every hosted worker; every wait in
    /// it is the host's one wait.
    pub(super) fn recover_at_boundary(&mut self, e: u64) -> bool {
        let recoveries: Vec<CrashSpan> = self.sched.recoveries_at(e).copied().collect();
        if !recoveries.is_empty() {
            // 1. every recoverer replays its disk and sends its handshakes
            let climbs: Vec<(usize, &CrashSpan, Climb)> = (0..self.ws.len())
                .filter_map(|i| {
                    let span = recoveries.iter().find(|s| s.worker == self.ws[i].me)?;
                    Some((i, span, self.ws[i].request_sync(span)))
                })
                .collect();
            // 2. helpers wait for the handshakes and ship
            for i in 0..self.ws.len() {
                let me = self.ws[i].me;
                for span in recoveries.iter().filter(|s| s.worker != me) {
                    if self.ws[i].awaits_handshake(span) {
                        let q = span.worker;
                        self.wait(|ws| ws[i].sync_req[q].is_some());
                    }
                    let w = &mut self.ws[i];
                    w.serve_shard_sync(span);
                    // envelopes stamped for the worker while it was down
                    // consumed delta state but were dropped, and its
                    // decode baselines restart from zero at resync: the
                    // next envelope on our edge to it must be a full
                    // knowledge refresh
                    w.proto.mark_refresh(span.worker);
                }
            }
            // 3. recoverers wait for their replies
            self.wait(|ws| ws.iter().all(|w| w.sync_replies == 0));
            for (i, span, climb) in climbs {
                self.ws[i].finish_recovery(span, climb);
            }
            // 4. the barrier
            self.coord.barrier.wait(); // transfers complete
            debug_assert!(
                self.ws
                    .iter()
                    .all(|w| w.sync_req.iter().all(Option::is_none)),
                "unserved handshakes"
            );
        }
        for w in &mut self.ws {
            w.retain_for_crashes(e);
        }
        !recoveries.is_empty()
    }
}

/// What a recoverer's first phase found: when it started, and what its
/// own disk replayed (zeros on rung 3).
struct Climb {
    t: Instant,
    replayed_records: u64,
    log_bytes: u64,
}

impl<'a, T, E> Worker<'a, T, E>
where
    T: Adt + Clone + Sync,
    T::Input: Wire + Send + Sync,
    T::Output: Send,
    T::State: Wire + Send + Sync,
    E: EndpointApi<StoreMsg<T::Input, T::Output, T::State>>,
{
    /// This worker's own disk replay becomes the replica: the table
    /// and the Lamport clock restart from the sealed cut, exactly as a
    /// real process restart would (the in-memory replica is discarded,
    /// not reused).
    fn install_replay(&mut self, rec: &Recovered<T>) {
        self.table.install(&rec.states);
        self.clock = LamportClock::new();
        self.clock.observe(rec.seal.lamport);
    }

    /// The table now holds the recovered cut of boundary `epoch`:
    /// restart the attachments from it — monitor shadows reseeded from
    /// the hosted shards, the cut compacted into a fresh snapshot.
    fn adopt_cut(&mut self, epoch: u64) {
        let seal = self.taps.logging().then(|| self.seal_info(epoch, true));
        self.taps.adopt_cut(&self.table, seal);
    }

    /// The first half of a cold restart: replay this worker's disk
    /// and publish the boundary it can resume from (0 = none). Only
    /// epoch-boundary cuts strictly inside the run are resumable:
    /// mid-window cuts would land inside a recorded window, and a
    /// final-drain seal means there is nothing left.
    fn claim_resume(&mut self) -> Option<Recovered<T>> {
        let rec =
            self.taps.replay().and_then(Result::ok).filter(|r| {
                r.seal.boundary && r.seal.epoch > 0 && r.seal.epoch < self.sched.n_epochs
            });
        let claim = rec.as_ref().map(|r| r.seal.epoch).unwrap_or(0);
        self.coord.resume_epoch[self.me].store(claim, Ordering::SeqCst);
        rec
    }

    /// The second half, once every claim is published: install `rec`'s
    /// cut if every worker claimed the same boundary, else wipe the
    /// log. Returns the epoch to resume from.
    fn resume_at(&mut self, rec: Option<Recovered<T>>) -> u64 {
        let claim = self.coord.resume_epoch[self.me].load(Ordering::SeqCst);
        let agreed = (0..self.ep.cluster_size())
            .all(|q| self.coord.resume_epoch[q].load(Ordering::SeqCst) == claim);
        let Some(rec) = rec.filter(|_| agreed) else {
            self.taps.wipe_log();
            return 0;
        };
        let t = now();
        self.install_replay(&rec);
        self.c.ops = rec.seal.issued;
        debug_assert_eq!(
            self.c.ops,
            claim * self.sched.every_ops as u64,
            "a fault-free boundary cut pins the script position"
        );
        // shadows restart from the installed cut states; the monitor's
        // counters continue from the persisted totals. The delivered
        // frontier restarts at zero with the fresh causal layer —
        // frontiers are per-run, the cut state is not.
        self.taps.seed_monitor_stats(rec.seal.monitor);
        self.adopt_cut(claim);
        // per-epoch delta rows and traces restart at the resumed cut
        self.prev = self.counters();
        self.taps.open_epoch(claim, false);
        // the replay is a recovery row (helper = self: no co-replica
        // involved), which is what feeds the report's replayed-records
        // and log-bytes columns
        self.recoveries.push(RecoveryStats {
            worker: self.me,
            crash_epoch: claim,
            recover_epoch: claim,
            helper: self.me,
            synced_shards: 0,
            synced_objects: 0,
            sync_wall_ns: ns_since(t),
            replayed_records: rec.replayed_records,
            log_bytes: rec.log_bytes,
        });
        claim
    }

    /// Disk recovery: start keeping ops for each worker crashing at
    /// the cut of boundary `e`. Its own log replays exactly to this
    /// boundary, so what this helper applies from here to the recovery
    /// boundary is precisely the delta it will fetch. This runs *after*
    /// the transfers: delta ops installed by them are all pre-cut and
    /// must not leak into a new buffer.
    fn retain_for_crashes(&mut self, e: u64) {
        if self.disk_recovery && !self.crashed {
            let sched = self.sched;
            for span in sched.crashes_at(e).filter(|s| s.worker != self.me) {
                let shards = self.elected_shards(span);
                if !shards.is_empty() {
                    self.taps
                        .retain_for(span.worker, shards.iter().map(|&s| s as u32).collect());
                }
            }
        }
    }

    /// The shards of `span`'s worker this worker was elected to serve.
    fn elected_shards(&self, span: &CrashSpan) -> Vec<usize> {
        self.map
            .hosted(span.worker)
            .iter()
            .copied()
            .filter(|&s| self.sched.shard_helper(span, self.map.replicas(s)) == Some(self.me))
            .collect()
    }

    /// Does this worker, as a helper of `span`, wait for its
    /// recoverer's handshake before shipping? Only an elected helper of
    /// a disk recovery does.
    fn awaits_handshake(&self, span: &CrashSpan) -> bool {
        self.disk_recovery && !self.elected_shards(span).is_empty()
    }

    /// Helper side of a recovery: nothing to do unless elected for one
    /// of the worker's shards. In memory mode ship the post-drain
    /// states of those shards. In disk mode the recoverer's handshake
    /// is in ([`Worker::awaits_handshake`]): ship either the op delta
    /// kept since its crash cut (`full = false`) or — when its disk was
    /// torn or stale — the same full states. Every elected helper has
    /// the delta: election depends only on the span, so each one
    /// started its retention buffer at the crash cut.
    fn serve_shard_sync(&mut self, span: &CrashSpan) {
        let kept = self.taps.take_retained(span.worker);
        let shards = self.elected_shards(span);
        if shards.is_empty() {
            debug_assert!(kept.is_none(), "a retention buffer with no election");
            return;
        }
        let full = !self.disk_recovery || self.sync_req[span.worker].take() == Some(true);
        let lamport = self.clock.now();
        let (msg, bytes) = if !full {
            let payload = ShardDeltaPayload {
                shards: kept.expect("every elected helper activated a retention buffer"),
                lamport,
            };
            let bytes = delta_bytes(&payload);
            (StoreMsg::ShardDelta(Box::new(payload)), bytes)
        } else {
            let payload = ShardSyncPayload {
                shards: shards
                    .iter()
                    .map(|&s| (s as u32, self.table.shard_snapshot(self.map.slots_of(s))))
                    .collect(),
                lamport,
            };
            let bytes = sync_bytes(&payload);
            (StoreMsg::ShardSync(Box::new(payload)), bytes)
        };
        self.ep.send_reliable(span.worker, msg, bytes);
    }

    /// Recovering side, first phase: climb rung 1 (see the [module
    /// docs](self)), send the handshakes, and open the reply slot — one
    /// count per helper, set before anything is pumped, so no reply
    /// can arrive ahead of it.
    fn request_sync(&mut self, span: &CrashSpan) -> Climb {
        let t = now();
        // deterministic order: handshakes go out sorted
        let helpers: BTreeSet<NodeId> = self
            .map
            .hosted(self.me)
            .iter()
            .map(|&s| {
                self.sched
                    .shard_helper(span, self.map.replicas(s))
                    .expect("validated: every hosted shard has a live helper")
            })
            .collect();
        let mut climb = Climb {
            t,
            replayed_records: 0,
            log_bytes: 0,
        };
        if self.disk_recovery {
            // rung 1: this worker's own disk. Torn, corrupt, or sealed
            // at the wrong cut leaves `full` set: rung 3
            let mut full = true;
            if let Some(Ok(rec)) = self.taps.replay() {
                if rec.seal.boundary && rec.seal.epoch == span.crash_epoch {
                    debug_assert_eq!(
                        rec.seal.issued, self.c.ops,
                        "the sealed script position matches the paused script"
                    );
                    self.install_replay(&rec);
                    climb.replayed_records = rec.replayed_records;
                    climb.log_bytes = rec.log_bytes;
                    full = false;
                }
            }
            for &h in &helpers {
                self.ep
                    .send_reliable(h, StoreMsg::SyncReq { full }, sync_req_bytes());
            }
        }
        // every reply is awaited at once; the worker is still down, so
        // whatever else arrives meanwhile is dropped and counted
        self.sync_replies = helpers.len();
        climb
    }

    /// Recovering side, once every reply is in: resync the causal
    /// layer to the drain's published edge matrix and adopt the cut.
    fn finish_recovery(&mut self, span: &CrashSpan, climb: Climb) {
        let (synced_shards, synced_objects) = std::mem::take(&mut self.synced);
        let n = self.ep.cluster_size();
        let matrix: Vec<u64> = self
            .coord
            .sent_edges
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .collect();
        let delivered: Vec<u64> = (0..n).map(|j| matrix[j * n + self.me]).collect();
        self.proto.resync(&delivered, &matrix);
        for log in self.epoch_sent.iter_mut() {
            log.clear(); // pre-crash sends are all below the cut
        }
        self.adopt_cut(span.recover_epoch);
        self.taps
            .recovered(climb.t, span, synced_shards, synced_objects);
        self.recoveries.push(RecoveryStats {
            worker: self.me,
            crash_epoch: span.crash_epoch,
            recover_epoch: span.recover_epoch,
            helper: span.helper,
            synced_shards,
            synced_objects,
            sync_wall_ns: ns_since(climb.t),
            replayed_records: climb.replayed_records,
            log_bytes: climb.log_bytes,
        });
    }

    /// Rung 3, one helper's reply: install its post-drain shard states.
    pub(super) fn install_shards(&mut self, payload: &ShardSyncPayload<T::State>) {
        for (s, states) in &payload.shards {
            self.synced.0 += 1;
            self.synced.1 += states.len() as u64;
            self.table
                .install_slots(self.map.slots_of(*s as usize), states);
        }
        self.clock.observe(payload.lamport);
        self.sync_replies -= 1;
    }

    /// Rung 2, one helper's reply: apply the outage-window op delta
    /// onto the cut state the disk replay installed.
    pub(super) fn apply_delta(&mut self, payload: &ShardDeltaPayload<T::Input>) {
        for (_, ops) in &payload.shards {
            self.synced.0 += 1;
            self.synced.1 += ops.len() as u64;
            for op in ops {
                self.clock.observe(op.ts.time);
                self.table.apply_update(self.adt, op.obj, op.ts, &op.input);
            }
        }
        self.clock.observe(payload.lamport);
        self.sync_replies -= 1;
    }
}
