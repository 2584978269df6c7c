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
//! Neither side receives anything itself. A helper waits in
//! [`Worker::pump_until`] until [`Worker::handle`] has put its
//! recoverer's handshake in that recoverer's slot — handshakes from
//! simultaneous recoverers each land in their own — and a recoverer
//! waits there until `handle` has installed every helper's reply,
//! through [`Worker::install_shards`] (rung 3) or
//! [`Worker::apply_delta`] (rung 2). The recoverer is still down while
//! it waits, so anything else that reaches it is dropped and counted.

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

    /// Cold fleet restart ([`crate::config::DurableConfig::resume`]):
    /// replay this worker's snapshot + log tail, agree fleet-wide on
    /// the boundary every disk sealed, install that cut, and return
    /// the epoch to resume from. Returns 0 (a fresh full run, disks
    /// wiped) when any disk is torn, stale, or disagreeing — the cut
    /// is a fleet-wide property, so resuming from mismatched epochs
    /// would replay mismatched script prefixes.
    pub(super) fn resume_from_disk(&mut self) -> u64 {
        let rec = self
            .taps
            .replay()
            .and_then(Result::ok)
            // only epoch-boundary cuts strictly inside the run are
            // resumable: mid-window cuts would land inside a recorded
            // window, and a final-drain seal means there is nothing left
            .filter(|r| r.seal.boundary && r.seal.epoch > 0 && r.seal.epoch < self.sched.n_epochs);
        let claim = rec.as_ref().map(|r| r.seal.epoch).unwrap_or(0);
        self.coord.resume_epoch[self.me].store(claim, Ordering::SeqCst);
        self.coord.barrier.wait(); // claims published
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

    /// The recovery phase of the boundary opening epoch `e`, anchored
    /// on the drain just completed: state transfers for every span
    /// recovering here (per shard, from live co-replica helpers), then
    /// retention start for every span crashing here. Returns whether
    /// any transfer ran.
    pub(super) fn recover_at_boundary(&mut self, e: u64) -> bool {
        let recoveries: Vec<CrashSpan> = self.sched.recoveries_at(e).copied().collect();
        for span in &recoveries {
            if span.worker == self.me {
                self.receive_shard_sync(span);
            } else {
                self.serve_shard_sync(span);
                // envelopes stamped for the worker while it was down
                // consumed delta state but were dropped, and its decode
                // baselines restart from zero at resync: the next
                // envelope on our edge to it must be a full knowledge
                // refresh
                self.proto.mark_refresh(span.worker);
            }
        }
        if !recoveries.is_empty() {
            self.coord.barrier.wait(); // transfers complete
            debug_assert!(
                self.sync_req.iter().all(Option::is_none),
                "unserved handshakes"
            );
        }

        // disk recovery: start keeping ops for each worker crashing at
        // this cut. Its own log replays exactly to this boundary, so
        // what this helper applies from here to the recovery boundary
        // is precisely the delta it will fetch. This runs *after* the
        // transfers: delta ops installed above are all pre-cut and
        // must not leak into a new buffer.
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
        !recoveries.is_empty()
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

    /// Helper side of a recovery: nothing to do unless elected for one
    /// of the worker's shards. In memory mode ship the post-drain
    /// states of those shards. In disk mode wait for the recoverer's
    /// handshake, then ship either the op delta kept since its crash
    /// cut (`full = false`) or — when its disk was torn or stale — the
    /// same full states. Every elected helper has the delta: election
    /// depends only on the span, so each one started its retention
    /// buffer at the crash cut.
    fn serve_shard_sync(&mut self, span: &CrashSpan) {
        let kept = self.taps.take_retained(span.worker);
        let shards = self.elected_shards(span);
        if shards.is_empty() {
            debug_assert!(kept.is_none(), "a retention buffer with no election");
            return;
        }
        let full = !self.disk_recovery || {
            self.pump_until(|w| w.sync_req[span.worker].is_some());
            self.sync_req[span.worker].take() == Some(true)
        };
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

    /// Recovering side: climb the ladder (see the [module docs](self)).
    fn receive_shard_sync(&mut self, span: &CrashSpan) {
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
        let mut full = true;
        let (mut replayed_records, mut log_bytes) = (0u64, 0u64);
        if self.disk_recovery {
            // rung 1: this worker's own disk. Torn, corrupt, or sealed
            // at the wrong cut leaves `full` set: rung 3
            if let Some(Ok(rec)) = self.taps.replay() {
                if rec.seal.boundary && rec.seal.epoch == span.crash_epoch {
                    debug_assert_eq!(
                        rec.seal.issued, self.c.ops,
                        "the sealed script position matches the paused script"
                    );
                    self.install_replay(&rec);
                    replayed_records = rec.replayed_records;
                    log_bytes = rec.log_bytes;
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
        self.pump_until(|w| w.sync_replies == 0);
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
        self.taps.recovered(t, span, synced_shards, synced_objects);
        self.recoveries.push(RecoveryStats {
            worker: self.me,
            crash_epoch: span.crash_epoch,
            recover_epoch: span.recover_epoch,
            helper: span.helper,
            synced_shards,
            synced_objects,
            sync_wall_ns: ns_since(t),
            replayed_records,
            log_bytes,
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
