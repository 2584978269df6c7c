//! Epochs and the deterministic rendezvous: the epoch schedule, the
//! drain with its nack/repair round, and the convergence check.
//!
//! The run is organised in **epochs** of `verify.every_ops` operations
//! per worker. At every epoch boundary all workers rendezvous for a
//! drain ([`Host::quiesce`]): flush pending batches (and any
//! fault-delayed envelopes), publish the cumulative per-edge envelope
//! counts, and receive until every published envelope on every inbound
//! edge is delivered — answering routed reads the whole time, so a
//! worker waiting on a reply can always make progress into the
//! rendezvous.
//!
//! Each rendezvous runs per thread, phase by phase over the workers
//! that thread hosts (`host.rs`): every hosted worker finishes a phase
//! before any starts the next, each wait is the host's one group wait
//! over all of them, and each barrier is one wait per thread. The
//! per-worker halves are the `Worker` methods below; the `Host`
//! methods sequence them. Because the pause points are counted in operations —
//! not wall time — the set of flushed envelopes (and therefore
//! `msgs_sent`) is a pure function of the configuration and seed,
//! independent of thread interleaving; only wall-clock numbers vary
//! between runs. After each boundary the workers record a bounded
//! window of subsequent events for the verifier thread
//! (`verifier.rs`).
//!
//! ## Chaos (see `docs/CHAOS.md` for the full contract)
//!
//! A non-empty [`StoreConfig::chaos`](crate::config::StoreConfig::chaos)
//! plan routes every fast-path send through a deterministic
//! sender-side fault layer ([`cbm_net::chaos::ChaosEndpoint`]). Because
//! drops are true losses, the drain adds a **nack/repair** round: after
//! every worker has arrived at the boundary, every missing envelope is
//! known to be lost; the receiver nacks each stalled edge once and the
//! sender retransmits that edge's epoch log over the reliable path — so
//! every drain is still a consistent cut, with a deterministic number
//! of repair messages per edge. Only a plan that can lose an envelope
//! between live replicas keeps those logs
//! ([`Fault::needs_repair`](cbm_net::fault::Fault::needs_repair)):
//! nothing is nacked across a crash.
//!
//! `Crash`/`Recover` faults are epoch-aligned. A crashing worker
//! completes the boundary drain (the *cut*), then stops operating:
//! peers suppress sends to it (counted as in-flight drops) while the
//! protocol keeps stamping its edges, so the published edge matrix
//! stays the single source of truth. What happens at the recovery
//! boundary is `recovery.rs`.

use super::counters::Counters;
use super::host::Host;
use super::taps::now;
use super::worker::Worker;
use super::WorkerResult;
use crate::config::Mode;
use crate::durable::SealInfo;
use crate::wire::{nack_bytes, repair_bytes, BatchMsg, StoreMsg};
use cbm_adt::wire::Wire;
use cbm_adt::Adt;
use cbm_net::endpoint::Endpoint as EndpointApi;
use cbm_net::NodeId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Shared rendezvous state.
pub(super) struct Coordinator {
    /// One party per thread: each thread waits once for all the
    /// workers it hosts.
    pub barrier: Barrier,
    /// Cumulative per-edge envelope counts, `sent_edges[s * n + r]` =
    /// envelopes `s` has addressed to `r`, published at drains. This
    /// matrix is both the per-edge gap detector of the nack/repair
    /// round and the causal frontier a recovering worker resyncs to.
    pub sent_edges: Vec<AtomicU64>,
    /// Per-worker full-space state hash at the latest drain point.
    pub hashes: Vec<AtomicU64>,
    /// Per-(worker, shard) state hash at the latest drain point
    /// (`shard_hashes[w * shards + s]`; only hosted entries are live).
    shard_hashes: Vec<AtomicU64>,
    /// Drain points at which live replicas of a shard diverged
    /// (convergent mode).
    pub divergences: AtomicU64,
    /// Boundary arrival counters, parity-indexed by drain number; each
    /// thread adds the count of workers it hosts. The arrival
    /// rendezvous spins (instead of a barrier) because workers must
    /// keep serving routed reads until *everyone* has arrived — a
    /// worker whose last epoch operation awaits a read reply can only
    /// arrive after some peer serves it.
    arrive: [AtomicU64; 2],
    /// Drain-completion counters, parity-indexed like `arrive`: a
    /// worker that has delivered everything keeps serving repair (and
    /// read) requests until all workers are complete — a plain barrier
    /// here could strand a peer waiting for a retransmission from a
    /// worker already parked at the barrier.
    done: [AtomicU64; 2],
    /// Cold-start agreement: each worker publishes the boundary epoch
    /// its own disk can serve (0 = none). The fleet resumes only from
    /// a boundary *every* disk sealed — a cut is a fleet-wide property,
    /// so any disagreement falls back to a fresh run.
    pub resume_epoch: Vec<AtomicU64>,
    /// A worker thread unwound ([`PanicGuard`]): whatever its peers
    /// wait on from it will never come, so their waits fail too and
    /// the run reports the panic instead of hanging.
    pub panicked: AtomicBool,
}

/// Held by a worker thread for its whole run: raises
/// [`Coordinator::panicked`] if the thread unwinds.
pub(super) struct PanicGuard<'a>(pub &'a Coordinator);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.panicked.store(true, Ordering::SeqCst);
        }
    }
}

impl Coordinator {
    /// The rendezvous of `n` workers hosted on `threads` threads.
    pub(crate) fn new(n: usize, threads: usize, shards: usize) -> Self {
        let zeros = |k: usize| (0..k).map(|_| AtomicU64::new(0)).collect();
        Coordinator {
            barrier: Barrier::new(threads),
            sent_edges: zeros(n * n),
            hashes: zeros(n),
            shard_hashes: zeros(n * shards),
            divergences: AtomicU64::new(0),
            arrive: [AtomicU64::new(0), AtomicU64::new(0)],
            done: [AtomicU64::new(0), AtomicU64::new(0)],
            resume_epoch: zeros(n),
            panicked: AtomicBool::new(false),
        }
    }
}

impl<'a, T, E> Host<'a, T, E>
where
    T: Adt + Clone + Sync,
    T::Input: Wire + Send + Sync,
    T::Output: Send,
    T::State: Wire + Send + Sync,
    E: EndpointApi<StoreMsg<T::Input, T::Output, T::State>>,
{
    /// The run's last cut, at boundary `e`: drain, fsync'd seal,
    /// compaction, convergence check, metrics row — and no window
    /// opened after it. Publishes each hosted worker's full-space state
    /// hash at the cut: it feeds only the report's `final_state_hashes`
    /// (read after the threads join), so it is computed once here
    /// rather than at every drain; intermediate convergence checks run
    /// on per-shard hashes.
    ///
    /// Two callers. Teardown (`e = n_epochs`): every crash span has
    /// recovered by now (the schedule guarantees it), so all replicas
    /// take part. Deterministic power loss
    /// ([`crate::config::DurableConfig::halt_at_boundary`]): the run
    /// stops here without opening epoch `e`'s window, and the halted
    /// report still carries final-state evidence.
    pub(super) fn last_cut(&mut self, e: u64) {
        for w in &mut self.ws {
            w.enter_epoch(e);
            debug_assert!(!w.crashed, "schedule must recover everyone");
        }
        self.quiesce((e, true));
        self.compact_and_check_convergence(e);
        for w in &mut self.ws {
            // seal past e-1, so fault events stamped at this last
            // boundary tick (epoch index e) are kept too
            w.close_epoch(e - 1, e);
            self.coord.hashes[w.me].store(w.table.state_hash(), Ordering::SeqCst);
        }
    }

    /// The rendezvous opening epoch `e`: drain, recover, compact,
    /// check convergence, open the next verification window.
    pub(super) fn epoch_boundary(&mut self, e: u64) {
        for w in &mut self.ws {
            w.enter_epoch(e);
        }
        if e == 0 {
            return; // the run starts mid-epoch-0; first drain is at e=1
        }
        let sched = self.sched;
        for w in &mut self.ws {
            let was_crashed = w.crashed;
            w.crashed = sched.crashed_at(w.me, e);
            if !was_crashed && w.crashed {
                w.taps.crashed(e); // the cut this drain establishes
            }
        }

        // the boundary drain: a worker crashing *at* this boundary
        // still participates normally — the drain is its cut — and one
        // recovering here is still down (`discarding`)
        self.quiesce((e, true));

        // liveness flags for the coming epoch (deterministic: every
        // worker derives them from the shared schedule)
        for w in &mut self.ws {
            for q in 0..w.ep.cluster_size() {
                w.ep.set_peer_crashed(q, sched.crashed_at(q, e));
            }
        }

        let spans_recovery = self.recover_at_boundary(e);
        for w in &mut self.ws {
            // down from the cut just made, or up again past the transfer
            w.discarding = w.crashed;
        }
        self.compact_and_check_convergence(e);
        for w in &mut self.ws {
            w.open_epoch(e, spans_recovery);
        }
    }

    /// The drain, phase by phase over every hosted worker: flush and
    /// publish the per-edge counts, then receive until every published
    /// envelope on every inbound edge has been delivered — nacking
    /// edges whose envelopes were lost to faults, and serving peers'
    /// nacks and routed reads until *everyone* is complete. A worker
    /// that spent the last epoch crashed (`discarding`) only keeps the
    /// rendezvous, dropping what arrives: its state is re-established
    /// by the recovery transfer, not by late delivery.
    ///
    /// `cut` is the drain's identity for the durable epoch log:
    /// `(epoch, is_epoch_boundary)`. Live drains seal it once the
    /// closing barrier confirms the cut is complete everywhere — so a
    /// restart replaying to the seal lands on a fleet-wide consistent
    /// cut (`docs/DURABILITY.md`).
    pub(super) fn quiesce(&mut self, cut: (u64, bool)) {
        let t = now();
        let coord = self.coord;
        let (n, hosted) = (self.n as u64, self.ws.len() as u64);
        let parity = (self.ws[0].quiesce_idx % 2) as usize;
        for w in &mut self.ws {
            w.publish_cut();
        }
        // arrival: wait (serving traffic) until every worker has
        // published its cut counts — only then are gaps meaningful
        coord.arrive[parity].fetch_add(hosted, Ordering::SeqCst);
        self.wait(|_| coord.arrive[parity].load(Ordering::SeqCst) >= n);
        self.wait(|ws| ws.iter().all(Worker::settled));
        for w in &mut self.ws {
            w.nack_gaps();
        }
        // complete here, then keep serving nacks until every worker is
        self.wait(|ws| ws.iter().all(Worker::complete));
        coord.done[parity].fetch_add(hosted, Ordering::SeqCst);
        self.wait(|_| coord.done[parity].load(Ordering::SeqCst) >= n);
        // reset the other parity slots for the next drain while every
        // worker is still on this side of the closing barrier
        if self.ws[0].me == 0 {
            coord.arrive[1 - parity].store(0, Ordering::SeqCst);
            coord.done[1 - parity].store(0, Ordering::SeqCst);
        }
        coord.barrier.wait(); // globally drained
        for w in &mut self.ws {
            w.seal_cut(t, cut);
        }
    }

    /// Every hosted worker met its window quota: drain so the window is
    /// closed everywhere, then hand the records to the verifier.
    /// Crashed workers already sent their placeholder at the open. `e`
    /// is the epoch whose window closes (the mid-epoch cut's log
    /// identity).
    pub(super) fn close_window(&mut self, e: u64) {
        self.quiesce((e, false));
        for w in &mut self.ws {
            w.taps.close_window();
        }
    }

    /// At a global drain: compact arbitration logs, publish each hosted
    /// replica's per-hosted-shard state hashes, and (first live replica
    /// of each shard, convergent mode) record a divergence if the
    /// shard's live replicas disagree.
    fn compact_and_check_convergence(&mut self, e: u64) {
        for w in &mut self.ws {
            w.publish_hashes();
        }
        self.coord.barrier.wait(); // hashes published
        if self.cfg.mode == Mode::Convergent {
            for w in &self.ws {
                w.check_convergence(e);
            }
        }
    }
}

impl<'a, T, E> Worker<'a, T, E>
where
    T: Adt + Clone + Sync,
    T::Input: Wire + Send + Sync,
    T::Output: Send,
    T::State: Wire + Send + Sync,
    E: EndpointApi<StoreMsg<T::Input, T::Output, T::State>>,
{
    /// The run is over: flush whatever accrued since the last epoch
    /// close once, and hand back the worker's result.
    pub(super) fn finish(self) -> WorkerResult {
        let mut counters = self.counters();
        let chaos = self.ep.counters();
        let taps = self.taps.finish(self.ep.events_overflow());
        counters.spans_dropped = taps.trace.1;
        counters.monitor_ops_checked = taps.monitor.ops_checked;
        counters.monitor_escalations = taps.monitor.escalations;
        counters.monitor_ns = taps.monitor_ns;
        self.published.publish(&counters.since(&self.prev));
        WorkerResult {
            worker: self.me,
            counters,
            chaos,
            recoveries: self.recoveries,
            rows: self.rows,
            taps,
        }
    }
    /// The cumulative block as of now: the worker's own counts plus
    /// what the causal layer, the fault layer, the durable log and the
    /// object table count themselves.
    pub(super) fn counters(&self) -> Counters {
        let f = self.ep.counters();
        let d = self.taps.log_counts();
        Counters {
            batches: self.proto.batches_sent(),
            payloads: self.proto.payloads_sent(),
            envelope_bufs_reused: self.proto.bufs_reused(),
            envelope_bufs_pooled: self.proto.bufs_pooled(),
            envelope_bufs_allocated: self.proto.bufs_allocated(),
            durable_records: d.records,
            durable_runs: d.runs,
            durable_bytes: d.bytes,
            durable_write_syscalls: d.write_syscalls,
            durable_syncs: d.syncs,
            faults: f.drops + f.dups + f.parked + f.delayed + f.pruned + f.crash_discarded,
            refolds: self.table.refolds,
            refold_steps: self.table.refold_steps,
            absorbed: self.table.absorbed,
            ..self.c
        }
    }

    /// At a drain that closes `epoch`: seal the trace through
    /// `seal_through`, difference the counter block into the epoch's
    /// deterministic row, and feed the delta (plus the epoch's latency
    /// buckets) into the shared registry — the "merge at drain
    /// rendezvous" half of the metrics contract.
    pub(super) fn close_epoch(&mut self, epoch: u64, seal_through: u64) {
        let faults = self.ep.take_events();
        self.taps
            .seal_epoch(seal_through, faults, self.sched.every_ops as u64);
        let cur = self.counters();
        let delta = cur.since(&self.prev);
        self.rows
            .push(delta.epoch_row(epoch, self.sched.crashed_at(self.me, epoch)));
        self.published.publish(&delta);
        self.prev = cur;
        self.taps
            .merge_latency(self.c.ops, &self.published.op_latency);
    }

    /// Own events this worker records in epoch `e`'s window.
    pub(super) fn window_quota(&self, e: u64, my_ops: usize) -> usize {
        if e == 0 || self.crashed {
            0
        } else {
            self.cfg.verify.window_ops.min(my_ops)
        }
    }

    /// Per-epoch setup: the fault layer's clock jumps to the boundary
    /// tick, and the read-routing table is rebuilt — a live replica per
    /// shard, deterministic: every worker derives the same table from
    /// the shared schedule.
    pub(super) fn enter_epoch(&mut self, e: u64) {
        self.ep.advance_to(e * self.sched.every_ops as u64);
        self.read_route = (0..self.map.shards())
            .map(|s| {
                *self
                    .map
                    .replicas(s)
                    .iter()
                    .find(|&&q| !self.sched.crashed_at(q, e))
                    .expect("validated: every shard keeps a live replica")
            })
            .collect();
    }

    /// The tail of the boundary opening epoch `e`, once its drain,
    /// recovery and convergence check are done: epoch `e - 1` is over
    /// everywhere (its repair round included), so seal its spans and
    /// difference its metrics row, then open window `e - 1`.
    fn open_epoch(&mut self, e: u64, spans_recovery: bool) {
        self.close_epoch(e - 1, e - 1);
        self.taps.open_epoch(e, spans_recovery);
        let wid = e - 1;
        if self.crashed {
            self.taps.crashed_window(wid);
        } else {
            let quota = self.window_quota(e, self.sched.ops_of(self.me, e));
            self.taps
                .open_window(wid, quota, self.table.snapshot(), spans_recovery);
        }
    }

    /// This worker's cut descriptor for a durable seal: everything a
    /// restart needs to continue from the cut (script position,
    /// Lamport clock, delivered frontier, state hash, monitor
    /// counters).
    pub(super) fn seal_info(&self, epoch: u64, boundary: bool) -> SealInfo {
        SealInfo {
            epoch,
            boundary,
            issued: self.c.ops,
            lamport: self.clock.now(),
            delivered: self.proto.delivered_edges().to_vec(),
            state_hash: self.table.state_hash(),
            monitor: self.taps.monitor_stats(),
        }
    }

    /// The drain's first phase at this worker: flush, send the cut
    /// token, publish the per-edge counts. A worker that is down only
    /// sends the token and publishes.
    fn publish_cut(&mut self) {
        self.quiesce_idx += 1;
        if !self.discarding {
            self.flush_all();
            self.ep.flush_delayed(); // held-back sends belong to this cut
        }
        // cut token behind everything this worker actually transmitted:
        // receivers wait for it before judging per-edge gaps, so an
        // asynchronous transport's in-flight frames are never mistaken
        // for faulted ones (no-op on the synchronous thread transport)
        self.ep.send_marker();
        let n = self.ep.cluster_size();
        for r in 0..n {
            if r != self.me {
                self.coord.sent_edges[self.me * n + r]
                    .store(self.proto.edge_sent(r), Ordering::SeqCst);
            }
        }
    }

    /// Is the transport settled for this cut? Every peer has published
    /// its cut and sent its token behind its final transmissions, so
    /// once all tokens are in, what has not arrived never will. A
    /// worker that is down does not judge gaps.
    fn settled(&self) -> bool {
        self.discarding
            || (0..self.ep.cluster_size())
                .all(|q| q == self.me || self.ep.marker_count(q) >= self.quiesce_idx)
    }

    /// Everything sent for this cut is on the wire; whatever was not
    /// *received* after one more pump was dropped or parked by the
    /// fault layer — nack each such edge once. The received count
    /// (delivered + buffered) is used rather than the delivered count:
    /// an envelope stuck behind a lost dependency counts as received,
    /// so the nack set is a pure function of the loss pattern, not of
    /// interleaving.
    fn nack_gaps(&mut self) {
        if self.discarding {
            return;
        }
        self.pump();
        let n = self.ep.cluster_size();
        for q in 0..n {
            if q != self.me
                && self.proto.received_from(q)
                    < self.coord.sent_edges[q * n + self.me].load(Ordering::SeqCst)
            {
                self.c.nacks += 1;
                self.taps
                    .nack_repair(self.quiesce_idx * n as u64 + q as u64, q, None);
                self.ep.send_reliable(q, StoreMsg::Nack, nack_bytes());
            }
        }
    }

    /// Has this worker delivered every envelope published to it? A
    /// worker that is down has nothing to deliver.
    fn complete(&self) -> bool {
        self.discarding
            || (0..self.ep.cluster_size()).all(|q| q == self.me || !self.missing_from(q))
    }

    /// Past the closing barrier, drain `cut` (started at `t`) is
    /// complete everywhere: seal it, and drop what only a repair could
    /// have needed.
    fn seal_cut(&mut self, t: Instant, cut: (u64, bool)) {
        let live = !self.discarding;
        self.c.drains += 1;
        let seal = (live && self.taps.logging()).then(|| self.seal_info(cut.0, cut.1));
        self.taps.cut(
            t,
            self.quiesce_idx,
            live,
            (self.c.delivered, self.c.nacks),
            seal,
            &self.table,
        );
        // the cut is complete everywhere: the repair logs are dead
        // weight, and parked sends' payloads have been repaired (the
        // partition itself stays in force for post-drain traffic)
        for log in self.epoch_sent.iter_mut() {
            log.clear();
        }
        self.ep.prune_parked();
    }

    /// Has `q` published envelopes on its edge to us that we have not
    /// delivered?
    fn missing_from(&self, q: NodeId) -> bool {
        self.proto.delivered_edges()[q]
            < self.coord.sent_edges[q * self.ep.cluster_size() + self.me].load(Ordering::SeqCst)
    }

    /// A peer nacked our edge to it: retransmit the whole per-edge
    /// epoch log. Which prefix the nacker already delivered depends on
    /// interleaving, and its duplicate suppression discards the rest —
    /// so the repair size stays deterministic.
    pub(super) fn serve_nack(&mut self, from: NodeId) {
        let tail: Vec<BatchMsg<T::Input>> = self.epoch_sent[from].clone();
        self.c.repairs += 1;
        self.c.repaired_batches += tail.len() as u64;
        // same logical key the nacker used for this edge: nacks are
        // served within the drain that sent them
        let n = self.ep.cluster_size() as u64;
        self.taps
            .nack_repair(self.quiesce_idx * n + from as u64, from, Some(tail.len()));
        let bytes = repair_bytes(&tail);
        self.ep.send_reliable(from, StoreMsg::Repair(tail), bytes);
    }

    /// The first half of a convergence check: compact arbitration
    /// logs and publish this replica's per-hosted-shard state hashes.
    fn publish_hashes(&mut self) {
        if !self.crashed {
            self.table.compact();
            self.taps.compacted(); // same cut, same argument
        }
        let shards = self.map.shards();
        for &s in self.map.hosted(self.me) {
            self.coord.shard_hashes[self.me * shards + s].store(
                self.table.shard_hash(self.map.slots_of(s)),
                Ordering::SeqCst,
            );
        }
    }

    /// The second half, once every hash is published: as the first
    /// live replica of a shard, record a divergence if the shard's live
    /// replicas disagree.
    fn check_convergence(&self, e: u64) {
        let shards = self.map.shards();
        let hashes = &self.coord.shard_hashes;
        for s in 0..shards {
            let mut live = self
                .map
                .replicas(s)
                .iter()
                .filter(|&&q| !self.sched.crashed_at(q, e));
            if live.next() == Some(&self.me) {
                let h0 = hashes[self.me * shards + s].load(Ordering::SeqCst);
                if live.any(|&q| hashes[q * shards + s].load(Ordering::SeqCst) != h0) {
                    self.coord.divergences.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::worker::tests::Rig;

    /// What reaches a worker that is down is dropped unprocessed,
    /// counted, and published by name — the non-zero case no correct
    /// run produces (peers stop addressing a crashed worker at its cut;
    /// see `tests/tap_seam.rs`).
    #[test]
    fn a_discard_drain_counts_what_it_drops() {
        let rig = Rig::new();
        let (mut w, peer) = rig.worker();
        for _ in 0..3 {
            peer.send_sized(0, StoreMsg::Nack, nack_bytes());
        }
        w.discarding = true;
        w.pump();
        assert_eq!(w.c.discarded, 3);
        assert_eq!(w.c.repairs, 0, "nothing was served");
        rig.published.publish(&w.counters().since(&w.prev));
        assert!(rig
            .registry
            .snapshot()
            .contains(&("msgs_discarded_total".to_string(), 3)));
    }

    /// A worker whose plan cannot lose an envelope between live
    /// replicas keeps no repair log, so a nack reaching it is a
    /// protocol bug: counted as discarded (and tripping the debug
    /// assertion), never answered with an empty repair its nacker
    /// would wait on for ever.
    #[test]
    fn a_nack_no_repair_log_can_answer_is_discarded() {
        let rig = Rig::new();
        let (mut w, peer) = rig.worker();
        assert!(!w.keeps_repair_log, "the rig's plan is fault-free");
        peer.send_sized(0, StoreMsg::Nack, nack_bytes());
        let pumped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.pump()));
        assert_eq!(pumped.is_err(), cfg!(debug_assertions));
        assert_eq!((w.c.discarded, w.c.repairs), (1, 0));
        assert!(peer.try_recv().is_none(), "nothing was sent back");
    }

    /// A worker thread that unwinds raises the flag, and another
    /// thread's group wait then fails instead of spinning for ever on
    /// what it will never send.
    #[test]
    fn a_wait_fails_once_a_peer_has_unwound() {
        let rig = Rig::new();
        let (w, _peer) = rig.worker();
        let mut host = Host::new(vec![w]);
        let coord = &rig.coord;
        let unwound = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = PanicGuard(coord);
                panic!("a worker bug");
            })
            .join()
        });
        assert!(unwound.is_err() && coord.panicked.load(Ordering::SeqCst));
        let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            host.wait(|_| false);
        }));
        let msg = waited.expect_err("the wait failed");
        assert_eq!(msg.downcast_ref::<&str>(), Some(&"a peer worker panicked"));
    }
}
