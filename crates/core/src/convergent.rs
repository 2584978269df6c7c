//! [`ConvergentShared`]: the Fig. 5 algorithm generalized from
//! window-stream arrays to any abstract data type.
//!
//! Fig. 5 builds "a total order on the write operations on which all
//! the participants agree, and sorts the corresponding values in the
//! local state of each process with respect to this total order"
//! (§6.3). For a window stream, sorting the last `k` timestamped values
//! *is* the state; for an arbitrary ADT the same idea becomes an
//! **arbitrated operation log**: every update is timestamped with a
//! Lamport pair `(vt, pid)`, replicated through the causal broadcast,
//! and inserted in timestamp order into a log whose fold (from the
//! initial state, through `δ`) is the replica's current state. Queries
//! evaluate `λ` on that fold.
//!
//! Timestamps extend the causal order (`happened-before ⇒ smaller
//! timestamp`, because broadcasts tick the clock and deliveries
//! observe it), so the common total order contains a causal order —
//! Proposition 7's argument carries over: every history is causally
//! convergent, and replicas that have delivered the same updates hold
//! identical states (strong convergence). Both facts are re-verified on
//! recorded executions by `cbm-check`.
//!
//! ## Cost
//!
//! A remote update ordered before logged ones must *undo* their effect:
//! the log (`cbm_adt::arbitration::ArbLog`) replays from its last
//! checkpoint before the insert, one every 32 entries, so a delivery
//! costs at most 32 steps plus the entries it is ordered before. An
//! update that overwrites the whole state (a register write) ends the
//! log, and one ordered before it is absorbed unlogged. The live store
//! shares the log. Its registers never refold, so the benchmark's
//! `convergent_hot` workload reads a `refold_share` of 0; the loadgen
//! quick leg `ccv-4w-64o-b8-ctr-quick` runs a counter space, whose
//! increments never overwrite, and its summary's "Arbitration refolds"
//! table counts the refolds and the steps they replay.

use crate::replica::{
    causal_broadcast, causal_size, stamped_size, InvokeOutcome, Outgoing, Replica, Stamped,
};
use cbm_adt::arbitration::ArbLog;
use cbm_adt::Adt;
use cbm_net::broadcast::{InterestBatchCausalBroadcast, InterestMsg};
use cbm_net::clock::{LamportClock, Timestamp};
use cbm_net::NodeId;

/// A timestamped update as shipped and logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArbUpdate<I> {
    /// Arbitration timestamp `(vt, pid)`.
    pub ts: Timestamp,
    /// Stamped input.
    pub op: Stamped<I>,
}

/// A causally convergent replica of any ADT (generalized Fig. 5).
#[derive(Debug, Clone)]
pub struct ConvergentShared<T: Adt> {
    adt: T,
    me: NodeId,
    /// Cluster size (kept for introspection and debug assertions).
    pub n: usize,
    clock: LamportClock,
    bcast: InterestBatchCausalBroadcast<ArbUpdate<T::Input>>,
    /// Update log keyed by timestamp, relative to the fold of
    /// every compacted (garbage-collected) update.
    log: ArbLog<Timestamp, T>,
    /// `(timestamp, event)` of every update applied, own and
    /// delivered: the arbitration witness, which the log's keys are
    /// not once it compacts or absorbs.
    applied: Vec<(Timestamp, u64)>,
    /// Fold of the compaction base and the whole log (the query state).
    head: T::State,
    /// Number of compacted updates (diagnostics).
    compacted: u64,
    /// Highest update timestamp received from each peer (stability
    /// tracking for compaction).
    peer_time: Vec<u64>,
    /// Compact once at least this many stable entries accumulated;
    /// `None` disables compaction (the default).
    compact_chunk: Option<usize>,
}

impl<T: Adt> ConvergentShared<T> {
    /// Enable stability-based log compaction: once at least `chunk`
    /// log entries are *stable* they are folded into a base state and
    /// dropped, bounding memory like the verbatim Fig. 5 object does
    /// for window streams.
    ///
    /// An entry `(t, p)` is stable when every peer has been observed at
    /// a Lamport time strictly greater than `t`: per-sender timestamps
    /// are strictly increasing and FIFO-delivered, so no future arrival
    /// can sort at or before the entry. A silent (or crashed) peer
    /// therefore blocks compaction — the standard stability trade-off.
    #[cfg(test)]
    pub(crate) fn with_compaction(mut self, chunk: usize) -> Self {
        self.compact_chunk = Some(chunk.max(1));
        self
    }

    /// Updates folded away by compaction so far.
    #[cfg(test)]
    pub(crate) fn compacted(&self) -> u64 {
        self.compacted
    }

    /// The stability horizon: every update with `ts.time` strictly
    /// below this is immune to reordering by future arrivals.
    fn stability_horizon(&self) -> u64 {
        (0..self.n)
            .filter(|&p| p != self.me)
            .map(|p| self.peer_time[p])
            .min()
            .unwrap_or(0)
            .min(self.clock.now())
    }

    /// Fold the stable prefix into the log's seed when large enough.
    fn maybe_compact(&mut self) {
        let Some(chunk) = self.compact_chunk else {
            return;
        };
        let horizon = self.stability_horizon();
        let stable = self.log.keys().take_while(|k| k.time < horizon).count();
        if stable >= chunk {
            self.log.compact_prefix(&self.adt, stable);
            self.compacted += stable as u64;
        }
    }

    /// Number of updates in the arbitrated log.
    #[cfg(test)]
    pub(crate) fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Evaluate a query on the current fold without recording.
    #[cfg(test)]
    pub(crate) fn peek(&self, input: &T::Input) -> T::Output {
        self.adt.output(&self.head, input)
    }
}

impl<T: Adt> Replica<T> for ConvergentShared<T> {
    type Msg = InterestMsg<Vec<ArbUpdate<T::Input>>>;

    fn new_replica(me: NodeId, n: usize, adt: T) -> Self {
        let init = adt.initial();
        ConvergentShared {
            adt,
            me,
            n,
            clock: LamportClock::new(),
            bcast: InterestBatchCausalBroadcast::new(me, n),
            log: ArbLog::new(init.clone()),
            applied: Vec::new(),
            head: init,
            compacted: 0,
            peer_time: vec![0; n],
            compact_chunk: None,
        }
    }

    fn invoke(
        &mut self,
        event: u64,
        input: &T::Input,
        out: &mut Vec<Outgoing<Self::Msg>>,
    ) -> InvokeOutcome<T::Output> {
        let output = self.adt.output(&self.head, input);
        if self.adt.is_update(input) {
            let ts = Timestamp::new(self.clock.tick(), self.me);
            // own timestamp is the largest seen locally: tail append
            self.log
                .insert(&self.adt, &mut self.head, ts, input.clone());
            self.applied.push((ts, event));
            let op = Stamped {
                event,
                input: input.clone(),
            };
            causal_broadcast(&mut self.bcast, ArbUpdate { ts, op }, out);
        }
        InvokeOutcome::Done(output)
    }

    fn on_deliver(
        &mut self,
        _from: NodeId,
        msg: Self::Msg,
        _out: &mut Vec<Outgoing<Self::Msg>>,
        _completed: &mut Vec<(u64, T::Output)>,
        applied: &mut Vec<u64>,
    ) {
        for mut m in self.bcast.on_receive(msg) {
            for ArbUpdate { ts, op } in m.payload.drain(..) {
                self.clock.observe(ts.time);
                self.peer_time[m.sender] = self.peer_time[m.sender].max(ts.time);
                applied.push(op.event);
                self.applied.push((ts, op.event));
                self.log.insert(&self.adt, &mut self.head, ts, op.input);
            }
            self.bcast.recycle(m);
        }
        self.maybe_compact();
    }

    fn local_state(&self) -> T::State {
        self.head.clone()
    }

    fn msg_size(&self, msg: &Self::Msg) -> usize {
        // exact causal header + timestamp (10 bytes) + estimated
        // stamped payload
        causal_size(msg, 10 + stamped_size(16))
    }

    fn flavour() -> &'static str {
        "convergent (CCv, Fig. 5 generalized)"
    }

    fn arbitration_hint(&self) -> Option<Vec<(Timestamp, u64)>> {
        Some(self.applied.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::deliver_each;
    use cbm_adt::arbitration::CHECKPOINT_INTERVAL;
    use cbm_adt::window::{WaInput, WaOutput, WindowArray};
    use cbm_adt::Value;

    type Rep = ConvergentShared<WindowArray>;

    /// The event ids of the updates `r` applied, in timestamp order.
    pub(super) fn arbitration<T: Adt>(r: &ConvergentShared<T>) -> Vec<u64> {
        let mut applied = r.applied.clone();
        applied.sort_unstable();
        applied.into_iter().map(|(_, event)| event).collect()
    }

    fn cluster(n: usize) -> Vec<Rep> {
        (0..n)
            .map(|me| Rep::new_replica(me, n, WindowArray::new(1, 2)))
            .collect()
    }

    fn read0(r: &mut Rep) -> Vec<Value> {
        match r.peek(&WaInput::Read(0)) {
            WaOutput::Window(w) => w,
            _ => unreachable!(),
        }
    }

    #[test]
    fn concurrent_writes_converge_to_the_same_order() {
        // The convergence that CausalShared lacks (cf. Fig. 3c vs 3a).
        let mut reps = cluster(2);
        let mut out0 = Vec::new();
        let mut out1 = Vec::new();
        reps[0].invoke(0, &WaInput::Write(0, 1), &mut out0);
        reps[1].invoke(1, &WaInput::Write(0, 2), &mut out1);
        deliver_each(&mut reps, 0, out0);
        deliver_each(&mut reps, 1, out1);
        let a = read0(&mut reps[0]);
        let b = read0(&mut reps[1]);
        assert_eq!(a, b, "replicas must converge");
        // both timestamps are (1, pid): pid breaks the tie, p0 first
        assert_eq!(a, vec![1, 2]);
    }

    #[test]
    fn late_old_update_is_sorted_into_place() {
        let mut reps = cluster(2);
        // p1 writes 5 values first (clock runs ahead)
        let mut outs1 = Vec::new();
        for v in 10..15 {
            let mut o = Vec::new();
            reps[1].invoke(v, &WaInput::Write(0, v), &mut o);
            outs1.extend(o);
        }
        // p0 concurrently writes one value with clock 1: globally oldest
        let mut out0 = Vec::new();
        reps[0].invoke(0, &WaInput::Write(0, 99), &mut out0);
        // p0 receives p1's writes after its own
        deliver_each(&mut reps, 1, outs1);
        deliver_each(&mut reps, 0, out0);
        let a = read0(&mut reps[0]);
        let b = read0(&mut reps[1]);
        assert_eq!(a, b);
        // 99 has timestamp (1, 0): older than (4,1)/(5,1): it is NOT in
        // the last-2 window
        assert_eq!(a, vec![13, 14]);
    }

    #[test]
    fn happened_before_respected_in_arbitration() {
        let mut reps = cluster(2);
        let mut out0 = Vec::new();
        reps[0].invoke(0, &WaInput::Write(0, 1), &mut out0);
        deliver_each(&mut reps, 0, out0);
        // p1 writes after seeing p0's write: must arbitrate later
        let mut out1 = Vec::new();
        reps[1].invoke(1, &WaInput::Write(0, 2), &mut out1);
        deliver_each(&mut reps, 1, out1);
        for r in reps.iter_mut() {
            assert_eq!(read0(r), vec![1, 2]);
        }
        assert_eq!(arbitration(&reps[0]), vec![0, 1]);
        assert_eq!(arbitration(&reps[1]), vec![0, 1]);
    }

    #[test]
    fn checkpoints_survive_long_logs() {
        let mut reps = cluster(2);
        let total = 3 * CHECKPOINT_INTERVAL + 7;
        let mut all_out = Vec::new();
        for i in 0..total {
            let mut o = Vec::new();
            reps[0].invoke(i as u64, &WaInput::Write(0, i as u64), &mut o);
            all_out.extend(o);
        }
        deliver_each(&mut reps, 0, all_out);
        assert_eq!(reps[1].log_len(), total);
        let a = read0(&mut reps[0]);
        let b = read0(&mut reps[1]);
        assert_eq!(a, b);
        assert_eq!(a, vec![(total - 2) as u64, (total - 1) as u64]);
    }

    #[test]
    fn reads_do_not_grow_the_log() {
        let mut reps = cluster(1);
        let mut out = Vec::new();
        reps[0].invoke(0, &WaInput::Read(0), &mut out);
        assert!(out.is_empty());
        assert_eq!(reps[0].log_len(), 0);
    }

    #[test]
    fn three_replicas_pairwise_converge_under_adversarial_delivery() {
        let mut reps = cluster(3);
        let mut envs = Vec::new();
        for (i, v) in [(0usize, 7u64), (1, 8), (2, 9), (0, 10), (2, 11)] {
            let mut o = Vec::new();
            reps[i].invoke(v, &WaInput::Write(0, v), &mut o);
            envs.extend(o.into_iter().map(|m| (i, m)));
        }
        // deliver in reverse creation order to everyone (causal
        // broadcast re-sequences as needed)
        for (from, m) in envs.into_iter().rev() {
            deliver_each(&mut reps, from, vec![m]);
        }
        let a = read0(&mut reps[0]);
        let b = read0(&mut reps[1]);
        let c = read0(&mut reps[2]);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }
}

#[cfg(test)]
mod register_tests {
    use super::tests::arbitration;
    use super::*;
    use crate::replica::deliver_each;
    use cbm_adt::register::{RegInput, RegOutput, Register};

    /// A write older than the newest one is absorbed, not logged, yet
    /// the witness still lists it in timestamp order.
    #[test]
    fn the_witness_lists_writes_the_log_absorbed() {
        let mut reps: Vec<ConvergentShared<Register>> = (0..2)
            .map(|me| ConvergentShared::new_replica(me, 2, Register))
            .collect();
        // p1 runs ahead: (1, 1), (2, 1), (3, 1)
        let mut outs1 = Vec::new();
        for event in 1..4 {
            reps[1].invoke(event, &RegInput::Write(event), &mut outs1);
        }
        // p0 concurrently writes at (1, 0): the globally oldest
        let mut out0 = Vec::new();
        reps[0].invoke(0, &RegInput::Write(99), &mut out0);
        deliver_each(&mut reps, 1, outs1);
        deliver_each(&mut reps, 0, out0);
        for r in &reps {
            assert_eq!(r.peek(&RegInput::Read), RegOutput::Val(3));
            assert_eq!(r.log_len(), 1, "only the newest write is logged");
            assert_eq!(arbitration(r), vec![0, 1, 2, 3]);
        }
    }
}

#[cfg(test)]
mod compaction_tests {
    use super::*;
    use crate::replica::copy_for;
    use cbm_adt::counter::{Counter, CtInput, CtOutput};

    type Rep = ConvergentShared<Counter>;

    /// Drive two replicas through `rounds` of alternating increments
    /// with immediate cross-delivery; return (compacting, plain).
    fn run_pair(rounds: usize, chunk: usize) -> (Rep, Rep) {
        let mut a: Rep = Rep::new_replica(0, 2, Counter).with_compaction(chunk);
        let mut b: Rep = Rep::new_replica(1, 2, Counter);
        for i in 0..rounds as u64 {
            let (src, dst, me) = if i % 2 == 0 {
                (&mut a, &mut b, 0)
            } else {
                (&mut b, &mut a, 1)
            };
            let mut out = Vec::new();
            src.invoke(i, &CtInput::Add(1), &mut out);
            let env = copy_for(&out, 1 - me);
            dst.on_deliver(me, env, &mut Vec::new(), &mut Vec::new(), &mut Vec::new());
        }
        (a, b)
    }

    #[test]
    fn compaction_preserves_state_and_bounds_memory() {
        let (a, b) = run_pair(400, 16);
        assert_eq!(a.peek(&CtInput::Read), CtOutput::Val(400));
        assert_eq!(b.peek(&CtInput::Read), CtOutput::Val(400));
        assert_eq!(a.local_state(), b.local_state());
        // the compacting replica dropped most of its log...
        assert!(a.compacted() > 300, "compacted {}", a.compacted());
        assert!(
            a.log_len() < 100,
            "log should stay bounded, got {}",
            a.log_len()
        );
        // ... while the plain one kept everything
        assert_eq!(b.log_len(), 400);
        assert_eq!(b.compacted(), 0);
    }

    #[test]
    fn silent_peer_blocks_compaction() {
        // three replicas, one never speaks: stability never advances
        let mut a: Rep = Rep::new_replica(0, 3, Counter).with_compaction(4);
        let mut b: Rep = Rep::new_replica(1, 3, Counter);
        for i in 0..50u64 {
            let mut out = Vec::new();
            b.invoke(i, &CtInput::Add(1), &mut out);
            let env = copy_for(&out, 0);
            a.on_deliver(1, env, &mut Vec::new(), &mut Vec::new(), &mut Vec::new());
        }
        // peer 2 was silent: horizon stuck at 0, nothing compacted
        assert_eq!(a.compacted(), 0);
        assert_eq!(a.log_len(), 50);
    }

    #[test]
    fn compaction_disabled_by_default() {
        let (_, b) = run_pair(64, 1);
        assert_eq!(b.compacted(), 0);
        let c: Rep = Rep::new_replica(0, 2, Counter);
        assert!(c.compact_chunk.is_none());
    }

    #[test]
    fn late_straggler_sorts_after_compacted_prefix() {
        // a delivers b's updates; once compacted, a further update from
        // b (necessarily newer per FIFO + strict timestamps) must apply
        // cleanly on top of the base
        let (mut a, mut b) = run_pair(100, 8);
        let before = a.compacted();
        assert!(before > 0);
        let mut out = Vec::new();
        b.invoke(1000, &CtInput::Add(5), &mut out);
        let env = copy_for(&out, 0);
        a.on_deliver(1, env, &mut Vec::new(), &mut Vec::new(), &mut Vec::new());
        // 100 increments from the pair run + the straggler's 5
        assert_eq!(a.peek(&CtInput::Read), CtOutput::Val(105));
    }
}
