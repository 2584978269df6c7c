//! Sender-side fault injection for the real-thread transport.
//!
//! [`crate::sim::SimNet`] owns a global virtual clock, so it can apply
//! faults centrally. A [`crate::thread_net::ThreadNet`] has no global
//! time — only the OS scheduler — so reproducible fault injection has
//! to live where determinism lives: **on the send path**, keyed to the
//! sending worker's own operation counter. [`ChaosEndpoint`] wraps an
//! [`Endpoint`](crate::endpoint::Endpoint) with exactly that:
//!
//! * **probabilistic drop/dup** — rolled from a per-endpoint seeded
//!   RNG at each send; the send sequence is a pure function of the
//!   workload seed, so loss and duplication patterns reproduce exactly
//!   per `(config, seed)` even though wall-clock interleaving varies;
//! * **partitions park-and-release** — a blocked link parks outbound
//!   messages; they re-enter when the link heals (mid-epoch heals
//!   release them immediately) or are pruned at the next drain, where
//!   the store engine's nack/repair round re-delivers their payloads
//!   (`docs/CHAOS.md` covers the split);
//! * **latency degradation and clock skew** — outbound messages are
//!   held back for a number of *operation ticks* instead of wall
//!   time, keeping delays deterministic;
//! * **crash with in-flight drop** — crashing discards the endpoint's
//!   parked and held-back outbound immediately, and peers that know
//!   the node is down (the store engine shares the fault schedule, so
//!   everyone agrees at drain boundaries) suppress sends to it,
//!   counting each suppressed copy as a drop to that node.
//!
//! Per-recipient drop/dup counts land in the shared lock-free
//! [`crate::thread_net::ThreadNetStats`]. Repair and state-transfer
//! traffic uses [`ChaosEndpoint::send_reliable`], which bypasses the
//! fault state entirely — chaos applies to the replication fast path,
//! never to the recovery protocol (a real system re-establishes a TCP
//! stream for catch-up; see `docs/CHAOS.md` for the contract).
//!
//! Its fault state is its own row of the [`Links`] table the simulator
//! holds whole, so one [`FaultPlan`] means the same thing on both:
//! each endpoint replays the full plan through
//! `ChaosEndpoint::apply`, and the table keeps what concerns it (its
//! own outbound links, everyone's liveness and clock skew).
//!
//! ## The operation clock
//!
//! The endpoint owns its clock: the owner calls [`ChaosEndpoint::tick`]
//! once per operation (and [`ChaosEndpoint::advance_to`] to jump to a
//! boundary), and every fault roll, hold-back deadline and recorded
//! event reads that one counter — so it is current by construction,
//! whatever the tick had to do. What a tick has to do is almost always
//! nothing, so it is one compare against the cached next tick at which
//! anything is due: the next event of the installed plan
//! ([`ChaosEndpoint::schedule`]) or the earliest held-back send. Only
//! this module changes what that cache summarises, so only this module
//! maintains it.
//!
//! [`FaultPlan`]: crate::fault::FaultPlan

use crate::endpoint::Endpoint as EndpointApi;
use crate::fault::{Effect, Fault, FaultSchedule, Links};
#[cfg(test)]
use crate::thread_net::ThreadNetStats;
use crate::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::Ordering;
#[cfg(test)]
use std::sync::Arc;

/// A message parked on a blocked outbound link.
struct Parked<M> {
    to: NodeId,
    msg: M,
    bytes: usize,
}

/// A message held back by a latency fault, due at an operation tick.
struct Delayed<M> {
    due: u64,
    to: NodeId,
    msg: M,
    bytes: usize,
}

/// Local (single-owner, non-atomic) chaos accounting for one endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Sends lost to probabilistic drops or crashed recipients.
    pub drops: u64,
    /// Extra copies injected by duplication faults.
    pub dups: u64,
    /// Sends parked on blocked links.
    pub parked: u64,
    /// Parked sends released by a heal.
    pub released: u64,
    /// Parked sends pruned at a drain (payload re-delivered by the
    /// engine's repair round, the parked copy discarded).
    pub pruned: u64,
    /// Sends held back by latency faults.
    pub delayed: u64,
    /// Outbound messages discarded by this endpoint crashing.
    pub crash_discarded: u64,
}

/// Kind of an injected fault, for trace recording. The numeric
/// [`code`](ChaosEventKind::code) is what `fault` trace spans carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosEventKind {
    /// A copy lost (probabilistic drop or crashed recipient).
    Drop,
    /// An extra copy injected.
    Dup,
    /// A send parked on a blocked link.
    Park,
    /// A parked send released by a heal.
    Release,
    /// A parked send pruned at a drain.
    Prune,
    /// A send held back by a latency fault.
    Delay,
    /// An outbound message discarded by this endpoint crashing.
    CrashDiscard,
}

impl ChaosEventKind {
    /// Stable numeric code (0..=6, in declaration order).
    pub fn code(self) -> u64 {
        self as u64
    }
}

/// One recorded fault injection: what happened, to which recipient, at
/// which operation tick of the injecting endpoint. Every field is a
/// pure function of `(config, seed)` — the injection sequence is
/// keyed to the sender's own deterministic operation clock — so
/// recorded events are safe to include in byte-compared trace output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Operation tick of the injecting endpoint at injection time.
    pub vtime: u64,
    /// Recipient the affected message was addressed to.
    pub to: NodeId,
    /// What was injected.
    pub kind: ChaosEventKind,
}

/// An endpoint with a deterministic sender-side fault layer.
///
/// Generic over the transport: any [`EndpointApi`] implementation
/// (in-process [`crate::thread_net::Endpoint`], which the type
/// parameter defaults to, or a real-socket
/// [`crate::tcp::TcpEndpoint`]) gets the identical fault vocabulary —
/// the rolls are keyed to the sender's seeded RNG and operation clock,
/// never to the transport, so a chaos profile reproduces the same
/// injection sequence over threads and over TCP.
pub struct ChaosEndpoint<M, E = crate::thread_net::Endpoint<M>> {
    ep: E,
    /// The operation clock (see the module docs).
    vtime: u64,
    /// The link-fault plan replayed on that clock.
    plan: FaultSchedule,
    /// The next tick with work for the clock: the plan's next event or
    /// the earliest held-back send (`u64::MAX` when neither). May run
    /// early after held-back sends are flushed or discarded — a due
    /// tick with nothing to do just re-arms it.
    next_due: u64,
    /// This endpoint's row of the fault table.
    links: Links,
    rng: StdRng,
    parked: Vec<Parked<M>>,
    delayed: Vec<Delayed<M>>,
    counters: ChaosCounters,
    /// Fault-event recording (observability): disabled unless
    /// [`ChaosEndpoint::record_events`] sets a nonzero cap. Recording
    /// mirrors the counter increments one-to-one and never perturbs
    /// the fault rolls, so enabling it cannot change behaviour.
    events: Vec<ChaosEvent>,
    event_cap: usize,
    events_overflow: u64,
}

impl<M: Clone + Send, E: EndpointApi<M>> ChaosEndpoint<M, E> {
    /// Wrap `ep` with a fault layer whose probabilistic rolls are
    /// seeded by `seed` (derive it from the run seed and the node id
    /// so endpoints roll independent, reproducible streams).
    pub fn new(ep: E, seed: u64) -> Self {
        ChaosEndpoint {
            links: Links::row(ep.me(), ep.cluster_size()),
            ep,
            vtime: 0,
            plan: FaultSchedule::default(),
            next_due: u64::MAX,
            rng: StdRng::seed_from_u64(seed),
            parked: Vec::new(),
            delayed: Vec::new(),
            counters: ChaosCounters::default(),
            events: Vec::new(),
            event_cap: 0,
            events_overflow: 0,
        }
    }

    /// Enable fault-event recording, retaining at most `cap` events
    /// between [`take_events`](ChaosEndpoint::take_events) calls
    /// (`0` disables). Events past the cap are counted in
    /// [`events_overflow`](ChaosEndpoint::events_overflow) instead.
    pub fn record_events(&mut self, cap: usize) {
        self.event_cap = cap;
    }

    /// Drain the recorded fault events (injection order, which is the
    /// endpoint's deterministic send order).
    pub fn take_events(&mut self) -> Vec<ChaosEvent> {
        std::mem::take(&mut self.events)
    }

    /// Events lost to the recording cap so far.
    pub fn events_overflow(&self) -> u64 {
        self.events_overflow
    }

    /// Count one injection (per-recipient drops and duplicates also in
    /// the shared transport statistics) and record it if recording is
    /// on.
    fn note(&mut self, kind: ChaosEventKind, to: NodeId) {
        let c = &mut self.counters;
        match kind {
            ChaosEventKind::Drop => {
                c.drops += 1;
                self.ep.stats().dropped_per_node[to].fetch_add(1, Ordering::Relaxed);
            }
            ChaosEventKind::Dup => {
                c.dups += 1;
                self.ep.stats().dup_per_node[to].fetch_add(1, Ordering::Relaxed);
            }
            ChaosEventKind::Park => c.parked += 1,
            ChaosEventKind::Release => c.released += 1,
            ChaosEventKind::Prune => c.pruned += 1,
            ChaosEventKind::Delay => c.delayed += 1,
            ChaosEventKind::CrashDiscard => c.crash_discarded += 1,
        }
        if self.events.len() < self.event_cap {
            self.events.push(ChaosEvent {
                vtime: self.vtime,
                to,
                kind,
            });
        } else if self.event_cap > 0 {
            self.events_overflow += 1;
        }
    }

    /// This node's id.
    pub(crate) fn me(&self) -> NodeId {
        self.ep.me()
    }

    /// Cluster size.
    pub fn cluster_size(&self) -> usize {
        self.ep.cluster_size()
    }

    /// Shared transport statistics.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> Arc<ThreadNetStats> {
        self.ep.stats()
    }

    /// Local chaos accounting so far.
    pub fn counters(&self) -> ChaosCounters {
        self.counters
    }

    /// Is this endpoint currently crashed?
    #[cfg(test)]
    pub(crate) fn is_crashed(&self) -> bool {
        self.links.crashed(self.me())
    }

    /// Install the fault plan this endpoint replays on its operation
    /// clock: each event fires on the tick it names (events already
    /// past fire on the next one).
    pub fn schedule(&mut self, plan: FaultSchedule) {
        self.next_due = self.next_due.min(plan.peek_time().unwrap_or(u64::MAX));
        self.plan = plan;
    }

    /// The operation clock advances by one: call once per operation.
    /// Applies the plan's events due at the new tick, then transmits
    /// every held-back message that has come due.
    #[inline]
    pub fn tick(&mut self) {
        self.advance_to(self.vtime + 1);
    }

    /// Jump the operation clock forward to `vtime` (a drain boundary's
    /// tick), with everything [`tick`](ChaosEndpoint::tick) does for
    /// the ticks passed. The clock never runs backwards.
    #[inline]
    pub fn advance_to(&mut self, vtime: u64) {
        let now = self.vtime.max(vtime);
        if now >= self.next_due {
            self.run_due(now);
        }
        self.vtime = now;
    }

    /// The clock is reaching `now >= next_due`: fire the plan's due
    /// events, release the due held-back sends, re-arm.
    #[cold]
    fn run_due(&mut self, now: u64) {
        // the plan's events fire while the clock still reads the tick
        // before, so what a heal releases is stamped as the last thing
        // before `now`, not the first thing of it — how the recorded
        // timeline of a partition has always read, and flight records
        // are compared byte for byte across builds
        let mut plan = std::mem::take(&mut self.plan);
        while let Some(fault) = plan.next_due(now) {
            self.apply(fault);
        }
        self.plan = plan;
        self.vtime = now;
        let (mut due, rest): (Vec<Delayed<M>>, Vec<Delayed<M>>) = std::mem::take(&mut self.delayed)
            .into_iter()
            .partition(|d| d.due <= now);
        self.delayed = rest;
        // preserve per-link send order: smaller due (and insertion
        // order within a tick, which the stable partition/sort keep)
        // first
        due.sort_by_key(|d| d.due);
        for d in due {
            self.transmit(d.to, d.msg, d.bytes);
        }
        let next_release = self.delayed.iter().map(|d| d.due).min();
        self.next_due = next_release
            .into_iter()
            .chain(self.plan.peek_time())
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Send one message through the fault layer.
    pub fn send(&mut self, to: NodeId, msg: M, bytes: usize) {
        let me = self.me();
        if self.links.crashed(me) {
            return self.note(ChaosEventKind::CrashDiscard, to);
        }
        if self.links.crashed(to) {
            // the recipient is down: the copy is lost in flight
            return self.note(ChaosEventKind::Drop, to);
        }
        if self.links.blocked(me, to) {
            self.note(ChaosEventKind::Park, to);
            return self.parked.push(Parked { to, msg, bytes });
        }
        match self.links.roll(me, to, &mut self.rng) {
            0 => self.note(ChaosEventKind::Drop, to),
            copies => {
                if copies == 2 {
                    self.note(ChaosEventKind::Dup, to);
                    // the injected extra copy is the only clone: what a
                    // fault-free link sends is the message itself
                    self.dispatch(to, msg.clone(), bytes);
                }
                self.dispatch(to, msg, bytes);
            }
        }
    }

    /// Put one surviving copy on the wire, or hold it back if the link
    /// is degraded.
    fn dispatch(&mut self, to: NodeId, msg: M, bytes: usize) {
        let delay = self.links.delay(self.me(), to);
        if delay > 0 {
            self.note(ChaosEventKind::Delay, to);
            let due = self.vtime + delay;
            self.next_due = self.next_due.min(due);
            self.delayed.push(Delayed {
                due,
                to,
                msg,
                bytes,
            });
        } else {
            self.transmit(to, msg, bytes);
        }
    }

    /// Send bypassing the fault layer (repair and state-transfer
    /// traffic; still counted in the transport statistics).
    ///
    /// Accounting contract (audited, pinned by
    /// `bytes_are_exact_under_chaos_with_reliable_control`): the shared
    /// `ThreadNetStats` counters are incremented in exactly one
    /// place, [`Endpoint::send_sized`](crate::endpoint::Endpoint::send_sized), when a copy actually enters a
    /// peer's queue — so control traffic through this bypass counts
    /// once per message, fault-path traffic counts once per copy that
    /// reaches the wire (duplicated copies twice; dropped, parked-then-
    /// pruned, and crash-discarded copies never), and the byte total is
    /// exactly the sum of the declared sizes of queued copies.
    pub fn send_reliable(&self, to: NodeId, msg: M, bytes: usize) {
        self.ep.send_sized(to, msg, bytes);
    }

    /// Non-blocking receive (crashed endpoints still receive: the
    /// *engine* decides to discard, so discards can be counted at the
    /// replica).
    pub fn try_recv(&self) -> Option<(NodeId, M)> {
        self.ep.try_recv()
    }

    /// Transport-level flush marker, straight through the fault layer:
    /// a cut token is not traffic, so faults never drop, delay, or
    /// duplicate it and crashed endpoints still emit it (see
    /// [`EndpointApi::send_marker`]).
    pub fn send_marker(&self) {
        self.ep.send_marker();
    }

    /// Markers observed from `peer` ([`EndpointApi::marker_count`]).
    pub fn marker_count(&self, peer: NodeId) -> u64 {
        self.ep.marker_count(peer)
    }

    /// Force-transmit every held-back (latency-delayed) message now.
    /// Drains call this before publishing send counts: a delayed
    /// message is late, not lost, so it must be on the wire before the
    /// cut.
    pub fn flush_delayed(&mut self) {
        let all = std::mem::take(&mut self.delayed);
        for d in all {
            self.transmit(d.to, d.msg, d.bytes);
        }
    }

    /// Discard parked sends at a drain. Their payloads reach the
    /// receivers through the engine's nack/repair round (retransmission
    /// over the outage), so the parked copies are pruned rather than
    /// kept across the cut; the partition itself stays in force for
    /// traffic after the drain.
    pub fn prune_parked(&mut self) {
        for p in std::mem::take(&mut self.parked) {
            self.note(ChaosEventKind::Prune, p.to);
        }
    }

    /// Apply one fault to this endpoint's fault table ([`Links::apply`]),
    /// then do what its [`Effect`] asks: a heal releases the parked
    /// sends whose link is open again, and this endpoint crashing
    /// discards its parked and held-back outbound.
    pub(crate) fn apply(&mut self, fault: &Fault) {
        match self.links.apply(fault) {
            Effect::Release => self.release_parked(),
            Effect::Crash(node) if node == self.me() => {
                // the in-flight drop of a crash: each discarded message
                // counts as a drop to its recipient
                let parked = std::mem::take(&mut self.parked).into_iter().map(|p| p.to);
                let delayed = std::mem::take(&mut self.delayed).into_iter().map(|d| d.to);
                for to in parked.chain(delayed) {
                    self.note(ChaosEventKind::Drop, to);
                    self.note(ChaosEventKind::CrashDiscard, to);
                }
            }
            _ => {}
        }
    }

    /// Mark a node crashed/recovered: sends to crashed peers are
    /// suppressed and counted as drops to them, and this endpoint
    /// crashing discards its outbound (the engine shares the fault
    /// schedule, so all endpoints flip these flags at the same drain
    /// boundary).
    pub fn set_peer_crashed(&mut self, node: NodeId, crashed: bool) {
        self.apply(&if crashed {
            Fault::Crash(node)
        } else {
            Fault::Recover(node)
        });
    }

    /// Release parked messages whose link has been healed.
    fn release_parked(&mut self) {
        let (still, open): (Vec<_>, Vec<_>) = std::mem::take(&mut self.parked)
            .into_iter()
            .partition(|p| self.links.blocked(self.me(), p.to));
        self.parked = still;
        for p in open {
            self.note(ChaosEventKind::Release, p.to);
            self.transmit(p.to, p.msg, p.bytes);
        }
    }

    /// Send one copy to every other node through the fault layer (the
    /// last peer's copy is `msg` itself).
    #[cfg(test)]
    pub(crate) fn broadcast(&mut self, msg: M, bytes: usize) {
        let me = self.me();
        let mut peers = (0..self.cluster_size()).filter(|&to| to != me).peekable();
        while let Some(to) = peers.next() {
            if peers.peek().is_some() {
                self.send(to, msg.clone(), bytes);
            } else {
                return self.send(to, msg, bytes);
            }
        }
    }

    /// Messages currently parked on blocked links.
    #[cfg(test)]
    pub(crate) fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Messages currently held back by latency faults.
    #[cfg(test)]
    pub(crate) fn delayed_count(&self) -> usize {
        self.delayed.len()
    }

    fn transmit(&mut self, to: NodeId, msg: M, bytes: usize) {
        if self.links.crashed(to) {
            return self.note(ChaosEventKind::Drop, to);
        }
        self.ep.send_sized(to, msg, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::thread_net::{Endpoint, ThreadNet};

    fn pair() -> (ChaosEndpoint<u32>, Endpoint<u32>) {
        let mut net: ThreadNet<u32> = ThreadNet::new(2);
        let a = ChaosEndpoint::new(net.endpoint(0), 7);
        let b = net.endpoint(1);
        (a, b)
    }

    #[test]
    fn fault_free_is_passthrough() {
        let (mut a, b) = pair();
        a.send(1, 42, 4);
        assert_eq!(b.recv(), Some((0, 42)));
        let s = a.stats().snapshot();
        assert_eq!(s.msgs_sent, 1);
        assert_eq!(s.bytes_sent, 4);
        assert_eq!(s.msgs_dropped(), 0);
        assert_eq!(a.counters(), ChaosCounters::default());
    }

    /// The fault-free path does not pay for fault injection: the one
    /// undelayed copy is the message itself, not a deep copy of it.
    #[test]
    fn fault_free_send_moves_the_message() {
        let mut net: ThreadNet<Vec<u64>> = ThreadNet::new(3);
        let mut a = ChaosEndpoint::new(net.endpoint(0), 7);
        let (b, c) = (net.endpoint(1), net.endpoint(2));
        let msg = vec![1u64, 2, 3];
        let heap = msg.as_ptr();
        a.send(1, msg, 24);
        let (_, got) = b.recv().unwrap();
        assert_eq!(got, [1, 2, 3]);
        assert_eq!(got.as_ptr(), heap, "same allocation end to end");

        // broadcast: the last peer's copy is the original
        let msg = vec![4u64; 8];
        let heap = msg.as_ptr();
        a.broadcast(msg, 64);
        assert_ne!(b.recv().unwrap().1.as_ptr(), heap);
        assert_eq!(c.recv().unwrap().1.as_ptr(), heap);
    }

    #[test]
    fn certain_drop_loses_and_counts_per_node() {
        let (mut a, b) = pair();
        a.apply(&Fault::LinkDrop {
            from: 0,
            to: 1,
            prob: 1.0,
        });
        for i in 0..5 {
            a.send(1, i, 1);
        }
        assert_eq!(b.try_recv(), None);
        let s = a.stats().snapshot();
        assert_eq!(s.dropped_per_node, vec![0, 5]);
        assert_eq!(s.msgs_sent, 0, "dropped sends never reach the wire");
        assert_eq!(a.counters().drops, 5);
    }

    #[test]
    fn certain_dup_duplicates_and_counts() {
        let (mut a, b) = pair();
        a.apply(&Fault::LinkDup {
            from: 0,
            to: 1,
            prob: 1.0,
        });
        a.send(1, 9, 2);
        assert_eq!(b.recv(), Some((0, 9)));
        assert_eq!(b.recv(), Some((0, 9)));
        let s = a.stats().snapshot();
        assert_eq!(s.dup_per_node, vec![0, 1]);
        assert_eq!(s.msgs_sent, 2);
    }

    #[test]
    fn drop_rolls_are_deterministic_per_seed() {
        let survivors = |seed: u64| {
            let mut net: ThreadNet<u32> = ThreadNet::new(2);
            let mut a = ChaosEndpoint::new(net.endpoint(0), seed);
            let b = net.endpoint(1);
            a.apply(&Fault::LinkDrop {
                from: 0,
                to: 1,
                prob: 0.5,
            });
            for i in 0..64 {
                a.send(1, i, 1);
            }
            let mut got = Vec::new();
            while let Some((_, v)) = b.try_recv() {
                got.push(v);
            }
            got
        };
        assert_eq!(survivors(3), survivors(3));
        assert_ne!(survivors(3), survivors(4));
    }

    #[test]
    fn blocked_link_parks_then_releases_on_heal() {
        let (mut a, b) = pair();
        a.apply(&Fault::BlockLink { from: 0, to: 1 });
        a.send(1, 7, 1);
        assert_eq!(a.parked_count(), 1);
        assert_eq!(b.try_recv(), None);
        a.apply(&Fault::HealAll);
        assert_eq!(a.parked_count(), 0);
        assert_eq!(b.recv(), Some((0, 7)));
        assert_eq!(a.counters().released, 1);
    }

    #[test]
    fn partition_fault_only_touches_own_outbound() {
        let mut net: ThreadNet<u32> = ThreadNet::new(4);
        let mut a = ChaosEndpoint::new(net.endpoint(0), 1);
        a.apply(&Fault::Partition { side: vec![0, 1] });
        a.send(1, 1, 1); // same side: flows
        a.send(2, 2, 1); // cross side: parked
        assert_eq!(a.parked_count(), 1);
    }

    #[test]
    fn delay_holds_back_until_tick() {
        let (mut a, b) = pair();
        a.apply(&Fault::LinkDelay {
            from: 0,
            to: 1,
            extra: 3,
        });
        a.advance_to(10);
        a.send(1, 5, 1);
        assert_eq!(a.delayed_count(), 1);
        assert_eq!(b.try_recv(), None);
        a.advance_to(12);
        assert_eq!(b.try_recv(), None, "due at 13, not 12");
        a.advance_to(13);
        assert_eq!(b.recv(), Some((0, 5)));
    }

    /// The clock is one compare on a quiet tick, not a skipped one: a
    /// fault that arms long after the last due tick still stamps its
    /// events, and computes its hold-back deadlines, from the tick of
    /// the send.
    #[test]
    fn a_fault_arming_after_quiet_ticks_sees_the_current_tick() {
        let (mut a, b) = pair();
        a.record_events(8);
        let plan = FaultPlan::new().at(
            10_001,
            Fault::LinkDelay {
                from: 0,
                to: 1,
                extra: 5,
            },
        );
        a.schedule(plan.into_schedule());
        for _ in 0..10_000 {
            a.tick();
        }
        a.send(1, 1, 1);
        assert_eq!(b.try_recv(), Some((0, 1)), "not armed yet");
        for _ in 0..20 {
            a.tick(); // the fault fires at 10_001; nothing is due after
        }
        a.send(1, 2, 1);
        assert_eq!(a.delayed_count(), 1);
        assert_eq!(
            a.take_events(),
            vec![ChaosEvent {
                vtime: 10_020,
                to: 1,
                kind: ChaosEventKind::Delay
            }]
        );
        for _ in 0..4 {
            a.tick();
            assert_eq!(b.try_recv(), None, "due at 10_025");
        }
        a.tick();
        assert_eq!(b.try_recv(), Some((0, 2)));
    }

    #[test]
    fn skew_delays_all_outbound() {
        let (mut a, b) = pair();
        a.apply(&Fault::ClockSkew { node: 0, offset: 2 });
        a.send(1, 1, 1);
        assert_eq!(a.delayed_count(), 1);
        a.flush_delayed();
        assert_eq!(b.recv(), Some((0, 1)));
        assert_eq!(a.delayed_count(), 0);
    }

    #[test]
    fn crash_discards_outbound_and_suppresses_inbound_sends() {
        let (mut a, b) = pair();
        a.apply(&Fault::BlockLink { from: 0, to: 1 });
        a.send(1, 1, 1);
        a.set_peer_crashed(0, true); // crash self: parked discarded
        assert_eq!(a.parked_count(), 0);
        assert!(a.is_crashed());
        a.send(1, 2, 1); // crashed endpoints send nothing
        assert_eq!(b.try_recv(), None);
        let s = a.stats().snapshot();
        assert_eq!(s.dropped_per_node[1], 1, "parked message died in flight");
        assert!(a.counters().crash_discarded >= 2);

        // peers suppress sends to a crashed node, counting drops to it
        let mut net: ThreadNet<u32> = ThreadNet::new(2);
        let mut c = ChaosEndpoint::new(net.endpoint(0), 1);
        let _d = net.endpoint(1);
        c.set_peer_crashed(1, true);
        c.send(1, 3, 1);
        assert_eq!(c.stats().snapshot().dropped_per_node, vec![0, 1]);
        c.set_peer_crashed(1, false);
        assert!(!c.is_crashed());
    }

    #[test]
    fn reliable_bypass_ignores_faults() {
        let (mut a, b) = pair();
        a.apply(&Fault::LinkDrop {
            from: 0,
            to: 1,
            prob: 1.0,
        });
        a.apply(&Fault::BlockLink { from: 0, to: 1 });
        a.send_reliable(1, 99, 8);
        assert_eq!(b.recv(), Some((0, 99)));
    }

    /// The accounting pin: across every fault path (drop, dup, park +
    /// prune, park + release, delay, crash discard) interleaved with
    /// reliable control sends, `ThreadNetStats.{msgs,bytes}_sent` must
    /// equal exactly the copies that entered peer queues and the sum of
    /// their declared sizes — no double count for control traffic
    /// through the reliable bypass, no count for copies that never
    /// reached the wire.
    #[test]
    fn bytes_are_exact_under_chaos_with_reliable_control() {
        let mut net: ThreadNet<u32> = ThreadNet::new(3);
        let mut a = ChaosEndpoint::new(net.endpoint(0), 99);
        let b = net.endpoint(1);
        let c = net.endpoint(2);
        let (mut wire_msgs, mut wire_bytes) = (0u64, 0u64);

        // certain drop: nothing on the wire
        a.apply(&Fault::LinkDrop {
            from: 0,
            to: 1,
            prob: 1.0,
        });
        a.send(1, 10, 100);
        a.apply(&Fault::LinkDrop {
            from: 0,
            to: 1,
            prob: 0.0,
        });

        // certain dup: two copies, both counted
        a.apply(&Fault::LinkDup {
            from: 0,
            to: 2,
            prob: 1.0,
        });
        a.send(2, 11, 7);
        (wire_msgs, wire_bytes) = (wire_msgs + 2, wire_bytes + 14);
        a.apply(&Fault::LinkDup {
            from: 0,
            to: 2,
            prob: 0.0,
        });

        // park then prune: the parked copy never reaches the wire; the
        // engine's repair re-ships the payload over the reliable path,
        // which counts exactly once
        a.apply(&Fault::BlockLink { from: 0, to: 1 });
        a.send(1, 12, 9);
        a.prune_parked();
        a.send_reliable(1, 12, 9);
        (wire_msgs, wire_bytes) = (wire_msgs + 1, wire_bytes + 9);

        // park then heal: the released copy counts exactly once
        a.send(1, 13, 5);
        a.apply(&Fault::HealAll);
        (wire_msgs, wire_bytes) = (wire_msgs + 1, wire_bytes + 5);

        // delay then flush: the held-back copy counts exactly once,
        // at transmission
        a.apply(&Fault::LinkDelay {
            from: 0,
            to: 2,
            extra: 4,
        });
        a.send(2, 14, 3);
        assert_eq!(a.stats().snapshot().msgs_sent, wire_msgs, "held back");
        a.flush_delayed();
        (wire_msgs, wire_bytes) = (wire_msgs + 1, wire_bytes + 3);
        a.apply(&Fault::LinkDelay {
            from: 0,
            to: 2,
            extra: 0,
        });

        // fault-free broadcast: one count per copy
        a.broadcast(15, 4);
        (wire_msgs, wire_bytes) = (wire_msgs + 2, wire_bytes + 8);

        // reliable control while links are faulty: exactly one count
        a.apply(&Fault::LinkDrop {
            from: 0,
            to: 1,
            prob: 1.0,
        });
        a.apply(&Fault::BlockLink { from: 0, to: 2 });
        a.send_reliable(1, 16, 21);
        a.send_reliable(2, 17, 2);
        (wire_msgs, wire_bytes) = (wire_msgs + 2, wire_bytes + 23);

        // crash: parked + fresh outbound discarded, nothing counted
        a.send(2, 18, 50); // parked (blocked link)
        a.set_peer_crashed(0, true);
        a.send(2, 19, 50);
        let s = a.stats().snapshot();
        assert_eq!(s.msgs_sent, wire_msgs, "copy count is exact");
        assert_eq!(s.bytes_sent, wire_bytes, "byte count is exact");

        // and the wire agrees: every counted copy is in a peer queue
        let mut received = 0u64;
        while b.try_recv().is_some() {
            received += 1;
        }
        while c.try_recv().is_some() {
            received += 1;
        }
        assert_eq!(received, wire_msgs, "counted copies all reached queues");
    }

    #[test]
    fn event_recording_mirrors_counters_and_is_off_by_default() {
        let (mut a, _b) = pair();
        a.apply(&Fault::LinkDrop {
            from: 0,
            to: 1,
            prob: 1.0,
        });
        a.send(1, 1, 1);
        assert!(a.take_events().is_empty(), "recording is opt-in");

        a.record_events(16);
        a.advance_to(5);
        a.send(1, 2, 1); // dropped
        a.apply(&Fault::LinkDrop {
            from: 0,
            to: 1,
            prob: 0.0,
        });
        a.apply(&Fault::BlockLink { from: 0, to: 1 });
        a.send(1, 3, 1); // parked
        a.prune_parked();
        let ev = a.take_events();
        assert_eq!(
            ev,
            vec![
                ChaosEvent {
                    vtime: 5,
                    to: 1,
                    kind: ChaosEventKind::Drop
                },
                ChaosEvent {
                    vtime: 5,
                    to: 1,
                    kind: ChaosEventKind::Park
                },
                ChaosEvent {
                    vtime: 5,
                    to: 1,
                    kind: ChaosEventKind::Prune
                },
            ]
        );
        assert!(a.take_events().is_empty(), "take drains");
        assert_eq!(a.events_overflow(), 0);
    }

    #[test]
    fn event_recording_caps_and_counts_overflow() {
        let (mut a, _b) = pair();
        a.record_events(2);
        a.apply(&Fault::LinkDrop {
            from: 0,
            to: 1,
            prob: 1.0,
        });
        for i in 0..5 {
            a.send(1, i, 1);
        }
        assert_eq!(a.take_events().len(), 2);
        assert_eq!(a.events_overflow(), 3);
        assert_eq!(a.counters().drops, 5, "counters unaffected by the cap");
    }

    #[test]
    fn prune_parked_counts_and_clears() {
        let (mut a, b) = pair();
        a.apply(&Fault::BlockLink { from: 0, to: 1 });
        a.send(1, 1, 1);
        a.send(1, 2, 1);
        a.prune_parked();
        assert_eq!(a.parked_count(), 0);
        assert_eq!(a.counters().pruned, 2);
        assert_eq!(b.try_recv(), None);
    }
}
