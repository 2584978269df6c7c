//! Deterministic discrete-event message transport with fault
//! injection.
//!
//! [`SimNet`] is intentionally *only* a transport: it carries opaque
//! messages between nodes with randomized (seeded) per-message delays,
//! and applies transport-level faults — crash/recover, link blocking
//! (partitions), probabilistic loss and duplication, latency
//! degradation, and clock skew — through [`SimNet::apply`], which
//! keeps every sender's row of the shared fault table
//! (`Links::all`). The protocol logic lives in
//! [`crate::broadcast`] and the replica logic in `cbm-core`; a driver
//! loop pops deliveries ([`SimNet::pop`]) and pushes sends
//! ([`SimNet::send`] / [`SimNet::broadcast`]), interleaving application
//! invocations at chosen simulation times. Keeping the event loop in
//! the driver makes every execution a pure function of
//! `(seed, workload, fault plan)` — which is what lets the figure and
//! scenario harnesses attach exact causal witnesses to each run.
//!
//! Faults are usually not applied by hand but scheduled through a
//! [`crate::fault::FaultPlan`]; the architecture of the fault layer
//! and the scenario subsystem on top of it is described in
//! `docs/SIMULATION.md`.
//!
//! Fault semantics at this layer:
//!
//! * **Blocked links park messages.** A delivery reaching a blocked
//!   link waits in a parked queue and is re-injected with a fresh
//!   latency draw when the link heals (modelling retransmission
//!   across an outage). Parked messages do not count as in-flight, so
//!   a run can quiesce under a permanent partition.
//! * **Loss is final.** A message failing its per-link drop roll is
//!   counted ([`NetStats::msgs_dropped`], per-recipient in
//!   [`NetStats::dropped_per_node`]) and never delivered.
//! * **Crash drops eagerly.** [`Fault::Crash`] removes the node's
//!   in-flight *and parked* inbound messages immediately, so drop
//!   counters are accurate per fault window; [`Fault::Recover`]
//!   resumes the node without restoring anything it missed.

use crate::fault::{Effect, Fault, Links};
use crate::latency::LatencyModel;
use crate::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Transport-level statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Point-to-point messages sent.
    pub msgs_sent: u64,
    /// Payload bytes sent (as reported by senders' size hints).
    pub bytes_sent: u64,
    /// Messages lost: recipient crashed or the link dropped them.
    pub msgs_dropped: u64,
    /// Messages delivered.
    pub msgs_delivered: u64,
    /// Extra copies injected by link duplication.
    pub msgs_duplicated: u64,
    /// Messages parked on blocked links right now.
    pub msgs_parked: u64,
    /// Lost messages per recipient node.
    pub dropped_per_node: Vec<u64>,
}

impl NetStats {
    fn new(n: usize) -> Self {
        NetStats {
            dropped_per_node: vec![0; n],
            ..NetStats::default()
        }
    }

    fn drop_to(&mut self, to: NodeId) {
        self.msgs_dropped += 1;
        self.dropped_per_node[to] += 1;
    }
}

/// A pending delivery.
#[derive(Debug, Clone)]
struct InFlight<M> {
    deliver_at: u64,
    from: NodeId,
    to: NodeId,
    msg: M,
}

/// A delivered message, as returned by [`SimNet::pop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Simulated delivery time.
    pub time: u64,
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// The message.
    pub msg: M,
}

/// The simulated network.
#[derive(Debug)]
pub struct SimNet<M> {
    n: usize,
    time: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<HeapKey>>,
    slots: Vec<Option<InFlight<M>>>,
    free: Vec<usize>,
    links: Links,
    parked: Vec<InFlight<M>>,
    latency: LatencyModel,
    rng: StdRng,
    stats: NetStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey {
    deliver_at: u64,
    seq: u64,
    slot: usize,
}

impl<M: Clone> SimNet<M> {
    /// A network of `n` nodes with the given latency model and RNG seed.
    pub fn new(n: usize, latency: LatencyModel, seed: u64) -> Self {
        SimNet {
            n,
            time: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            links: Links::all(n),
            parked: Vec::new(),
            latency,
            rng: StdRng::seed_from_u64(seed),
            stats: NetStats::new(n),
        }
    }

    /// Current simulated time (the time of the last delivery popped).
    pub fn now(&self) -> u64 {
        self.time
    }

    /// Apply one fault to the fault table (`Links::apply`), then do
    /// what its `Effect` asks. A heal re-injects the parked messages
    /// whose link is open again. A crashed node stops sending and
    /// receiving ("a process that crashes simply stops operating",
    /// §6.1), and its in-flight and parked inbound messages are dropped
    /// *now*, so [`NetStats`] drop counts are attributable to the fault
    /// window. A recovered node resumes without what it missed
    /// (crash-recovery without a durable log), so causally later
    /// messages may buffer above.
    pub fn apply(&mut self, fault: &Fault) {
        match self.links.apply(fault) {
            Effect::None => {}
            Effect::Release => self.release_parked(),
            Effect::Crash(node) => self.drop_inbound(node),
        }
    }

    /// The fault table.
    pub fn links(&self) -> &Links {
        &self.links
    }

    fn drop_inbound(&mut self, node: NodeId) {
        // Eagerly drop in-flight inbound: take the destined slots out;
        // pop() discards their orphaned heap keys lazily.
        for slot in self.slots.iter_mut() {
            if slot.as_ref().is_some_and(|f| f.to == node) {
                *slot = None;
                self.stats.drop_to(node);
            }
        }
        let before = self.parked.len();
        self.parked.retain(|f| f.to != node);
        for _ in 0..(before - self.parked.len()) {
            self.stats.drop_to(node);
        }
        self.stats.msgs_parked = self.parked.len() as u64;
    }

    /// Has the node crashed?
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.links.crashed(node)
    }

    /// Messages currently parked on blocked links.
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Put one copy in flight with a fresh latency draw: it arrives
    /// after the base latency plus the link's delay ([`Links::delay`]).
    fn launch(&mut self, from: NodeId, to: NodeId, msg: M) {
        let delay = self.latency.sample(&mut self.rng).max(1);
        let deliver_at = self.time + delay + self.links.delay(from, to);
        let flight = InFlight {
            deliver_at,
            from,
            to,
            msg,
        };
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Some(flight);
                s
            }
            None => {
                self.slots.push(Some(flight));
                self.slots.len() - 1
            }
        };
        self.heap.push(Reverse(HeapKey {
            deliver_at,
            seq: self.seq,
            slot,
        }));
    }

    /// Re-inject parked messages whose link is now open, in parking
    /// order, each with a fresh latency draw.
    fn release_parked(&mut self) {
        let (still, open): (Vec<_>, Vec<_>) = std::mem::take(&mut self.parked)
            .into_iter()
            .partition(|f| self.links.blocked(f.from, f.to));
        self.parked = still;
        for f in open {
            self.launch(f.from, f.to, f.msg);
        }
        self.stats.msgs_parked = self.parked.len() as u64;
    }

    /// Send one point-to-point message; `size_hint` feeds the byte
    /// counter (an exact encoded size, such as
    /// [`crate::delta::KnowledgeDelta::wire_len`], or an estimate).
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M, size_hint: usize) {
        if self.links.crashed(from) {
            return;
        }
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += size_hint as u64;
        let copies = self.links.roll(from, to, &mut self.rng);
        match copies {
            0 => self.stats.drop_to(to),
            2 => self.stats.msgs_duplicated += 1,
            _ => {}
        }
        for _ in 0..copies {
            self.launch(from, to, msg.clone());
        }
    }

    /// Send to every node except `from`.
    pub fn broadcast(&mut self, from: NodeId, msg: M, size_hint: usize) {
        for to in 0..self.n {
            if to != from {
                self.send(from, to, msg.clone(), size_hint);
            }
        }
    }

    /// Pop the next delivery (in delivery-time order, deterministic
    /// tie-break). Deliveries to crashed nodes are dropped; deliveries
    /// over blocked links are parked until the link heals.
    pub fn pop(&mut self) -> Option<Delivery<M>> {
        self.pop_due(None)
    }

    /// Like [`SimNet::pop`], but only processes deliveries due at or
    /// before `limit`; later entries are left untouched. Drivers
    /// interleaving deliveries with other timed actions (scheduled
    /// faults, invocations) pass the next action time here, so a pop
    /// can never skip over dropped/parked entries and deliver a
    /// message from *beyond* an action that should have fired first —
    /// [`SimNet::peek_time`] is only a lower bound on the next real
    /// delivery.
    pub fn pop_due(&mut self, limit: Option<u64>) -> Option<Delivery<M>> {
        loop {
            let Reverse(key) = self.heap.peek().copied()?;
            if limit.is_some_and(|l| key.deliver_at > l) {
                return None;
            }
            self.heap.pop();
            // slot may have been vacated by an eager crash drop
            let Some(flight) = self.slots[key.slot].take() else {
                self.free.push(key.slot);
                continue;
            };
            self.free.push(key.slot);
            self.time = self.time.max(flight.deliver_at);
            if self.links.crashed(flight.to) {
                self.stats.drop_to(flight.to);
                continue;
            }
            if self.links.blocked(flight.from, flight.to) {
                self.parked.push(flight);
                self.stats.msgs_parked = self.parked.len() as u64;
                continue;
            }
            self.stats.msgs_delivered += 1;
            return Some(Delivery {
                time: flight.deliver_at,
                from: flight.from,
                to: flight.to,
                msg: flight.msg,
            });
        }
    }

    /// Delivery time of the next in-flight heap entry, if any. This is
    /// a *lower bound* on the next actual delivery: the entry may turn
    /// out to be dropped (crashed recipient) or parked (blocked link)
    /// when popped. Use [`SimNet::pop_due`] to pop without
    /// overshooting other timed actions.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(k)| k.deliver_at)
    }

    /// Advance the clock without delivering (models local computation
    /// time between invocations).
    pub fn advance_time(&mut self, to: u64) {
        self.time = self.time.max(to);
    }

    /// Transport statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut net: SimNet<&str> = SimNet::new(3, LatencyModel::Uniform(1, 50), 7);
        net.send(0, 1, "a", 1);
        net.send(0, 2, "b", 1);
        net.send(1, 2, "c", 1);
        let mut last = 0;
        let mut count = 0;
        while let Some(d) = net.pop() {
            assert!(d.time >= last);
            last = d.time;
            count += 1;
        }
        assert_eq!(count, 3);
        assert_eq!(net.stats().msgs_delivered, 3);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut net: SimNet<u32> = SimNet::new(2, LatencyModel::Uniform(1, 100), seed);
            for i in 0..10 {
                net.send(0, 1, i, 4);
            }
            let mut order = Vec::new();
            while let Some(d) = net.pop() {
                order.push((d.time, d.msg));
            }
            order
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn broadcast_reaches_everyone_else() {
        let mut net: SimNet<u8> = SimNet::new(4, LatencyModel::Constant(1), 1);
        net.broadcast(2, 9, 1);
        let mut tos: Vec<NodeId> = Vec::new();
        while let Some(d) = net.pop() {
            assert_eq!(d.from, 2);
            tos.push(d.to);
        }
        tos.sort_unstable();
        assert_eq!(tos, vec![0, 1, 3]);
    }

    #[test]
    fn crashed_nodes_drop_messages() {
        let mut net: SimNet<u8> = SimNet::new(2, LatencyModel::Constant(1), 1);
        net.send(0, 1, 1, 1);
        net.apply(&Fault::Crash(1));
        assert!(net.pop().is_none());
        assert_eq!(net.stats().msgs_dropped, 1);
        // crashed nodes also stop sending
        net.apply(&Fault::Crash(0));
        net.send(0, 1, 2, 1);
        assert!(net.pop().is_none());
    }

    #[test]
    fn crash_drops_in_flight_eagerly_and_per_node() {
        let mut net: SimNet<u8> = SimNet::new(3, LatencyModel::Constant(10), 1);
        net.send(0, 2, 1, 1);
        net.send(1, 2, 2, 1);
        net.send(0, 1, 3, 1);
        net.apply(&Fault::Crash(2));
        // drops are counted at crash time, before any pop
        let s = net.stats();
        assert_eq!(s.msgs_dropped, 2);
        assert_eq!(s.dropped_per_node, vec![0, 0, 2]);
        // the message to the live node still flows
        let d = net.pop().expect("delivery to node 1");
        assert_eq!(d.to, 1);
        assert!(net.pop().is_none());
    }

    #[test]
    fn recover_resumes_sending_and_receiving() {
        let mut net: SimNet<u8> = SimNet::new(2, LatencyModel::Constant(1), 1);
        net.apply(&Fault::Crash(1));
        net.send(0, 1, 1, 1);
        assert!(net.pop().is_none());
        net.apply(&Fault::Recover(1));
        net.send(0, 1, 2, 1);
        let d = net.pop().expect("post-recovery delivery");
        assert_eq!(d.msg, 2);
        // the message sent while down stays lost
        assert_eq!(net.stats().msgs_dropped, 1);
        assert_eq!(net.stats().msgs_delivered, 1);
    }

    #[test]
    fn blocked_links_park_then_release_on_heal() {
        let mut net: SimNet<u8> = SimNet::new(2, LatencyModel::Constant(5), 1);
        net.apply(&Fault::BlockLink { from: 0, to: 1 });
        net.send(0, 1, 7, 1);
        assert!(net.pop().is_none(), "blocked link must not deliver");
        assert_eq!(net.parked_count(), 1);
        assert_eq!(net.stats().msgs_parked, 1);
        net.apply(&Fault::HealLink { from: 0, to: 1 });
        let d = net.pop().expect("released after heal");
        assert_eq!(d.msg, 7);
        assert_eq!(net.parked_count(), 0);
        assert_eq!(net.stats().msgs_dropped, 0);
    }

    #[test]
    fn blocked_links_are_directional() {
        let mut net: SimNet<u8> = SimNet::new(2, LatencyModel::Constant(5), 1);
        net.apply(&Fault::BlockLink { from: 0, to: 1 });
        net.send(1, 0, 9, 1);
        let d = net.pop().expect("reverse direction open");
        assert_eq!(d.msg, 9);
    }

    #[test]
    fn drop_probability_loses_messages() {
        let mut net: SimNet<u32> = SimNet::new(2, LatencyModel::Constant(1), 3);
        net.apply(&Fault::LinkDrop {
            from: 0,
            to: 1,
            prob: 1.0,
        });
        for i in 0..5 {
            net.send(0, 1, i, 1);
        }
        assert!(net.pop().is_none());
        let s = net.stats();
        assert_eq!(s.msgs_dropped, 5);
        assert_eq!(s.dropped_per_node[1], 5);
        assert_eq!(s.msgs_sent, 5, "drops still count as sends");
    }

    #[test]
    fn dup_probability_duplicates_messages() {
        let mut net: SimNet<u32> = SimNet::new(2, LatencyModel::Constant(1), 3);
        net.apply(&Fault::LinkDup {
            from: 0,
            to: 1,
            prob: 1.0,
        });
        net.send(0, 1, 42, 1);
        let a = net.pop().expect("first copy");
        let b = net.pop().expect("second copy");
        assert_eq!((a.msg, b.msg), (42, 42));
        assert!(net.pop().is_none());
        let s = net.stats();
        assert_eq!(s.msgs_duplicated, 1);
        assert_eq!(s.msgs_delivered, 2);
        assert_eq!(s.msgs_sent, 1);
    }

    #[test]
    fn link_delay_and_skew_push_delivery_later() {
        let mut net: SimNet<u8> = SimNet::new(2, LatencyModel::Constant(10), 1);
        net.send(0, 1, 1, 1);
        let base = net.pop().unwrap().time;
        net.apply(&Fault::LinkDelay {
            from: 0,
            to: 1,
            extra: 100,
        });
        net.send(0, 1, 2, 1);
        let delayed = net.pop().unwrap().time;
        assert!(delayed >= base + 100);
        net.apply(&Fault::LinkDelay {
            from: 0,
            to: 1,
            extra: 0,
        });
        net.apply(&Fault::ClockSkew {
            node: 0,
            offset: 1000,
        });
        net.send(0, 1, 3, 1);
        let skewed = net.pop().unwrap().time;
        assert!(skewed >= delayed + 1000);
    }

    #[test]
    fn pop_due_never_overshoots_the_limit() {
        let mut net: SimNet<u8> = SimNet::new(3, LatencyModel::Constant(5), 1);
        net.apply(&Fault::BlockLink { from: 0, to: 1 });
        net.send(0, 1, 1, 1); // due t=5 but parks when popped
        net.apply(&Fault::LinkDelay {
            from: 0,
            to: 2,
            extra: 200,
        });
        net.send(0, 2, 2, 1); // due t=205
                              // peek_time is only a lower bound (the t=5 entry will park)
        assert_eq!(net.peek_time(), Some(5));
        // a bounded pop must not skip ahead and deliver the t=205
        // message past the caller's limit
        assert!(net.pop_due(Some(100)).is_none());
        assert_eq!(net.parked_count(), 1, "blocked entry parked in passing");
        let d = net.pop_due(Some(300)).expect("within the raised limit");
        assert_eq!((d.msg, d.time), (2, 205));
    }

    #[test]
    fn time_only_moves_forward() {
        let mut net: SimNet<u8> = SimNet::new(2, LatencyModel::Uniform(1, 100), 5);
        net.send(0, 1, 1, 1);
        net.send(0, 1, 2, 1);
        let t1 = net.pop().unwrap().time;
        assert!(net.now() >= t1);
        net.advance_time(10_000);
        assert_eq!(net.now(), 10_000);
        let d = net.pop().unwrap();
        // the message was already in flight; popping does not rewind now()
        assert!(net.now() >= d.time.min(10_000));
    }

    #[test]
    fn byte_accounting() {
        let mut net: SimNet<u8> = SimNet::new(3, LatencyModel::Constant(1), 1);
        net.broadcast(0, 1, 100);
        assert_eq!(net.stats().msgs_sent, 2);
        assert_eq!(net.stats().bytes_sent, 200);
    }
}
