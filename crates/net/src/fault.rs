//! Timed fault plans applied to a transport.
//!
//! A [`FaultPlan`] is a schedule of [`Fault`]s — partitions and heals,
//! per-link loss/duplication probabilities, latency degradation, node
//! crash *and recover*, clock skew — each firing at a logical time.
//! The plan is pure data and **transport-agnostic**: a driver turns it
//! into a [`FaultSchedule`] and applies due events to any
//! [`FaultTarget`] as its notion of time advances, so faults act
//! entirely at the transport layer and no protocol or replica code
//! knows they exist. Two targets exist today:
//!
//! * [`crate::sim::SimNet`] — logical time is simulated time; the
//!   driver is `cbm-core`'s `Cluster`;
//! * [`crate::chaos::ChaosEndpoint`] — the sender-side fault view of a
//!   real-thread [`crate::thread_net::ThreadNet`] endpoint; logical
//!   time is the owning worker's deterministic operation counter, so
//!   live-engine fault injection stays reproducible per `(config,
//!   seed)` (see `docs/CHAOS.md`).
//!
//! Fault semantics (see `docs/SIMULATION.md` for the full story):
//!
//! * **Partitions park, drops lose.** A message reaching a blocked
//!   link is parked and re-injected (with a fresh latency draw) when
//!   the link heals — modelling retransmission over an outage. A
//!   probabilistic drop is a true loss: the causal broadcast above
//!   will buffer everything causally after it, degrading liveness but
//!   never safety.
//! * **Crash is eager.** Crashing a node drops its in-flight inbound
//!   messages immediately, so drop counters are accurate per fault
//!   window; recovery resumes the node with whatever it missed still
//!   missing.
//! * **Skew shifts sends.** Clock skew delays every message a node
//!   sends by a constant, modelling a process whose clock (and hence
//!   whose visible activity) runs behind the cluster.

use crate::NodeId;
use cbm_adt::{wire_enum, wire_struct};

/// A transport that fault events can act on.
///
/// [`FaultSchedule::apply_due`] drives any implementor, which is what
/// lets one [`FaultPlan`] describe an outage for both the
/// single-threaded simulator ([`crate::sim::SimNet`]) and the
/// real-thread chaos layer ([`crate::chaos::ChaosEndpoint`]). The
/// methods mirror the fault alphabet; implementors that cannot honour
/// a dimension (e.g. a per-endpoint view only controls its own
/// outbound links) apply the subset that concerns them and ignore the
/// rest — the contract is "at least this much misbehaviour", never
/// less determinism.
pub trait FaultTarget {
    /// Cluster size (faults naming nodes `>= nodes()` are a bug).
    fn nodes(&self) -> usize;
    /// Node stops sending/receiving; its in-flight inbound is dropped.
    fn crash(&mut self, node: NodeId);
    /// Node resumes; messages lost while down stay lost.
    fn recover(&mut self, node: NodeId);
    /// Block or unblock the directed link `from → to` (blocked links
    /// park messages until healed).
    fn set_link_blocked(&mut self, from: NodeId, to: NodeId, blocked: bool);
    /// Unblock every link (parked messages re-enter).
    fn heal_all(&mut self);
    /// Set the loss probability of the directed link (0.0–1.0).
    fn set_link_drop(&mut self, from: NodeId, to: NodeId, prob: f64);
    /// Set the duplication probability of the directed link (0.0–1.0).
    fn set_link_dup(&mut self, from: NodeId, to: NodeId, prob: f64);
    /// Add constant extra latency to the directed link (0 resets).
    fn set_link_delay(&mut self, from: NodeId, to: NodeId, extra: u64);
    /// Skew a node's clock: all its sends arrive `offset` later
    /// (0 resets).
    fn set_clock_skew(&mut self, node: NodeId, offset: u64);
}

/// One transport-level fault (or repair).
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Node stops sending/receiving; in-flight inbound is dropped.
    Crash(NodeId),
    /// Node resumes; messages lost while down stay lost.
    Recover(NodeId),
    /// Split the cluster: links between `side` and its complement are
    /// blocked in both directions.
    Partition {
        /// One side of the split (the rest of the cluster is the
        /// other).
        side: Vec<NodeId>,
    },
    /// Block only the `from → to` directions between two sets (an
    /// asymmetric outage: `to`-side messages still flow back).
    PartitionOneWay {
        /// Senders whose messages are blocked.
        from: Vec<NodeId>,
        /// Recipients that stop hearing from `from`.
        to: Vec<NodeId>,
    },
    /// Block a single directed link.
    BlockLink {
        /// Sender side.
        from: NodeId,
        /// Recipient side.
        to: NodeId,
    },
    /// Unblock a single directed link (parked messages re-enter).
    HealLink {
        /// Sender side.
        from: NodeId,
        /// Recipient side.
        to: NodeId,
    },
    /// Unblock every link (parked messages re-enter).
    HealAll,
    /// Set the loss probability of one directed link.
    LinkDrop {
        /// Sender side.
        from: NodeId,
        /// Recipient side.
        to: NodeId,
        /// Probability each message is lost (0.0–1.0).
        prob: f64,
    },
    /// Set the loss probability of every link.
    DropAll {
        /// Probability each message is lost (0.0–1.0).
        prob: f64,
    },
    /// Set the duplication probability of one directed link.
    LinkDup {
        /// Sender side.
        from: NodeId,
        /// Recipient side.
        to: NodeId,
        /// Probability each message is delivered twice (0.0–1.0).
        prob: f64,
    },
    /// Set the duplication probability of every link.
    DupAll {
        /// Probability each message is delivered twice (0.0–1.0).
        prob: f64,
    },
    /// Add constant extra latency to one directed link.
    LinkDelay {
        /// Sender side.
        from: NodeId,
        /// Recipient side.
        to: NodeId,
        /// Extra ticks added to every delivery on the link.
        extra: u64,
    },
    /// Add constant extra latency to every link (a global latency
    /// spike; reset with `extra: 0`).
    DelayAll {
        /// Extra ticks added to every delivery.
        extra: u64,
    },
    /// Skew a node's clock: all its sends arrive `offset` ticks later.
    ClockSkew {
        /// The skewed node.
        node: NodeId,
        /// Constant outbound delay in ticks.
        offset: u64,
    },
}

wire_enum!(Fault {
    0 => Crash(node),
    1 => Recover(node),
    2 => Partition { side },
    3 => PartitionOneWay { from, to },
    4 => BlockLink { from, to },
    5 => HealLink { from, to },
    6 => HealAll,
    7 => LinkDrop { from, to, prob },
    8 => DropAll { prob },
    9 => LinkDup { from, to, prob },
    10 => DupAll { prob },
    11 => LinkDelay { from, to, extra },
    12 => DelayAll { extra },
    13 => ClockSkew { node, offset },
});

/// A fault firing at a simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Simulated time at which the fault applies.
    pub at: u64,
    /// What happens.
    pub fault: Fault,
}

wire_struct!(FaultEvent { at, fault });

/// A time-ordered schedule of faults (pure data; see module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

wire_struct!(FaultPlan { events });

impl FaultPlan {
    /// An empty plan (a fault-free run).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder-style: add `fault` at time `at`.
    pub fn at(mut self, at: u64, fault: Fault) -> Self {
        self.push(at, fault);
        self
    }

    /// Add `fault` at time `at`.
    pub fn push(&mut self, at: u64, fault: Fault) {
        self.events.push(FaultEvent { at, fault });
    }

    /// Merge another plan into this one.
    pub fn merge(&mut self, other: FaultPlan) {
        self.events.extend(other.events);
    }

    /// No events?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Freeze into an applicable schedule (events sorted by time;
    /// ties apply in insertion order).
    pub fn into_schedule(self) -> FaultSchedule {
        let mut events = self.events;
        events.sort_by_key(|e| e.at);
        FaultSchedule { events, cursor: 0 }
    }
}

/// A [`FaultPlan`] being replayed against a net (the default is the
/// empty plan's schedule).
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultSchedule {
    /// Time of the next unapplied event, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.events.get(self.cursor).map(|e| e.at)
    }

    /// Apply every event due at or before `now`; returns how many
    /// fired.
    pub fn apply_due<N: FaultTarget>(&mut self, net: &mut N, now: u64) -> usize {
        let mut fired = 0;
        while let Some(ev) = self.events.get(self.cursor) {
            if ev.at > now {
                break;
            }
            apply_fault(net, &ev.fault);
            self.cursor += 1;
            fired += 1;
        }
        fired
    }

    /// All events applied?
    pub fn exhausted(&self) -> bool {
        self.cursor >= self.events.len()
    }
}

/// Apply one fault to any [`FaultTarget`].
pub fn apply_fault<N: FaultTarget>(net: &mut N, fault: &Fault) {
    let n = net.nodes();
    match fault {
        Fault::Crash(p) => net.crash(*p),
        Fault::Recover(p) => net.recover(*p),
        Fault::Partition { side } => {
            let in_side = membership(n, side);
            for a in 0..n {
                for b in 0..n {
                    if a != b && in_side[a] != in_side[b] {
                        net.set_link_blocked(a, b, true);
                    }
                }
            }
        }
        Fault::PartitionOneWay { from, to } => {
            let to_set = membership(n, to);
            for &a in from {
                assert!(a < n, "fault names node {a} outside cluster of {n}");
                for (b, &in_to) in to_set.iter().enumerate() {
                    if a != b && in_to {
                        net.set_link_blocked(a, b, true);
                    }
                }
            }
        }
        Fault::BlockLink { from, to } => net.set_link_blocked(*from, *to, true),
        Fault::HealLink { from, to } => net.set_link_blocked(*from, *to, false),
        Fault::HealAll => net.heal_all(),
        Fault::LinkDrop { from, to, prob } => net.set_link_drop(*from, *to, *prob),
        Fault::DropAll { prob } => {
            for a in 0..n {
                for b in 0..n {
                    if a != b {
                        net.set_link_drop(a, b, *prob);
                    }
                }
            }
        }
        Fault::LinkDup { from, to, prob } => net.set_link_dup(*from, *to, *prob),
        Fault::DupAll { prob } => {
            for a in 0..n {
                for b in 0..n {
                    if a != b {
                        net.set_link_dup(a, b, *prob);
                    }
                }
            }
        }
        Fault::LinkDelay { from, to, extra } => net.set_link_delay(*from, *to, *extra),
        Fault::DelayAll { extra } => {
            for a in 0..n {
                for b in 0..n {
                    if a != b {
                        net.set_link_delay(a, b, *extra);
                    }
                }
            }
        }
        Fault::ClockSkew { node, offset } => net.set_clock_skew(*node, *offset),
    }
}

fn membership(n: usize, nodes: &[NodeId]) -> Vec<bool> {
    let mut m = vec![false; n];
    for &p in nodes {
        assert!(p < n, "fault names node {p} outside cluster of {n}");
        m[p] = true;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::sim::SimNet;

    fn net2() -> SimNet<u8> {
        SimNet::new(2, LatencyModel::Constant(5), 1)
    }

    #[test]
    fn schedule_applies_in_time_order() {
        let plan = FaultPlan::new()
            .at(20, Fault::Recover(1))
            .at(10, Fault::Crash(1));
        let mut sched = plan.into_schedule();
        let mut net = net2();
        assert_eq!(sched.peek_time(), Some(10));
        assert_eq!(sched.apply_due(&mut net, 5), 0);
        assert_eq!(sched.apply_due(&mut net, 10), 1);
        assert!(net.is_crashed(1));
        assert_eq!(sched.apply_due(&mut net, 100), 1);
        assert!(!net.is_crashed(1));
        assert!(sched.exhausted());
    }

    #[test]
    fn partition_blocks_both_directions() {
        let mut net: SimNet<u8> = SimNet::new(4, LatencyModel::Constant(1), 1);
        apply_fault(&mut net, &Fault::Partition { side: vec![0, 1] });
        assert!(net.is_link_blocked(0, 2));
        assert!(net.is_link_blocked(2, 0));
        assert!(net.is_link_blocked(1, 3));
        assert!(!net.is_link_blocked(0, 1));
        assert!(!net.is_link_blocked(2, 3));
        apply_fault(&mut net, &Fault::HealAll);
        assert!(!net.is_link_blocked(0, 2));
    }

    #[test]
    fn one_way_partition_is_asymmetric() {
        let mut net: SimNet<u8> = SimNet::new(3, LatencyModel::Constant(1), 1);
        apply_fault(
            &mut net,
            &Fault::PartitionOneWay {
                from: vec![0],
                to: vec![1, 2],
            },
        );
        assert!(net.is_link_blocked(0, 1));
        assert!(net.is_link_blocked(0, 2));
        assert!(!net.is_link_blocked(1, 0));
        assert!(!net.is_link_blocked(2, 0));
    }

    #[test]
    fn merge_keeps_all_events() {
        let mut a = FaultPlan::new().at(1, Fault::Crash(0));
        let b = FaultPlan::new().at(2, Fault::Recover(0));
        a.merge(b);
        assert_eq!(a.len(), 2);
    }
}
