//! Timed fault plans and the one table that interprets them.
//!
//! A [`FaultPlan`] is a schedule of [`Fault`]s — partitions and heals,
//! per-link loss/duplication probabilities, latency degradation, node
//! crash *and recover*, clock skew — each firing at a logical time.
//! The plan is pure data and **transport-agnostic**: a driver turns it
//! into a [`FaultSchedule`] and, as its notion of time advances, hands
//! each due fault ([`FaultSchedule::next_due`]) to its transport's
//! `apply`, so faults act entirely at the transport layer and no
//! protocol or replica code knows they exist. Both transports keep
//! their fault state in a [`Links`] table, and `Links::apply` is the
//! only code that interprets a fault:
//!
//! * [`crate::sim::SimNet`] holds every sender's row
//!   (`Links::all`); logical time is simulated time, and the driver
//!   is `cbm-core`'s `Cluster`;
//! * [`crate::chaos::ChaosEndpoint`] — the sender-side fault view of a
//!   real-thread or socket endpoint — holds its own row
//!   (`Links::row`); logical time is the owning worker's
//!   deterministic operation counter, so live-engine fault injection
//!   stays reproducible per `(config, seed)` (see `docs/CHAOS.md`).
//!
//! Both also draw their named scenarios from one table, [`CATALOGUE`]:
//! each entry builds its plan for a cluster size and an epoch length
//! given in the driver's own ticks.
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
use rand::Rng;
use std::ops::Range;

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

impl Fault {
    /// Can this fault lose a message between two **live** nodes (a
    /// drop or a blocked link), so that a receiver may nack the gap
    /// and its sender must be able to repair it from a retransmission
    /// log? That is the nack/repair contract: only a plan holding such
    /// a fault needs one. A `Crash` does not: nothing is nacked across
    /// a crash — what a crashed node missed is closed by its recovery
    /// transfer and a resync to the published edge counts. Duplication
    /// and latency faults deliver everything, only twice or late.
    pub fn needs_repair(&self) -> bool {
        matches!(
            self,
            Fault::LinkDrop { .. }
                | Fault::DropAll { .. }
                | Fault::Partition { .. }
                | Fault::PartitionOneWay { .. }
                | Fault::BlockLink { .. }
        )
    }

    /// Every node id the fault names.
    fn nodes(&self) -> Vec<NodeId> {
        match self {
            Fault::Crash(p) | Fault::Recover(p) | Fault::ClockSkew { node: p, .. } => vec![*p],
            Fault::Partition { side } => side.clone(),
            Fault::PartitionOneWay { from, to } => [from.as_slice(), to].concat(),
            Fault::BlockLink { from, to }
            | Fault::HealLink { from, to }
            | Fault::LinkDrop { from, to, .. }
            | Fault::LinkDup { from, to, .. }
            | Fault::LinkDelay { from, to, .. } => vec![*from, *to],
            Fault::HealAll | Fault::DropAll { .. } | Fault::DupAll { .. } => vec![],
            Fault::DelayAll { .. } => vec![],
        }
    }
}

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

    /// Does every event name only nodes of a cluster of `n`? The error
    /// names the first event (in insertion order) that does not.
    /// Drivers check a plan before anything runs: a fault naming an
    /// unknown node is a bug in the plan, not a runtime condition.
    pub fn check(&self, n: usize) -> Result<(), String> {
        for FaultEvent { at, fault } in &self.events {
            if let Some(p) = fault.nodes().into_iter().find(|&p| p >= n) {
                return Err(format!(
                    "{fault:?} at {at} names node {p} outside cluster of {n}"
                ));
            }
        }
        Ok(())
    }

    /// Does every `Crash` and `Recover` fall on a multiple of `e`? The
    /// live engine cuts a crash at an epoch boundary, so it runs only
    /// plans that pass this for its epoch length (the simulator runs
    /// any plan).
    pub fn crashes_on_epochs(&self, e: u64) -> bool {
        self.events.iter().all(|ev| match ev.fault {
            Fault::Crash(_) | Fault::Recover(_) => e > 0 && ev.at % e == 0,
            _ => true,
        })
    }

    /// Freeze into an applicable schedule (events sorted by time;
    /// ties apply in insertion order).
    pub fn into_schedule(self) -> FaultSchedule {
        let mut events = self.events;
        events.sort_by_key(|e| e.at);
        FaultSchedule { events, cursor: 0 }
    }
}

/// One entry of the fault-scenario [`CATALOGUE`]: a named plan for a
/// cluster of `n` nodes whose epoch is `e` ticks long. The simulator
/// and the live engine both draw their scenarios from the catalogue;
/// each passes its own tick unit (`docs/CHAOS.md#fault-scenarios`).
#[derive(Debug, Clone, Copy)]
pub struct NamedPlan {
    /// Stable name (gate keys, the regression corpus and
    /// `cbm-node --profile` refer to it).
    pub name: &'static str,
    /// What the plan injects, in one line.
    pub about: &'static str,
    /// Build the plan: `(n, e)` → fault events in ticks.
    pub build: fn(usize, u64) -> FaultPlan,
}

/// Every named fault scenario. Node ids derive from `n` and times from
/// `e`; at `n = 4` and `e = 80` the last ten entries are the
/// simulator's original tick-literal scenarios, event for event.
pub const CATALOGUE: &[NamedPlan] = &[
    NamedPlan {
        name: "lossy-mesh",
        about: "5% loss on every link, run-long",
        build: |_, _| FaultPlan::new().at(1, Fault::DropAll { prob: 0.05 }),
    },
    NamedPlan {
        name: "duplicate-storm",
        about: "25% duplication on every link, run-long",
        build: |_, _| FaultPlan::new().at(1, Fault::DupAll { prob: 0.25 }),
    },
    NamedPlan {
        name: "latency-spike",
        about: "every link e/8 ticks slower through the middle of epoch 0",
        build: |_, e| {
            let extra = (e / 8).max(1);
            FaultPlan::new()
                .at(e / 4, Fault::DelayAll { extra })
                .at(3 * e / 4, Fault::DelayAll { extra: 0 })
        },
    },
    NamedPlan {
        name: "partition-flap",
        about: "the cluster splits in half and heals mid-epoch, twice",
        build: |n, e| {
            let side: Vec<NodeId> = (0..n.max(2) / 2).collect();
            FaultPlan::new()
                .at(e / 4, Fault::Partition { side: side.clone() })
                .at(3 * e / 4, Fault::HealAll)
                .at(e + e / 4, Fault::Partition { side })
                .at(e + 3 * e / 4, Fault::HealAll)
        },
    },
    NamedPlan {
        name: "crash-recover",
        about: "the last node is down for epochs 1 and 2",
        build: |n, e| {
            let last = n.max(2) - 1;
            FaultPlan::new()
                .at(e, Fault::Crash(last))
                .at(3 * e, Fault::Recover(last))
        },
    },
    NamedPlan {
        name: "rolling-crashes",
        about: "the last two nodes are down one epoch each, in turn (one with 2 nodes)",
        build: |n, e| {
            let n = n.max(2);
            let mut plan = FaultPlan::new()
                .at(e, Fault::Crash(n - 1))
                .at(2 * e, Fault::Recover(n - 1));
            if n >= 3 {
                plan.push(2 * e, Fault::Crash(n - 2));
                plan.push(3 * e, Fault::Recover(n - 2));
            }
            plan
        },
    },
    NamedPlan {
        name: "mixed-chaos",
        about: "2% loss and 10% duplication run-long, a crash span and a latency spike",
        build: |n, e| {
            let (last, extra) = (n.max(2) - 1, (e / 16).max(1));
            FaultPlan::new()
                .at(1, Fault::DropAll { prob: 0.02 })
                .at(1, Fault::DupAll { prob: 0.10 })
                .at(e, Fault::Crash(last))
                .at(2 * e, Fault::Recover(last))
                .at(2 * e + e / 2, Fault::DelayAll { extra })
                .at(3 * e, Fault::DelayAll { extra: 0 })
        },
    },
    NamedPlan {
        name: "partition-while-writing",
        about: "the cluster splits in half at e/2 and heals at 3¼e",
        build: |n, e| {
            let side = (0..n / 2).collect();
            FaultPlan::new()
                .at(e / 2, Fault::Partition { side })
                .at(13 * e / 4, Fault::HealAll)
        },
    },
    NamedPlan {
        name: "heal-and-converge",
        about: "node 0 is cut off from tick 1 to 5e",
        build: |_, e| {
            FaultPlan::new()
                .at(1, Fault::Partition { side: vec![0] })
                .at(5 * e, Fault::HealAll)
        },
    },
    NamedPlan {
        name: "asymmetric-partition",
        about: "node 0's outbound is blocked (its inbound open) from 3e/8 to 3e",
        build: |n, e| {
            let (from, to) = (vec![0], (1..n).collect());
            FaultPlan::new()
                .at(3 * e / 8, Fault::PartitionOneWay { from, to })
                .at(3 * e, Fault::HealAll)
        },
    },
    NamedPlan {
        name: "flapping-links",
        about: "the 0↔1 link is down 3e/8 of every 3e/4, five times",
        build: |_, e| {
            let mut plan = FaultPlan::new();
            for i in 0..5 {
                let (down, up) = ((2 + 6 * i) * e / 8, (5 + 6 * i) * e / 8);
                plan.push(down, Fault::BlockLink { from: 0, to: 1 });
                plan.push(down, Fault::BlockLink { from: 1, to: 0 });
                plan.push(up, Fault::HealLink { from: 0, to: 1 });
                plan.push(up, Fault::HealLink { from: 1, to: 0 });
            }
            plan
        },
    },
    NamedPlan {
        name: "straggler-node",
        about: "every link to and from the last node is 2½e ticks slower, run-long",
        build: |n, e| {
            let (last, extra) = (n.max(1) - 1, 5 * e / 2);
            let mut plan = FaultPlan::new();
            for (from, to) in (0..last).flat_map(|p| [(p, last), (last, p)]) {
                plan.push(0, Fault::LinkDelay { from, to, extra });
            }
            plan
        },
    },
    NamedPlan {
        name: "duplicate-burst",
        about: "80% duplication on every link until 2½e",
        build: |_, e| {
            FaultPlan::new()
                .at(0, Fault::DupAll { prob: 0.8 })
                .at(5 * e / 2, Fault::DupAll { prob: 0.0 })
        },
    },
    NamedPlan {
        name: "rolling-crashes-mid-epoch",
        about: "nodes 1 and n/2 crash and recover in turn, off epoch boundaries",
        build: |n, e| {
            FaultPlan::new()
                .at(5 * e / 8, Fault::Crash(1))
                .at(7 * e / 4, Fault::Recover(1))
                .at(2 * e, Fault::Crash(n / 2))
                .at(25 * e / 8, Fault::Recover(n / 2))
        },
    },
    NamedPlan {
        name: "skewed-clocks",
        about: "nodes 0 and n/2 run e/2 and e ticks behind until 3¾e",
        build: |n, e| {
            let mut plan = FaultPlan::new();
            for (at, scale) in [(0, 1), (15 * e / 4, 0)] {
                for (node, offset) in [(0, scale * e / 2), (n / 2, scale * e)] {
                    plan.push(at, Fault::ClockSkew { node, offset });
                }
            }
            plan
        },
    },
    NamedPlan {
        name: "latency-surge",
        about: "every link 1⅞e ticks slower from 3e/4 to 2¼e",
        build: |_, e| {
            let extra = 15 * e / 8;
            FaultPlan::new()
                .at(3 * e / 4, Fault::DelayAll { extra })
                .at(9 * e / 4, Fault::DelayAll { extra: 0 })
        },
    },
    NamedPlan {
        name: "lossy-burst",
        about: "15% loss on every link until 2¾e",
        build: |_, e| {
            FaultPlan::new()
                .at(0, Fault::DropAll { prob: 0.15 })
                .at(11 * e / 4, Fault::DropAll { prob: 0.0 })
        },
    },
];

/// The catalogue entry called `name`.
pub fn named(name: &str) -> Option<&'static NamedPlan> {
    CATALOGUE.iter().find(|p| p.name == name)
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

    /// Take the next event due at or before `now`, if any. Drivers
    /// apply each before taking the next, so a heal that follows a
    /// block on the same tick releases in between.
    pub fn next_due(&mut self, now: u64) -> Option<&Fault> {
        let ev = self.events.get(self.cursor).filter(|e| e.at <= now)?;
        self.cursor += 1;
        Some(&ev.fault)
    }
}

/// Fault state of one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Cell {
    blocked: bool,
    drop_prob: f64,
    dup_prob: f64,
    extra_delay: u64,
}

/// What a transport must do after [`Links::apply`]: the two effects
/// of a fault that a table cannot carry out itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Effect {
    /// The table update is the whole effect.
    None,
    /// A link reopened: re-inject the parked messages whose link is
    /// open now.
    Release,
    /// The node just went down: drop what is in flight to or from it
    /// now, so drop counts fall in the fault's window.
    Crash(NodeId),
}

/// The fault state of a cluster of `n` nodes as one transport sees it:
/// a cell per directed link for the sender rows it controls, plus
/// every node's crash flag and clock skew.
///
/// `Links::apply` is the only interpretation of a [`Fault`],
/// `Links::roll` the only drop/duplicate roll, and `Links::delay`
/// the only delay rule. A fault on a link outside the held rows
/// changes nothing here: that sender's own table carries it.
#[derive(Debug, Clone)]
pub struct Links {
    n: usize,
    /// The sender rows `cells` holds, `n` cells each.
    senders: Range<NodeId>,
    cells: Vec<Cell>,
    crashed: Vec<bool>,
    skew: Vec<u64>,
}

impl Links {
    /// Every sender's row (a simulator's whole network).
    pub(crate) fn all(n: usize) -> Self {
        Links::rows(0..n, n)
    }

    /// Only `me`'s outbound links (an endpoint's O(n) view).
    pub(crate) fn row(me: NodeId, n: usize) -> Self {
        Links::rows(me..me + 1, n)
    }

    fn rows(senders: Range<NodeId>, n: usize) -> Self {
        Links {
            n,
            cells: vec![Cell::default(); senders.len() * n],
            senders,
            crashed: vec![false; n],
            skew: vec![0; n],
        }
    }

    fn index(&self, from: NodeId, to: NodeId) -> usize {
        (from - self.senders.start) * self.n + to
    }

    fn cell(&self, from: NodeId, to: NodeId) -> &Cell {
        &self.cells[self.index(from, to)]
    }

    /// Update the held links `a → b` that `pick` selects.
    fn update(&mut self, pick: impl Fn(NodeId, NodeId) -> bool, f: impl Fn(&mut Cell)) {
        for a in self.senders.clone() {
            for b in (0..self.n).filter(|&b| pick(a, b)) {
                let i = self.index(a, b);
                f(&mut self.cells[i]);
            }
        }
    }

    /// Apply one fault to the table. The plan must name only nodes of
    /// the cluster ([`FaultPlan::check`]). A heal always asks for a
    /// release: messages park only on blocked links, so releasing
    /// after a heal of a link this table does not hold moves nothing.
    pub(crate) fn apply(&mut self, fault: &Fault) -> Effect {
        let one = |&from: &NodeId, &to: &NodeId| move |a, b| (a, b) == (from, to);
        let every = |a, b| a != b;
        let clamp = |p: &f64| p.clamp(0.0, 1.0);
        match fault {
            Fault::Crash(p) if !std::mem::replace(&mut self.crashed[*p], true) => {
                return Effect::Crash(*p);
            }
            Fault::Crash(_) => {} // already down
            Fault::Recover(p) => self.crashed[*p] = false,
            Fault::Partition { side } => {
                let side = membership(self.n, side);
                self.update(|a, b| side[a] != side[b], |c| c.blocked = true);
            }
            Fault::PartitionOneWay { from, to } => {
                let (from, to) = (membership(self.n, from), membership(self.n, to));
                self.update(|a, b| a != b && from[a] && to[b], |c| c.blocked = true);
            }
            Fault::BlockLink { from, to } => self.update(one(from, to), |c| c.blocked = true),
            Fault::HealLink { from, to } => {
                self.update(one(from, to), |c| c.blocked = false);
                return Effect::Release;
            }
            Fault::HealAll => {
                self.update(|_, _| true, |c| c.blocked = false);
                return Effect::Release;
            }
            Fault::LinkDrop { from, to, prob } => {
                self.update(one(from, to), |c| c.drop_prob = clamp(prob))
            }
            Fault::DropAll { prob } => self.update(every, |c| c.drop_prob = clamp(prob)),
            Fault::LinkDup { from, to, prob } => {
                self.update(one(from, to), |c| c.dup_prob = clamp(prob))
            }
            Fault::DupAll { prob } => self.update(every, |c| c.dup_prob = clamp(prob)),
            Fault::LinkDelay { from, to, extra } => {
                self.update(one(from, to), |c| c.extra_delay = *extra)
            }
            Fault::DelayAll { extra } => self.update(every, |c| c.extra_delay = *extra),
            Fault::ClockSkew { node, offset } => self.skew[*node] = *offset,
        }
        Effect::None
    }

    /// Is the directed link blocked?
    pub fn blocked(&self, from: NodeId, to: NodeId) -> bool {
        self.cell(from, to).blocked
    }

    /// Is the node down?
    pub(crate) fn crashed(&self, node: NodeId) -> bool {
        self.crashed[node]
    }

    /// Extra delay of a message `from → to`: the link's extra latency
    /// plus the sender's clock skew.
    pub(crate) fn delay(&self, from: NodeId, to: NodeId) -> u64 {
        self.cell(from, to).extra_delay + self.skew[from]
    }

    /// How many copies of a message `from → to` the link delivers: 0
    /// (dropped), 1, or 2 (duplicated). Draws the drop roll, then the
    /// duplicate roll, each only when its probability is nonzero — so
    /// a fault-free link consumes no randomness.
    pub(crate) fn roll(&self, from: NodeId, to: NodeId, rng: &mut impl Rng) -> usize {
        let c = self.cell(from, to);
        if c.drop_prob > 0.0 && rng.gen_bool(c.drop_prob) {
            0
        } else if c.dup_prob > 0.0 && rng.gen_bool(c.dup_prob) {
            2
        } else {
            1
        }
    }
}

fn membership(n: usize, nodes: &[NodeId]) -> Vec<bool> {
    let mut m = vec![false; n];
    for &p in nodes {
        m[p] = true;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Apply every event due at or before `now`; how many fired.
    fn apply_due(sched: &mut FaultSchedule, net: &mut Links, now: u64) -> usize {
        let mut fired = 0;
        while let Some(f) = sched.next_due(now) {
            net.apply(f);
            fired += 1;
        }
        fired
    }

    #[test]
    fn schedule_applies_in_time_order() {
        let plan = FaultPlan::new()
            .at(20, Fault::Recover(1))
            .at(10, Fault::Crash(1));
        let mut sched = plan.into_schedule();
        let mut net = Links::all(2);
        assert_eq!(sched.peek_time(), Some(10));
        assert_eq!(apply_due(&mut sched, &mut net, 5), 0);
        assert_eq!(apply_due(&mut sched, &mut net, 10), 1);
        assert!(net.crashed(1));
        assert_eq!(apply_due(&mut sched, &mut net, 100), 1);
        assert!(!net.crashed(1));
        assert_eq!(sched.peek_time(), None);
    }

    #[test]
    fn partition_blocks_both_directions() {
        let mut net = Links::all(4);
        net.apply(&Fault::Partition { side: vec![0, 1] });
        assert!(net.blocked(0, 2));
        assert!(net.blocked(2, 0));
        assert!(net.blocked(1, 3));
        assert!(!net.blocked(0, 1));
        assert!(!net.blocked(2, 3));
        net.apply(&Fault::HealAll);
        assert!(!net.blocked(0, 2));
    }

    #[test]
    fn one_way_partition_is_asymmetric() {
        let mut net = Links::all(3);
        net.apply(&Fault::PartitionOneWay {
            from: vec![0],
            to: vec![1, 2],
        });
        assert!(net.blocked(0, 1));
        assert!(net.blocked(0, 2));
        assert!(!net.blocked(1, 0));
        assert!(!net.blocked(2, 0));
    }

    #[test]
    fn only_a_loss_between_live_nodes_needs_repair() {
        let (a, b) = (0, 1);
        let lossy = [
            Fault::Partition { side: vec![a] },
            Fault::PartitionOneWay {
                from: vec![a],
                to: vec![b],
            },
            Fault::BlockLink { from: a, to: b },
            Fault::LinkDrop {
                from: a,
                to: b,
                prob: 0.1,
            },
            Fault::DropAll { prob: 0.1 },
        ];
        let lossless = [
            Fault::Crash(a),
            Fault::Recover(a),
            Fault::HealLink { from: a, to: b },
            Fault::HealAll,
            Fault::LinkDup {
                from: a,
                to: b,
                prob: 0.1,
            },
            Fault::DupAll { prob: 0.1 },
            Fault::LinkDelay {
                from: a,
                to: b,
                extra: 3,
            },
            Fault::DelayAll { extra: 3 },
            Fault::ClockSkew { node: a, offset: 3 },
        ];
        assert!(lossy.iter().all(Fault::needs_repair));
        assert!(!lossless.iter().any(Fault::needs_repair));
    }

    #[test]
    fn check_names_the_first_node_outside_the_cluster() {
        let plan = FaultPlan::new()
            .at(1, Fault::DropAll { prob: 0.1 })
            .at(2, Fault::BlockLink { from: 0, to: 7 })
            .at(3, Fault::ClockSkew { node: 9, offset: 1 });
        assert_eq!(plan.check(10), Ok(()));
        let err = plan.check(4).unwrap_err();
        assert!(err.contains("node 7 outside cluster of 4"), "{err}");
        let one_way = Fault::PartitionOneWay {
            from: vec![0],
            to: vec![4],
        };
        assert!(FaultPlan::new().at(0, one_way).check(4).is_err());
    }

    #[test]
    fn crashes_on_epochs_looks_only_at_crash_and_recover_ticks() {
        let plan = FaultPlan::new()
            .at(7, Fault::DropAll { prob: 0.1 })
            .at(100, Fault::Crash(1))
            .at(300, Fault::Recover(1));
        assert!(plan.crashes_on_epochs(100));
        assert!(!plan.crashes_on_epochs(200), "300 is mid-epoch");
        assert!(!plan.crashes_on_epochs(0), "no epochs, no crash cut");
        let links_only = FaultPlan::new().at(7, Fault::DropAll { prob: 0.1 });
        assert!(links_only.crashes_on_epochs(0));
    }

    #[test]
    fn a_crash_reports_its_effect_once() {
        let mut net = Links::all(2);
        assert_eq!(net.apply(&Fault::Crash(1)), Effect::Crash(1));
        assert_eq!(net.apply(&Fault::Crash(1)), Effect::None, "already down");
        assert_eq!(net.apply(&Fault::Recover(1)), Effect::None);
        assert_eq!(net.apply(&Fault::Crash(1)), Effect::Crash(1));
    }

    fn random_fault(rng: &mut StdRng, n: usize) -> Fault {
        let set =
            |rng: &mut StdRng| -> Vec<NodeId> { (0..n).filter(|_| rng.gen_bool(0.5)).collect() };
        let prob = |rng: &mut StdRng| [0.0, 0.25, 1.0][rng.gen_range(0..3usize)];
        let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let extra = rng.gen_range(0..5u64);
        match rng.gen_range(0..14u32) {
            0 => Fault::Crash(from),
            1 => Fault::Recover(from),
            2 => Fault::Partition { side: set(rng) },
            3 => Fault::PartitionOneWay {
                from: set(rng),
                to: set(rng),
            },
            4 => Fault::BlockLink { from, to },
            5 => Fault::HealLink { from, to },
            6 => Fault::HealAll,
            7 => Fault::LinkDrop {
                from,
                to,
                prob: prob(rng),
            },
            8 => Fault::DropAll { prob: prob(rng) },
            9 => Fault::LinkDup {
                from,
                to,
                prob: prob(rng),
            },
            10 => Fault::DupAll { prob: prob(rng) },
            11 => Fault::LinkDelay { from, to, extra },
            12 => Fault::DelayAll { extra },
            _ => Fault::ClockSkew {
                node: from,
                offset: extra,
            },
        }
    }

    /// An endpoint's one-row table is exactly its row of the whole
    /// network's table, whatever the plan.
    #[test]
    fn a_row_table_agrees_with_its_row_of_the_full_table() {
        let mut rng = StdRng::seed_from_u64(30);
        for _ in 0..200 {
            let n = rng.gen_range(1..9usize);
            let plan: Vec<Fault> = (0..rng.gen_range(0..24usize))
                .map(|_| random_fault(&mut rng, n))
                .collect();
            let mut all = Links::all(n);
            let mut rows: Vec<Links> = (0..n).map(|me| Links::row(me, n)).collect();
            for f in &plan {
                all.apply(f);
                for row in &mut rows {
                    row.apply(f);
                }
            }
            for (me, row) in rows.iter().enumerate() {
                for to in 0..n {
                    assert_eq!(row.cell(me, to), all.cell(me, to), "{plan:?}");
                    assert_eq!(row.delay(me, to), all.delay(me, to), "{plan:?}");
                    assert_eq!(row.crashed(to), all.crashed(to), "{plan:?}");
                }
            }
        }
    }
}
