//! Logical clocks: vector clocks (causal delivery) and Lamport clocks
//! (the timestamp arbitration of Fig. 5).

use crate::NodeId;

/// A vector clock over a fixed cluster size.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VectorClock(Vec<u64>);

impl VectorClock {
    /// The zero clock for `n` processes.
    pub fn new(n: usize) -> Self {
        VectorClock(vec![0; n])
    }

    /// Cluster size.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is this the zero clock of an empty cluster?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Component for process `i`.
    pub fn get(&self, i: NodeId) -> u64 {
        self.0[i]
    }

    /// Set component `i` (used by broadcast layers).
    pub fn set(&mut self, i: NodeId, v: u64) {
        self.0[i] = v;
    }

    /// Increment component `i` and return the new value.
    pub fn tick(&mut self, i: NodeId) -> u64 {
        self.0[i] += 1;
        self.0[i]
    }

    /// Sum of components (events counted).
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Raw components.
    pub(crate) fn components(&self) -> &[u64] {
        &self.0
    }
}

/// A Lamport scalar clock (§6.3: "a logical Lamport's clock is a
/// pre-total order; to have a total order, writes are timestamped with
/// a pair (logical time, process id)").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LamportClock(u64);

impl LamportClock {
    /// A fresh clock at 0.
    pub fn new() -> Self {
        LamportClock(0)
    }

    /// Current value.
    pub fn now(&self) -> u64 {
        self.0
    }

    /// Advance for a local event; returns the event's time (≥ 1, so the
    /// initial timestamps `(0, 0)` of Fig. 5 sort before every write).
    pub fn tick(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }

    /// Incorporate a remote time (line 11 of Fig. 5:
    /// `vtime ← max(vtime, vt)`).
    pub fn observe(&mut self, remote: u64) {
        self.0 = self.0.max(remote);
    }
}

/// A totally ordered timestamp `(time, process id)` — the arbitration
/// key of the Fig. 5 algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp {
    /// Lamport time (compare first).
    pub time: u64,
    /// Tie-breaking process id.
    pub pid: NodeId,
}

cbm_adt::wire_struct!(Timestamp { time, pid });

impl Timestamp {
    /// The timestamp `(0, 0)` carried by initial values in Fig. 5.
    pub const ZERO: Timestamp = Timestamp { time: 0, pid: 0 };

    /// Construct a timestamp.
    pub fn new(time: u64, pid: NodeId) -> Self {
        Timestamp { time, pid }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_pointwise_max() {
        let mut a = VectorClock::new(2);
        a.set(0, 5);
        a.set(1, 7);
        assert_eq!(a.components(), &[5, 7]);
        assert_eq!(a.total(), 12);
    }

    #[test]
    fn lamport_clock_monotone() {
        let mut c = LamportClock::new();
        assert_eq!(c.tick(), 1);
        c.observe(10);
        assert_eq!(c.now(), 10);
        c.observe(3); // no regression
        assert_eq!(c.now(), 10);
        assert_eq!(c.tick(), 11);
    }

    #[test]
    fn timestamps_totally_ordered() {
        let a = Timestamp::new(1, 2);
        let b = Timestamp::new(1, 3);
        let c = Timestamp::new(2, 0);
        assert!(a < b && b < c && a < c);
        assert!(Timestamp::ZERO < a);
    }

    #[test]
    fn happened_before_implies_timestamp_order() {
        // simulate: p0 ticks, sends; p1 observes then ticks
        let mut c0 = LamportClock::new();
        let t0 = Timestamp::new(c0.tick(), 0);
        let mut c1 = LamportClock::new();
        c1.observe(t0.time);
        let t1 = Timestamp::new(c1.tick(), 1);
        assert!(t0 < t1);
    }
}
