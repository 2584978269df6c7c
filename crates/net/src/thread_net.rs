//! Real-thread transport over unbounded in-process queues (one
//! `crate::inbox` per node).
//!
//! Used by the live store engine (`cbm-store`), which runs the
//! protocols under true parallelism. Each node owns an inbox; senders are cloneable
//! handles. A message is moved into the channel and out of it — the
//! transport never copies one. Unlike [`crate::sim::SimNet`] there is no virtual time —
//! ordering comes from the OS scheduler, which is exactly the
//! nondeterminism the wait-free algorithms must tolerate.
//!
//! Statistics are lock-free ([`AtomicU64`] counters): the send path is
//! the hot path of every worker thread, so a shared mutex would be a
//! needless serialization point.

use crate::inbox::{inbox, Inbox, InboxSender};
use crate::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared transport statistics, updated lock-free from every endpoint.
///
/// The per-node vectors are indexed by **recipient** and fed by the
/// fault layer ([`crate::chaos::ChaosEndpoint`]): a fault-free mesh
/// never touches them. They are plain atomics rather than a mutexed
/// table because the chaos decisions ride the workers' send hot path.
/// Deliberately no `Default`: the vectors must be sized to the
/// cluster, so the only constructor is `ThreadNetStats::new`.
#[derive(Debug)]
pub struct ThreadNetStats {
    /// Messages sent across all links.
    pub msgs_sent: AtomicU64,
    /// Payload bytes sent across all links (as declared by
    /// `Endpoint::send_sized`; plain [`Endpoint::send`] counts 0).
    pub bytes_sent: AtomicU64,
    /// Messages lost to injected faults, per recipient node (chaos
    /// drops, sends suppressed to crashed nodes, crash-time discards).
    pub dropped_per_node: Vec<AtomicU64>,
    /// Extra copies injected by duplication faults, per recipient node.
    pub dup_per_node: Vec<AtomicU64>,
}

/// A point-in-time copy of [`ThreadNetStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadNetSnapshot {
    /// Messages sent across all links.
    pub msgs_sent: u64,
    /// Payload bytes sent across all links.
    pub bytes_sent: u64,
    /// Fault-injected losses per recipient node.
    pub dropped_per_node: Vec<u64>,
    /// Fault-injected duplicate copies per recipient node.
    pub dup_per_node: Vec<u64>,
}

impl ThreadNetSnapshot {
    /// Total fault-injected losses across all nodes.
    #[cfg(test)]
    pub(crate) fn msgs_dropped(&self) -> u64 {
        self.dropped_per_node.iter().sum()
    }
}

impl ThreadNetStats {
    /// Counters for a mesh of `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        ThreadNetStats {
            msgs_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            dropped_per_node: (0..n).map(|_| AtomicU64::new(0)).collect(),
            dup_per_node: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Read every counter (relaxed; exact once senders are quiescent).
    pub fn snapshot(&self) -> ThreadNetSnapshot {
        ThreadNetSnapshot {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            dropped_per_node: self
                .dropped_per_node
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            dup_per_node: self
                .dup_per_node
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Depth of a peer's inbox, in messages, past which a sender gives up
/// its timeslice after each send to it: the queues are unbounded and a
/// send never waits for a peer, so with more nodes than cores a node
/// that is descheduled is buried by the ones that run — at 60 ns an op
/// a timeslice is a whole 50 k-op epoch of envelopes — and wakes to a
/// backlog that has fallen out of every cache. Past the bound the
/// sender yields, which is how the OS is told that the thread worth
/// running is the one that would drain it; with a core per node the
/// bound is never reached. It is a hint to the scheduler, not flow
/// control: nothing blocks, a yield with no one to run returns at once,
/// and no count or delivery order depends on it.
///
/// 256 messages is the thread-transport twin of the socket path's
/// 256 KiB outbound bound (~230 envelopes of 32 ops,
/// `tcp::OUTBOUND_BOUND`), chosen by the same kind of sweep (the
/// benchmark's workloads, 4 workers on 2 cores, 5 s runs, seed 42, two
/// runs each; M ops/s at MB peak RSS): `write_fanout` — no bound
/// 3.4–5.1 at 22–25, 1024: 5.3–5.6 at 22, 256: 6.2–6.3 at 12–14, 64:
/// 6.4–7.9 at 11–12; `convergent_hot` — no bound 5.1–5.4 at 31, 1024:
/// 5.2–5.4 at 31, 256: 4.8–5.1 at 28–29, 64: 3.8–4.0 at 27 (its
/// deliveries refold, so handing the core over every 64 envelopes
/// costs more than the backlog did); `monitored_mixed` — 6.8–7.0 at
/// 22–23, 6.1–6.5 at 22–23, 6.0–6.4 at 18–19, 6.0–6.6 at 16–19;
/// `sharded_routed` — 1.0–1.5 at 5.5–6.0 everywhere (futex-bound, and
/// its envelopes are few). 256 is the smallest bound that costs no
/// workload its throughput.
const BACKLOG_YIELD: u64 = 256;

/// A mesh of channels between `n` nodes.
pub struct ThreadNet<M> {
    senders: Vec<InboxSender<M>>,
    receivers: Vec<Option<Inbox<M>>>,
    stats: Arc<ThreadNetStats>,
}

/// A per-node endpoint: send to anyone, receive your own queue.
pub struct Endpoint<M> {
    /// This node's id.
    pub me: NodeId,
    senders: Vec<InboxSender<M>>,
    receiver: Inbox<M>,
    stats: Arc<ThreadNetStats>,
}

impl<M: Send> ThreadNet<M> {
    /// Build a fully connected mesh of `n` nodes.
    pub fn new(n: usize) -> Self {
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = inbox();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        ThreadNet {
            senders,
            receivers,
            stats: Arc::new(ThreadNetStats::new(n)),
        }
    }

    /// Take the endpoint for node `me` (panics if taken twice).
    #[cfg(test)]
    pub(crate) fn endpoint(&mut self, me: NodeId) -> Endpoint<M> {
        Endpoint {
            me,
            senders: self.senders.clone(),
            receiver: self.receivers[me].take().expect("endpoint already taken"),
            stats: Arc::clone(&self.stats),
        }
    }

    /// Consume the mesh into all `n` endpoints at once.
    ///
    /// This drops the mesh's own copy of the sender table, so once
    /// every endpoint has `Endpoint::shutdown` the channels actually
    /// disconnect and blocking drains terminate. Panics if any endpoint
    /// was already taken.
    pub fn into_endpoints(mut self) -> Vec<Endpoint<M>> {
        (0..self.senders.len())
            .map(|me| Endpoint {
                me,
                senders: self.senders.clone(),
                receiver: self.receivers[me].take().expect("endpoint already taken"),
                stats: Arc::clone(&self.stats),
            })
            .collect()
    }

    /// Shared statistics handle (lock-free counters).
    pub fn stats(&self) -> Arc<ThreadNetStats> {
        Arc::clone(&self.stats)
    }
}

impl<M: Clone + Send> Endpoint<M> {
    /// Send to one peer, counting `bytes` payload bytes.
    ///
    /// The transport moves typed values in memory, so the byte count is
    /// declared by the caller (the protocol layer knows its wire
    /// encoding).
    pub(crate) fn send_sized(&self, to: NodeId, msg: M, bytes: usize) {
        // a disconnected peer (dropped endpoint) models a crash: sends
        // to it are silently lost, like the simulator's drops
        if self.senders[to].send(self.me, msg) {
            self.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
            self.stats
                .bytes_sent
                .fetch_add(bytes as u64, Ordering::Relaxed);
            if self.senders[to].backlog() >= BACKLOG_YIELD {
                std::thread::yield_now();
            }
        }
    }

    /// Send to one peer (no byte accounting).
    pub fn send(&self, to: NodeId, msg: M) {
        self.send_sized(to, msg, 0);
    }

    /// Send to every other node, counting `bytes` per copy.
    pub(crate) fn broadcast_sized(&self, msg: M, bytes: usize) {
        for to in 0..self.senders.len() {
            if to != self.me {
                self.send_sized(to, msg.clone(), bytes);
            }
        }
    }

    /// Send to every other node (no byte accounting).
    pub fn broadcast(&self, msg: M) {
        self.broadcast_sized(msg, 0);
    }

    /// Blocking receive.
    pub(crate) fn recv(&self) -> Option<(NodeId, M)> {
        self.receiver.recv()
    }

    /// Non-blocking receive.
    #[inline]
    pub fn try_recv(&self) -> Option<(NodeId, M)> {
        self.receiver.try_recv()
    }

    /// Cluster size.
    pub fn cluster_size(&self) -> usize {
        self.senders.len()
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> Arc<ThreadNetStats> {
        Arc::clone(&self.stats)
    }

    /// Graceful shutdown: drop this node's send handles, keeping the
    /// receive side so already-queued messages can still be drained.
    ///
    /// Once every node of a mesh built with
    /// [`ThreadNet::into_endpoints`] has shut down, the queues
    /// disconnect and [`Inbox::recv`] returns `None` after the queue
    /// empties — the coordination-free termination used by the store
    /// engine's teardown.
    pub(crate) fn shutdown(self) -> Inbox<M> {
        self.receiver
    }
}

impl<M: Clone + Send> crate::endpoint::Endpoint<M> for Endpoint<M> {
    type Drain = Inbox<M>;

    fn me(&self) -> NodeId {
        self.me
    }

    fn cluster_size(&self) -> usize {
        Endpoint::cluster_size(self)
    }

    fn stats(&self) -> Arc<ThreadNetStats> {
        Endpoint::stats(self)
    }

    fn send_sized(&self, to: NodeId, msg: M, bytes: usize) {
        Endpoint::send_sized(self, to, msg, bytes);
    }

    fn recv(&self) -> Option<(NodeId, M)> {
        Endpoint::recv(self)
    }

    #[inline]
    fn try_recv(&self) -> Option<(NodeId, M)> {
        Endpoint::try_recv(self)
    }

    fn moves_messages(&self) -> bool {
        true
    }

    fn shutdown(self) -> Inbox<M> {
        Endpoint::shutdown(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_delivery() {
        let mut net: ThreadNet<u32> = ThreadNet::new(2);
        let a = net.endpoint(0);
        let b = net.endpoint(1);
        a.send(1, 42);
        assert_eq!(b.recv(), Some((0, 42)));
        assert_eq!(net.stats().snapshot().msgs_sent, 1);
    }

    #[test]
    fn broadcast_reaches_all_peers() {
        let mut net: ThreadNet<&str> = ThreadNet::new(3);
        let e0 = net.endpoint(0);
        let e1 = net.endpoint(1);
        let e2 = net.endpoint(2);
        e0.broadcast("hello");
        assert_eq!(e1.recv(), Some((0, "hello")));
        assert_eq!(e2.recv(), Some((0, "hello")));
        assert_eq!(e1.try_recv(), None);
    }

    #[test]
    fn cross_thread_exchange() {
        let mut net: ThreadNet<u64> = ThreadNet::new(2);
        let a = net.endpoint(0);
        let b = net.endpoint(1);
        let handle = thread::spawn(move || {
            let mut sum = 0;
            for _ in 0..100 {
                let (_, v) = b.recv().unwrap();
                sum += v;
            }
            sum
        });
        for i in 0..100u64 {
            a.send(1, i);
        }
        assert_eq!(handle.join().unwrap(), 4950);
    }

    #[test]
    fn send_to_dropped_endpoint_is_lost_not_panicking() {
        let mut net: ThreadNet<u8> = ThreadNet::new(2);
        let a = net.endpoint(0);
        {
            let _b = net.endpoint(1);
            // dropped here: simulated crash
        }
        a.send(1, 1); // must not panic
    }

    #[test]
    fn byte_accounting_is_per_copy() {
        let mut net: ThreadNet<u8> = ThreadNet::new(3);
        let e0 = net.endpoint(0);
        let _e1 = net.endpoint(1);
        let _e2 = net.endpoint(2);
        e0.broadcast_sized(7, 10);
        let s = net.stats().snapshot();
        assert_eq!(s.msgs_sent, 2);
        assert_eq!(s.bytes_sent, 20);
    }

    #[test]
    fn concurrent_sends_count_exactly() {
        let net: ThreadNet<u64> = ThreadNet::new(4);
        let eps = net.into_endpoints();
        let stats = eps[0].stats();
        thread::scope(|s| {
            for e in eps {
                s.spawn(move || {
                    for i in 0..500u64 {
                        e.broadcast_sized(i, 8);
                    }
                    // hold the endpoint (and its receiver) open until
                    // every peer's sends to us have landed, so no send
                    // is lost to an early-dropped receiver
                    for _ in 0..3 * 500 {
                        e.recv().unwrap();
                    }
                });
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.msgs_sent, 4 * 500 * 3);
        assert_eq!(snap.bytes_sent, 4 * 500 * 3 * 8);
    }
}
