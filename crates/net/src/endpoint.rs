//! The transport-independent endpoint surface.
//!
//! [`crate::thread_net::ThreadNet`] was the engine's only live
//! transport for seven PRs, so its `Endpoint` struct *was* the
//! interface. Real-socket deployment ([`crate::tcp`]) needs the same
//! surface over TCP streams, so the contract the store engine and the
//! fault layer ([`crate::chaos::ChaosEndpoint`]) actually rely on is
//! extracted here as a trait:
//!
//! * identity (`me`, `cluster_size`) fixed at mesh construction;
//! * `send_sized` declaring the wire byte count, with the accounting
//!   pin: the shared [`ThreadNetStats`] counters increment exactly
//!   when a copy enters a peer's queue — never for lost copies;
//! * per-sender FIFO delivery into one merged inbound queue
//!   (`recv`/`try_recv`), no ordering across senders;
//! * graceful [`Endpoint::shutdown`] into a [`Drain`]: the node stops
//!   sending but keeps receiving, and once every node of the mesh has
//!   shut down, `Drain::recv` returns `None` after the queue empties —
//!   the coordination-free termination the engine's teardown uses.
//!
//! The trait is deliberately exactly what the engine consumes: a new
//! transport that satisfies it inherits the chaos layer, the drain
//! rendezvous, and the deterministic-count contract unchanged.

use crate::thread_net::ThreadNetStats;
use crate::NodeId;
use std::sync::Arc;

/// Receive side of a shut-down endpoint (see [`Endpoint::shutdown`]).
pub trait Drain<M> {
    /// Next queued message: blocks while live senders exist, returns
    /// `None` once the queue is empty and every sender has shut down.
    fn recv(&self) -> Option<(NodeId, M)>;

    /// Drain whatever is queued right now, without blocking.
    fn drain_now(&self) -> Vec<(NodeId, M)>;
}

/// A per-node transport endpoint: send to any peer, receive your own
/// merged queue. See the module docs for the delivery and accounting
/// contract every implementation must keep.
pub trait Endpoint<M: Send>: Send {
    /// What [`Endpoint::shutdown`] leaves behind.
    type Drain: Drain<M> + Send;

    /// This node's id.
    fn me(&self) -> NodeId;

    /// Number of nodes in the mesh.
    fn cluster_size(&self) -> usize;

    /// The mesh's shared lock-free statistics.
    fn stats(&self) -> Arc<ThreadNetStats>;

    /// Send to one peer, counting `bytes` payload bytes if (and only
    /// if) the copy enters the peer's queue.
    fn send_sized(&self, to: NodeId, msg: M, bytes: usize);

    /// Blocking receive; `None` once every sender has shut down and
    /// the queue is empty.
    fn recv(&self) -> Option<(NodeId, M)>;

    /// Non-blocking receive.
    fn try_recv(&self) -> Option<(NodeId, M)>;

    /// Flush marker: push an uncounted transport-internal marker onto
    /// every outbound edge, **behind** everything already sent. A
    /// receiver that has observed this node's `k`-th marker (per
    /// [`Endpoint::marker_count`]) is guaranteed its inbound queue
    /// already holds every message this node actually transmitted
    /// before the marker — per-edge FIFO makes the marker a cut.
    ///
    /// Synchronous transports deliver into the peer's queue before
    /// `send_sized` returns, so the default is a no-op: the guarantee
    /// holds vacuously and [`Endpoint::marker_count`] reports
    /// "infinitely many markers seen". Asynchronous transports (TCP)
    /// override both; the engine's drain rendezvous sends one marker
    /// per cut and waits for peers' markers before judging per-edge
    /// gaps, so in-flight frames are never mistaken for faulted ones.
    fn send_marker(&self) {}

    /// Markers observed from `peer` so far (see
    /// [`Endpoint::send_marker`]). Synchronous transports report
    /// `u64::MAX`: every cut is trivially settled.
    fn marker_count(&self, _peer: NodeId) -> u64 {
        u64::MAX
    }

    /// Does a sent message reach its receiver as the very value sent —
    /// moved in memory, not encoded and decoded? Only then can buffers
    /// a receiver hands back serve its peers' next sends, so the store
    /// engine shares one envelope-buffer pool
    /// ([`crate::broadcast::BufPool`]) among its workers only over such
    /// a transport. The default, `false`, keeps every endpoint's
    /// buffers to itself.
    fn moves_messages(&self) -> bool {
        false
    }

    /// Stop sending, keep receiving (see module docs).
    fn shutdown(self) -> Self::Drain;
}
