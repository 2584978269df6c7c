//! The replica abstraction shared by every implementation flavour.
//!
//! A replica is a deterministic state machine driven by two stimuli:
//! local **invocations** (the shared-object operations of §6.1) and
//! network **deliveries**. It emits outgoing messages and operation
//! completions; it never blocks. Wait-freedom is then a *property* of
//! a flavour — `invoke` returning [`InvokeOutcome::Done`] — rather than
//! an assumption baked into the driver, which lets the same
//! [`crate::cluster::Cluster`] measure wait-free causal objects and the
//! blocking sequentially-consistent baseline side by side.

use cbm_adt::Adt;
use cbm_net::broadcast::{full_interest, InterestBatchCausalBroadcast, InterestMsg};
use cbm_net::clock::Timestamp;
use cbm_net::NodeId;

/// An application payload stamped with the history event id assigned at
/// invocation — how recorded executions tie deliveries back to events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamped<I> {
    /// Arena event id (assigned by the recorder).
    pub event: u64,
    /// The operation input.
    pub input: I,
}

/// Where to send an emitted message.
#[derive(Debug, Clone)]
pub enum Outgoing<M> {
    /// Send to every other replica.
    Broadcast(M),
    /// Send point-to-point (the sequencer baseline needs this).
    To(NodeId, M),
}

/// Result of an invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvokeOutcome<O> {
    /// Completed locally (wait-free flavours always return this).
    Done(O),
    /// Will complete when the network cooperates; the token is the
    /// stamped event id, echoed by a later completion.
    Pending(u64),
}

/// A replica of a shared object of type `T`.
pub trait Replica<T: Adt> {
    /// Network message type of this flavour.
    type Msg: Clone;

    /// Create the replica for process `me` in a cluster of `n`.
    fn new_replica(me: NodeId, n: usize, adt: T) -> Self;

    /// Invoke an operation. `out` receives messages to transmit.
    ///
    /// The `event` id stamps broadcast effects so recorded executions
    /// can reconstruct the delivery relation.
    fn invoke(
        &mut self,
        event: u64,
        input: &T::Input,
        out: &mut Vec<Outgoing<Self::Msg>>,
    ) -> InvokeOutcome<T::Output>;

    /// Deliver a network message.
    ///
    /// * `out` — messages to transmit (protocol forwards);
    /// * `completed` — operations that just completed: `(event id,
    ///   output)`;
    /// * `applied` — event ids whose side effect was just applied to
    ///   the local state, in application order (recorder input).
    fn on_deliver(
        &mut self,
        from: NodeId,
        msg: Self::Msg,
        out: &mut Vec<Outgoing<Self::Msg>>,
        completed: &mut Vec<(u64, T::Output)>,
        applied: &mut Vec<u64>,
    );

    /// Snapshot of the local abstract state (convergence checks).
    fn local_state(&self) -> T::State;

    /// Approximate wire size of a message in bytes (metrics).
    fn msg_size(&self, msg: &Self::Msg) -> usize;

    /// Is this flavour wait-free (invocations always complete locally)?
    fn wait_free() -> bool {
        true
    }

    /// For arbitrated flavours: every update this replica has applied,
    /// as `(arbitration timestamp, event id)` in any order. The cluster
    /// merges every replica's list into the run's `≤` witness of
    /// Def. 12: under message loss no single replica knows them all.
    fn arbitration_hint(&self) -> Option<Vec<(Timestamp, u64)>> {
        None
    }

    /// Human-readable flavour name for reports.
    fn flavour() -> &'static str;
}

/// Rough serialized size of a stamped input (metrics only: 8-byte event
/// id + caller-estimated input size).
pub(crate) fn stamped_size(input_size: usize) -> usize {
    8 + input_size
}

/// Causally broadcast `payload` to every other replica (§6.1) over the
/// edge-stamped multicast the store engine runs: queue it for the full
/// mask and flush at once, which stamps one envelope per peer in
/// ascending order — the same sends, in the same order, that
/// [`Outgoing::Broadcast`] of one shared envelope would make.
pub(crate) fn causal_broadcast<P: Clone>(
    bcast: &mut InterestBatchCausalBroadcast<P>,
    payload: P,
    out: &mut Vec<Outgoing<InterestMsg<Vec<P>>>>,
) {
    let all = full_interest(bcast.cluster_size());
    bcast.push(payload, all);
    let envs = bcast.flush_mask(all).into_iter();
    out.extend(envs.map(|(r, env)| Outgoing::To(r, env)));
}

/// Wire size of a [`causal_broadcast`] envelope: the exact varint
/// causal header plus `payload_size` bytes per payload.
pub(crate) fn causal_size<P>(msg: &InterestMsg<Vec<P>>, payload_size: usize) -> usize {
    msg.knows.wire_len(msg.sender, msg.seq) + msg.payload.len() * payload_size
}

/// The copy of a [`causal_broadcast`] addressed to `r`.
#[cfg(test)]
pub(crate) fn copy_for<M: Clone>(out: &[Outgoing<M>], r: NodeId) -> M {
    let mut copies = out.iter().filter_map(|o| match o {
        Outgoing::To(to, m) if *to == r => Some(m.clone()),
        _ => None,
    });
    copies.next().expect("one copy per peer")
}

/// Deliver every message in `out`, emitted by `from`, to its addressee
/// in emission order.
#[cfg(test)]
pub(crate) fn deliver_each<T: Adt, R: Replica<T>>(
    reps: &mut [R],
    from: NodeId,
    out: Vec<Outgoing<R::Msg>>,
) {
    for o in out {
        let Outgoing::To(to, m) = o else {
            panic!("a causal broadcast is one copy per peer")
        };
        reps[to].on_deliver(from, m, &mut Vec::new(), &mut Vec::new(), &mut Vec::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_size_adds_event_id() {
        assert_eq!(stamped_size(12), 20);
    }
}
