//! The engine's wire payloads.
//!
//! The replication fast path moves [`StoreMsg::Batch`] envelopes —
//! interest-stamped per recipient ([`cbm_net::broadcast::InterestMsg`])
//! so partial replication keeps per-edge gap detection and causal
//! order (see `docs/SHARDING.md`). The control variants exist for the
//! chaos-hardened and sharded paths: gap repair at drains
//! ([`StoreMsg::Nack`] / [`StoreMsg::Repair`]), crash-recovery state
//! transfer ([`StoreMsg::ShardSync`]), and the read request/reply pair
//! that routes a non-replica's read to a live replica of the object's
//! shard ([`StoreMsg::ReadReq`] / [`StoreMsg::ReadReply`]). Control
//! traffic bypasses the fault layer (it models a freshly established
//! reliable stream), but is still counted in the transport statistics
//! with the deterministic size estimates below.

use cbm_net::broadcast::InterestMsg;
use cbm_net::clock::Timestamp;

/// One replicated update as carried inside a batch.
#[derive(Debug, Clone)]
pub struct WireOp<I> {
    /// Target object id (pre-modulo).
    pub obj: u32,
    /// The update input.
    pub input: I,
    /// Arbitration timestamp (meaningful in convergent mode; causal
    /// mode ships `Timestamp::ZERO`-like values it never reads).
    pub ts: Timestamp,
    /// Window tag: `Some(k)` when this is the origin worker's `k`-th
    /// recorded own event of the currently recorded window.
    pub wseq: Option<u32>,
}

/// A batch envelope as moved by the transport.
pub type BatchMsg<I> = InterestMsg<Vec<WireOp<I>>>;

/// Crash-recovery state transfer: the per-shard states a recovering
/// replica installs at the recovery drain. Each live co-replica helper
/// ships the shards it was elected for; the edge frontier and the
/// `seen` matrix need no message — they are read off the drain's
/// published edge-count matrix (see `docs/SHARDING.md`).
#[derive(Debug, Clone)]
pub struct ShardSyncPayload<S> {
    /// `(shard, its slots' states in ascending slot order)`.
    pub shards: Vec<(u32, Vec<S>)>,
    /// The helper's Lamport time (arbitration safety margin).
    pub lamport: u64,
}

/// Disk-based crash-recovery tail fetch: the per-shard op delta past a
/// recovering replica's persisted frontier. When the recoverer replayed
/// its own epoch log cleanly to the crash cut
/// (`docs/DURABILITY.md`), each helper ships only the ops it applied to
/// the served shards during the outage window instead of the full
/// [`ShardSyncPayload`] state transfer.
#[derive(Debug, Clone)]
pub struct ShardDeltaPayload<I> {
    /// `(shard, the ops applied to it since the crash cut, in the
    /// helper's apply order)`.
    pub shards: Vec<(u32, Vec<WireOp<I>>)>,
    /// The helper's Lamport time (arbitration safety margin).
    pub lamport: u64,
}

/// Everything the engine moves over the transport.
#[derive(Debug, Clone)]
pub enum StoreMsg<I, O, S> {
    /// A causal batch of updates (the fast path; subject to chaos).
    Batch(BatchMsg<I>),
    /// Drain-time gap report: "some of this epoch's envelopes on your
    /// edge to me never arrived; retransmit" (reliable). Carries no
    /// frontier: mid-epoch delivery clocks depend on thread
    /// interleaving, so a deterministic protocol retransmits the
    /// sender's whole per-edge epoch log and lets the causal layer's
    /// duplicate suppression discard the copies already held.
    Nack,
    /// Retransmission answering a [`StoreMsg::Nack`]: every envelope
    /// the sender addressed to the nacker since the last drain, oldest
    /// first (reliable).
    Repair(Vec<BatchMsg<I>>),
    /// Crash-recovery state transfer from a live co-replica helper
    /// (reliable).
    ShardSync(Box<ShardSyncPayload<S>>),
    /// A non-replica's read routed to a live replica of the object's
    /// shard (reliable): evaluate `input` against `obj` and reply.
    ReadReq {
        /// Target object id (pre-modulo).
        obj: u32,
        /// The query input.
        input: I,
    },
    /// The routed read's answer (reliable).
    ReadReply {
        /// The serving replica's output.
        output: O,
    },
    /// A disk-recovering replica's opening handshake to each elected
    /// helper (reliable): `full = false` requests the op delta past its
    /// replayed crash cut ([`StoreMsg::ShardDelta`]); `full = true`
    /// means its disk was torn or stale and it needs the full
    /// [`StoreMsg::ShardSync`] state transfer.
    SyncReq {
        /// Fall back to a full state transfer?
        full: bool,
    },
    /// The delta answer to `SyncReq { full: false }` (reliable).
    ShardDelta(Box<ShardDeltaPayload<I>>),
}

/// Wire size of a batch envelope: the **exact** varint-encoded causal
/// header (sender, edge sequence number, and the delta-encoded
/// dirty-row knowledge matrix that carries transitive causal
/// dependencies under partial replication — see `cbm_net::delta` for
/// the codec and its byte-exact `wire_len`), plus per-op object id,
/// timestamp, tag byte, and the in-memory payload size as a stand-in
/// for a real payload codec. The dense-matrix era charged a flat
/// `8·n²`-byte header here; the delta header's size depends on how
/// much knowledge actually changed on the edge since its previous
/// envelope, which is what makes bytes/op flat in cluster size under
/// locality-bounded placement (`docs/SCALING.md`) — and also why byte
/// totals, unlike message/batch/payload counts, are not
/// interleaving-deterministic.
pub fn batch_bytes<I>(env: &BatchMsg<I>) -> usize {
    env.knows.wire_len(env.sender, env.seq) + env.payload.len() * op_bytes::<I>()
}

/// What one replicated op is charged on the wire: object id,
/// timestamp, tag byte, and the input's in-memory size.
pub(crate) fn op_bytes<I>() -> usize {
    4 + 10 + 1 + std::mem::size_of::<I>()
}

/// Estimated wire size of a nack (sender id + tag).
pub(crate) fn nack_bytes() -> usize {
    2 + 1
}

/// Wire size of a repair: the envelopes it retransmits, at their
/// original (delta-encoded) stamp sizes.
pub(crate) fn repair_bytes<I>(batches: &[BatchMsg<I>]) -> usize {
    batches.iter().map(batch_bytes).sum()
}

/// Estimated wire size of a state transfer: shard ids, per-object
/// states, and the Lamport stamp.
pub(crate) fn sync_bytes<S>(p: &ShardSyncPayload<S>) -> usize {
    p.shards
        .iter()
        .map(|(_, states)| 4 + states.len() * std::mem::size_of::<S>())
        .sum::<usize>()
        + 8
}

/// Estimated wire size of a recovery handshake (sender + tag + flag).
pub(crate) fn sync_req_bytes() -> usize {
    2 + 1 + 1
}

/// Estimated wire size of a recovery op delta: shard ids plus each op
/// at the same per-op charge as a batch envelope, and the Lamport
/// stamp.
pub(crate) fn delta_bytes<I>(p: &ShardDeltaPayload<I>) -> usize {
    p.shards
        .iter()
        .map(|(_, ops)| 4 + ops.len() * op_bytes::<I>())
        .sum::<usize>()
        + 8
}

/// Estimated wire size of a routed read request (sender + object +
/// input).
pub fn read_req_bytes<I>() -> usize {
    2 + 4 + std::mem::size_of::<I>()
}

/// Estimated wire size of a routed read reply (sender + output).
pub fn read_reply_bytes<O>() -> usize {
    2 + std::mem::size_of::<O>()
}

#[cfg(test)]
mod tests {
    use super::*;

    use cbm_net::broadcast::KnowledgeDelta;

    fn env_with(ops: Vec<WireOp<u64>>, knows: KnowledgeDelta) -> BatchMsg<u64> {
        BatchMsg {
            sender: 3,
            seq: 17,
            knows,
            payload: ops,
        }
    }

    #[test]
    fn batch_bytes_scale_with_ops_and_delta_size() {
        let op = WireOp {
            obj: 0,
            input: 7u64,
            ts: Timestamp::ZERO,
            wseq: None,
        };
        let one = env_with(vec![op.clone()], KnowledgeDelta::default());
        let two = env_with(vec![op.clone(), op.clone()], KnowledgeDelta::default());
        assert_eq!(batch_bytes(&two) - batch_bytes(&one), 4 + 10 + 1 + 8);
        // a dirtier delta costs more, and the header charge is the
        // codec's exact encoded length
        let dirty = env_with(
            vec![op],
            KnowledgeDelta::from_rows([(0, vec![(1, 5), (3, 9)]), (2, vec![(0, 1)])]),
        );
        assert!(batch_bytes(&dirty) > batch_bytes(&one));
        assert_eq!(
            batch_bytes(&dirty) - dirty.payload.len() * (4 + 10 + 1 + 8),
            dirty.knows.encode(dirty.sender, dirty.seq).len(),
            "header charge == exact encoded bytes"
        );
    }

    #[test]
    fn control_sizes_are_deterministic() {
        let op = WireOp {
            obj: 1,
            input: 3u64,
            ts: Timestamp::ZERO,
            wseq: Some(0),
        };
        let env = env_with(vec![op], KnowledgeDelta::from_rows([(3, [(0, 17)])]));
        assert_eq!(nack_bytes(), 3);
        assert_eq!(
            repair_bytes(std::slice::from_ref(&env)),
            batch_bytes(&env),
            "repairs recharge the original stamps"
        );
        let sync = ShardSyncPayload::<u64> {
            shards: vec![(0, vec![0u64; 4]), (2, vec![0u64; 4])],
            lamport: 9,
        };
        assert_eq!(sync_bytes(&sync), 2 * (4 + 4 * 8) + 8);
        assert_eq!(read_req_bytes::<u32>(), 2 + 4 + 4);
        assert_eq!(read_reply_bytes::<u64>(), 2 + 8);
        assert_eq!(sync_req_bytes(), 4);
        let delta = ShardDeltaPayload::<u64> {
            shards: vec![(
                0,
                vec![WireOp {
                    obj: 0,
                    input: 1u64,
                    ts: Timestamp::ZERO,
                    wseq: None,
                }],
            )],
            lamport: 9,
        };
        assert_eq!(delta_bytes(&delta), 4 + (4 + 10 + 1 + 8) + 8);
    }
}
