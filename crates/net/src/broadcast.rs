//! Broadcast protocol state machines.
//!
//! Each protocol is a per-process pure state machine, independent of the
//! transport: a send turns an application payload into envelopes (after
//! immediate local delivery, §6.1 property 3), and `on_receive` turns an
//! incoming envelope into the list of envelopes now deliverable in
//! protocol order. The transports ([`crate::sim::SimNet`],
//! [`crate::thread_net::ThreadNet`], [`crate::tcp::TcpNet`]) move
//! envelopes; the protocols decide delivery order:
//!
//! * [`InterestBatchCausalBroadcast`] — causal delivery over per-edge
//!   stamps, with payloads batched per interest mask. With every node
//!   interested ([`full_interest`]) it is the reliable causal broadcast
//!   Figs. 4 and 5 assume (§6.1), which the library replicas run; with
//!   partial masks it is the partial-replication multicast of the live
//!   store engine;
//! * [`FifoBroadcast`] — per-sender FIFO (PRAM / pipelined consistency);
//! * [`SequencerBroadcast`] — total order through a sequencer
//!   (sequential consistency baseline; not wait-free).
//!
//! All three deliver through one reorder buffer: per sender, a delivered
//! count and the envelopes received ahead of it, keyed by that sender's
//! sequence number. An envelope is released when it is its sender's
//! next and passes the protocol's *gate* — its causal past is delivered
//! (causal), or nothing at all (FIFO, and both streams of the
//! sequencer). A copy at or below the delivered count, or of an
//! envelope already held, is dropped on arrival, so a duplicating or
//! retransmitting transport costs bandwidth but never a second
//! delivery, and the buffer never holds more than the distinct
//! envelopes still waiting for their past.
//!
//! ```
//! use cbm_net::broadcast::{full_interest, InterestBatchCausalBroadcast};
//!
//! let all = full_interest(3);
//! let mut alice = InterestBatchCausalBroadcast::new(0, 3);
//! let mut bob = InterestBatchCausalBroadcast::new(1, 3);
//! let mut carol = InterestBatchCausalBroadcast::new(2, 3);
//!
//! // a flush stamps one envelope per other node, in node order
//! alice.push("2+2?", all);
//! let [(_, q_bob), (_, q_carol)]: [_; 2] = alice.flush_all().try_into().unwrap();
//! bob.on_receive(q_bob);
//! bob.push("4", all);
//! let [_, (_, a_carol)]: [_; 2] = bob.flush_all().try_into().unwrap();
//!
//! // carol gets the answer first: buffered until the question arrives
//! assert!(carol.on_receive(a_carol).is_empty());
//! let both = carol.on_receive(q_carol);
//! assert_eq!(both.len(), 2);
//! assert_eq!(both[0].payload, ["2+2?"]);
//! assert_eq!(both[1].payload, ["4"]);
//! ```

use crate::stock::{SharedStock, Stock, STOCK_BYTES};
use crate::NodeId;
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

/// The reorder buffer every protocol here delivers through.
///
/// Per sender it keeps a delivered count and the envelopes received
/// ahead of it, keyed by that sender's sequence number (1-based). What
/// a protocol adds is its *gate*: the condition, beyond "next from that
/// sender", under which a queue head may be released.
#[derive(Debug, Clone)]
struct Held<M> {
    /// Envelopes delivered from each sender — own sends included, for
    /// the protocols that deliver them locally at once.
    delivered: Vec<u64>,
    /// Envelopes received ahead of `delivered`, per sender.
    queues: Vec<BTreeMap<u64, M>>,
}

impl<M> Held<M> {
    fn new(n: usize) -> Self {
        Held {
            delivered: vec![0; n],
            queues: (0..n).map(|_| BTreeMap::new()).collect(),
        }
    }

    /// Keep envelope `seq` from `sender`, unless it is stale (already
    /// delivered) or a copy of one already held.
    fn offer(&mut self, sender: NodeId, seq: u64, m: M) {
        if seq > self.delivered[sender] {
            if let Entry::Vacant(slot) = self.queues[sender].entry(seq) {
                slot.insert(m);
            }
        }
    }

    /// Release the first sender's queue head that is next in sequence
    /// and passes `gate` (which also sees the delivered counts). Callers
    /// loop until `None`, so a protocol's fold runs between releases.
    fn next(&mut self, mut gate: impl FnMut(&M, &[u64]) -> bool) -> Option<M> {
        for (s, queue) in self.queues.iter_mut().enumerate() {
            let Some(head) = queue.first_entry() else {
                continue;
            };
            if *head.key() == self.delivered[s] + 1 && gate(head.get(), &self.delivered) {
                self.delivered[s] += 1;
                return Some(head.remove());
            }
        }
        None
    }

    /// Distinct envelopes received from `sender`: delivered plus held.
    /// Unlike the delivered count this does not depend on other
    /// senders (an envelope blocked behind a lost dependency still
    /// counts), which makes it the gap detector for lossy transports:
    /// `received_from(q) <` what `q` published it sent iff something
    /// from `q` was physically lost.
    fn received_from(&self, sender: NodeId) -> u64 {
        self.delivered[sender] + self.queues[sender].len() as u64
    }

    /// Envelopes held, over all senders.
    fn len(&self) -> usize {
        self.queues.iter().map(BTreeMap::len).sum()
    }

    /// Drop everything held and restart from the delivered counts
    /// `frontier` (crash recovery).
    fn reset(&mut self, frontier: &[u64]) {
        assert_eq!(frontier.len(), self.delivered.len(), "frontier arity");
        self.delivered.copy_from_slice(frontier);
        self.queues.iter_mut().for_each(BTreeMap::clear);
    }
}

pub use crate::delta::KnowledgeDelta;
pub use crate::mask::{full_interest, InterestMask};

/// An envelope of the interest-filtered causal multicast.
///
/// Where a vector clock would count every sender's broadcasts, an
/// interest envelope carries a per-**edge** stamp: under partial
/// replication a receiver only ever sees the envelopes it is interested
/// in, so its causal metadata must count envelopes on interest edges,
/// not global broadcasts it will never get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterestMsg<P> {
    /// Multicaster.
    pub sender: NodeId,
    /// This envelope's sequence number on the `sender → recipient`
    /// edge (per-edge FIFO, gap detection, duplicate suppression).
    pub seq: u64,
    /// Delta encoding of the sender's **edge-knowledge matrix** at
    /// multicast time. The logical stamp is unchanged from the dense
    /// era — `knows[j][r]` counts the envelopes on edge `j → r` that
    /// were in the sender's causal past: its own sends (row `sender`,
    /// which for the recipient's column includes this envelope) and
    /// everything learned from envelopes it delivered, merged
    /// transitively. The receiver gates delivery on its own column and
    /// folds the matrix into its state, which is what carries causal
    /// dependencies **through** replicas that were never interested in
    /// them (the O(n²) metadata cost of partially replicated causal
    /// consistency — cf. Xiang & Vaidya). What the envelope *carries*
    /// is only the rows that changed since this edge's previous
    /// envelope (non-zero cells, varint-packed on the wire): per-edge
    /// FIFO delivery lets the receiver overlay them on the view it
    /// kept from that previous envelope ([`KnowledgeDelta`]).
    pub knows: KnowledgeDelta,
    /// Application payload.
    pub payload: P,
}

cbm_adt::wire_struct!(InterestMsg<P> { sender, seq, knows, payload });

/// Per-process causal multicast with **per-recipient interest
/// filters**, **per-edge sequence numbers** and payload **batching per
/// interest mask** — the delivery substrate for partially replicated
/// stores (Xiang & Vaidya's observation that causal consistency
/// survives partial replication given careful metadata).
///
/// Payloads that share a recipient set coalesce into one envelope per
/// flush, so a batch is only ever addressed to nodes interested in
/// (all of) its contents — the store engine keys masks by shard, giving
/// "deliver a batch only to replicas interested in at least one of its
/// objects" with no per-op filtering at the receiver. The batch is the
/// causal unit.
///
/// The textbook vector-clock rule (CBCAST) assumes every process
/// receives every envelope; with interest filtering that assumption
/// breaks in both directions: a receiver cannot count a sender's
/// global sequence numbers (it sees gaps where envelopes went
/// elsewhere), and it must not wait for causal predecessors it will
/// never receive. This protocol therefore tracks **edges**: the
/// delivery rule for envelope `m` from `s` at `r` is
/// `m.seq = delivered[s] + 1` (the next envelope on the `s → r` edge)
/// and `m.knows[j][r] ≤ delivered[j]` for `j ∉ {s, r}` (every envelope
/// addressed to `r` that was in `m`'s causal past has been delivered
/// at `r`). Dependencies on envelopes `r` was never sent are
/// deliberately invisible to `r`'s column: `r` never applies them, so
/// ordering against them is vacuous — exactly the projection that
/// makes partial replication causally consistent.
///
/// Transitivity is the subtle part — and the reason envelopes carry a
/// whole matrix rather than one row: a replica can causally depend on
/// an envelope **it never saw** (learned through an intermediary that
/// was interested), so per-recipient counts of direct deliveries are
/// not enough. Folding the sender's matrix into the receiver's on
/// every delivery propagates knowledge about *all* edges along causal
/// chains, which restores transitive causal order at the O(n²)
/// metadata cost that partially replicated causal consistency is known
/// to require.
///
/// With every envelope multicast to the full cluster ([`full_interest`])
/// this degenerates to CBCAST, the reliable causal broadcast of §6.1:
/// `seq` equals the sender's global sequence number and the receiver's
/// column its delivered counts — the same gating, hence the same
/// delivery order. That is how the library's Fig. 4/5 replicas run it,
/// one flush per update. The property tests in
/// `crates/net/tests/interest_props.rs` pin the delivery rule on
/// message ids: every envelope of interest delivered exactly once,
/// never before a causal dependency of interest, and never held once
/// its dependencies of interest are delivered.
#[derive(Debug, Clone)]
pub struct InterestBatchCausalBroadcast<P> {
    me: NodeId,
    /// Envelopes sent on each `me → r` edge (cumulative, including
    /// copies a faulty transport may drop after stamping).
    edge_sent: Vec<u64>,
    /// `seen[j * n + r]`: envelopes on edge `j → r` known to be in
    /// this process's causal past (via deliveries and matrix merges).
    /// Rows for `j = me` are unused (`edge_sent` is that row).
    seen: Vec<u64>,
    /// Envelopes delivered on each `s → me` edge, and those waiting for
    /// their causal past.
    held: Held<InterestMsg<Vec<P>>>,
    /// Monotone change counter driving the dirty-row delta encoding:
    /// bumped whenever any matrix row changes (an own-row edge
    /// increment, a delivery fold, a recovery fold).
    ver: u64,
    /// `row_ver[j]`: the value of `ver` when row `j` of the knowledge
    /// matrix last changed.
    row_ver: Vec<u64>,
    /// `sent_ver[r]`: the value of `ver` when the last envelope on the
    /// `me → r` edge was stamped — rows with `row_ver[j] > sent_ver[r]`
    /// are exactly the next envelope's delta.
    /// [`mark_refresh`](Self::mark_refresh) resets it to 0 to force a
    /// full refresh (every ever-touched row) after peer recovery.
    sent_ver: Vec<u64>,
    /// `edge_col[s * n + j]`: our column of matrix row `j` as carried
    /// by the last envelope **delivered** on the `s → me` edge — the
    /// decode baseline a delta's absent rows default to. Per-edge FIFO
    /// delivery makes "the previous envelope on this edge" well-defined
    /// at both ends, which is what makes delta encoding sound.
    edge_col: Vec<u64>,
    /// Pending payloads per interest mask, in first-push order (the
    /// flush order at drains must be deterministic).
    pending: Vec<(InterestMask, Vec<P>)>,
    batches_sent: u64,
    payloads_sent: u64,
    bufs: Bufs<P>,
}

/// Emptied envelope buffers shared by the endpoints of one cluster
/// ([`InterestBatchCausalBroadcast::with_pool`]): what an endpoint's
/// own stock cannot hold spills here, and an endpoint whose stock is
/// empty draws from here before it allocates. Bounded at the cluster
/// size times one endpoint's stock, per kind (payload vectors and
/// headers); reached with `try_lock` only, so a contended access frees
/// or allocates as an endpoint without a pool would.
#[derive(Debug)]
pub struct BufPool<P> {
    payloads: SharedStock<Vec<P>>,
    headers: SharedStock<KnowledgeDelta>,
}

impl<P> BufPool<P> {
    /// An empty pool for a cluster of `n`.
    pub fn new(n: usize) -> Self {
        BufPool {
            payloads: SharedStock::bounded(n * STOCK_BYTES),
            headers: SharedStock::bounded(n * STOCK_BYTES),
        }
    }
}

/// Where an [`InterestBatchCausalBroadcast`]'s envelope buffers come
/// from: emptied buffers of delivered envelopes
/// ([`recycle`](InterestBatchCausalBroadcast::recycle)) from its own
/// stock first, then from the cluster's [`BufPool`] if it shares one,
/// the allocator only when neither has one.
#[derive(Debug, Clone)]
struct Bufs<P> {
    payloads: Stock<Vec<P>>,
    headers: Stock<KnowledgeDelta>,
    pool: Option<Arc<BufPool<P>>>,
    /// The largest batch flushed so far: what a freshly allocated
    /// vector is sized to, so it never regrows on the way to the
    /// caller's flush threshold.
    batch_cap: usize,
    reused: u64,
    pooled: u64,
    allocated: u64,
}

impl<P> Bufs<P> {
    /// An empty payload vector.
    fn payload(&mut self) -> Vec<P> {
        if let Some(buf) = self.payloads.draw() {
            self.reused += 1;
            return buf;
        }
        if let Some(buf) = self.pool.as_ref().and_then(|p| p.payloads.draw()) {
            self.reused += 1;
            self.pooled += 1;
            return buf;
        }
        self.allocated += 1;
        Vec::with_capacity(self.batch_cap)
    }

    /// An empty header.
    fn header(&mut self) -> KnowledgeDelta {
        self.headers
            .draw()
            .or_else(|| self.pool.as_ref()?.headers.draw())
            .unwrap_or_default()
    }

    /// Keep an emptied payload vector, spilling to the pool past the
    /// own stock's bound.
    fn stow_payload(&mut self, buf: Vec<P>) {
        if let (Some(left), Some(pool)) = (self.payloads.stow(buf), &self.pool) {
            pool.payloads.stow(left);
        }
    }

    /// Keep an emptied header, likewise.
    fn stow_header(&mut self, buf: KnowledgeDelta) {
        if let (Some(left), Some(pool)) = (self.headers.stow(buf), &self.pool) {
            pool.headers.stow(left);
        }
    }
}

impl<P: Clone> InterestBatchCausalBroadcast<P> {
    /// A fresh endpoint for process `me` in a cluster of `n`
    /// (≤ [`InterestMask::MAX_NODES`]: interest sets are inline
    /// bitsets), recycling envelope buffers through its own stock only.
    pub fn new(me: NodeId, n: usize) -> Self {
        Self::build(me, n, None)
    }

    /// [`new`](Self::new), with `pool` — shared by the cluster's other
    /// endpoints — behind its own stock.
    pub fn with_pool(me: NodeId, n: usize, pool: Arc<BufPool<P>>) -> Self {
        Self::build(me, n, Some(pool))
    }

    fn build(me: NodeId, n: usize, pool: Option<Arc<BufPool<P>>>) -> Self {
        assert!(
            n <= InterestMask::MAX_NODES,
            "interest masks are {}-bit bitsets: n = {n}",
            InterestMask::MAX_NODES
        );
        InterestBatchCausalBroadcast {
            me,
            edge_sent: vec![0; n],
            seen: vec![0; n * n],
            held: Held::new(n),
            ver: 0,
            row_ver: vec![0; n],
            sent_ver: vec![0; n],
            edge_col: vec![0; n * n],
            pending: Vec::new(),
            batches_sent: 0,
            payloads_sent: 0,
            bufs: Bufs {
                payloads: Stock::default(),
                headers: Stock::default(),
                pool,
                batch_cap: 0,
                reused: 0,
                pooled: 0,
                allocated: 0,
            },
        }
    }

    /// Cluster size.
    pub fn cluster_size(&self) -> usize {
        self.edge_sent.len()
    }

    /// Queue a payload addressed to `recipients` for the next flush of
    /// that mask; returns the mask's pending count.
    pub fn push(&mut self, payload: P, recipients: InterestMask) -> usize {
        if let Some((_, q)) = self.pending.iter_mut().find(|(m, _)| *m == recipients) {
            q.push(payload);
            return q.len();
        }
        let mut q = self.bufs.payload();
        q.push(payload);
        self.pending.push((recipients, q));
        1
    }

    /// Total payloads queued across all masks.
    pub fn pending(&self) -> usize {
        self.pending.iter().map(|(_, q)| q.len()).sum()
    }

    /// Seal one mask's pending payloads into stamped per-recipient
    /// envelopes, one per *other* interested node in ascending node
    /// order (empty if nothing is pending for the mask). The payloads
    /// were delivered locally when the caller applied them.
    pub fn flush_mask(&mut self, recipients: InterestMask) -> Vec<(NodeId, InterestMsg<Vec<P>>)> {
        let mut out = Vec::new();
        self.flush_mask_into(recipients, &mut out);
        out
    }

    /// [`flush_mask`](Self::flush_mask), appending the envelopes to a
    /// caller-kept vector. The last recipient's envelope carries the
    /// pending batch itself; the others carry copies drawn from
    /// recycled buffers — a fan-out of `k` costs `k - 1` copies.
    pub fn flush_mask_into(
        &mut self,
        recipients: InterestMask,
        out: &mut Vec<(NodeId, InterestMsg<Vec<P>>)>,
    ) {
        let Some(pos) = self.pending.iter().position(|(m, _)| *m == recipients) else {
            return;
        };
        let (_, mut batch) = self.pending.remove(pos);
        self.batches_sent += 1;
        self.payloads_sent += batch.len() as u64;
        self.bufs.batch_cap = self.bufs.batch_cap.max(batch.len());
        let (n, me) = (self.cluster_size(), self.me);
        let targets = || recipients.iter().filter(move |&r| r != me && r < n);
        let mut left = 0usize;
        for r in targets() {
            self.edge_sent[r] += 1;
            left += 1;
        }
        if left == 0 {
            return;
        }
        // the logical stamp is one matrix snapshot per flush: row `me`
        // is the post-increment edge counts (so each recipient's column
        // includes its own copy, and merging at any receiver teaches it
        // about the flush's other copies), rows `j ≠ me` the
        // transitively merged knowledge. On the wire each recipient
        // gets only the rows that changed since *its* edge's previous
        // envelope — per-edge FIFO delivery lets it overlay them on the
        // view that envelope left behind — and within a row only the
        // non-zero cells (counts are monotone, so zero-now means
        // zero-in-every-earlier-stamp: the sparseness is exact).
        self.ver += 1;
        self.row_ver[me] = self.ver;
        for r in targets() {
            let mut knows = self.bufs.header();
            let dirty = |j: &usize| self.row_ver[*j] > self.sent_ver[r];
            // size the header before filling it, so a fresh one is two
            // allocations and a recycled one usually none
            let cells = (0..n)
                .filter(dirty)
                .map(|j| self.row(j).iter().filter(|&&v| v != 0).count())
                .sum();
            knows.reserve((0..n).filter(dirty).count(), cells);
            for j in (0..n).filter(dirty) {
                let cells = self.row(j).iter().enumerate();
                knows.push_row(
                    j as u32,
                    cells.filter(|&(_, &v)| v != 0).map(|(c, &v)| (c as u32, v)),
                );
            }
            self.sent_ver[r] = self.ver;
            left -= 1;
            let payload = if left == 0 {
                std::mem::take(&mut batch)
            } else {
                let mut copy = self.bufs.payload();
                copy.extend_from_slice(&batch);
                copy
            };
            let seq = self.edge_sent[r];
            out.push((
                r,
                InterestMsg {
                    sender: me,
                    seq,
                    knows,
                    payload,
                },
            ));
        }
    }

    /// Flush every pending mask, in first-push order (drain points).
    pub fn flush_all(&mut self) -> Vec<(NodeId, InterestMsg<Vec<P>>)> {
        let mut out = Vec::new();
        self.flush_all_into(&mut out);
        out
    }

    /// [`flush_all`](Self::flush_all), appending to a caller-kept vector.
    pub fn flush_all_into(&mut self, out: &mut Vec<(NodeId, InterestMsg<Vec<P>>)>) {
        while let Some(&(mask, _)) = self.pending.first() {
            self.flush_mask_into(mask, out);
        }
    }

    /// Row `j` of this node's knowledge matrix as the next stamp
    /// carries it: `edge_sent` for our own row, `seen` otherwise.
    fn row(&self, j: NodeId) -> &[u64] {
        if j == self.me {
            &self.edge_sent
        } else {
            let n = self.cluster_size();
            &self.seen[j * n..(j + 1) * n]
        }
    }

    /// Receive a batch envelope addressed to this node; returns every
    /// envelope that becomes deliverable, in causal delivery order.
    /// Delivering an envelope folds its knowledge matrix into this
    /// endpoint's, so later flushes carry the dependency forward
    /// (transitivity across uninterested intermediaries).
    pub fn on_receive(&mut self, msg: InterestMsg<Vec<P>>) -> Vec<InterestMsg<Vec<P>>> {
        let mut out = Vec::new();
        self.on_receive_into(msg, &mut out);
        out
    }

    /// [`on_receive`](Self::on_receive), appending the deliverable
    /// envelopes to a caller-kept vector.
    pub fn on_receive_into(
        &mut self,
        msg: InterestMsg<Vec<P>>,
        out: &mut Vec<InterestMsg<Vec<P>>>,
    ) {
        let (me, n) = (self.me, self.cluster_size());
        self.held.offer(msg.sender, msg.seq, msg);
        // the gate needs our column of the sender's matrix: dirty rows
        // carry it in the delta, clean rows are unchanged from this
        // edge's previous envelope, whose column `edge_col` kept — and
        // `Held` only offers the edge's next envelope, so that previous
        // envelope is exactly the one `edge_col` reflects. Merge-walk
        // the sorted delta rows so the gate is O(n + delta).
        let gate = |m: &InterestMsg<Vec<P>>, delivered: &[u64], edge_col: &[u64]| {
            let s = m.sender;
            let mut rows = m.knows.rows().peekable();
            (0..n).all(|j| {
                while rows.next_if(|(row, _)| (*row as usize) < j).is_some() {}
                let v = match rows.peek() {
                    Some((row, cells)) if *row as usize == j => KnowledgeDelta::cell(cells, me),
                    _ => edge_col[s * n + j],
                };
                j == s || j == me || v <= delivered[j]
            })
        };
        while let Some(m) = self
            .held
            .next(|m, delivered| gate(m, delivered, &self.edge_col))
        {
            self.fold(&m);
            out.push(m);
        }
    }

    /// Fold a delivered envelope's delta rows into this endpoint's
    /// knowledge. Rows absent from the delta need no fold — this edge's
    /// previous envelope (delivered first, per-edge FIFO) already folded
    /// identical values, and `seen` is monotone since.
    fn fold(&mut self, m: &InterestMsg<Vec<P>>) {
        let n = self.cluster_size();
        for (row, cells) in m.knows.rows() {
            let j = row as usize;
            // refresh this edge's carried-over view of our column (the
            // decode baseline for the edge's next delta)
            self.edge_col[m.sender * n + j] = KnowledgeDelta::cell(cells, self.me);
            if j != self.me {
                // our own row is edge_sent, authoritative
                self.raise_row(j, cells.iter().map(|&(c, v)| (c as usize, v)));
            }
        }
    }

    /// Raise row `j` of `seen` cell-wise to `(column, count)` pairs,
    /// marking the row dirty for the delta encoding if any cell grew.
    fn raise_row(&mut self, j: NodeId, cells: impl IntoIterator<Item = (usize, u64)>) {
        let n = self.cluster_size();
        let mut changed = false;
        for (c, v) in cells {
            let cell = &mut self.seen[j * n + c];
            if v > *cell {
                *cell = v;
                changed = true;
            }
        }
        if changed {
            self.ver += 1;
            self.row_ver[j] = self.ver;
        }
    }

    /// Hand back a delivered envelope once its payloads are applied:
    /// its payload and header vectors are emptied and kept (up to a
    /// fixed byte bound of each, `stock::STOCK_BYTES`) for the next
    /// flush to leave in, so the buffer an update arrived in is the
    /// buffer the next update leaves in. What the endpoint's own stock
    /// cannot hold spills into the shared [`BufPool`], if there is one,
    /// for whichever endpoint next runs short — and is freed only when
    /// that is full too, or busy.
    pub fn recycle(&mut self, env: InterestMsg<Vec<P>>) {
        self.bufs.stow_payload(env.payload);
        self.bufs.stow_header(env.knows);
    }

    /// Payload vectors drawn from recycled buffers so far (the own
    /// stock or the shared pool).
    pub fn bufs_reused(&self) -> u64 {
        self.bufs.reused
    }

    /// Those of [`bufs_reused`](Self::bufs_reused) the shared pool
    /// supplied.
    pub fn bufs_pooled(&self) -> u64 {
        self.bufs.pooled
    }

    /// Payload vectors no recycled buffer could supply (allocated).
    pub fn bufs_allocated(&self) -> u64 {
        self.bufs.allocated
    }

    /// Batch envelopes sent so far on the `me → r` edge.
    pub fn edge_sent(&self, r: NodeId) -> u64 {
        self.edge_sent[r]
    }

    /// Batch envelopes delivered so far on each `s → me` edge.
    pub fn delivered_edges(&self) -> &[u64] {
        &self.held.delivered
    }

    /// Distinct batch envelopes **received** on the `q → me` edge:
    /// delivered plus buffered out of order — the per-edge gap detector
    /// for lossy transports (`received_from(q) <` the count `q`
    /// published for this edge iff something on it was lost).
    pub fn received_from(&self, q: NodeId) -> u64 {
        self.held.received_from(q)
    }

    /// Envelopes waiting for their causal past.
    pub fn buffered(&self) -> usize {
        self.held.len()
    }

    /// Snapshot of this node's current edge knowledge: the `seen`
    /// matrix with our own row replaced by `edge_sent` — exactly the
    /// stamp the **next** envelope flushed from here would carry
    /// *before* its own edge increments. Row-major `n × n`,
    /// `knowledge[j * n + r]` = envelopes we know `j` has sent to `r`.
    /// Observability hook (trace spans stamp `batch_flush` events with
    /// it); never read by the protocol itself.
    pub fn knowledge(&self) -> Vec<u64> {
        let n = self.cluster_size();
        let mut k = self.seen.clone();
        k[self.me * n..(self.me + 1) * n].copy_from_slice(&self.edge_sent);
        k
    }

    /// Reset this endpoint to a consistent cut (crash recovery).
    ///
    /// `delivered` is the cut's per-edge frontier (`delivered[j]` =
    /// envelopes `j` had sent to *this* node at the cut) and `sent` the
    /// full cut edge matrix (`sent[j * n + r]` = envelopes `j` had sent
    /// to `r`): because every envelope `j` sends to `r` is by
    /// construction of interest to `r`, the cut matrix *is* the correct
    /// `seen` projection for a replica whose installed state folds in
    /// everything up to the cut. Our own row (`edge_sent`) is kept —
    /// peers' delivery counters for our edges survived the crash.
    /// Pending unsent payloads are discarded with the rest of the
    /// pre-crash in-flight state.
    pub fn resync(&mut self, delivered: &[u64], sent: &[u64]) {
        let n = self.cluster_size();
        assert_eq!(sent.len(), n * n, "edge matrix arity");
        self.held.reset(delivered);
        // rows the cut grew must reach peers whose last envelope
        // predates the fold
        let me = self.me;
        for j in (0..n).filter(|&j| j != me) {
            self.raise_row(j, sent[j * n..(j + 1) * n].iter().copied().enumerate());
        }
        // the per-edge decode baselines died with the pre-crash
        // in-flight state: zero them and rely on every live peer
        // calling [`mark_refresh`](Self::mark_refresh) for this node,
        // so the next envelope on each inbound edge is a full refresh
        // against exactly this zero baseline
        self.edge_col.fill(0);
        while let Some((_, q)) = self.pending.pop() {
            self.bufs.stow_payload(q);
        }
    }

    /// Forget what the `me → r` edge's receiver is assumed to already
    /// know: the next envelope stamped for `r` carries every row this
    /// matrix has ever touched — a full refresh against a zero decode
    /// baseline. The engine calls this on every live peer when `r`
    /// recovers from a crash: envelopes stamped for `r` while it was
    /// down consumed delta state but were dropped, and `r`'s own
    /// baselines restart from zero ([`resync`](Self::resync)).
    pub fn mark_refresh(&mut self, r: NodeId) {
        self.sent_ver[r] = 0;
    }

    /// Logical batches flushed so far (a flush to `k` recipients is one
    /// batch, `k` transport envelopes).
    pub fn batches_sent(&self) -> u64 {
        self.batches_sent
    }

    /// Payloads shipped across all flushed batches.
    pub fn payloads_sent(&self) -> u64 {
        self.payloads_sent
    }
}

/// An envelope of the FIFO broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoMsg<P> {
    /// Broadcaster.
    pub sender: NodeId,
    /// Per-sender sequence number (1-based).
    pub seq: u64,
    /// Application payload.
    pub payload: P,
}

/// Per-process FIFO broadcast: messages from each sender are delivered
/// in send order, with no cross-sender constraint (the PRAM substrate).
#[derive(Debug, Clone)]
pub struct FifoBroadcast<P> {
    me: NodeId,
    /// Messages delivered per sender (own broadcasts included) and
    /// those received ahead of their predecessors.
    held: Held<FifoMsg<P>>,
}

impl<P: Clone> FifoBroadcast<P> {
    /// A fresh endpoint for process `me` in a cluster of `n`.
    pub fn new(me: NodeId, n: usize) -> Self {
        FifoBroadcast {
            me,
            held: Held::new(n),
        }
    }

    /// Broadcast `payload` (delivered locally at once).
    pub fn broadcast(&mut self, payload: P) -> FifoMsg<P> {
        self.held.delivered[self.me] += 1;
        FifoMsg {
            sender: self.me,
            seq: self.held.delivered[self.me],
            payload,
        }
    }

    /// Receive an envelope; returns newly deliverable messages in FIFO
    /// order.
    pub fn on_receive(&mut self, msg: FifoMsg<P>) -> Vec<FifoMsg<P>> {
        self.held.offer(msg.sender, msg.seq, msg);
        std::iter::from_fn(|| self.held.next(|_, _| true)).collect()
    }
}

/// Messages of the sequencer protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqMsg<P> {
    /// Client → sequencer: please order this payload.
    Submit {
        /// Originating process.
        origin: NodeId,
        /// The origin's submission count, this one included (1-based):
        /// the sequencer orders each origin's submissions once each, in
        /// submission order.
        count: u64,
        /// Application payload.
        payload: P,
    },
    /// Sequencer → everyone: payload with its global slot.
    Ordered {
        /// Global sequence number (1-based).
        slot: u64,
        /// Originating process.
        origin: NodeId,
        /// Application payload.
        payload: P,
    },
}

/// Totally ordered broadcast through a fixed sequencer (process 0).
///
/// Two FIFO streams: submissions flow per origin into the sequencer,
/// slots flow from the sequencer to everyone. Used by the
/// sequential-consistency baseline: an update completes only when its
/// `Ordered` envelope comes back, so operation latency is at least one
/// round trip to the sequencer — precisely the communication dependence
/// that §1 contrasts with wait-free causal objects.
#[derive(Debug, Clone)]
pub struct SequencerBroadcast<P> {
    me: NodeId,
    /// Payloads this process has submitted.
    submitted: u64,
    /// Slots assigned so far (sequencer state).
    slots_assigned: u64,
    /// At the sequencer: submissions per origin, released in
    /// submission order.
    submissions: Held<(NodeId, P)>,
    /// Ordered payloads, released in slot order (one stream, from the
    /// sequencer).
    slots: Held<(u64, NodeId, P)>,
}

/// The sequencer role is fixed to process 0.
pub const SEQUENCER: NodeId = 0;

impl<P: Clone> SequencerBroadcast<P> {
    /// A fresh endpoint for process `me` in a cluster of `n`.
    pub fn new(me: NodeId, n: usize) -> Self {
        SequencerBroadcast {
            me,
            submitted: 0,
            slots_assigned: 0,
            submissions: Held::new(n),
            slots: Held::new(SEQUENCER + 1),
        }
    }

    /// Submit a payload for total ordering. Returns the envelope to
    /// send to the sequencer (or, if `me` is the sequencer, the
    /// `Ordered` envelope to broadcast).
    pub fn submit(&mut self, payload: P) -> SeqMsg<P> {
        if self.me == SEQUENCER {
            return self.order(SEQUENCER, payload);
        }
        self.submitted += 1;
        SeqMsg::Submit {
            origin: self.me,
            count: self.submitted,
            payload,
        }
    }

    /// Assign the next slot (sequencer only).
    fn order(&mut self, origin: NodeId, payload: P) -> SeqMsg<P> {
        self.slots_assigned += 1;
        SeqMsg::Ordered {
            slot: self.slots_assigned,
            origin,
            payload,
        }
    }

    /// Slots delivered so far.
    #[cfg(test)]
    pub(crate) fn delivered(&self) -> u64 {
        self.slots.delivered[SEQUENCER]
    }

    /// Handle an incoming envelope.
    ///
    /// Returns `(deliveries, to_broadcast)`: payloads now deliverable
    /// in slot order, plus (at the sequencer) the `Ordered` envelopes to
    /// fan out — one per submission that came due, none for a copy of
    /// a submission already ordered.
    #[allow(clippy::type_complexity)]
    pub fn on_receive(&mut self, msg: SeqMsg<P>) -> (Vec<(u64, NodeId, P)>, Vec<SeqMsg<P>>) {
        match msg {
            SeqMsg::Submit {
                origin,
                count,
                payload,
            } => {
                assert_eq!(self.me, SEQUENCER, "Submit routed to non-sequencer");
                self.submissions.offer(origin, count, (origin, payload));
                let mut due = Vec::new();
                while let Some((origin, payload)) = self.submissions.next(|_, _| true) {
                    due.push(self.order(origin, payload));
                }
                (Vec::new(), due)
            }
            SeqMsg::Ordered {
                slot,
                origin,
                payload,
            } => {
                self.slots.offer(SEQUENCER, slot, (slot, origin, payload));
                let out = std::iter::from_fn(|| self.slots.next(|_, _| true)).collect();
                (out, Vec::new())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// An interest mask from an explicit node list.
    fn mask(bits: &[usize]) -> InterestMask {
        let mut m = InterestMask::EMPTY;
        for &b in bits {
            m.set(b);
        }
        m
    }

    /// A batch of one: push `payload` for `recipients` and flush it.
    fn multicast<P: Clone>(
        p: &mut InterestBatchCausalBroadcast<P>,
        payload: P,
        recipients: InterestMask,
    ) -> Vec<(NodeId, InterestMsg<Vec<P>>)> {
        p.push(payload, recipients);
        p.flush_mask(recipients)
    }

    /// The envelope addressed to `to` in a flush.
    fn to<P: Clone>(envs: &[(NodeId, InterestMsg<Vec<P>>)], to: NodeId) -> InterestMsg<Vec<P>> {
        envs.iter().find(|(r, _)| *r == to).unwrap().1.clone()
    }

    /// All nodes interested: the protocol is CBCAST — an answer
    /// overtaking its question is buffered until the question arrives.
    #[test]
    fn interest_full_mask_degenerates_to_causal_broadcast() {
        let all = full_interest(3);
        let mut p0 = InterestBatchCausalBroadcast::<&str>::new(0, 3);
        let mut p1 = InterestBatchCausalBroadcast::<&str>::new(1, 3);
        let mut p2 = InterestBatchCausalBroadcast::<&str>::new(2, 3);

        let q = multicast(&mut p0, "2+2?", all);
        assert_eq!(q.len(), 2, "one stamped copy per other node");
        assert_eq!(p1.on_receive(to(&q, 1)).len(), 1);
        let a = multicast(&mut p1, "4", all);

        // p2 gets the answer first: buffered until the question arrives
        assert!(p2.on_receive(to(&a, 2)).is_empty());
        assert_eq!(p2.buffered(), 1);
        let both = p2.on_receive(to(&q, 2));
        assert_eq!(both.len(), 2);
        assert_eq!(both[0].payload, ["2+2?"]);
        assert_eq!(both[1].payload, ["4"]);
    }

    /// A dependency on an envelope outside the recipient's interest
    /// must NOT block delivery — the projection that makes partial
    /// replication work.
    #[test]
    fn interest_does_not_wait_for_uninterested_dependencies() {
        // 4 roles: node 3 multicasts "b" to {0,1,3}; node 1 delivers it
        // and multicasts "c" to everyone; node 2 (never interested in
        // "b") must deliver "c" at once, while node 0 (interested, copy
        // of "b" still in flight) must buffer "c" behind it.
        let mut p0 = InterestBatchCausalBroadcast::<&str>::new(0, 4);
        let mut p1 = InterestBatchCausalBroadcast::<&str>::new(1, 4);
        let mut p2 = InterestBatchCausalBroadcast::<&str>::new(2, 4);
        let mut p3 = InterestBatchCausalBroadcast::<&str>::new(3, 4);

        let b = multicast(&mut p3, "b", mask(&[0, 1, 3]));
        assert_eq!(b.len(), 2, "copies for nodes 0 and 1 only");
        assert_eq!(p1.on_receive(to(&b, 1)).len(), 1);
        let c = multicast(&mut p1, "c", full_interest(4));

        // p2 never saw (and never will see) b — c must deliver at once
        let got = p2.on_receive(to(&c, 2));
        assert_eq!(got.len(), 1, "uninterested dependency must not block");
        assert_eq!(got[0].payload, ["c"]);

        // ...but node 0, which IS interested in b, must wait for it
        assert!(p0.on_receive(to(&c, 0)).is_empty());
        assert_eq!(p0.buffered(), 1);
        let both = p0.on_receive(to(&b, 0));
        assert_eq!(both.len(), 2);
        assert_eq!(both[0].payload, ["b"]);
        assert_eq!(both[1].payload, ["c"]);

        // transitivity through an uninterested intermediary: node 2
        // (which never saw b) multicasts "d" causally after c — node 0
        // must still order b before d
        let mut q0 = InterestBatchCausalBroadcast::<&str>::new(0, 4);
        let d = multicast(&mut p2, "d", full_interest(4));
        // q0 receives d first: blocked on c AND (transitively) on b
        assert!(q0.on_receive(to(&d, 0)).is_empty());
        assert_eq!(q0.buffered(), 1, "d waits for its transitive past");
    }

    #[test]
    fn interest_edges_are_fifo_with_dup_suppression_and_gap_counts() {
        let mut p0 = InterestBatchCausalBroadcast::<u32>::new(0, 2);
        let mut p1 = InterestBatchCausalBroadcast::<u32>::new(1, 2);
        let m1 = to(&multicast(&mut p0, 1, mask(&[0, 1])), 1);
        let m2 = to(&multicast(&mut p0, 2, mask(&[0, 1])), 1);
        assert_eq!(p0.edge_sent(1), 2);
        // reversed arrival with duplicates
        assert!(p1.on_receive(m2.clone()).is_empty());
        assert!(p1.on_receive(m2.clone()).is_empty());
        assert_eq!(p1.buffered(), 1, "duplicate suppressed");
        assert_eq!(p1.received_from(0), 1, "m2 received, m1 missing");
        let got = p1.on_receive(m1);
        let payloads: Vec<_> = got.iter().map(|m| m.payload.clone()).collect();
        assert_eq!(payloads, [[1], [2]]);
        assert_eq!(p1.received_from(0), 2);
        assert_eq!(p1.buffered(), 0, "nothing held past the floor");
        assert!(p1.on_receive(m2).is_empty(), "late dup is stale");
        assert_eq!(p1.buffered(), 0);
    }

    #[test]
    fn interest_resync_installs_cut_matrix() {
        // 3 nodes, everything full interest; node 2 crashes after
        // delivering nothing, then resyncs to a cut where node 0 had
        // sent it 2 envelopes and node 1 one envelope
        let mut p2 = InterestBatchCausalBroadcast::<u32>::new(2, 3);
        let mut p0 = InterestBatchCausalBroadcast::<u32>::new(0, 3);
        for k in 1..=2 {
            multicast(&mut p0, k, full_interest(3));
        }
        let e3 = multicast(&mut p0, 3, full_interest(3));
        // cut matrix: sent[j*n+r]
        let mut sent = vec![0u64; 9];
        sent[2] = 2; // 0 -> 2
        sent[1] = 2; // 0 -> 1
        sent[3 + 2] = 1; // 1 -> 2
        sent[3] = 1; // 1 -> 0
        p2.resync(&[2, 1, 0], &sent);
        assert_eq!(p2.delivered_edges(), &[2, 1, 0]);
        // e3 (edge seq 3) is the next on the 0 -> 2 edge: delivers even
        // though its dep[1] = 0 understates the cut (deps only lower-
        // bound the floor)
        let got = p2.on_receive(to(&e3, 2));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, [3]);
    }

    #[test]
    fn interest_batching_coalesces_per_mask() {
        let mut p = InterestBatchCausalBroadcast::<u8>::new(0, 4);
        let a = mask(&[0, 1]);
        let b = mask(&[0, 2]);
        assert_eq!(p.push(1, a), 1);
        assert_eq!(p.push(2, b), 1);
        assert_eq!(p.push(3, a), 2);
        assert_eq!(p.pending(), 3);
        // flushing mask a ships one batch to node 1 only
        let envs = p.flush_mask(a);
        assert_eq!(envs.len(), 1);
        assert_eq!(envs[0].0, 1);
        assert_eq!(envs[0].1.payload, vec![1, 3]);
        assert_eq!(p.batches_sent(), 1);
        assert_eq!(p.payloads_sent(), 2);
        // drain flush ships the rest in first-push order
        let rest = p.flush_all();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].0, 2);
        assert_eq!(rest[0].1.payload, vec![2]);
        assert_eq!(p.pending(), 0);
        assert_eq!(p.batches_sent(), 2);
        assert!(p.flush_all().is_empty());
    }

    #[test]
    fn interest_batches_keep_causal_order_across_masks() {
        let mut p0 = InterestBatchCausalBroadcast::<u8>::new(0, 3);
        let mut p1 = InterestBatchCausalBroadcast::<u8>::new(1, 3);
        let mut p2 = InterestBatchCausalBroadcast::<u8>::new(2, 3);
        // p1 multicasts [9] to {1,2}; p2 delivers it, answers [7] to all
        p1.push(9, mask(&[1, 2]));
        let e = p1.flush_all();
        assert_eq!(e.len(), 1, "only node 2 interested");
        assert_eq!(p2.on_receive(e[0].1.clone()).len(), 1);
        p2.push(7, full_interest(3));
        let e2 = p2.flush_all();
        // node 0 was never sent [9]: [7] delivers at once
        assert_eq!(p0.on_receive(to(&e2, 0)).len(), 1);
        // node 1 originated [9] (its own past): [7] also delivers at
        // once — the dependency rides the sender's own row, which the
        // originator trivially satisfies
        let got = p1.on_receive(to(&e2, 1));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, vec![7]);
        // a third party that IS sent both must order them: replay the
        // same exchange toward a fresh observer
        let mut q1 = InterestBatchCausalBroadcast::<u8>::new(1, 3);
        let mut q2 = InterestBatchCausalBroadcast::<u8>::new(2, 3);
        q1.push(9, mask(&[0, 1, 2])); // now node 0 is interested too
        let e = q1.flush_all();
        assert_eq!(q2.on_receive(to(&e, 2)).len(), 1);
        q2.push(7, full_interest(3));
        let e2 = q2.flush_all();
        let mut q0 = InterestBatchCausalBroadcast::<u8>::new(0, 3);
        assert!(q0.on_receive(to(&e2, 0)).is_empty(), "needs [9] first");
        let both = q0.on_receive(to(&e, 0));
        assert_eq!(both.len(), 2);
        assert_eq!(both[0].payload, vec![9]);
        assert_eq!(both[1].payload, vec![7]);
    }

    /// Buffers circulate: after one warm-up round of a 4-replica
    /// flush → deliver → recycle exchange, every envelope leaves in a
    /// payload vector an earlier envelope arrived in, carrying exactly
    /// what was pushed since — also across a `resync` — and the stock
    /// stays inside its bound however much is handed back.
    #[test]
    fn recycled_buffers_carry_the_next_flush() {
        use crate::stock::STOCK_BYTES;

        const N: usize = 4;
        let all = full_interest(N);
        let mut nodes: Vec<_> = (0..N)
            .map(|me| InterestBatchCausalBroadcast::<u64>::new(me, N))
            .collect();
        // one round: everyone flushes 8 payloads to everyone, every
        // envelope is delivered and handed back; returns, per node, the
        // payload buffers it sent in and the ones it recycled
        let round = |nodes: &mut Vec<InterestBatchCausalBroadcast<u64>>, tag: u64| {
            let mut sent = vec![BTreeSet::new(); N];
            let mut recycled = vec![BTreeSet::new(); N];
            let mut wire = Vec::new();
            for (me, node) in nodes.iter_mut().enumerate() {
                for k in 0..8 {
                    node.push(tag * 100 + k, all);
                }
                node.flush_all_into(&mut wire);
                for (_, env) in &wire[wire.len() - (N - 1)..] {
                    assert_eq!(
                        env.payload,
                        (0..8).map(|k| tag * 100 + k).collect::<Vec<_>>()
                    );
                    sent[me].insert(env.payload.as_ptr());
                }
            }
            for (to, env) in wire.drain(..) {
                for got in nodes[to].on_receive(env) {
                    recycled[to].insert(got.payload.as_ptr());
                    nodes[to].recycle(got);
                }
            }
            (sent, recycled)
        };

        let (_, warm) = round(&mut nodes, 1);
        let allocated: Vec<u64> = nodes.iter().map(|n| n.bufs_allocated()).collect();
        assert_eq!(
            allocated, [3; N],
            "cold: a pending batch and two copies each"
        );
        for node in &nodes {
            assert_eq!(node.bufs.payloads.len(), N - 1);
            assert_eq!(node.bufs.headers.len(), N - 1);
        }
        let (sent, _) = round(&mut nodes, 2);
        for me in 0..N {
            assert_eq!(
                sent[me], warm[me],
                "node {me} sent in the buffers it was handed"
            );
            assert_eq!(nodes[me].bufs_allocated(), 3, "nothing new allocated");
            assert_eq!(nodes[me].bufs_reused(), 3);
        }

        // a resync discards pending payloads; their buffer comes back
        // empty, so the next flush carries only what is pushed after
        nodes[0].push(7, all);
        nodes[0].push(8, all);
        let held = nodes[0].bufs.payloads.len();
        nodes[0].resync(&[0, 2, 2, 2], &[0; N * N]);
        assert_eq!(nodes[0].bufs.payloads.len(), held + 1);
        nodes[0].push(9, all);
        for (_, env) in nodes[0].flush_all() {
            assert_eq!(env.payload, [9]);
        }

        // the bound holds however many envelopes are handed back
        let env = |cap: usize| InterestMsg {
            sender: 1,
            seq: 1,
            knows: KnowledgeDelta::from_rows([(1, [(0, 1), (2, 1)])]),
            payload: Vec::<u64>::with_capacity(cap),
        };
        for _ in 0..10_000 {
            nodes[0].recycle(env(128));
            assert!(nodes[0].bufs.payloads.bytes() <= STOCK_BYTES);
            assert!(nodes[0].bufs.headers.bytes() <= STOCK_BYTES);
        }
        assert_eq!(nodes[0].bufs.payloads.len(), STOCK_BYTES / (128 * 8));
        nodes[0].recycle(env(0));
        assert_eq!(nodes[0].bufs.payloads.len(), STOCK_BYTES / (128 * 8));
    }

    /// Two endpoints sharing one pool: what the receiver's full stock
    /// cannot hold spills into the pool (never past its bound), and
    /// the sender — whose own stock is empty — draws from it before it
    /// allocates, always an empty buffer.
    #[test]
    fn a_full_stock_spills_into_the_pool_and_an_empty_one_draws_from_it() {
        use crate::stock::STOCK_BYTES;

        const CAP: usize = 128; // u64 payloads: 1 KiB a buffer
        let pool = Arc::new(BufPool::new(2));
        let mut tx = InterestBatchCausalBroadcast::<u64>::with_pool(0, 2, Arc::clone(&pool));
        let mut rx = InterestBatchCausalBroadcast::<u64>::with_pool(1, 2, Arc::clone(&pool));
        let to_rx = mask(&[1]);
        let batch = |tag: u64| (0..CAP as u64).map(|k| tag * 1000 + k).collect::<Vec<_>>();
        // three stocks' worth of batches in flight at once: the
        // receiver's stock takes a third, the pool two, the rest is freed
        let mut wire = Vec::new();
        for tag in 0..(3 * STOCK_BYTES / (CAP * 8)) as u64 {
            for p in batch(tag) {
                tx.push(p, to_rx);
            }
            tx.flush_all_into(&mut wire);
        }
        assert_eq!(pool.payloads.held(), (0, 0), "nothing spilled yet");
        for (to, env) in wire.drain(..) {
            assert_eq!(to, 1);
            for got in rx.on_receive(env) {
                rx.recycle(got);
                assert!(rx.bufs.payloads.bytes() <= STOCK_BYTES);
                assert!(pool.payloads.held().1 <= 2 * STOCK_BYTES);
                assert!(pool.headers.held().1 <= 2 * STOCK_BYTES);
            }
        }
        assert_eq!(rx.bufs.payloads.bytes(), STOCK_BYTES);
        let (spilled, bytes) = pool.payloads.held();
        assert_eq!(bytes, 2 * STOCK_BYTES, "the receiver spilled into the pool");

        // the sender's next flush leaves in a pooled buffer
        let allocated = tx.bufs_allocated();
        for p in batch(7) {
            tx.push(p, to_rx);
        }
        let sent = tx.flush_all();
        assert_eq!(sent[0].1.payload, batch(7), "drawn empty");
        assert_eq!(tx.bufs_allocated(), allocated, "the pool supplied it");
        assert_eq!((tx.bufs_reused(), tx.bufs_pooled()), (1, 1));
        assert_eq!(pool.payloads.held().0, spilled - 1);
        for _ in 1..spilled {
            let buf = tx.bufs.payload();
            assert_eq!((buf.len(), buf.capacity()), (0, CAP));
        }
        assert_eq!(tx.bufs_allocated(), allocated);
        assert_eq!(pool.payloads.held(), (0, 0));
    }

    #[test]
    fn fifo_broadcast_orders_per_sender_only() {
        let mut p1 = FifoBroadcast::<u32>::new(1, 3);
        let mut p0 = FifoBroadcast::<u32>::new(0, 3);
        let mut p2 = FifoBroadcast::<u32>::new(2, 3);
        let a1 = p0.broadcast(1);
        let a2 = p0.broadcast(2);
        let b1 = p2.broadcast(7);
        // a2 before a1: buffered; b1 independent: delivered at once
        assert!(p1.on_receive(a2.clone()).is_empty());
        assert_eq!(p1.on_receive(b1).len(), 1);
        let got = p1.on_receive(a1);
        assert_eq!(
            got.iter().map(|m| m.payload).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn sequencer_orders_everything() {
        let mut s = SequencerBroadcast::<&str>::new(SEQUENCER, 3);
        let mut p1 = SequencerBroadcast::<&str>::new(1, 3);
        let mut p2 = SequencerBroadcast::<&str>::new(2, 3);

        // p1 and p2 submit concurrently; sequencer orders
        let sub1 = p1.submit("x");
        let sub2 = p2.submit("y");
        let (d, ord1) = s.on_receive(sub1.clone());
        assert!(d.is_empty());
        let (_, ord2) = s.on_receive(sub2);
        let [ord1] = <[_; 1]>::try_from(ord1).unwrap();
        let [ord2] = <[_; 1]>::try_from(ord2).unwrap();
        // a duplicated submission is not ordered again
        assert!(s.on_receive(sub1).1.is_empty());

        // out-of-order arrival at p1
        let (d, _) = p1.on_receive(ord2.clone());
        assert!(d.is_empty());
        let (d, _) = p1.on_receive(ord1.clone());
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].2, "x");
        assert_eq!(d[1].2, "y");

        // in-order at p2
        let (d, _) = p2.on_receive(ord1);
        assert_eq!(d.len(), 1);
        let (d, _) = p2.on_receive(ord2);
        assert_eq!(d.len(), 1);
        assert_eq!(p2.delivered(), 2);
    }

    /// How the shared reorder test drives one protocol endpoint.
    struct Rig<G, E, M> {
        /// A fresh observer.
        new: fn() -> G,
        /// The buffer underneath it.
        held: fn(&mut G) -> &mut Held<M>,
        /// One receive, returning the `(sender, seq)` keys it released.
        receive: fn(&mut G, E) -> Vec<(NodeId, u64)>,
        /// An envelope's `(sender, seq)` key.
        key: fn(&E) -> (NodeId, u64),
    }

    fn interest_key(m: &InterestMsg<Vec<u32>>) -> (NodeId, u64) {
        (m.sender, m.seq)
    }

    fn fifo_key(m: &FifoMsg<u32>) -> (NodeId, u64) {
        (m.sender, m.seq)
    }

    /// A submission's origin and count, or a slot from the sequencer.
    fn seq_key(m: &SeqMsg<u32>) -> (NodeId, u64) {
        match *m {
            SeqMsg::Submit { origin, count, .. } => (origin, count),
            SeqMsg::Ordered { slot, .. } => (SEQUENCER, slot),
        }
    }

    /// Every envelope 1–4 times, in a seeded order.
    fn arrivals<E: Clone>(envs: &[E], rng: &mut StdRng) -> Vec<E> {
        let mut out: Vec<E> = envs
            .iter()
            .flat_map(|e| vec![e.clone(); rng.gen_range(1..=4usize)])
            .collect();
        for i in (1..out.len()).rev() {
            out.swap(i, rng.gen_range(0..=i));
        }
        out
    }

    /// Offer `envs` to `rx` reordered and duplicated, checking the
    /// buffer after every arrival; then replay the same arrivals into
    /// `fresh`, reset to the frontier `rx` had reached halfway with
    /// envelopes below that frontier still held.
    fn check_exactly_once<G, E: Clone, M>(rig: Rig<G, E, M>, envs: &[E], rng: &mut StdRng) {
        let arrivals = arrivals(envs, rng);
        let (mut rx, mut fresh) = ((rig.new)(), (rig.new)());
        let n = (rig.held)(&mut rx).delivered.len();
        let (mut arrived, mut delivered) = (BTreeSet::new(), BTreeSet::new());
        let mut frontier = Vec::new();
        for (i, env) in arrivals.iter().enumerate() {
            arrived.insert((rig.key)(env));
            for key in (rig.receive)(&mut rx, env.clone()) {
                assert!(delivered.insert(key), "{key:?} delivered twice");
            }
            // the buffer is exactly the distinct envelopes not yet
            // delivered, however many copies arrived
            let held = (rig.held)(&mut rx);
            assert_eq!(held.len(), arrived.len() - delivered.len());
            for s in 0..n {
                let from_s = arrived.iter().filter(|k| k.0 == s).count() as u64;
                assert_eq!(held.received_from(s), from_s, "sender {s}");
            }
            if i == arrivals.len() / 2 {
                frontier = held.delivered.clone();
            }
        }
        assert_eq!(delivered.len(), envs.len(), "every envelope delivered");
        // an endpoint holding envelopes the frontier covers (each
        // sender's first withheld) drops them all when reset to it, then
        // delivers exactly what lies above the frontier, once
        for env in arrivals.iter().filter(|env| {
            let (s, q) = (rig.key)(env);
            q > 1 && q <= frontier[s]
        }) {
            assert!((rig.receive)(&mut fresh, env.clone()).is_empty());
        }
        (rig.held)(&mut fresh).reset(&frontier);
        assert_eq!((rig.held)(&mut fresh).len(), 0);
        let mut again = BTreeSet::new();
        for env in arrivals {
            for key in (rig.receive)(&mut fresh, env) {
                assert!(again.insert(key), "{key:?} delivered twice after reset");
            }
        }
        let above = envs.iter().map(rig.key).filter(|&(s, q)| q > frontier[s]);
        assert_eq!(again, above.collect());
        assert_eq!((rig.held)(&mut fresh).len(), 0);
    }

    /// One buffer, three gates: under seeded reorderings with every
    /// envelope arriving up to four times, each protocol delivers every
    /// envelope exactly once, holds only the distinct envelopes still
    /// out of order, counts them in `received_from`, and restarts
    /// cleanly from a `reset` frontier.
    #[test]
    fn held_delivers_exactly_once_under_reorder_and_duplication() {
        for seed in 0..24 {
            let rng = &mut StdRng::seed_from_u64(seed);
            // interest: nodes 0, 1 and 3 multicast to random masks,
            // peers delivering half the time; node 2 observes what is
            // addressed to it
            let mut nodes: Vec<_> = (0..4)
                .map(|me| InterestBatchCausalBroadcast::<u32>::new(me, 4))
                .collect();
            let mut envs = Vec::new();
            for k in 0..24 {
                let s = [0, 1, 3][rng.gen_range(0..3usize)];
                let recipients = mask(&(0..4).filter(|_| rng.gen_bool(0.6)).collect::<Vec<_>>());
                for (r, env) in multicast(&mut nodes[s], k, recipients) {
                    if r == 2 {
                        envs.push(env);
                    } else if rng.gen_bool(0.5) {
                        nodes[r].on_receive(env);
                    }
                }
            }
            let rig = Rig {
                new: || InterestBatchCausalBroadcast::new(2, 4),
                held: |p| &mut p.held,
                receive: |p, m| p.on_receive(m).iter().map(interest_key).collect(),
                key: interest_key,
            };
            check_exactly_once(rig, &envs, rng);

            // FIFO: nodes 0 and 1 broadcast, node 2 observes
            let mut nodes: Vec<_> = (0..2).map(|me| FifoBroadcast::<u32>::new(me, 3)).collect();
            let envs: Vec<_> = (0..16)
                .map(|k| nodes[k as usize % 2].broadcast(k))
                .collect();
            let rig = Rig {
                new: || FifoBroadcast::new(2, 3),
                held: |p| &mut p.held,
                receive: |p, m| p.on_receive(m).iter().map(fifo_key).collect(),
                key: fifo_key,
            };
            check_exactly_once(rig, &envs, rng);

            // sequencer: nodes 1 and 2 submit their counts, node 0
            // orders them (each ordered once, in per-origin order), node
            // 1 delivers the slots
            let mut nodes: Vec<_> = (0..3)
                .map(|me| SequencerBroadcast::<u32>::new(me, 3))
                .collect();
            let subs: Vec<_> = (0..16)
                .map(|k| nodes[1 + k % 2].submit(k as u32 / 2 + 1))
                .collect();
            let rig = Rig {
                new: || SequencerBroadcast::<u32>::new(SEQUENCER, 3),
                held: |p| &mut p.submissions,
                receive: |p, m| {
                    let ordered = p.on_receive(m).1.into_iter();
                    ordered
                        .map(|o| match o {
                            SeqMsg::Ordered {
                                origin, payload, ..
                            } => (origin, payload.into()),
                            SeqMsg::Submit { .. } => unreachable!("the sequencer orders"),
                        })
                        .collect()
                },
                key: seq_key,
            };
            check_exactly_once(rig, &subs, rng);
            let slots: Vec<_> = subs
                .into_iter()
                .flat_map(|sub| nodes[SEQUENCER].on_receive(sub).1)
                .collect();
            let rig = Rig {
                new: || SequencerBroadcast::new(1, 3),
                held: |p| &mut p.slots,
                receive: |p, m| p.on_receive(m).0.iter().map(|d| (SEQUENCER, d.0)).collect(),
                key: seq_key,
            };
            check_exactly_once(rig, &slots, rng);
        }
    }
}
