//! Broadcast protocol state machines.
//!
//! Each protocol is a per-process pure state machine, independent of the
//! transport: `broadcast` turns an application payload into an envelope
//! (after immediate local delivery, §6.1 property 3), and `on_receive`
//! turns an incoming envelope into the list of payloads now deliverable
//! in protocol order. The transports ([`crate::sim::SimNet`],
//! [`crate::thread_net::ThreadNet`]) move envelopes; the protocols
//! decide delivery order:
//!
//! * [`FifoBroadcast`] — per-sender FIFO (PRAM / pipelined consistency);
//! * [`CausalBroadcast`] — vector-clock causal delivery (the primitive
//!   assumed by Figs. 4 and 5);
//! * [`SequencerBroadcast`] — total order through a sequencer
//!   (sequential consistency baseline; not wait-free).
//!
//! ```
//! use cbm_net::broadcast::CausalBroadcast;
//!
//! let mut alice: CausalBroadcast<&str> = CausalBroadcast::new(0, 3);
//! let mut bob: CausalBroadcast<&str> = CausalBroadcast::new(1, 3);
//! let mut carol: CausalBroadcast<&str> = CausalBroadcast::new(2, 3);
//!
//! let question = alice.broadcast("2+2?");
//! bob.on_receive(question.clone());
//! let answer = bob.broadcast("4");
//!
//! // carol gets the answer first: buffered until the question arrives
//! assert!(carol.on_receive(answer).is_empty());
//! let both = carol.on_receive(question);
//! assert_eq!(both.len(), 2);
//! assert_eq!(both[0].payload, "2+2?");
//! assert_eq!(both[1].payload, "4");
//! ```

use crate::clock::VectorClock;
use crate::stock::Stock;
use crate::NodeId;

/// An envelope of the causal broadcast: payload plus causal metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalMsg<P> {
    /// Broadcaster.
    pub sender: NodeId,
    /// Vector timestamp: `vc[sender]` is the message's sequence number,
    /// other components count the messages delivered at the sender
    /// before the broadcast.
    pub vc: VectorClock,
    /// Application payload.
    pub payload: P,
}

/// Per-process causal broadcast (CBCAST-style).
///
/// Delivery rule for a message `m` from `s ≠ me`:
/// `m.vc[s] = delivered[s] + 1` and `m.vc[j] ≤ delivered[j]` for all
/// `j ≠ s`. Out-of-order envelopes are buffered. This implements
/// exactly the reliable causal broadcast of §6.1 when run over a
/// transport that delivers every sent envelope eventually.
#[derive(Debug, Clone)]
pub struct CausalBroadcast<P> {
    me: NodeId,
    delivered: VectorClock,
    buffer: Vec<CausalMsg<P>>,
    /// Duplicate-suppression set: `(sender, seq)` of every envelope
    /// accepted into the buffer but not yet delivered. A duplicating
    /// or retransmitting transport (duplicate-storm faults, the chaos
    /// layer's repair path) can hand us the same out-of-order envelope
    /// many times; without this set each copy would land in the buffer
    /// and the set itself, unpruned, would grow with every message
    /// ever received. Entries are pruned at the vector-clock floor of
    /// what can still be re-offered: anything at or below `delivered`
    /// is already suppressed by the stale check, so the set stays
    /// bounded by the number of genuinely out-of-order envelopes —
    /// independent of how many duplicates the transport injects.
    seen: std::collections::HashSet<(NodeId, u64)>,
    /// Per-sender cardinality of `seen`, maintained on insert/prune so
    /// [`received_from`](Self::received_from) is O(1) instead of a scan
    /// over the whole suppression set (gap detection runs it per peer
    /// per drain — the scan was O(peers · pending) per rendezvous).
    pending_from: Vec<u64>,
}

impl<P: Clone> CausalBroadcast<P> {
    /// A fresh endpoint for process `me` in a cluster of `n`.
    pub fn new(me: NodeId, n: usize) -> Self {
        CausalBroadcast {
            me,
            delivered: VectorClock::new(n),
            buffer: Vec::new(),
            seen: std::collections::HashSet::new(),
            pending_from: vec![0; n],
        }
    }

    /// Broadcast `payload`: the message is delivered locally at once
    /// (property 3 of §6.1) and the returned envelope must be sent to
    /// every other process.
    pub fn broadcast(&mut self, payload: P) -> CausalMsg<P> {
        let mut vc = self.delivered.clone();
        vc.tick(self.me);
        self.delivered.tick(self.me);
        CausalMsg {
            sender: self.me,
            vc,
            payload,
        }
    }

    /// Receive an envelope; returns every message that becomes
    /// deliverable, in causal delivery order. Stale envelopes — own
    /// messages and duplicates of anything already delivered (a lossy
    /// or duplicating transport may redeliver) — are discarded, so the
    /// buffer stays bounded by the number of genuinely out-of-order
    /// messages.
    #[allow(clippy::while_let_loop)] // the loop body borrows self.buffer twice
    pub fn on_receive(&mut self, msg: CausalMsg<P>) -> Vec<CausalMsg<P>> {
        // suppression is two-tier: the delivered clock rejects
        // anything already delivered (stale), the `seen` set rejects
        // duplicates of envelopes still waiting in the buffer
        if !self.stale(&msg) && self.seen.insert((msg.sender, msg.vc.get(msg.sender))) {
            self.pending_from[msg.sender] += 1;
            self.buffer.push(msg);
        }
        let mut out = Vec::new();
        loop {
            let Some(pos) = self.buffer.iter().position(|m| self.deliverable(m)) else {
                break;
            };
            let m = self.buffer.swap_remove(pos);
            self.delivered.tick(m.sender);
            out.push(m);
        }
        if !out.is_empty() {
            // prune the suppression set at the delivered floor:
            // everything at or below it is suppressed by the stale
            // check, so keeping it would only grow the set without
            // bound under a duplicate storm
            let delivered = &self.delivered;
            let pending_from = &mut self.pending_from;
            self.seen.retain(|&(s, q)| {
                let keep = q > delivered.get(s);
                if !keep {
                    pending_from[s] -= 1;
                }
                keep
            });
            // `seen` guarantees the buffer holds no duplicates of the
            // just-delivered envelopes, but keep the invariant scan as
            // a cheap safety net (it is O(buffer) only on delivery)
            let me = self.me;
            self.buffer
                .retain(|m| m.sender != me && m.vc.get(m.sender) > delivered.get(m.sender));
        }
        out
    }

    /// Entries in the duplicate-suppression set (bounded by the number
    /// of out-of-order envelopes awaiting delivery; see `on_receive`).
    pub fn suppression_len(&self) -> usize {
        self.seen.len()
    }

    /// Distinct messages **received** from `sender`: delivered plus
    /// buffered-out-of-order. Unlike the delivered clock, this count
    /// does not depend on the vector-clock stamps of concurrent
    /// messages (a message blocked behind a lost dependency still
    /// counts), which makes it the right gap detector for lossy
    /// transports: `received_from(q) < q's published send count` iff
    /// something from `q` was physically lost. O(1): the per-sender
    /// buffered count is maintained on insert and prune.
    pub fn received_from(&self, sender: NodeId) -> u64 {
        self.delivered.get(sender) + self.pending_from[sender]
    }

    /// Reset this endpoint to a delivery frontier (crash recovery).
    ///
    /// A recovering replica installs a snapshot taken at a consistent
    /// cut plus the cut's delivery frontier; everything below the
    /// frontier is folded into the snapshot, everything above it will
    /// be re-offered (replayed or freshly received) and must deliver
    /// normally. The component for `me` must equal the number of
    /// messages this endpoint has broadcast, so future broadcasts keep
    /// their sequence numbers contiguous.
    pub fn resync(&mut self, frontier: &[u64]) {
        assert_eq!(frontier.len(), self.delivered.len(), "frontier arity");
        for (i, &v) in frontier.iter().enumerate() {
            self.delivered.set(i, v);
        }
        self.buffer.clear();
        self.seen.clear();
        self.pending_from.fill(0);
    }

    /// Already delivered (or sent by us)?
    fn stale(&self, m: &CausalMsg<P>) -> bool {
        m.sender == self.me || m.vc.get(m.sender) <= self.delivered.get(m.sender)
    }

    fn deliverable(&self, m: &CausalMsg<P>) -> bool {
        if m.sender == self.me {
            // own messages were already delivered locally
            return false;
        }
        if m.vc.get(m.sender) != self.delivered.get(m.sender) + 1 {
            return false;
        }
        (0..self.delivered.len())
            .filter(|&j| j != m.sender)
            .all(|j| m.vc.get(j) <= self.delivered.get(j))
    }

    /// Number of messages delivered from each sender.
    pub fn delivered_clock(&self) -> &VectorClock {
        &self.delivered
    }

    /// Envelopes waiting for their causal past.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }
}

pub use crate::delta::KnowledgeDelta;
pub use crate::mask::{full_interest, InterestMask};

/// An envelope of the interest-filtered causal multicast.
///
/// Unlike [`CausalMsg`], which carries one vector clock meaningful to
/// every receiver, an interest envelope carries a per-**edge** stamp:
/// under partial replication a receiver only ever sees the envelopes it
/// is interested in, so its causal metadata must count envelopes on
/// interest edges, not global broadcasts it will never get.
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

/// Per-process causal multicast with **per-recipient interest filters**
/// and **per-edge sequence numbers** — the delivery substrate for
/// partially replicated stores (Xiang & Vaidya's observation that
/// causal consistency survives partial replication given careful
/// metadata).
///
/// [`CausalBroadcast`]'s vector-clock rule assumes every process
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
/// With every envelope multicast to the full cluster this degenerates
/// to [`CausalBroadcast`]: `seq` equals the sender's global sequence
/// number and the receiver's column its delivered counts — the same
/// gating, so the delivery order (and every deterministic count
/// derived from it) is identical. The property tests in
/// `crates/net/tests/interest_props.rs` pin both directions:
/// full-interest order equivalence and transitive causal delivery
/// under partial interest.
#[derive(Debug, Clone)]
pub struct InterestCausalBroadcast<P> {
    me: NodeId,
    /// Envelopes sent on each `me → r` edge (cumulative, including
    /// copies a faulty transport may drop after stamping).
    edge_sent: Vec<u64>,
    /// Envelopes delivered on each `s → me` edge.
    delivered: Vec<u64>,
    /// `seen[j * n + r]`: envelopes on edge `j → r` known to be in
    /// this process's causal past (via deliveries and matrix merges).
    /// Rows for `j = me` are unused (`edge_sent` is that row).
    seen: Vec<u64>,
    /// Envelopes waiting for their causal past (on our edges).
    buffer: Vec<InterestMsg<P>>,
    /// Duplicate suppression for buffered-but-undelivered envelopes,
    /// keyed by edge sequence number; pruned at the delivered floor
    /// exactly like [`CausalBroadcast`]'s set.
    pending: std::collections::HashSet<(NodeId, u64)>,
    /// Per-sender cardinality of `pending`, maintained on insert/prune
    /// so [`received_from`](Self::received_from) is O(1) instead of a
    /// scan over the whole suppression set.
    pending_from: Vec<u64>,
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
    /// Emptied headers handed back by
    /// [`recycle_header`](Self::recycle_header): the next stamp refills
    /// one in place instead of allocating.
    headers: Stock<KnowledgeDelta>,
}

impl<P: Clone> InterestCausalBroadcast<P> {
    /// A fresh endpoint for process `me` in a cluster of `n`
    /// (≤ [`InterestMask::MAX_NODES`]: interest sets are inline
    /// bitsets).
    pub fn new(me: NodeId, n: usize) -> Self {
        assert!(
            n <= InterestMask::MAX_NODES,
            "interest masks are {}-bit bitsets: n = {n}",
            InterestMask::MAX_NODES
        );
        InterestCausalBroadcast {
            me,
            edge_sent: vec![0; n],
            delivered: vec![0; n],
            seen: vec![0; n * n],
            buffer: Vec::new(),
            pending: std::collections::HashSet::new(),
            pending_from: vec![0; n],
            ver: 0,
            row_ver: vec![0; n],
            sent_ver: vec![0; n],
            edge_col: vec![0; n * n],
            headers: Stock::default(),
        }
    }

    /// Cluster size.
    pub fn cluster_size(&self) -> usize {
        self.edge_sent.len()
    }

    /// Multicast `payload` to the nodes in `recipients`: the payload is
    /// delivered locally at once (the caller applies its own operations
    /// when it invokes them) and one individually stamped envelope is
    /// returned per *other* interested node, in ascending node order —
    /// send each to its recipient.
    pub fn multicast(
        &mut self,
        payload: P,
        recipients: InterestMask,
    ) -> Vec<(NodeId, InterestMsg<P>)> {
        let mut out = Vec::new();
        self.multicast_into(payload, recipients, P::clone, &mut out);
        out
    }

    /// [`multicast`](Self::multicast) into a caller-kept vector, with
    /// the caller choosing how a recipient's copy of the payload is
    /// made: `copy` runs once per recipient but the last, which takes
    /// `payload` itself — a fan-out of `k` costs `k - 1` copies.
    pub fn multicast_into(
        &mut self,
        payload: P,
        recipients: InterestMask,
        mut copy: impl FnMut(&P) -> P,
        out: &mut Vec<(NodeId, InterestMsg<P>)>,
    ) {
        let n = self.cluster_size();
        let me = self.me;
        let targets = || recipients.iter().filter(move |&r| r != me && r < n);
        let mut left = 0usize;
        for r in targets() {
            self.edge_sent[r] += 1;
            left += 1;
        }
        if left == 0 {
            return;
        }
        // the logical stamp is still one matrix snapshot per flush: row
        // `me` is the post-increment edge counts (so each recipient's
        // column includes its own copy, and merging at any receiver
        // teaches it about the flush's other copies), rows `j ≠ me` the
        // transitively merged knowledge. On the wire each recipient
        // gets only the rows that changed since *its* edge's previous
        // envelope — per-edge FIFO delivery lets it overlay them on the
        // view that envelope left behind — and within a row only the
        // non-zero cells (counts are monotone, so zero-now means
        // zero-in-every-earlier-stamp: the sparseness is exact).
        self.ver += 1;
        self.row_ver[me] = self.ver;
        let mut payload = Some(payload);
        for r in targets() {
            let mut knows = self.headers.draw().unwrap_or_default();
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
                payload.take()
            } else {
                payload.as_ref().map(&mut copy)
            };
            out.push((
                r,
                InterestMsg {
                    sender: me,
                    seq: self.edge_sent[r],
                    knows,
                    payload: payload.expect("the payload moves into the last envelope only"),
                },
            ));
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

    /// Hand back a delivered envelope's header once it has been folded
    /// and read: it is emptied and kept (while the stock has room) for
    /// the next stamp to refill.
    pub fn recycle_header(&mut self, knows: KnowledgeDelta) {
        self.headers.stow(knows);
    }

    /// Receive an envelope addressed to this node; returns every
    /// envelope that becomes deliverable, in causal delivery order.
    /// Delivering an envelope folds its knowledge matrix into this
    /// endpoint's, so later multicasts carry the dependency forward
    /// (transitivity across uninterested intermediaries).
    pub fn on_receive(&mut self, msg: InterestMsg<P>) -> Vec<InterestMsg<P>> {
        let mut out = Vec::new();
        self.on_receive_into(msg, &mut out);
        out
    }

    /// [`on_receive`](Self::on_receive), appending the deliverable
    /// envelopes to a caller-kept vector.
    pub fn on_receive_into(&mut self, msg: InterestMsg<P>, out: &mut Vec<InterestMsg<P>>) {
        if !self.stale(&msg) && self.pending.insert((msg.sender, msg.seq)) {
            self.pending_from[msg.sender] += 1;
            self.buffer.push(msg);
        }
        let before = out.len();
        #[allow(clippy::while_let_loop)] // the loop body borrows self.buffer twice
        loop {
            let Some(pos) = self.buffer.iter().position(|m| self.deliverable(m)) else {
                break;
            };
            let m = self.buffer.swap_remove(pos);
            self.delivered[m.sender] += 1;
            let n = self.cluster_size();
            let s = m.sender;
            // fold the delta's rows: rows absent from the delta need no
            // fold — this edge's previous envelope (delivered first,
            // per-edge FIFO) already folded identical values, and
            // `seen` is monotone since
            for (row, cells) in m.knows.rows() {
                let j = row as usize;
                // refresh this edge's carried-over view of our column
                // (the decode baseline for the edge's next delta)
                self.edge_col[s * n + j] = KnowledgeDelta::cell(cells, self.me);
                if j == self.me {
                    continue; // our own row is edge_sent, authoritative
                }
                let mut changed = false;
                for &(c, v) in cells {
                    let i = j * n + c as usize;
                    if v > self.seen[i] {
                        self.seen[i] = v;
                        changed = true;
                    }
                }
                if changed {
                    self.ver += 1;
                    self.row_ver[j] = self.ver;
                }
            }
            out.push(m);
        }
        if out.len() > before {
            let delivered = &self.delivered;
            let pending_from = &mut self.pending_from;
            self.pending.retain(|&(s, q)| {
                let keep = q > delivered[s];
                if !keep {
                    pending_from[s] -= 1;
                }
                keep
            });
            let me = self.me;
            self.buffer
                .retain(|m| m.sender != me && m.seq > delivered[m.sender]);
        }
    }

    /// Already delivered (or sent by us)?
    fn stale(&self, m: &InterestMsg<P>) -> bool {
        m.sender == self.me || m.seq <= self.delivered[m.sender]
    }

    fn deliverable(&self, m: &InterestMsg<P>) -> bool {
        if m.sender == self.me || m.seq != self.delivered[m.sender] + 1 {
            return false;
        }
        // the gate needs our column of the sender's matrix: dirty rows
        // carry it in the delta, clean rows are unchanged from this
        // edge's previous envelope, whose column `edge_col` kept. The
        // seq check above guarantees that previous envelope is exactly
        // the one `edge_col` currently reflects. Merge-walk the sorted
        // delta rows so the gate is O(n + delta), not O(n · delta).
        let n = self.delivered.len();
        let s = m.sender;
        let mut rows = m.knows.rows().peekable();
        for j in 0..n {
            while rows.next_if(|(row, _)| (*row as usize) < j).is_some() {}
            if j == s || j == self.me {
                continue;
            }
            let v = match rows.peek() {
                Some((row, cells)) if *row as usize == j => KnowledgeDelta::cell(cells, self.me),
                _ => self.edge_col[s * n + j],
            };
            if v > self.delivered[j] {
                return false;
            }
        }
        true
    }

    /// Envelopes sent so far on the `me → r` edge.
    pub fn edge_sent(&self, r: NodeId) -> u64 {
        self.edge_sent[r]
    }

    /// Envelopes delivered so far on each `s → me` edge.
    pub fn delivered_edges(&self) -> &[u64] {
        &self.delivered
    }

    /// Distinct envelopes **received** on the `q → me` edge: delivered
    /// plus buffered out-of-order — the per-edge gap detector for lossy
    /// transports (see [`CausalBroadcast::received_from`]). O(1): the
    /// per-edge buffered count is maintained on insert and prune.
    pub fn received_from(&self, q: NodeId) -> u64 {
        self.delivered[q] + self.pending_from[q]
    }

    /// Envelopes waiting for their causal past.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Entries in the duplicate-suppression set.
    pub fn suppression_len(&self) -> usize {
        self.pending.len()
    }

    /// Snapshot of this node's current edge knowledge: the `seen`
    /// matrix with our own row replaced by `edge_sent` — exactly the
    /// stamp the **next** envelope flushed from here would carry
    /// *before* its own edge increments. Row-major `n × n`,
    /// `knowledge[j * n + r]` = envelopes we know `j` has sent to `r`.
    /// Observability hook (trace spans stamp flushes with it); never
    /// read by the protocol itself.
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
    pub fn resync(&mut self, delivered: &[u64], sent: &[u64]) {
        let n = self.cluster_size();
        assert_eq!(delivered.len(), n, "frontier arity");
        assert_eq!(sent.len(), n * n, "edge matrix arity");
        for (j, &d) in delivered.iter().enumerate() {
            if j != self.me {
                self.delivered[j] = d;
                let mut changed = false;
                for r in 0..n {
                    let i = j * n + r;
                    if sent[i] > self.seen[i] {
                        self.seen[i] = sent[i];
                        changed = true;
                    }
                }
                // rows the cut grew must reach peers whose last
                // envelope predates the fold
                if changed {
                    self.ver += 1;
                    self.row_ver[j] = self.ver;
                }
            }
        }
        self.buffer.clear();
        self.pending.clear();
        self.pending_from.fill(0);
        // the per-edge decode baselines died with the pre-crash
        // in-flight state: zero them and rely on every live peer
        // calling [`mark_refresh`](Self::mark_refresh) for this node,
        // so the next envelope on each inbound edge is a full refresh
        // against exactly this zero baseline
        self.edge_col.fill(0);
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
}

/// [`InterestCausalBroadcast`] with payload **batching per interest
/// mask**: payloads that share a recipient set coalesce into one
/// envelope per flush, so a batch is only ever addressed to nodes
/// interested in (all of) its contents — the store engine keys masks
/// by shard, giving "deliver a batch only to replicas interested in at
/// least one of its objects" with no per-op filtering at the receiver.
#[derive(Debug, Clone)]
pub struct InterestBatchCausalBroadcast<P> {
    inner: InterestCausalBroadcast<Vec<P>>,
    /// Pending payloads per interest mask, in first-push order (the
    /// flush order at drains must be deterministic).
    pending: Vec<(InterestMask, Vec<P>)>,
    batches_sent: u64,
    payloads_sent: u64,
    bufs: PayloadBufs<P>,
}

/// Where an [`InterestBatchCausalBroadcast`]'s payload vectors come
/// from: emptied payloads of delivered envelopes
/// ([`recycle`](InterestBatchCausalBroadcast::recycle)) first, the
/// allocator only when there is none.
#[derive(Debug, Clone)]
struct PayloadBufs<P> {
    stock: Stock<Vec<P>>,
    /// The largest batch flushed so far: what a freshly allocated
    /// vector is sized to, so it never regrows on the way to the
    /// caller's flush threshold.
    batch_cap: usize,
    reused: u64,
    allocated: u64,
}

impl<P> PayloadBufs<P> {
    /// An empty payload vector.
    fn draw(&mut self) -> Vec<P> {
        match self.stock.draw() {
            Some(buf) => {
                self.reused += 1;
                buf
            }
            None => {
                self.allocated += 1;
                Vec::with_capacity(self.batch_cap)
            }
        }
    }
}

impl<P: Clone> InterestBatchCausalBroadcast<P> {
    /// A fresh endpoint for process `me` in a cluster of `n`
    /// (≤ [`InterestMask::MAX_NODES`]).
    pub fn new(me: NodeId, n: usize) -> Self {
        InterestBatchCausalBroadcast {
            inner: InterestCausalBroadcast::new(me, n),
            pending: Vec::new(),
            batches_sent: 0,
            payloads_sent: 0,
            bufs: PayloadBufs {
                stock: Stock::default(),
                batch_cap: 0,
                reused: 0,
                allocated: 0,
            },
        }
    }

    /// Queue a payload addressed to `recipients` for the next flush of
    /// that mask; returns the mask's pending count.
    pub fn push(&mut self, payload: P, recipients: InterestMask) -> usize {
        if let Some((_, q)) = self.pending.iter_mut().find(|(m, _)| *m == recipients) {
            q.push(payload);
            return q.len();
        }
        let mut q = self.bufs.draw();
        q.push(payload);
        self.pending.push((recipients, q));
        1
    }

    /// Total payloads queued across all masks.
    pub fn pending(&self) -> usize {
        self.pending.iter().map(|(_, q)| q.len()).sum()
    }

    /// Seal one mask's pending payloads into stamped per-recipient
    /// envelopes (empty if nothing is pending for the mask).
    pub fn flush_mask(&mut self, recipients: InterestMask) -> Vec<(NodeId, InterestMsg<Vec<P>>)> {
        let mut out = Vec::new();
        self.flush_mask_into(recipients, &mut out);
        out
    }

    /// [`flush_mask`](Self::flush_mask), appending the envelopes to a
    /// caller-kept vector. The last recipient's envelope carries the
    /// pending batch itself; the others carry copies drawn from the
    /// recycled stock.
    pub fn flush_mask_into(
        &mut self,
        recipients: InterestMask,
        out: &mut Vec<(NodeId, InterestMsg<Vec<P>>)>,
    ) {
        let Some(pos) = self.pending.iter().position(|(m, _)| *m == recipients) else {
            return;
        };
        let (mask, batch) = self.pending.remove(pos);
        self.batches_sent += 1;
        self.payloads_sent += batch.len() as u64;
        self.bufs.batch_cap = self.bufs.batch_cap.max(batch.len());
        let bufs = &mut self.bufs;
        let copy = |batch: &Vec<P>| {
            let mut buf = bufs.draw();
            buf.extend_from_slice(batch);
            buf
        };
        self.inner.multicast_into(batch, mask, copy, out);
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

    /// Receive a batch envelope; returns every batch that becomes
    /// deliverable, in causal order (see
    /// [`InterestCausalBroadcast::on_receive`]).
    pub fn on_receive(&mut self, msg: InterestMsg<Vec<P>>) -> Vec<InterestMsg<Vec<P>>> {
        self.inner.on_receive(msg)
    }

    /// [`on_receive`](Self::on_receive), appending to a caller-kept
    /// vector.
    pub fn on_receive_into(
        &mut self,
        msg: InterestMsg<Vec<P>>,
        out: &mut Vec<InterestMsg<Vec<P>>>,
    ) {
        self.inner.on_receive_into(msg, out);
    }

    /// Hand back a delivered envelope once its payloads are applied:
    /// its payload and header vectors are emptied and kept (up to a
    /// fixed byte bound of each, `stock::STOCK_BYTES`) for the next
    /// flush to leave in, so in steady state the buffer an update
    /// arrived in is the buffer the next update leaves in, and the
    /// sender's allocation is not freed from this thread.
    pub fn recycle(&mut self, env: InterestMsg<Vec<P>>) {
        self.bufs.stock.stow(env.payload);
        self.inner.recycle_header(env.knows);
    }

    /// Payload vectors drawn from the recycled stock so far.
    pub fn bufs_reused(&self) -> u64 {
        self.bufs.reused
    }

    /// Payload vectors the stock could not supply (allocated).
    pub fn bufs_allocated(&self) -> u64 {
        self.bufs.allocated
    }

    /// Batch envelopes sent so far on the `me → r` edge.
    pub fn edge_sent(&self, r: NodeId) -> u64 {
        self.inner.edge_sent(r)
    }

    /// Batch envelopes delivered so far on each `s → me` edge.
    pub fn delivered_edges(&self) -> &[u64] {
        self.inner.delivered_edges()
    }

    /// Distinct batch envelopes received on the `q → me` edge.
    pub fn received_from(&self, q: NodeId) -> u64 {
        self.inner.received_from(q)
    }

    /// Envelopes waiting for their causal past.
    pub fn buffered(&self) -> usize {
        self.inner.buffered()
    }

    /// Entries in the duplicate-suppression set.
    pub fn suppression_len(&self) -> usize {
        self.inner.suppression_len()
    }

    /// Current edge-knowledge snapshot (see
    /// [`InterestCausalBroadcast::knowledge`]): the pre-flush clock
    /// stamp trace spans attach to `batch_flush` events.
    pub fn knowledge(&self) -> Vec<u64> {
        self.inner.knowledge()
    }

    /// Reset to a consistent cut after crash recovery (see
    /// [`InterestCausalBroadcast::resync`]); pending unsent payloads
    /// are discarded with the rest of the pre-crash in-flight state.
    pub fn resync(&mut self, delivered: &[u64], sent: &[u64]) {
        self.inner.resync(delivered, sent);
        while let Some((_, q)) = self.pending.pop() {
            self.bufs.stock.stow(q);
        }
    }

    /// Force the next envelope stamped for `r` to be a full knowledge
    /// refresh (see [`InterestCausalBroadcast::mark_refresh`]).
    pub fn mark_refresh(&mut self, r: NodeId) {
        self.inner.mark_refresh(r);
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
    sent: u64,
    next: Vec<u64>,
    buffer: Vec<FifoMsg<P>>,
}

impl<P: Clone> FifoBroadcast<P> {
    /// A fresh endpoint for process `me` in a cluster of `n`.
    pub fn new(me: NodeId, n: usize) -> Self {
        FifoBroadcast {
            me,
            sent: 0,
            next: vec![1; n],
            buffer: Vec::new(),
        }
    }

    /// Broadcast `payload` (delivered locally at once).
    pub fn broadcast(&mut self, payload: P) -> FifoMsg<P> {
        self.sent += 1;
        self.next[self.me] = self.sent + 1;
        FifoMsg {
            sender: self.me,
            seq: self.sent,
            payload,
        }
    }

    /// Receive an envelope; returns newly deliverable messages in FIFO
    /// order.
    #[allow(clippy::while_let_loop)]
    pub fn on_receive(&mut self, msg: FifoMsg<P>) -> Vec<FifoMsg<P>> {
        if msg.sender == self.me {
            return Vec::new();
        }
        self.buffer.push(msg);
        let mut out = Vec::new();
        loop {
            let Some(pos) = self
                .buffer
                .iter()
                .position(|m| m.seq == self.next[m.sender])
            else {
                break;
            };
            let m = self.buffer.swap_remove(pos);
            self.next[m.sender] += 1;
            out.push(m);
        }
        out
    }
}

/// Messages of the sequencer protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqMsg<P> {
    /// Client → sequencer: please order this payload.
    Submit {
        /// Originating process.
        origin: NodeId,
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
/// Used by the sequential-consistency baseline: an update completes
/// only when its `Ordered` envelope comes back, so operation latency is
/// at least one round trip to the sequencer — precisely the
/// communication dependence that §1 contrasts with wait-free causal
/// objects.
#[derive(Debug, Clone)]
pub struct SequencerBroadcast<P> {
    me: NodeId,
    next_slot: u64,    // sequencer state
    next_deliver: u64, // per-process delivery cursor
    buffer: Vec<SeqMsg<P>>,
}

/// The sequencer role is fixed to process 0.
pub const SEQUENCER: NodeId = 0;

impl<P: Clone> SequencerBroadcast<P> {
    /// A fresh endpoint for process `me`.
    pub fn new(me: NodeId) -> Self {
        SequencerBroadcast {
            me,
            next_slot: 1,
            next_deliver: 1,
            buffer: Vec::new(),
        }
    }

    /// Submit a payload for total ordering. Returns the envelope to
    /// send to the sequencer (or, if `me` is the sequencer, the
    /// `Ordered` envelope to broadcast).
    pub fn submit(&mut self, payload: P) -> SeqMsg<P> {
        if self.me == SEQUENCER {
            let slot = self.next_slot;
            self.next_slot += 1;
            SeqMsg::Ordered {
                slot,
                origin: self.me,
                payload,
            }
        } else {
            SeqMsg::Submit {
                origin: self.me,
                payload,
            }
        }
    }

    /// Handle an incoming envelope.
    ///
    /// Returns `(deliveries, to_broadcast)`: payloads now deliverable
    /// in slot order, plus (at the sequencer) the `Ordered` envelope to
    /// fan out.
    #[allow(clippy::type_complexity, clippy::while_let_loop)]
    pub fn on_receive(&mut self, msg: SeqMsg<P>) -> (Vec<(u64, NodeId, P)>, Option<SeqMsg<P>>) {
        match msg {
            SeqMsg::Submit { origin, payload } => {
                assert_eq!(self.me, SEQUENCER, "Submit routed to non-sequencer");
                let slot = self.next_slot;
                self.next_slot += 1;
                let ordered = SeqMsg::Ordered {
                    slot,
                    origin,
                    payload,
                };
                (Vec::new(), Some(ordered))
            }
            ordered @ SeqMsg::Ordered { .. } => {
                self.buffer.push(ordered);
                let mut out = Vec::new();
                loop {
                    let Some(pos) = self.buffer.iter().position(
                        |m| matches!(m, SeqMsg::Ordered { slot, .. } if *slot == self.next_deliver),
                    ) else {
                        break;
                    };
                    let SeqMsg::Ordered {
                        slot,
                        origin,
                        payload,
                    } = self.buffer.swap_remove(pos)
                    else {
                        unreachable!()
                    };
                    self.next_deliver += 1;
                    out.push((slot, origin, payload));
                }
                (out, None)
            }
        }
    }

    /// Slots delivered so far.
    pub fn delivered(&self) -> u64 {
        self.next_deliver - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An interest mask from an explicit node list.
    fn mask(bits: &[usize]) -> InterestMask {
        let mut m = InterestMask::EMPTY;
        for &b in bits {
            m.set(b);
        }
        m
    }

    #[test]
    fn causal_broadcast_buffers_out_of_causal_order() {
        // p0 broadcasts m1; p1 receives m1 then broadcasts m2.
        // p2 receives m2 BEFORE m1: m2 must be buffered.
        let mut p0 = CausalBroadcast::<&str>::new(0, 3);
        let mut p1 = CausalBroadcast::<&str>::new(1, 3);
        let mut p2 = CausalBroadcast::<&str>::new(2, 3);

        let m1 = p0.broadcast("m1");
        assert_eq!(p1.on_receive(m1.clone()).len(), 1);
        let m2 = p1.broadcast("m2");

        // m2 first: buffered
        assert!(p2.on_receive(m2.clone()).is_empty());
        assert_eq!(p2.buffered(), 1);
        // m1 arrives: both deliverable, in causal order
        let delivered = p2.on_receive(m1);
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[0].payload, "m1");
        assert_eq!(delivered[1].payload, "m2");
        assert_eq!(p2.buffered(), 0);
    }

    #[test]
    fn causal_broadcast_fifo_per_sender() {
        let mut p0 = CausalBroadcast::<u32>::new(0, 2);
        let mut p1 = CausalBroadcast::<u32>::new(1, 2);
        let a = p0.broadcast(1);
        let b = p0.broadcast(2);
        // reversed arrival
        assert!(p1.on_receive(b.clone()).is_empty());
        let got = p1.on_receive(a);
        assert_eq!(
            got.iter().map(|m| m.payload).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn concurrent_messages_deliver_in_any_order() {
        let mut p0 = CausalBroadcast::<u32>::new(0, 3);
        let mut p1 = CausalBroadcast::<u32>::new(1, 3);
        let mut p2 = CausalBroadcast::<u32>::new(2, 3);
        let a = p0.broadcast(10);
        let b = p1.broadcast(20);
        // p2 receives b then a — both concurrent, both deliverable at once
        assert_eq!(p2.on_receive(b).len(), 1);
        assert_eq!(p2.on_receive(a).len(), 1);
    }

    #[test]
    fn own_messages_not_redelivered() {
        let mut p0 = CausalBroadcast::<u32>::new(0, 2);
        let m = p0.broadcast(5);
        assert!(p0.on_receive(m).is_empty());
    }

    #[test]
    fn duplicate_storm_keeps_buffer_and_suppression_bounded() {
        // p0 broadcasts a chain m1..m8; p1 receives m2..m8 (m1 held
        // back) in R duplicated rounds: the buffer and the suppression
        // set must stay bounded by the 7 distinct undelivered
        // envelopes, independent of R.
        let mut p0 = CausalBroadcast::<u64>::new(0, 2);
        let mut p1 = CausalBroadcast::<u64>::new(1, 2);
        let msgs: Vec<_> = (0..8).map(|i| p0.broadcast(i)).collect();
        for _round in 0..50 {
            for m in &msgs[1..] {
                assert!(p1.on_receive(m.clone()).is_empty());
            }
            assert_eq!(p1.buffered(), 7, "duplicates must not accumulate");
            assert_eq!(p1.suppression_len(), 7);
        }
        // the missing head arrives: everything delivers, and the
        // suppression set is pruned at the new delivered floor
        let out = p1.on_receive(msgs[0].clone());
        assert_eq!(out.len(), 8);
        assert_eq!(p1.buffered(), 0);
        assert_eq!(p1.suppression_len(), 0, "pruned below the floor");
        // late duplicates of delivered envelopes stay suppressed by
        // the delivered clock and never re-enter the set
        for m in &msgs {
            assert!(p1.on_receive(m.clone()).is_empty());
        }
        assert_eq!(p1.suppression_len(), 0);
    }

    #[test]
    fn resync_installs_frontier_and_clears_state() {
        let mut p0 = CausalBroadcast::<u32>::new(0, 3);
        let mut p2 = CausalBroadcast::<u32>::new(2, 3);
        let a = p0.broadcast(1);
        let b = p0.broadcast(2);
        let c = p0.broadcast(3);
        // p2 buffers b out of order, then "crashes" and resyncs to a
        // frontier that already covers a and b
        assert!(p2.on_receive(b).is_empty());
        assert_eq!(p2.buffered(), 1);
        p2.resync(&[2, 0, 0]);
        assert_eq!(p2.buffered(), 0);
        assert_eq!(p2.suppression_len(), 0);
        // below-frontier envelopes are stale; the next one delivers
        assert!(p2.on_receive(a).is_empty());
        let out = p2.on_receive(c);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, 3);
        assert_eq!(p2.delivered_clock().get(0), 3);
    }

    /// All nodes interested: the interest protocol must behave exactly
    /// like [`CausalBroadcast`] (same buffering, same delivery order).
    #[test]
    fn interest_full_mask_degenerates_to_causal_broadcast() {
        let all = full_interest(3);
        let mut p0 = InterestCausalBroadcast::<&str>::new(0, 3);
        let mut p1 = InterestCausalBroadcast::<&str>::new(1, 3);
        let mut p2 = InterestCausalBroadcast::<&str>::new(2, 3);

        let q = p0.multicast("2+2?", all);
        assert_eq!(q.len(), 2, "one stamped copy per other node");
        let to_p1 = q.iter().find(|(r, _)| *r == 1).unwrap().1.clone();
        let to_p2 = q.iter().find(|(r, _)| *r == 2).unwrap().1.clone();
        assert_eq!(p1.on_receive(to_p1).len(), 1);
        let a = p1.multicast("4", all);
        let a_to_p2 = a.iter().find(|(r, _)| *r == 2).unwrap().1.clone();

        // p2 gets the answer first: buffered until the question arrives
        assert!(p2.on_receive(a_to_p2).is_empty());
        assert_eq!(p2.buffered(), 1);
        let both = p2.on_receive(to_p2);
        assert_eq!(both.len(), 2);
        assert_eq!(both[0].payload, "2+2?");
        assert_eq!(both[1].payload, "4");
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
        let mut p0 = InterestCausalBroadcast::<&str>::new(0, 4);
        let mut p1 = InterestCausalBroadcast::<&str>::new(1, 4);
        let mut p2 = InterestCausalBroadcast::<&str>::new(2, 4);
        let mut p3 = InterestCausalBroadcast::<&str>::new(3, 4);

        let b = p3.multicast("b", mask(&[0, 1, 3]));
        assert_eq!(b.len(), 2, "copies for nodes 0 and 1 only");
        let b_to_p1 = b.iter().find(|(r, _)| *r == 1).unwrap().1.clone();
        let b_to_p0 = b.iter().find(|(r, _)| *r == 0).unwrap().1.clone();
        assert_eq!(p1.on_receive(b_to_p1).len(), 1);
        let c = p1.multicast("c", full_interest(4));

        // p2 never saw (and never will see) b — c must deliver at once
        let c_to_p2 = c.iter().find(|(r, _)| *r == 2).unwrap().1.clone();
        let got = p2.on_receive(c_to_p2);
        assert_eq!(got.len(), 1, "uninterested dependency must not block");
        assert_eq!(got[0].payload, "c");

        // ...but node 0, which IS interested in b, must wait for it
        let c_to_p0 = c.iter().find(|(r, _)| *r == 0).unwrap().1.clone();
        assert!(p0.on_receive(c_to_p0).is_empty());
        assert_eq!(p0.buffered(), 1);
        let both = p0.on_receive(b_to_p0);
        assert_eq!(both.len(), 2);
        assert_eq!(both[0].payload, "b");
        assert_eq!(both[1].payload, "c");

        // transitivity through an uninterested intermediary: node 2
        // (which never saw b) multicasts "d" causally after c — node 0
        // must still order b before d
        let mut q0 = InterestCausalBroadcast::<&str>::new(0, 4);
        let d = p2.multicast("d", full_interest(4));
        let d_to_p0 = d.iter().find(|(r, _)| *r == 0).unwrap().1.clone();
        let b2 = p3.multicast("b2", mask(&[0, 1, 3])); // fresh b for the fresh q0
        let _ = b2;
        // q0 receives d first: blocked on c AND (transitively) on b
        assert!(q0.on_receive(d_to_p0).is_empty());
        assert_eq!(q0.buffered(), 1, "d waits for its transitive past");
    }

    #[test]
    fn interest_edges_are_fifo_with_dup_suppression_and_gap_counts() {
        let mut p0 = InterestCausalBroadcast::<u32>::new(0, 2);
        let mut p1 = InterestCausalBroadcast::<u32>::new(1, 2);
        let m1 = p0.multicast(1, mask(&[0, 1])).pop().unwrap().1;
        let m2 = p0.multicast(2, mask(&[0, 1])).pop().unwrap().1;
        assert_eq!(p0.edge_sent(1), 2);
        // reversed arrival with duplicates
        assert!(p1.on_receive(m2.clone()).is_empty());
        assert!(p1.on_receive(m2.clone()).is_empty());
        assert_eq!(p1.buffered(), 1, "duplicate suppressed");
        assert_eq!(p1.received_from(0), 1, "m2 received, m1 missing");
        let got = p1.on_receive(m1);
        assert_eq!(got.iter().map(|m| m.payload).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(p1.received_from(0), 2);
        assert_eq!(p1.suppression_len(), 0, "pruned at the floor");
        assert!(p1.on_receive(m2).is_empty(), "late dup is stale");
    }

    #[test]
    fn interest_resync_installs_cut_matrix() {
        // 3 nodes, everything full interest; node 2 crashes after
        // delivering nothing, then resyncs to a cut where node 0 had
        // sent it 2 envelopes and node 1 one envelope
        let mut p2 = InterestCausalBroadcast::<u32>::new(2, 3);
        let mut p0 = InterestCausalBroadcast::<u32>::new(0, 3);
        let e1 = p0.multicast(1, full_interest(3));
        let e2 = p0.multicast(2, full_interest(3));
        let e3 = p0.multicast(3, full_interest(3));
        let _ = (e1, e2);
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
        let m3 = e3.into_iter().find(|(r, _)| *r == 2).unwrap().1;
        let got = p2.on_receive(m3);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 3);
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
        let to0 = e2.iter().find(|(r, _)| *r == 0).unwrap().1.clone();
        assert_eq!(p0.on_receive(to0).len(), 1);
        // node 1 originated [9] (its own past): [7] also delivers at
        // once — the dependency rides the sender's own row, which the
        // originator trivially satisfies
        let to1 = e2.iter().find(|(r, _)| *r == 1).unwrap().1.clone();
        let got = p1.on_receive(to1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, vec![7]);
        // a third party that IS sent both must order them: replay the
        // same exchange toward a fresh observer
        let mut q1 = InterestBatchCausalBroadcast::<u8>::new(1, 3);
        let mut q2 = InterestBatchCausalBroadcast::<u8>::new(2, 3);
        q1.push(9, mask(&[0, 1, 2])); // now node 0 is interested too
        let e = q1.flush_all();
        let to2 = e.iter().find(|(r, _)| *r == 2).unwrap().1.clone();
        let to0_first = e.iter().find(|(r, _)| *r == 0).unwrap().1.clone();
        assert_eq!(q2.on_receive(to2).len(), 1);
        q2.push(7, full_interest(3));
        let e2 = q2.flush_all();
        let to0_second = e2.iter().find(|(r, _)| *r == 0).unwrap().1.clone();
        let mut q0 = InterestBatchCausalBroadcast::<u8>::new(0, 3);
        assert!(q0.on_receive(to0_second).is_empty(), "needs [9] first");
        let both = q0.on_receive(to0_first);
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
        use std::collections::HashSet;

        const N: usize = 4;
        let all = full_interest(N);
        let mut nodes: Vec<_> = (0..N)
            .map(|me| InterestBatchCausalBroadcast::<u64>::new(me, N))
            .collect();
        // one round: everyone flushes 8 payloads to everyone, every
        // envelope is delivered and handed back; returns, per node, the
        // payload buffers it sent in and the ones it recycled
        let round = |nodes: &mut Vec<InterestBatchCausalBroadcast<u64>>, tag: u64| {
            let mut sent = vec![HashSet::new(); N];
            let mut recycled = vec![HashSet::new(); N];
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
            assert_eq!(node.bufs.stock.len(), N - 1);
            assert_eq!(node.inner.headers.len(), N - 1);
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
        let held = nodes[0].bufs.stock.len();
        nodes[0].resync(&[0, 2, 2, 2], &[0; N * N]);
        assert_eq!(nodes[0].bufs.stock.len(), held + 1);
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
            assert!(nodes[0].bufs.stock.bytes() <= STOCK_BYTES);
            assert!(nodes[0].inner.headers.bytes() <= STOCK_BYTES);
        }
        assert_eq!(nodes[0].bufs.stock.len(), STOCK_BYTES / (128 * 8));
        nodes[0].recycle(env(0));
        assert_eq!(nodes[0].bufs.stock.len(), STOCK_BYTES / (128 * 8));
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
        let mut s = SequencerBroadcast::<&str>::new(SEQUENCER);
        let mut p1 = SequencerBroadcast::<&str>::new(1);
        let mut p2 = SequencerBroadcast::<&str>::new(2);

        // p1 and p2 submit concurrently; sequencer orders
        let sub1 = p1.submit("x");
        let sub2 = p2.submit("y");
        let (d, ord1) = s.on_receive(sub1);
        assert!(d.is_empty());
        let (_, ord2) = s.on_receive(sub2);
        let ord1 = ord1.unwrap();
        let ord2 = ord2.unwrap();

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
}
