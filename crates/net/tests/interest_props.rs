//! Property tests for the interest-filtered causal multicast
//! ([`cbm_net::broadcast::InterestBatchCausalBroadcast`]), each
//! envelope a batch of one.
//!
//! The headline property: across random clusters, replication masks,
//! workloads, arrival interleavings, and injected duplicates, interest
//! multicast is **delivery-equivalent to full broadcast restricted to
//! the interested replicas** —
//!
//! * every replica delivers exactly the envelopes it is interested in,
//!   exactly once, no matter how arrivals interleave or repeat (the
//!   same set the reference [`CausalBroadcast`] delivers to it, minus
//!   the uninterested ones);
//! * delivery respects the **causal order of the interest world**: if
//!   `m'` was in its sender's causal past when `m` was multicast (past
//!   built from interest deliveries and own sends — what a partially
//!   replicated process can actually know), then every replica
//!   interested in both delivers `m'` first;
//! * per-edge FIFO: each sender's envelopes to a given replica deliver
//!   in edge-sequence order;
//! * and with **everyone interested** the protocol degenerates to the
//!   reference exactly: same deliveries in the same order per replica.

use cbm_net::broadcast::{
    CausalBroadcast, CausalMsg, InterestBatchCausalBroadcast, InterestMask, InterestMsg,
    KnowledgeDelta,
};
use cbm_net::NodeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Payload: a unique id plus the topic that decides its interest mask.
type Payload = (u32, usize);

/// Topic `t`'s mask: `rf` consecutive workers starting at `t % n`.
fn topic_mask(t: usize, n: usize, rf: usize) -> InterestMask {
    let mut m = InterestMask::EMPTY;
    for i in 0..rf {
        m.set((t + i) % n);
    }
    m
}

struct Harness {
    n: usize,
    rf: usize,
    /// Reference endpoints (full broadcast).
    refs: Vec<CausalBroadcast<Payload>>,
    /// Interest endpoints.
    ints: Vec<InterestBatchCausalBroadcast<Payload>>,
    /// Undelivered reference envelopes per recipient: `(id, env)`.
    ref_pending: Vec<Vec<(u32, CausalMsg<Payload>)>>,
    /// Undelivered interest envelopes per recipient.
    int_pending: Vec<Vec<(u32, InterestMsg<Vec<Payload>>)>>,
    /// Every interest envelope already arrived, for duplicate
    /// injection (true retransmissions — a duplicate of something not
    /// yet on the wire would desynchronize the two arrival schedules).
    int_arrived: Vec<Vec<InterestMsg<Vec<Payload>>>>,
    /// Interest mask per message id.
    mask_of: HashMap<u32, InterestMask>,
    /// Transitive causal past per message id, in the interest world.
    past: HashMap<u32, HashSet<u32>>,
    /// Transitive knowledge per node: delivered (interest) + own sends.
    knows: Vec<HashSet<u32>>,
    /// Deliveries per (system, recipient), in delivery order.
    ref_delivered: Vec<Vec<u32>>,
    int_delivered: Vec<Vec<u32>>,
    /// Last delivered edge seq per (sender, recipient) (FIFO check).
    edge_floor: HashMap<(NodeId, NodeId), u64>,
    next_id: u32,
    /// Dense-era shadow of each node's knowledge state, maintained by
    /// the test: `shadow_seen[me]` is the n×n merged matrix,
    /// `shadow_edge_sent[me]` the own-row edge counts. Every delivery
    /// asserts the delta implementation's [`knowledge`] snapshot equals
    /// the shadow — the delta machinery must be observationally
    /// identical to shipping full matrices.
    ///
    /// [`knowledge`]: InterestBatchCausalBroadcast::knowledge
    shadow_seen: Vec<Vec<u64>>,
    shadow_edge_sent: Vec<Vec<u64>>,
    /// The dense matrix each envelope logically stamps, keyed by
    /// `(sender, recipient, edge seq)`.
    full_of: HashMap<(NodeId, NodeId, u64), Vec<u64>>,
    /// Per-edge delta-decoded view: dirty rows overlay, clean rows
    /// carry over — exactly the receiver's reconstruction rule.
    edge_view: HashMap<(NodeId, NodeId), Vec<u64>>,
}

impl Harness {
    fn new(n: usize, rf: usize) -> Self {
        Harness {
            n,
            rf,
            refs: (0..n).map(|me| CausalBroadcast::new(me, n)).collect(),
            ints: (0..n)
                .map(|me| InterestBatchCausalBroadcast::new(me, n))
                .collect(),
            ref_pending: vec![Vec::new(); n],
            int_pending: vec![Vec::new(); n],
            int_arrived: vec![Vec::new(); n],
            mask_of: HashMap::new(),
            past: HashMap::new(),
            knows: (0..n).map(|_| HashSet::new()).collect(),
            ref_delivered: vec![Vec::new(); n],
            int_delivered: vec![Vec::new(); n],
            edge_floor: HashMap::new(),
            next_id: 0,
            shadow_seen: vec![vec![0; n * n]; n],
            shadow_edge_sent: vec![vec![0; n]; n],
            full_of: HashMap::new(),
            edge_view: HashMap::new(),
        }
    }

    /// The dense knowledge snapshot node `me`'s next envelope would
    /// logically stamp (shadow of
    /// [`InterestBatchCausalBroadcast::knowledge`]).
    fn shadow_knowledge(&self, me: NodeId) -> Vec<u64> {
        let n = self.n;
        let mut k = self.shadow_seen[me].clone();
        k[me * n..(me + 1) * n].copy_from_slice(&self.shadow_edge_sent[me]);
        k
    }

    fn send(&mut self, s: NodeId, topic: usize) {
        let id = self.next_id;
        self.next_id += 1;
        let mask = topic_mask(topic, self.n, self.rf);
        self.mask_of.insert(id, mask);
        let mut past = self.knows[s].clone();
        self.knows[s].insert(id);
        past.insert(id);
        self.past.insert(id, past);

        let env = self.refs[s].broadcast((id, topic));
        for r in 0..self.n {
            if r != s {
                self.ref_pending[r].push((id, env.clone()));
            }
        }
        self.ints[s].push((id, topic), mask);
        let envs = self.ints[s].flush_mask(mask);
        // shadow the dense-era stamp: post-increment own row, merged
        // rows for everyone else — the matrix every recipient's
        // delta-decoded view must reconstruct exactly
        for (r, _) in &envs {
            self.shadow_edge_sent[s][*r] += 1;
        }
        let full = self.shadow_knowledge(s);
        for (r, env) in envs {
            // the wire codec must be lossless and its byte accounting
            // exact, envelope by envelope
            let bytes = env.knows.encode(env.sender, env.seq);
            assert_eq!(bytes.len(), env.knows.wire_len(env.sender, env.seq));
            assert_eq!(
                KnowledgeDelta::decode(&bytes),
                Some((env.sender, env.seq, env.knows.clone()))
            );
            self.full_of.insert((s, r, env.seq), full.clone());
            self.int_pending[r].push((id, env));
        }
    }

    /// Deliver the `k`-th pending reference envelope of `r` to both
    /// systems (the interest copy too, if one exists and is still
    /// pending).
    fn arrive(&mut self, r: NodeId, k: usize) {
        let idx = k % self.ref_pending[r].len();
        let (id, env) = self.ref_pending[r].remove(idx);
        for got in self.refs[r].on_receive(env) {
            self.ref_delivered[r].push(got.payload.0);
        }
        if let Some(pos) = self.int_pending[r].iter().position(|(i, _)| *i == id) {
            let (_, env) = self.int_pending[r].remove(pos);
            self.int_arrived[r].push(env.clone());
            self.offer_interest(r, env);
        }
    }

    /// Re-offer a random already-sent interest envelope (duplicate
    /// injection) — must never double-deliver.
    fn duplicate(&mut self, r: NodeId, k: usize) {
        if self.int_arrived[r].is_empty() {
            return;
        }
        let env = self.int_arrived[r][k % self.int_arrived[r].len()].clone();
        self.offer_interest(r, env);
    }

    fn offer_interest(&mut self, r: NodeId, env: InterestMsg<Vec<Payload>>) {
        let n = self.n;
        let rf = self.rf;
        let before = self.int_delivered[r].len();
        let _ = (n, rf);
        for got in self.ints[r].on_receive(env) {
            // per-edge FIFO: edge sequence numbers deliver in order
            let edge = (got.sender, r);
            let seq = got.seq;
            let floor = self.edge_floor.entry(edge).or_insert(0);
            assert_eq!(seq, *floor + 1, "edge {edge:?} delivered out of order");
            *floor = seq;
            // the headline delta property: dirty rows overlay the view
            // left by this edge's previous envelope, clean rows carry
            // over — and the reconstruction must equal the dense matrix
            // the sender logically stamped, pointwise, under every
            // arrival interleaving
            let view = self.edge_view.entry(edge).or_insert_with(|| vec![0; n * n]);
            for (row, cells) in got.knows.rows() {
                let j = row as usize;
                view[j * n..(j + 1) * n].fill(0);
                for &(c, v) in cells {
                    view[j * n + c as usize] = v;
                }
            }
            let full = &self.full_of[&(got.sender, r, seq)];
            assert_eq!(
                view, full,
                "edge {edge:?} seq {seq}: delta-decoded matrix != dense stamp"
            );
            // dense-era fold into the receiver's shadow state
            for j in 0..n {
                if j != r {
                    for c in 0..n {
                        let i = j * n + c;
                        self.shadow_seen[r][i] = self.shadow_seen[r][i].max(full[i]);
                    }
                }
            }
            self.int_delivered[r].push(got.payload[0].0);
        }
        assert_eq!(
            self.ints[r].knowledge(),
            self.shadow_knowledge(r),
            "node {r}: delta knowledge state diverged from the dense shadow"
        );
        // causal safety + knowledge for everything just delivered
        for &id in &self.int_delivered[r][before..] {
            let past = self.past[&id].clone();
            for &dep in &past {
                if dep != id && self.mask_of[&dep].contains(r) && !self.knows[r].contains(&dep) {
                    panic!(
                        "node {r} delivered {id} before its causal \
                         dependency {dep} (both of interest)"
                    );
                }
            }
            self.knows[r].extend(past);
        }
    }
}

fn run_equivalence(n: usize, rf: usize, msgs: usize, seed: u64, dup_every: usize) {
    let mut h = Harness::new(n, rf);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sent = 0usize;
    let mut step = 0usize;
    loop {
        let pending_left: usize = h.ref_pending.iter().map(Vec::len).sum();
        if sent >= msgs && pending_left == 0 {
            break;
        }
        step += 1;
        let do_send = sent < msgs && (pending_left == 0 || rng.gen_bool(0.4));
        if do_send {
            let s = rng.gen_range(0..n);
            let topic = rng.gen_range(0..n);
            h.send(s, topic);
            sent += 1;
        } else {
            let candidates: Vec<NodeId> =
                (0..n).filter(|&r| !h.ref_pending[r].is_empty()).collect();
            let r = candidates[rng.gen_range(0..candidates.len())];
            let k = rng.gen_range(0..h.ref_pending[r].len());
            h.arrive(r, k);
        }
        if dup_every > 0 && step.is_multiple_of(dup_every) {
            let r = rng.gen_range(0..n);
            let k = rng.gen_range(0..100);
            h.duplicate(r, k);
        }
    }

    for r in 0..n {
        assert_eq!(
            h.ints[r].buffered(),
            0,
            "node {r} stalled with buffered envelopes"
        );
        // the delivered set is exactly the reference's, restricted to
        // this replica's interest — every envelope exactly once
        let expect: Vec<u32> = h.ref_delivered[r]
            .iter()
            .copied()
            .filter(|id| h.mask_of[id].contains(r))
            .collect();
        let got_set: HashSet<u32> = h.int_delivered[r].iter().copied().collect();
        assert_eq!(
            got_set.len(),
            h.int_delivered[r].len(),
            "node {r} double-delivered"
        );
        assert_eq!(
            got_set,
            expect.iter().copied().collect::<HashSet<u32>>(),
            "node {r}: interest deliveries != restricted full broadcast"
        );
        if rf >= n {
            // full interest: the degenerate case is *order*-identical
            assert_eq!(
                h.int_delivered[r], expect,
                "node {r}: full-interest order must match the reference"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// The satellite property: interest multicast ≡ full broadcast
    /// restricted to interested replicas, per seed × cluster × rf.
    #[test]
    fn interest_multicast_equivalent_to_restricted_broadcast(
        n in 2usize..=5,
        rf_raw in 0usize..5,
        seed in 0u64..10_000,
        dup_every in 0usize..4,
    ) {
        let rf = 1 + rf_raw % n;
        run_equivalence(n, rf, 40, seed, dup_every);
    }

    /// Full interest is exactly the reference protocol.
    #[test]
    fn full_interest_is_order_identical_to_causal_broadcast(
        n in 2usize..=5,
        seed in 0u64..10_000,
    ) {
        run_equivalence(n, n, 40, seed, 3);
    }

    /// Delta equivalence under deeper interleavings: every delivered
    /// envelope's delta-decoded matrix is pointwise identical to the
    /// dense stamp, every endpoint's knowledge state tracks the dense
    /// shadow, and every delta round-trips the varint codec with exact
    /// `wire_len` accounting (the harness asserts all three per
    /// envelope; this case just drives longer runs with duplicates).
    #[test]
    fn delta_decoded_matrices_match_dense_stamps(
        n in 2usize..=6,
        rf_raw in 0usize..6,
        seed in 0u64..10_000,
        dup_every in 0usize..4,
    ) {
        let rf = 1 + rf_raw % n;
        run_equivalence(n, rf, 60, seed, dup_every);
    }
}
