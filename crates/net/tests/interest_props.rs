//! Property tests for the interest-filtered causal multicast
//! ([`cbm_net::broadcast::InterestBatchCausalBroadcast`]), each
//! envelope a batch of one.
//!
//! The headline property: across random clusters, replication masks,
//! workloads, arrival interleavings, and injected duplicates, interest
//! multicast is **the causal broadcast rule restricted to the
//! interested replicas**, stated on message ids the harness tracks
//! itself —
//!
//! * every replica delivers exactly the ids of interest to it that a
//!   peer sent, exactly once, no matter how arrivals interleave or
//!   repeat;
//! * delivery respects the **causal order of the interest world**: if
//!   `m'` was in its sender's causal past when `m` was multicast (past
//!   built from interest deliveries and own sends — what a partially
//!   replicated process can actually know), then every replica
//!   interested in both delivers `m'` first;
//! * delivery is **prompt**: after every arrival, an envelope that has
//!   arrived and is still held waits on a dependency of interest that
//!   has not been delivered;
//! * per-edge FIFO: each sender's envelopes to a given replica deliver
//!   in edge-sequence order.
//!
//! With **everyone interested**, safety plus promptness is CBCAST's
//! delivery rule — what the library's Fig. 4/5 replicas run.

use cbm_net::broadcast::{InterestBatchCausalBroadcast, InterestMask, InterestMsg, KnowledgeDelta};
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
    /// Interest endpoints.
    ints: Vec<InterestBatchCausalBroadcast<Payload>>,
    /// The arrival schedule: per recipient, the ids of every message a
    /// peer sent that has not arrived yet, of interest or not.
    pending: Vec<Vec<u32>>,
    /// Undelivered interest envelopes per recipient.
    int_pending: Vec<Vec<(u32, InterestMsg<Vec<Payload>>)>>,
    /// Every interest envelope already arrived, for duplicate
    /// injection (true retransmissions — a duplicate of something not
    /// yet on the wire would jump the arrival schedule).
    int_arrived: Vec<Vec<InterestMsg<Vec<Payload>>>>,
    /// Sender and interest mask per message id.
    sent: HashMap<u32, (NodeId, InterestMask)>,
    /// Transitive causal past per message id, in the interest world.
    past: HashMap<u32, HashSet<u32>>,
    /// Transitive knowledge per node: delivered (interest) + own sends.
    knows: Vec<HashSet<u32>>,
    /// Deliveries per recipient, in delivery order.
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
            ints: (0..n)
                .map(|me| InterestBatchCausalBroadcast::new(me, n))
                .collect(),
            pending: vec![Vec::new(); n],
            int_pending: vec![Vec::new(); n],
            int_arrived: vec![Vec::new(); n],
            sent: HashMap::new(),
            past: HashMap::new(),
            knows: (0..n).map(|_| HashSet::new()).collect(),
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
        self.sent.insert(id, (s, mask));
        let mut past = self.knows[s].clone();
        self.knows[s].insert(id);
        past.insert(id);
        self.past.insert(id, past);

        for r in 0..self.n {
            if r != s {
                self.pending[r].push(id);
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

    /// The `k`-th pending message of `r` arrives: its interest copy is
    /// offered, if `r` is interested.
    fn arrive(&mut self, r: NodeId, k: usize) {
        let idx = k % self.pending[r].len();
        let id = self.pending[r].remove(idx);
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
        let before = self.int_delivered[r].len();
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
            if let Some(dep) = self.undelivered_dep(r, id) {
                panic!(
                    "node {r} delivered {id} before its causal \
                     dependency {dep} (both of interest)"
                );
            }
            self.knows[r].extend(past);
        }
        // promptness: whatever arrived and is still held waits on a
        // dependency of interest not yet delivered
        for env in &self.int_arrived[r] {
            let id = env.payload[0].0;
            if !self.knows[r].contains(&id) {
                assert!(
                    self.undelivered_dep(r, id).is_some(),
                    "node {r} holds {id} with its causal past delivered"
                );
            }
        }
    }

    /// A causal dependency of `id` that interests `r` and that `r` has
    /// neither delivered nor sent.
    fn undelivered_dep(&self, r: NodeId, id: u32) -> Option<u32> {
        let of_interest = |dep: &u32| *dep != id && self.sent[dep].1.contains(r);
        self.past[&id]
            .iter()
            .copied()
            .find(|dep| of_interest(dep) && !self.knows[r].contains(dep))
    }
}

fn run_equivalence(n: usize, rf: usize, msgs: usize, seed: u64, dup_every: usize) {
    let mut h = Harness::new(n, rf);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sent = 0usize;
    let mut step = 0usize;
    loop {
        let pending_left: usize = h.pending.iter().map(Vec::len).sum();
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
            let candidates: Vec<NodeId> = (0..n).filter(|&r| !h.pending[r].is_empty()).collect();
            let r = candidates[rng.gen_range(0..candidates.len())];
            let k = rng.gen_range(0..h.pending[r].len());
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
        // the delivered set is every id of interest a peer sent —
        // each exactly once
        let expect: HashSet<u32> = h
            .sent
            .iter()
            .filter(|(_, &(s, mask))| s != r && mask.contains(r))
            .map(|(&id, _)| id)
            .collect();
        let got_set: HashSet<u32> = h.int_delivered[r].iter().copied().collect();
        assert_eq!(
            got_set.len(),
            h.int_delivered[r].len(),
            "node {r} double-delivered"
        );
        assert_eq!(
            got_set, expect,
            "node {r}: interest deliveries != restricted full broadcast"
        );
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

    /// Full interest: safety plus promptness on ids is CBCAST's
    /// delivery rule, the §6.1 broadcast the library replicas run.
    #[test]
    fn full_interest_follows_the_causal_broadcast_rule(
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
