//! Property-based safety of the broadcast layers: under *arbitrary*
//! per-recipient arrival permutations, the causal broadcast (the
//! full-mask interest multicast, one flush per message) delivers in a
//! causal order, FIFO broadcast per-sender in order, and the sequencer
//! in one total order.

use cbm_net::broadcast::{
    full_interest, FifoBroadcast, InterestBatchCausalBroadcast, InterestMsg, SeqMsg,
    SequencerBroadcast,
};
use proptest::prelude::*;

/// Nodes 0–2 send; node 3 only observes.
const OBSERVER: usize = 3;

type Env = InterestMsg<Vec<usize>>;

/// Causally broadcast `payload`: one flush, one stamped copy per peer.
fn cast(node: &mut InterestBatchCausalBroadcast<usize>, payload: usize) -> Vec<(usize, Env)> {
    node.push(payload, full_interest(OBSERVER + 1));
    node.flush_all()
}

/// A causal chain: senders alternate, and every sender delivers each
/// message at once, so each broadcast happens after every earlier one
/// — the happened-before order is total and delivery order must equal
/// send order. Returns the observer's copies, in send order.
fn chain_messages(n_msgs: usize) -> Vec<Env> {
    let mut nodes: Vec<InterestBatchCausalBroadcast<usize>> = (0..OBSERVER)
        .map(|me| InterestBatchCausalBroadcast::new(me, OBSERVER + 1))
        .collect();
    let mut msgs = Vec::new();
    for i in 0..n_msgs {
        for (r, env) in cast(&mut nodes[i % OBSERVER], i) {
            if r == OBSERVER {
                msgs.push(env);
            } else {
                assert_eq!(nodes[r].on_receive(env).len(), 1);
            }
        }
    }
    msgs
}

/// Concurrent broadcasts: every sender broadcasts all its messages
/// without receiving anything — only per-sender FIFO is forced.
/// Returns the observer's copies.
fn concurrent_messages(per_sender: usize) -> Vec<Env> {
    let mut msgs = Vec::new();
    for s in 0..OBSERVER {
        let mut node = InterestBatchCausalBroadcast::new(s, OBSERVER + 1);
        for i in 0..per_sender {
            let copies = cast(&mut node, s * per_sender + i);
            msgs.extend(
                copies
                    .into_iter()
                    .filter(|(r, _)| *r == OBSERVER)
                    .map(|(_, env)| env),
            );
        }
    }
    msgs
}

proptest! {
    /// A fresh observer receiving a causal chain in ANY permutation
    /// delivers it in exactly the chain order.
    #[test]
    fn causal_chain_delivered_in_order(swaps in prop::collection::vec((0usize..9, 0usize..9), 0..20)) {
        let msgs = chain_messages(9);
        let mut order: Vec<usize> = (0..9).collect();
        for (a, b) in swaps {
            order.swap(a, b);
        }
        let mut observer = InterestBatchCausalBroadcast::new(OBSERVER, OBSERVER + 1);
        let mut delivered = Vec::new();
        for &i in &order {
            for m in observer.on_receive(msgs[i].clone()) {
                delivered.extend(m.payload);
            }
        }
        prop_assert_eq!(delivered, (0..9).collect::<Vec<_>>());
    }

    /// Concurrent senders: any arrival permutation delivers every
    /// message exactly once, FIFO per sender.
    #[test]
    fn concurrent_messages_all_delivered_fifo(swaps in prop::collection::vec((0usize..12, 0usize..12), 0..40)) {
        let msgs = concurrent_messages(4);
        let mut order: Vec<usize> = (0..12).collect();
        for (a, b) in swaps {
            order.swap(a, b);
        }
        let mut observer = InterestBatchCausalBroadcast::new(OBSERVER, OBSERVER + 1);
        let mut delivered: Vec<(usize, usize)> = Vec::new();
        for &i in &order {
            for m in observer.on_receive(msgs[i].clone()) {
                delivered.extend(m.payload.iter().map(|&p| (m.sender, p)));
            }
        }
        // everything from the three senders delivered exactly once
        prop_assert_eq!(delivered.len(), 12);
        // FIFO per sender
        for s in 0..OBSERVER {
            let seq: Vec<usize> = delivered.iter().filter(|(x, _)| *x == s).map(|(_, p)| *p).collect();
            prop_assert_eq!(seq, (s * 4..(s + 1) * 4).collect::<Vec<_>>(), "sender {} out of order", s);
        }
    }

    /// FIFO broadcast under arbitrary arrival permutations.
    #[test]
    fn fifo_broadcast_per_sender_order(swaps in prop::collection::vec((0usize..10, 0usize..10), 0..30)) {
        let mut sender: FifoBroadcast<usize> = FifoBroadcast::new(0, 2);
        let msgs: Vec<_> = (0..10).map(|i| sender.broadcast(i)).collect();
        let mut order: Vec<usize> = (0..10).collect();
        for (a, b) in swaps {
            order.swap(a, b);
        }
        let mut rx: FifoBroadcast<usize> = FifoBroadcast::new(1, 2);
        let mut got = Vec::new();
        for &i in &order {
            for m in rx.on_receive(msgs[i].clone()) {
                got.push(m.payload);
            }
        }
        prop_assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    /// The sequencer delivers the same total order to every recipient,
    /// whatever the arrival permutations.
    #[test]
    fn sequencer_total_order(swaps1 in prop::collection::vec((0usize..8, 0usize..8), 0..20),
                             swaps2 in prop::collection::vec((0usize..8, 0usize..8), 0..20)) {
        let mut seq: SequencerBroadcast<usize> = SequencerBroadcast::new(0, 3);
        let mut p1: SequencerBroadcast<usize> = SequencerBroadcast::new(1, 3);
        let mut p2: SequencerBroadcast<usize> = SequencerBroadcast::new(2, 3);
        // 8 submissions from p1/p2 alternating; sequencer orders them
        let mut ordered = Vec::new();
        for i in 0..8usize {
            let sub = if i % 2 == 0 { p1.submit(i) } else { p2.submit(i) };
            let (_, fwd) = seq.on_receive(sub);
            ordered.extend(fwd);
        }
        let deliver = |node: &mut SequencerBroadcast<usize>, swaps: &[(usize, usize)]| {
            let mut order: Vec<usize> = (0..8).collect();
            for &(a, b) in swaps {
                order.swap(a, b);
            }
            let mut got = Vec::new();
            for &i in &order {
                let (d, _) = node.on_receive(ordered[i].clone());
                got.extend(d.into_iter().map(|(slot, _, p)| (slot, p)));
            }
            got
        };
        let g1 = deliver(&mut p1, &swaps1);
        let g2 = deliver(&mut p2, &swaps2);
        prop_assert_eq!(g1.clone(), g2);
        // slots strictly increasing
        for w in g1.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
        prop_assert_eq!(g1.len(), 8);
    }

    /// `SeqMsg` submissions are opaque to non-sequencers; the protocol
    /// state machine never duplicates a slot.
    #[test]
    fn sequencer_slots_unique(count in 1usize..20) {
        let mut seq: SequencerBroadcast<usize> = SequencerBroadcast::new(0, 1);
        let mut slots = std::collections::HashSet::new();
        for i in 0..count {
            let m = seq.submit(i);
            let SeqMsg::Ordered { slot, .. } = m else { panic!("sequencer orders directly") };
            prop_assert!(slots.insert(slot));
        }
    }
}

mod latency_props {
    use cbm_net::latency::LatencyModel;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Constant delays are exact, and the simulator's `.max(1)`
        /// guard turns a zero model into a 1-tick link.
        #[test]
        fn constant_sample_is_exact_and_never_zero_after_guard(d in 0u64..1000, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let got = LatencyModel::Constant(d).sample(&mut rng);
            prop_assert_eq!(got, d);
            prop_assert!(got.max(1) >= 1);
        }

        /// Uniform sampling stays in `[min, max]` (and handles the
        /// degenerate `min >= max` case by returning `min`).
        #[test]
        fn uniform_sample_stays_in_declared_range(a in 0u64..500, b in 0u64..500, seed in 0u64..1000) {
            let (lo, hi) = (a.min(b), a.max(b));
            let m = LatencyModel::Uniform(lo, hi);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..50 {
                let d = m.sample(&mut rng);
                prop_assert!((lo..=hi).contains(&d), "{} outside [{}, {}]", d, lo, hi);
                prop_assert!(d.max(1) >= 1);
            }
            // degenerate: reversed bounds collapse to the start
            let mut rng2 = StdRng::seed_from_u64(seed);
            prop_assert_eq!(LatencyModel::Uniform(hi + 1, lo).sample(&mut rng2), hi + 1);
        }

        /// Heavy-tail sampling is at least `base` and at most
        /// `base + tail_max`.
        #[test]
        fn heavy_tail_sample_stays_in_declared_range(
            base in 1u64..100,
            tail_max in 0u64..1000,
            prob in 0u32..=100,
            seed in 0u64..1000,
        ) {
            let m = LatencyModel::HeavyTail {
                base,
                tail_prob: prob as f64 / 100.0,
                tail_max,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..50 {
                let d = m.sample(&mut rng);
                prop_assert!(d >= base);
                prop_assert!(d <= base + tail_max);
                prop_assert!(d.max(1) >= 1);
            }
        }
    }
}

mod fault_props {
    use cbm_net::fault::{Fault, FaultPlan};
    use cbm_net::latency::LatencyModel;
    use cbm_net::sim::SimNet;
    use proptest::prelude::*;

    proptest! {
        /// A two-sided partition blocks exactly the cross-side links,
        /// symmetrically, and heal-all restores every link and
        /// releases every parked message.
        #[test]
        fn partition_is_symmetric_and_heals(
            n in 2usize..6,
            side_mask in 0u32..32,
            msgs in prop::collection::vec((0usize..6, 0usize..6), 1..20),
        ) {
            let side: Vec<usize> = (0..n).filter(|i| side_mask & (1 << i) != 0).collect();
            let mut net: SimNet<u32> = SimNet::new(n, LatencyModel::Constant(3), 1);
            let plan = FaultPlan::new().at(0, Fault::Partition { side: side.clone() });
            let mut sched = plan.into_schedule();
            while let Some(f) = sched.next_due(0) {
                net.apply(f);
            }

            // symmetry + exactness: blocked iff the endpoints straddle
            let in_side = |p: usize| side.contains(&p);
            for a in 0..n {
                for b in 0..n {
                    if a == b { continue; }
                    prop_assert_eq!(net.links().blocked(a, b), in_side(a) != in_side(b));
                    prop_assert_eq!(net.links().blocked(a, b), net.links().blocked(b, a));
                }
            }

            // traffic across the cut parks; nothing is lost
            let mut sent = 0u64;
            for (i, (from, to)) in msgs.iter().enumerate() {
                let (from, to) = (from % n, to % n);
                if from == to { continue; }
                net.send(from, to, i as u32, 1);
                sent += 1;
            }
            let mut delivered = 0u64;
            while net.pop().is_some() {
                delivered += 1;
            }
            prop_assert_eq!(delivered + net.parked_count() as u64, sent);
            prop_assert_eq!(net.stats().msgs_dropped, 0, "partitions must not lose messages");

            // heal: every link reopens and every parked message flows
            net.apply(&Fault::HealAll);
            for a in 0..n {
                for b in 0..n {
                    if a != b {
                        prop_assert!(!net.links().blocked(a, b));
                    }
                }
            }
            while net.pop().is_some() {
                delivered += 1;
            }
            prop_assert_eq!(delivered, sent);
            prop_assert_eq!(net.parked_count(), 0);
        }

        /// Crash drops all inbound (in-flight and future) for the
        /// crashed node, counted per node; recovery restores delivery
        /// without resurrecting lost messages.
        #[test]
        fn crash_recover_accounting(
            n in 2usize..5,
            victim in 0usize..5,
            pre in 1usize..10,
            post in 1usize..10,
        ) {
            let victim = victim % n;
            let sender = (victim + 1) % n;
            let mut net: SimNet<u32> = SimNet::new(n, LatencyModel::Constant(5), 2);
            for i in 0..pre {
                net.send(sender, victim, i as u32, 1);
            }
            net.apply(&Fault::Crash(victim));
            prop_assert_eq!(net.stats().dropped_per_node[victim], pre as u64);
            for i in 0..post {
                net.send(sender, victim, i as u32, 1);
            }
            while net.pop().is_some() {}
            prop_assert_eq!(net.stats().msgs_dropped, (pre + post) as u64);
            prop_assert_eq!(net.stats().dropped_per_node[victim], (pre + post) as u64);

            net.apply(&Fault::Recover(victim));
            net.send(sender, victim, 99, 1);
            let d = net.pop().expect("post-recovery delivery");
            prop_assert_eq!(d.to, victim);
            prop_assert_eq!(net.stats().msgs_dropped, (pre + post) as u64);
        }
    }
}
