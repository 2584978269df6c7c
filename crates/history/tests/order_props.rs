//! Property-based laws of the order/bitset machinery that every
//! checker leans on: the closure against a reference fixpoint (cycles
//! included), transitive closure idempotence, linear-extension
//! soundness, projection laws, maximal-chain coverage.

use cbm_history::{BitSet, HistoryBuilder, Relation};
use proptest::prelude::*;

/// Random DAG edges over `n` nodes (forward edges only, so acyclic).
fn arb_dag(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..n, 0..n), 0..n * 2).prop_map(move |pairs| {
        pairs
            .into_iter()
            .filter_map(|(a, b)| {
                if a < b {
                    Some((a, b))
                } else if b < a {
                    Some((b, a))
                } else {
                    None
                }
            })
            .collect()
    })
}

/// Random directed graphs over `1..max` nodes: any edges, so cycles and
/// self-loops occur.
fn arb_graph(max: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    let pairs = prop::collection::vec((0..max, 0..max), 0..max * 2);
    (1..max, pairs).prop_map(|(n, pairs)| {
        let edges = pairs.into_iter().take(n * 2).map(|(a, b)| (a % n, b % n));
        (n, edges.collect())
    })
}

/// The reference closure: per-event rows of direct predecessors,
/// widened by every predecessor's row until nothing changes.
fn fixpoint_closure(n: usize, edges: &[(usize, usize)]) -> Vec<BitSet> {
    let mut past = vec![BitSet::new(n); n];
    for &(a, b) in edges {
        past[b].insert(a);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for e in 0..n {
            let mut acc = past[e].clone();
            for p in past[e].to_vec() {
                acc.union_with(&past[p]);
            }
            if acc != past[e] {
                past[e] = acc;
                changed = true;
            }
        }
    }
    past
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-pass closure finds the reference fixpoint's rows, and a
    /// cycle exactly when the fixpoint does, on graphs up to past the
    /// inline bitset size.
    #[test]
    fn one_pass_closure_equals_the_fixpoint((n, edges) in arb_graph(150)) {
        let reference = fixpoint_closure(n, &edges);
        let acyclic = (0..n).all(|e| !reference[e].contains(e));
        match Relation::from_edges(n, &edges) {
            Some(r) => {
                prop_assert!(acyclic);
                for (e, row) in reference.iter().enumerate() {
                    prop_assert_eq!(r.past(e), row);
                }
            }
            None => prop_assert!(!acyclic),
        }
    }

    /// Rows on a cycle: the forward and backward edges close apart
    /// (each half is acyclic), and closing their union again must give
    /// the reference rows of the whole graph, cycles included.
    #[test]
    fn closure_of_a_cyclic_graph_equals_the_fixpoint((n, edges) in arb_graph(150)) {
        let edges: Vec<_> = edges.into_iter().filter(|&(a, b)| a != b).collect();
        let (forward, backward): (Vec<_>, Vec<_>) = edges.iter().partition(|&&(a, b)| a < b);
        let mut r = Relation::from_edges(n, &forward).unwrap();
        let acyclic = r.union_closed(&Relation::from_edges(n, &backward).unwrap());
        let reference = fixpoint_closure(n, &edges);
        prop_assert_eq!(acyclic, (0..n).all(|e| !reference[e].contains(e)));
        prop_assert_eq!(acyclic, r.is_acyclic());
        for (e, row) in reference.iter().enumerate() {
            prop_assert_eq!(r.past(e), row);
        }
    }
}

proptest! {
    #[test]
    fn closure_is_idempotent(edges in arb_dag(8)) {
        let r = Relation::from_edges(8, &edges).unwrap();
        let mut again = r.clone();
        again.close_transitive();
        prop_assert_eq!(r, again);
    }

    #[test]
    fn closure_is_transitive(edges in arb_dag(8)) {
        let r = Relation::from_edges(8, &edges).unwrap();
        for a in 0..8 {
            for b in 0..8 {
                for c in 0..8 {
                    if r.lt(a, b) && r.lt(b, c) {
                        prop_assert!(r.lt(a, c));
                    }
                }
            }
        }
    }

    #[test]
    fn linear_extensions_respect_the_order(edges in arb_dag(6)) {
        let r = Relation::from_edges(6, &edges).unwrap();
        let mut count = 0;
        r.linear_extensions(200, |perm| {
            count += 1;
            let mut pos = [0usize; 6];
            for (i, &e) in perm.iter().enumerate() {
                pos[e] = i;
            }
            for a in 0..6 {
                for b in 0..6 {
                    if r.lt(a, b) {
                        assert!(pos[a] < pos[b]);
                    }
                }
            }
            true
        });
        prop_assert!(count >= 1);
    }

    #[test]
    fn topo_order_is_a_linear_extension(edges in arb_dag(10)) {
        let r = Relation::from_edges(10, &edges).unwrap();
        let topo = r.topo_order();
        prop_assert_eq!(topo.len(), 10);
        let mut pos = [0usize; 10];
        for (i, &e) in topo.iter().enumerate() {
            pos[e] = i;
        }
        for a in 0..10 {
            for b in 0..10 {
                if r.lt(a, b) {
                    prop_assert!(pos[a] < pos[b]);
                }
            }
        }
    }

    #[test]
    fn add_pair_preserves_closure_and_containment(edges in arb_dag(7), a in 0usize..7, b in 0usize..7) {
        let r = Relation::from_edges(7, &edges).unwrap();
        prop_assume!(a != b && !r.lt(b, a));
        let mut r2 = r.clone();
        r2.add_pair_closed(a, b);
        prop_assert!(r2.is_acyclic());
        prop_assert!(r2.contains(&r));
        prop_assert!(r2.lt(a, b));
        let mut closed = r2.clone();
        closed.close_transitive();
        prop_assert_eq!(r2, closed);
    }

    #[test]
    fn cover_edges_regenerate_the_order(edges in arb_dag(8)) {
        let r = Relation::from_edges(8, &edges).unwrap();
        let covers = r.cover_edges();
        let r2 = Relation::from_edges(8, &covers).unwrap();
        prop_assert_eq!(r, r2);
    }

    #[test]
    fn bitset_union_intersection_laws(xs in prop::collection::vec(0usize..64, 0..20),
                                      ys in prop::collection::vec(0usize..64, 0..20)) {
        let mut a = BitSet::new(64);
        for x in &xs { a.insert(*x); }
        let mut b = BitSet::new(64);
        for y in &ys { b.insert(*y); }
        let mut union = a.clone();
        union.union_with(&b);
        let mut inter = a.clone();
        inter.intersect_with(&b);
        // |A ∪ B| + |A ∩ B| = |A| + |B|
        prop_assert_eq!(union.count() + inter.count(), a.count() + b.count());
        prop_assert!(inter.is_subset(&a) && inter.is_subset(&b));
        prop_assert!(a.is_subset(&union) && b.is_subset(&union));
    }
}

proptest! {
    /// Projection keeps exactly the requested events and preserves the
    /// induced order; maximal chains cover every event.
    #[test]
    fn projection_and_chains(ops0 in 1usize..4, ops1 in 1usize..4, keep_mask in 0u32..64) {
        let mut b: HistoryBuilder<u32, u32> = HistoryBuilder::new();
        for i in 0..ops0 {
            b.op(0, i as u32, 0);
        }
        for i in 0..ops1 {
            b.op(1, 100 + i as u32, 0);
        }
        let h = b.build();
        let n = h.len();

        // chains cover all events
        let chains = h.maximal_chains(64);
        let mut covered = BitSet::new(n);
        for c in &chains {
            for e in c {
                covered.insert(e.idx());
            }
        }
        prop_assert_eq!(covered.count(), n);

        // projection
        let mut keep = BitSet::new(n);
        for e in 0..n {
            if keep_mask & (1 << e) != 0 {
                keep.insert(e);
            }
        }
        let visible = BitSet::new(n);
        let (ph, mapping) = h.project(&keep, &visible);
        prop_assert_eq!(ph.len(), keep.count());
        // order preserved through the mapping
        for (i, a) in mapping.iter().enumerate() {
            for (j, bb) in mapping.iter().enumerate() {
                prop_assert_eq!(
                    h.prog_lt(*a, *bb),
                    ph.prog_lt(cbm_history::EventId(i as u32), cbm_history::EventId(j as u32))
                );
            }
        }
        // all outputs hidden
        for e in ph.events() {
            prop_assert!(ph.label(e).output.is_none());
        }
    }
}
