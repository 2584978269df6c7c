//! Differential test: the optimized mutate-and-undo kernel and the
//! retained clone-per-node reference (`tests/kernel_ref`) must
//! agree on random small histories.
//!
//! The two implementations share the reductions and the candidate
//! order but differ in everything the optimization touched: in-place
//! `done` maintenance, the incremental ready frontier, the Zobrist +
//! state-hash u64 memo (vs owned `(BitSet, State)` keys), scratch
//! reuse, and the leaf shortcut. Agreement is checked on
//!
//! * the verdict (Sat/Unsat — and when Sat, identical witness
//!   sequences, which pins the candidate order), and
//! * the node-budget accounting (identical `nodes` remaining), which
//!   pins the search-tree shape itself,
//!
//! modulo `Unknown`: if either side exhausts the budget, the other
//! must exhaust it too (same traversal), and no further comparison is
//! made.

use cbm_adt::queue::{FifoQueue, QInput, QOutput};
use cbm_adt::window::{WInput, WOutput, WindowStream};
use cbm_adt::Adt;
use cbm_check::kernel::{LinQuery, Outcome};
mod kernel_ref;
use cbm_history::{BitSet, HistoryBuilder, Relation};
use kernel_ref::run_reference;
use proptest::prelude::*;

/// Compare optimized vs reference on one query; panics on divergence.
fn assert_agree<T: Adt, P: cbm_check::kernel::Pasts + ?Sized>(
    q: &LinQuery<'_, T, P>,
    budget: u64,
    what: &str,
) {
    let mut n_fast = budget;
    let mut n_ref = budget;
    let fast = q.run(&mut n_fast);
    let slow = run_reference(q, &mut n_ref);
    match (&fast, &slow) {
        (Outcome::Unknown, Outcome::Unknown) => {}
        (Outcome::Sat(a), Outcome::Sat(b)) => {
            // Identical candidate order ⇒ identical witness (the seq
            // covers the *retained* events; unconstrained non-updates
            // are dropped by reduction 1, so a full-include replay is
            // not applicable here).
            assert_eq!(a, b, "{what}: witnesses diverged");
            assert_eq!(n_fast, n_ref, "{what}: budget accounting diverged");
        }
        (Outcome::Unsat, Outcome::Unsat) => {
            assert_eq!(n_fast, n_ref, "{what}: budget accounting diverged");
        }
        other => panic!("{what}: verdicts diverged: {other:?}"),
    }
}

/// Random window-stream history: each process interleaves writes of
/// distinct values with reads claiming arbitrary small windows.
fn window_history(
    procs: usize,
    ops: &[(usize, bool, u64, u64)],
    k: usize,
) -> cbm_history::History<WInput, WOutput> {
    let mut b: HistoryBuilder<WInput, WOutput> = HistoryBuilder::new();
    let mut next_val = 1u64;
    for &(p, is_write, a, bval) in ops {
        let p = p % procs.max(1);
        if is_write {
            b.op(p, WInput::Write(next_val), WOutput::Ack);
            next_val += 1;
        } else {
            let w: Vec<u64> = [a % 4, bval % 4].into_iter().take(k).collect();
            b.op(p, WInput::Read, WOutput::Window(w));
        }
    }
    b.build()
}

proptest! {
    /// Window-stream histories, full include/visible over the program
    /// order (the SC query shape).
    #[test]
    fn window_kernel_matches_reference(
        procs in 1usize..4,
        ops in prop::collection::vec((0usize..4, proptest::bool::ANY, 0u64..4, 0u64..4), 1..9),
        budget in prop_oneof![Just(5u64), Just(50u64), Just(100_000u64)],
    ) {
        let adt = WindowStream::new(2);
        let h = window_history(procs, &ops, 2);
        let labels: Vec<(WInput, Option<WOutput>)> = h
            .labels()
            .iter()
            .map(|l| (l.input, l.output.clone()))
            .collect();
        let include = h.all_set();
        let visible = h.all_set();
        let q = LinQuery {
            adt: &adt,
            labels: &labels,
            pasts: h.prog(),
            include: &include,
            visible: &visible,
        };
        assert_agree(&q, budget, "window/full");
    }

    /// Same histories under partial include/visible sets and an
    /// arbitrary (closed) extra order — the causal-searcher query shape.
    #[test]
    fn window_kernel_matches_reference_partial(
        procs in 1usize..3,
        ops in prop::collection::vec((0usize..3, proptest::bool::ANY, 0u64..3, 0u64..3), 1..8),
        inc_mask in 0u32..256,
        vis_mask in 0u32..256,
        extra_edges in prop::collection::vec((0usize..8, 0usize..8), 0..5),
    ) {
        let adt = WindowStream::new(2);
        let h = window_history(procs, &ops, 2);
        let n = h.len();
        let labels: Vec<(WInput, Option<WOutput>)> = h
            .labels()
            .iter()
            .map(|l| (l.input, l.output.clone()))
            .collect();
        let mut include = BitSet::new(n);
        let mut visible = BitSet::new(n);
        for e in 0..n {
            if inc_mask & (1 << (e % 8)) != 0 {
                include.insert(e);
            }
            if vis_mask & (1 << (e % 8)) != 0 {
                visible.insert(e);
            }
        }
        // order: program order plus some extra acyclic edges
        let mut rel = h.prog().clone();
        for (a, b) in extra_edges {
            if a < n && b < n && a != b && !rel.lt(b, a) {
                rel.add_pair_closed(a, b);
            }
        }
        let q = LinQuery {
            adt: &adt,
            labels: &labels,
            pasts: &rel,
            include: &include,
            visible: &visible,
        };
        assert_agree(&q, 100_000, "window/partial");
    }

    /// Queue histories (update-queries: `pop` both mutates and
    /// observes) — exercises the UpdateQuery classification paths.
    #[test]
    fn queue_kernel_matches_reference(
        procs in 1usize..3,
        ops in prop::collection::vec((0usize..3, proptest::bool::ANY, 0u64..3), 1..8),
        budget in prop_oneof![Just(20u64), Just(100_000u64)],
    ) {
        let adt = FifoQueue;
        let mut b: HistoryBuilder<QInput, QOutput> = HistoryBuilder::new();
        let mut next = 1u64;
        for &(p, is_push, popped) in &ops {
            let p = p % procs.max(1);
            if is_push {
                b.op(p, QInput::Push(next), QOutput::Ack);
                next += 1;
            } else {
                let claim = if popped == 0 { None } else { Some(popped) };
                b.op(p, QInput::Pop, QOutput::Popped(claim));
            }
        }
        let h = b.build();
        let labels: Vec<(QInput, Option<QOutput>)> = h
            .labels()
            .iter()
            .map(|l| (l.input, l.output))
            .collect();
        let include = h.all_set();
        let visible = h.all_set();
        let q = LinQuery {
            adt: &adt,
            labels: &labels,
            pasts: h.prog(),
            include: &include,
            visible: &visible,
        };
        assert_agree(&q, budget, "queue/full");
    }
}

/// A deterministic spot-check that the order-free empty relation is
/// handled identically (regression guard for the CSR build on events
/// with no retained predecessors).
#[test]
fn empty_order_agrees() {
    let adt = WindowStream::new(1);
    let labels: Vec<(WInput, Option<WOutput>)> = vec![
        (WInput::Write(1), Some(WOutput::Ack)),
        (WInput::Write(2), Some(WOutput::Ack)),
        (WInput::Read, Some(WOutput::Window(vec![2]))),
    ];
    let rel = Relation::empty(3);
    let include = BitSet::full(3);
    let visible = BitSet::full(3);
    let q = LinQuery {
        adt: &adt,
        labels: &labels,
        pasts: &rel,
        include: &include,
        visible: &visible,
    };
    assert_agree(&q, 10_000, "empty-order");
}
