//! Reference linearization search: the straightforward clone-per-node
//! DFS with an exact owned-key memo.
//!
//! This is the original, obviously-correct form of the kernel search,
//! kept as a **differential oracle** for the optimized mutate-and-undo
//! kernel in [`cbm_check::kernel`]: same reductions, same candidate order,
//! same budget accounting — but it clones the `done` set and the ADT
//! state at every node and memoises on owned `(BitSet, State)` pairs,
//! so it cannot suffer 64-bit memo-hash collisions. The property test
//! `tests/kernel_diff.rs` (this module's one user) checks that both agree (verdict and budget
//! behaviour, modulo `Unknown`) on random small histories.
//!
//! Do not use this on hot paths; it allocates two clones per search
//! node.

use cbm_adt::Adt;
use cbm_check::kernel::{LinQuery, Outcome, Pasts};
use cbm_history::BitSet;
use std::collections::HashSet;

/// Run `q`'s search with the reference algorithm. Semantics match
/// [`LinQuery::run`] exactly (modulo memo-hash collisions, which only
/// the optimized kernel can suffer).
pub fn run_reference<T: Adt, P: Pasts + ?Sized>(
    q: &LinQuery<'_, T, P>,
    nodes: &mut u64,
) -> Outcome {
    let eff = q.effective_set();
    let mut memo: HashSet<(BitSet, T::State)> = HashSet::new();
    let mut seq = Vec::with_capacity(eff.count());
    let done = BitSet::new(q.labels.len());
    let state = q.adt.initial();
    match dfs(q, &eff, done, state, &mut seq, &mut memo, nodes) {
        DfsResult::Found => Outcome::Sat(seq),
        DfsResult::Exhausted => Outcome::Unsat,
        DfsResult::OutOfBudget => Outcome::Unknown,
    }
}

enum DfsResult {
    Found,
    Exhausted,
    OutOfBudget,
}

#[allow(clippy::too_many_arguments)]
fn dfs<T: Adt, P: Pasts + ?Sized>(
    q: &LinQuery<'_, T, P>,
    eff: &BitSet,
    done: BitSet,
    state: T::State,
    seq: &mut Vec<usize>,
    memo: &mut HashSet<(BitSet, T::State)>,
    nodes: &mut u64,
) -> DfsResult {
    if done == *eff {
        return DfsResult::Found;
    }
    if *nodes == 0 {
        return DfsResult::OutOfBudget;
    }
    *nodes -= 1;
    if !memo.insert((done.clone(), state.clone())) {
        return DfsResult::Exhausted;
    }
    let mut ran_out = false;
    for e in eff.iter() {
        if done.contains(e) {
            continue;
        }
        // all retained predecessors must be done
        let mut preds = q.pasts.past_of(e).clone();
        preds.intersect_with(eff);
        if !preds.is_subset(&done) {
            continue;
        }
        let (input, out) = &q.labels[e];
        if q.visible.contains(e) {
            if let Some(expected) = out {
                if q.adt.output(&state, input) != *expected {
                    continue;
                }
            }
        }
        let next_state = q.adt.transition(&state, input);
        let mut next_done = done.clone();
        next_done.insert(e);
        seq.push(e);
        match dfs(q, eff, next_done, next_state, seq, memo, nodes) {
            DfsResult::Found => return DfsResult::Found,
            DfsResult::Exhausted => {}
            DfsResult::OutOfBudget => ran_out = true,
        }
        seq.pop();
    }
    if ran_out {
        DfsResult::OutOfBudget
    } else {
        DfsResult::Exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_adt::window::{WInput, WOutput, WindowStream};
    use cbm_history::Relation;

    #[test]
    fn reference_agrees_with_kernel_on_a_known_history() {
        // Fig. 3d as a direct query: both kernels find the same witness.
        let adt = WindowStream::new(2);
        let labels = vec![
            (WInput::Write(1), Some(WOutput::Ack)),
            (WInput::Read, Some(WOutput::Window(vec![0, 1]))),
            (WInput::Write(2), Some(WOutput::Ack)),
            (WInput::Read, Some(WOutput::Window(vec![1, 2]))),
        ];
        let rel = Relation::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let include = BitSet::full(4);
        let visible = BitSet::full(4);
        let q = LinQuery {
            adt: &adt,
            labels: &labels,
            pasts: &rel,
            include: &include,
            visible: &visible,
        };
        let mut n1 = 10_000;
        let mut n2 = 10_000;
        let fast = q.run(&mut n1);
        let slow = run_reference(&q, &mut n2);
        assert_eq!(fast, slow);
        assert_eq!(n1, n2, "budget accounting must match");
    }
}
