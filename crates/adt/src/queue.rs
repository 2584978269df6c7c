//! FIFO queues: the paper's `Q` (push/pop, Figs. 3e–3f) and `Q'`
//! (push/hd/rh, Fig. 3g).
//!
//! `pop` is the canonical *update-and-query* operation: it removes the
//! head (side effect) and returns it (output). §4.1 shows that under
//! weak criteria the transition and output parts of such operations are
//! loosely coupled: a causally consistent queue guarantees neither that
//! every pushed value is popped (Fig. 3f: 2 is never popped) nor that a
//! value is popped at most once (1 is popped twice).
//!
//! `Q'` splits `pop` into a pure query `hd` (peek head) and a pure
//! update `rh(v)` (remove head iff it equals `v`): with this interface
//! every inserted value is read at least once (Fig. 3g).

use crate::adt::{Adt, OpKind};
use crate::Value;

/// Input alphabet of the queue `Q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QInput {
    /// `push(v)` — append `v` at the tail (pure update).
    Push(Value),
    /// `pop` — remove and return the head (update **and** query).
    Pop,
}

/// Output alphabet of the queue `Q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QOutput {
    /// `⊥`, returned by pushes.
    Ack,
    /// The popped value, or `None` (the paper's `pop/⊥` on the empty queue).
    Popped(Option<Value>),
}

/// The FIFO queue ADT `Q`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FifoQueue;

impl Adt for FifoQueue {
    type Input = QInput;
    type Output = QOutput;
    /// Queue contents, head first.
    type State = Vec<Value>;

    fn initial(&self) -> Self::State {
        Vec::new()
    }

    fn transition(&self, q: &Self::State, i: &Self::Input) -> Self::State {
        match i {
            QInput::Push(v) => {
                let mut next = q.clone();
                next.push(*v);
                next
            }
            QInput::Pop => {
                if q.is_empty() {
                    q.clone()
                } else {
                    q[1..].to_vec()
                }
            }
        }
    }

    fn output(&self, q: &Self::State, i: &Self::Input) -> Self::Output {
        match i {
            QInput::Push(_) => QOutput::Ack,
            QInput::Pop => QOutput::Popped(q.first().copied()),
        }
    }

    fn kind(&self, i: &Self::Input) -> OpKind {
        match i {
            QInput::Push(_) => OpKind::PureUpdate,
            QInput::Pop => OpKind::UpdateQuery,
        }
    }
}

/// Input alphabet of the queue `Q'` (Fig. 3g).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QpInput {
    /// `push(v)` — append `v` at the tail (pure update).
    Push(Value),
    /// `hd` — return the head without removing it (pure query).
    Hd,
    /// `rh(v)` — remove the head iff it equals `v` (pure update).
    RemoveHead(Value),
}

/// Output alphabet of the queue `Q'`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QpOutput {
    /// `⊥`, returned by `push` and `rh`.
    Ack,
    /// The head value, or `None` on the empty queue.
    Head(Option<Value>),
}

/// The split-pop FIFO queue ADT `Q'`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HdRhQueue;

impl Adt for HdRhQueue {
    type Input = QpInput;
    type Output = QpOutput;
    /// Queue contents, head first.
    type State = Vec<Value>;

    fn initial(&self) -> Self::State {
        Vec::new()
    }

    fn transition(&self, q: &Self::State, i: &Self::Input) -> Self::State {
        match i {
            QpInput::Push(v) => {
                let mut next = q.clone();
                next.push(*v);
                next
            }
            QpInput::Hd => q.clone(),
            QpInput::RemoveHead(v) => match q.first() {
                Some(head) if head == v => q[1..].to_vec(),
                _ => q.clone(),
            },
        }
    }

    fn output(&self, q: &Self::State, i: &Self::Input) -> Self::Output {
        match i {
            QpInput::Push(_) | QpInput::RemoveHead(_) => QpOutput::Ack,
            QpInput::Hd => QpOutput::Head(q.first().copied()),
        }
    }

    fn kind(&self, i: &Self::Input) -> OpKind {
        match i {
            QpInput::Push(_) => OpKind::PureUpdate,
            QpInput::Hd => OpKind::PureQuery,
            QpInput::RemoveHead(_) => OpKind::PureUpdate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::{accepts, Sym};
    use crate::AdtExt;

    #[test]
    fn fifo_order() {
        let q = FifoQueue;
        let s = q.fold_inputs([QInput::Push(1), QInput::Push(2), QInput::Push(3)].iter());
        let (s, o) = q.apply(&s, &QInput::Pop);
        assert_eq!(o, QOutput::Popped(Some(1)));
        let (s, o) = q.apply(&s, &QInput::Pop);
        assert_eq!(o, QOutput::Popped(Some(2)));
        let (_, o) = q.apply(&s, &QInput::Pop);
        assert_eq!(o, QOutput::Popped(Some(3)));
    }

    #[test]
    fn pop_on_empty_returns_bottom_and_loops() {
        let q = FifoQueue;
        let s = q.initial();
        let (s2, o) = q.apply(&s, &QInput::Pop);
        assert_eq!(o, QOutput::Popped(None));
        assert_eq!(s, s2);
    }

    #[test]
    fn pop_is_update_and_query() {
        let q = FifoQueue;
        assert_eq!(q.kind(&QInput::Pop), OpKind::UpdateQuery);
        assert_eq!(q.kind(&QInput::Push(0)), OpKind::PureUpdate);
    }

    #[test]
    fn fig3e_wcc_linearization_is_sequential() {
        // §4.1: push(2).push(1).pop/2.pop/1 is a correct sequential
        // behaviour (the WCC explanation of Fig. 3e after convergence).
        let q = FifoQueue;
        let word = vec![
            Sym::Hidden(QInput::Push(2)),
            Sym::Hidden(QInput::Push(1)),
            Sym::Op(QInput::Pop, QOutput::Popped(Some(2))),
            Sym::Op(QInput::Pop, QOutput::Popped(Some(1))),
        ];
        assert!(accepts(&q, &word));
    }

    #[test]
    fn sequential_queue_never_duplicates() {
        // push(1).push(2).pop/1.pop/1 must be rejected: the duplication of
        // Fig. 3f is only possible in *distributed* histories.
        let q = FifoQueue;
        let word = vec![
            Sym::Hidden(QInput::Push(1)),
            Sym::Hidden(QInput::Push(2)),
            Sym::Op(QInput::Pop, QOutput::Popped(Some(1))),
            Sym::Op(QInput::Pop, QOutput::Popped(Some(1))),
        ];
        assert!(!accepts(&q, &word));
    }

    #[test]
    fn hd_peeks_without_removing() {
        let q = HdRhQueue;
        let s = q.fold_inputs([QpInput::Push(4), QpInput::Push(5)].iter());
        assert_eq!(q.output(&s, &QpInput::Hd), QpOutput::Head(Some(4)));
        assert_eq!(q.transition(&s, &QpInput::Hd), s);
    }

    #[test]
    fn rh_removes_only_matching_head() {
        let q = HdRhQueue;
        let s = q.fold_inputs([QpInput::Push(4), QpInput::Push(5)].iter());
        // mismatching value: no-op
        let s2 = q.transition(&s, &QpInput::RemoveHead(9));
        assert_eq!(s2, s);
        // matching value: head removed
        let s3 = q.transition(&s, &QpInput::RemoveHead(4));
        assert_eq!(q.output(&s3, &QpInput::Hd), QpOutput::Head(Some(5)));
    }

    #[test]
    fn rh_on_empty_is_noop() {
        let q = HdRhQueue;
        let s = q.initial();
        assert_eq!(q.transition(&s, &QpInput::RemoveHead(1)), s);
    }

    #[test]
    fn qp_classification() {
        let q = HdRhQueue;
        assert_eq!(q.kind(&QpInput::Push(1)), OpKind::PureUpdate);
        assert_eq!(q.kind(&QpInput::Hd), OpKind::PureQuery);
        assert_eq!(q.kind(&QpInput::RemoveHead(1)), OpKind::PureUpdate);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::AdtExt;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn arb_q_ops(n: usize) -> impl Strategy<Value = Vec<QInput>> {
        prop::collection::vec(
            prop_oneof![(1u64..20).prop_map(QInput::Push), Just(QInput::Pop)],
            0..n,
        )
    }

    proptest! {
        /// The ADT agrees with the obvious VecDeque model.
        #[test]
        fn queue_matches_vecdeque_model(ops in arb_q_ops(40)) {
            let q = FifoQueue;
            let mut s = q.initial();
            let mut model: VecDeque<u64> = VecDeque::new();
            for op in &ops {
                let (s2, o) = q.apply(&s, op);
                match op {
                    QInput::Push(v) => {
                        model.push_back(*v);
                        prop_assert_eq!(o, QOutput::Ack);
                    }
                    QInput::Pop => {
                        prop_assert_eq!(o, QOutput::Popped(model.pop_front()));
                    }
                }
                s = s2;
            }
            prop_assert_eq!(s, model.into_iter().collect::<Vec<_>>());
        }

        /// In every *sequential* execution, each pushed value is popped at
        /// most once — the invariant that Fig. 3f shows breaking under CC.
        #[test]
        fn sequential_pop_unicity(pushes in prop::collection::vec(1u64..1000, 1..15)) {
            // distinct values
            let mut vals = pushes.clone();
            vals.sort_unstable();
            vals.dedup();
            let q = FifoQueue;
            let mut s = q.initial();
            for v in &vals {
                s = q.transition(&s, &QInput::Push(*v));
            }
            let mut seen = std::collections::HashSet::new();
            loop {
                let (s2, o) = q.apply(&s, &QInput::Pop);
                match o {
                    QOutput::Popped(Some(v)) => prop_assert!(seen.insert(v)),
                    QOutput::Popped(None) => break,
                    QOutput::Ack => unreachable!(),
                }
                s = s2;
            }
            prop_assert_eq!(seen.len(), vals.len());
        }
    }
}
