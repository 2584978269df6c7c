//! LIFO stack (§2.1: `pop` "deletes the head of the stack (the side
//! effect) and returns its value (the output)"; consensus number 2).

use crate::adt::{Adt, OpKind};
use crate::Value;

/// Input alphabet of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkInput {
    /// `push(v)` — push on top (pure update).
    Push(Value),
    /// `pop` — remove and return the top (update **and** query).
    Pop,
    /// `top` — return the top without removing it (pure query).
    Top,
}

/// Output alphabet of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkOutput {
    /// `⊥`, returned by pushes.
    Ack,
    /// Popped/peeked value, or `None` on the empty stack.
    Val(Option<Value>),
}

/// The stack ADT.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stack;

impl Adt for Stack {
    type Input = SkInput;
    type Output = SkOutput;
    /// Stack contents, bottom first (top is `last()`).
    type State = Vec<Value>;

    fn initial(&self) -> Self::State {
        Vec::new()
    }

    fn transition(&self, q: &Self::State, i: &Self::Input) -> Self::State {
        match i {
            SkInput::Push(v) => {
                let mut next = q.clone();
                next.push(*v);
                next
            }
            SkInput::Pop => {
                let mut next = q.clone();
                next.pop();
                next
            }
            SkInput::Top => q.clone(),
        }
    }

    fn output(&self, q: &Self::State, i: &Self::Input) -> Self::Output {
        match i {
            SkInput::Push(_) => SkOutput::Ack,
            SkInput::Pop | SkInput::Top => SkOutput::Val(q.last().copied()),
        }
    }

    fn kind(&self, i: &Self::Input) -> OpKind {
        match i {
            SkInput::Push(_) => OpKind::PureUpdate,
            SkInput::Pop => OpKind::UpdateQuery,
            SkInput::Top => OpKind::PureQuery,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdtExt;

    #[test]
    fn lifo_order() {
        let s = Stack;
        let q = s.fold_inputs([SkInput::Push(1), SkInput::Push(2)].iter());
        let (q, o) = s.apply(&q, &SkInput::Pop);
        assert_eq!(o, SkOutput::Val(Some(2)));
        let (_, o) = s.apply(&q, &SkInput::Pop);
        assert_eq!(o, SkOutput::Val(Some(1)));
    }

    #[test]
    fn pop_empty() {
        let s = Stack;
        let (q, o) = s.apply(&s.initial(), &SkInput::Pop);
        assert_eq!(o, SkOutput::Val(None));
        assert_eq!(q, s.initial());
    }

    #[test]
    fn top_is_pure_query() {
        let s = Stack;
        let q = s.fold_inputs([SkInput::Push(9)].iter());
        assert_eq!(s.transition(&q, &SkInput::Top), q);
        assert_eq!(s.output(&q, &SkInput::Top), SkOutput::Val(Some(9)));
    }

    #[test]
    fn classification() {
        let s = Stack;
        assert_eq!(s.kind(&SkInput::Push(0)), OpKind::PureUpdate);
        assert_eq!(s.kind(&SkInput::Pop), OpKind::UpdateQuery);
        assert_eq!(s.kind(&SkInput::Top), OpKind::PureQuery);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::AdtExt;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn stack_matches_vec_model(
            ops in prop::collection::vec(
                prop_oneof![
                    (1u64..50).prop_map(SkInput::Push),
                    Just(SkInput::Pop),
                    Just(SkInput::Top),
                ],
                0..40,
            )
        ) {
            let s = Stack;
            let mut q = s.initial();
            let mut model: Vec<u64> = Vec::new();
            for op in &ops {
                let (q2, o) = s.apply(&q, op);
                match op {
                    SkInput::Push(v) => { model.push(*v); prop_assert_eq!(o, SkOutput::Ack); }
                    SkInput::Pop => prop_assert_eq!(o, SkOutput::Val(model.pop())),
                    SkInput::Top => prop_assert_eq!(o, SkOutput::Val(model.last().copied())),
                }
                q = q2;
            }
            prop_assert_eq!(q, model);
        }
    }
}
