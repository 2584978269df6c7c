//! Sequential add/remove set.
//!
//! Adds and removes of the *same* element do not commute, so the set is
//! a mid-point between the counter (fully commutative) and the window
//! stream (fully order-sensitive): concurrent `add(v)`/`rem(v)` make the
//! arbitration order observable under causal convergence (the classic
//! "add-wins vs remove-wins" choice materialises as the timestamp order).

use crate::adt::{Adt, OpKind};
use crate::Value;
use std::collections::BTreeSet;

/// Input alphabet of the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetInput {
    /// Insert `v` (pure update).
    Add(Value),
    /// Remove `v` (pure update).
    Remove(Value),
    /// Membership test (pure query).
    Contains(Value),
    /// Cardinality (pure query).
    Len,
}

/// Output alphabet of the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetOutput {
    /// `⊥`, returned by updates.
    Ack,
    /// Membership result.
    Bool(bool),
    /// Cardinality result.
    Count(usize),
}

/// The add/remove set ADT (state is an ordered set for determinism).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AddRemSet;

impl Adt for AddRemSet {
    type Input = SetInput;
    type Output = SetOutput;
    type State = BTreeSet<Value>;

    fn initial(&self) -> Self::State {
        BTreeSet::new()
    }

    fn transition(&self, q: &Self::State, i: &Self::Input) -> Self::State {
        let mut next = q.clone();
        self.transition_in_place(&mut next, i);
        next
    }

    fn transition_in_place(&self, q: &mut Self::State, i: &Self::Input) {
        match i {
            SetInput::Add(v) => {
                q.insert(*v);
            }
            SetInput::Remove(v) => {
                q.remove(v);
            }
            SetInput::Contains(_) | SetInput::Len => {}
        }
    }

    fn output(&self, q: &Self::State, i: &Self::Input) -> Self::Output {
        match i {
            SetInput::Add(_) | SetInput::Remove(_) => SetOutput::Ack,
            SetInput::Contains(v) => SetOutput::Bool(q.contains(v)),
            SetInput::Len => SetOutput::Count(q.len()),
        }
    }

    fn kind(&self, i: &Self::Input) -> OpKind {
        match i {
            SetInput::Add(_) | SetInput::Remove(_) => OpKind::PureUpdate,
            SetInput::Contains(_) | SetInput::Len => OpKind::PureQuery,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdtExt;

    #[test]
    fn add_then_contains() {
        let s = AddRemSet;
        let q = s.fold_inputs([SetInput::Add(3)].iter());
        assert_eq!(s.output(&q, &SetInput::Contains(3)), SetOutput::Bool(true));
        assert_eq!(s.output(&q, &SetInput::Contains(4)), SetOutput::Bool(false));
    }

    #[test]
    fn add_remove_order_matters() {
        let s = AddRemSet;
        let add_then_rem = s.fold_inputs([SetInput::Add(1), SetInput::Remove(1)].iter());
        let rem_then_add = s.fold_inputs([SetInput::Remove(1), SetInput::Add(1)].iter());
        assert_ne!(add_then_rem, rem_then_add);
    }

    #[test]
    fn idempotent_add() {
        let s = AddRemSet;
        let once = s.fold_inputs([SetInput::Add(2)].iter());
        let twice = s.fold_inputs([SetInput::Add(2), SetInput::Add(2)].iter());
        assert_eq!(once, twice);
    }

    #[test]
    fn len_counts_distinct() {
        let s = AddRemSet;
        let q = s.fold_inputs([SetInput::Add(1), SetInput::Add(2), SetInput::Add(1)].iter());
        assert_eq!(s.output(&q, &SetInput::Len), SetOutput::Count(2));
    }

    #[test]
    fn classification() {
        let s = AddRemSet;
        assert_eq!(s.kind(&SetInput::Add(0)), OpKind::PureUpdate);
        assert_eq!(s.kind(&SetInput::Remove(0)), OpKind::PureUpdate);
        assert_eq!(s.kind(&SetInput::Contains(0)), OpKind::PureQuery);
        assert_eq!(s.kind(&SetInput::Len), OpKind::PureQuery);
    }
}
