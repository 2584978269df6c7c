//! Shared counter (§1 mentions counters among the types whose queries
//! "depend on all or part of the updates that happened before").
//!
//! Counter updates commute, which makes the counter the easy case for
//! weak consistency: under causal convergence every replica converges to
//! the same total regardless of the arbitration order. It serves as a
//! contrast to the window stream (order-sensitive) in tests and benches.

use crate::adt::{Adt, OpKind};

/// Input alphabet of the counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtInput {
    /// Add `n` (signed; pure update).
    Add(i64),
    /// Read the current total (pure query).
    Read,
}

/// Output alphabet of the counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtOutput {
    /// `⊥`, returned by `Add`.
    Ack,
    /// The total.
    Val(i64),
}

crate::wire_enum!(CtInput { 0 => Add(n), 1 => Read });
crate::wire_enum!(CtOutput { 0 => Ack, 1 => Val(n) });

/// The counter ADT (initially 0, wrapping arithmetic keeps δ total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter;

impl Adt for Counter {
    type Input = CtInput;
    type Output = CtOutput;
    type State = i64;

    fn initial(&self) -> Self::State {
        0
    }

    fn transition(&self, q: &Self::State, i: &Self::Input) -> Self::State {
        match i {
            CtInput::Add(n) => q.wrapping_add(*n),
            CtInput::Read => *q,
        }
    }

    fn output(&self, q: &Self::State, i: &Self::Input) -> Self::Output {
        match i {
            CtInput::Add(_) => CtOutput::Ack,
            CtInput::Read => CtOutput::Val(*q),
        }
    }

    fn kind(&self, i: &Self::Input) -> OpKind {
        match i {
            CtInput::Add(0) => OpKind::Noop, // δ(q, Add(0)) = q everywhere
            CtInput::Add(_) => OpKind::PureUpdate,
            CtInput::Read => OpKind::PureQuery,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdtExt;

    #[test]
    fn add_accumulates() {
        let c = Counter;
        let q = c.fold_inputs([CtInput::Add(3), CtInput::Add(-1), CtInput::Add(5)].iter());
        assert_eq!(c.output(&q, &CtInput::Read), CtOutput::Val(7));
    }

    #[test]
    fn add_zero_is_noop_kind() {
        let c = Counter;
        assert_eq!(c.kind(&CtInput::Add(0)), OpKind::Noop);
        assert_eq!(c.kind(&CtInput::Add(1)), OpKind::PureUpdate);
    }

    #[test]
    fn wrapping_keeps_transition_total() {
        let c = Counter;
        let q = c.transition(&i64::MAX, &CtInput::Add(1));
        assert_eq!(q, i64::MIN);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::AdtExt;
    use proptest::prelude::*;

    proptest! {
        /// Counter updates commute: any permutation of the same multiset of
        /// adds reaches the same state (the convergence-friendly property).
        #[test]
        fn updates_commute(mut adds in prop::collection::vec(-100i64..100, 0..20), seed in 0u64..1000) {
            let c = Counter;
            let forward = c.fold_inputs(adds.iter().map(|n| CtInput::Add(*n)).collect::<Vec<_>>().iter());
            // deterministic shuffle
            let mut rng = seed;
            for i in (1..adds.len()).rev() {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (rng >> 33) as usize % (i + 1);
                adds.swap(i, j);
            }
            let shuffled = c.fold_inputs(adds.iter().map(|n| CtInput::Add(*n)).collect::<Vec<_>>().iter());
            prop_assert_eq!(forward, shuffled);
        }
    }
}
