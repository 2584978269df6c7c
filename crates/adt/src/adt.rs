//! The [`Adt`] trait: Definition 1 of the paper.

use std::fmt::Debug;
use std::hash::Hash;

/// Classification of an input symbol per Definition 1.
///
/// An input is an *update* if its transition part is not always a loop,
/// a *query* if its output depends on the state; it can be both (e.g. a
/// queue `pop`), and it is a *pure* update (resp. query) when it is not a
/// query (resp. update).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `δ(q, σ) = q` for all `q` and `λ(q, σ)` does not depend on `q`.
    /// (Degenerate; no library type uses it, but workloads may.)
    Noop,
    /// Pure update: side effect only, constant output (the paper's `⊥`).
    PureUpdate,
    /// Pure query: no side effect, state-dependent output.
    PureQuery,
    /// Both update and query (e.g. `pop`).
    UpdateQuery,
}

impl OpKind {
    /// Whether this kind has a side effect.
    #[inline]
    pub fn is_update(self) -> bool {
        matches!(self, OpKind::PureUpdate | OpKind::UpdateQuery)
    }
    /// Whether this kind has a state-dependent output.
    #[inline]
    pub fn is_query(self) -> bool {
        matches!(self, OpKind::PureQuery | OpKind::UpdateQuery)
    }
}

/// An abstract data type `T = (Σi, Σo, Q, q0, δ, λ)` (Definition 1).
///
/// `Σi`/`Σo` are the `Input`/`Output` associated types, `Q` is `State`,
/// `q0` is [`Adt::initial`], `δ` is [`Adt::transition`] and `λ` is
/// [`Adt::output`]. Both functions are **total**: implementations must
/// not panic for any reachable state and any input.
///
/// States must be cheap-ish to clone, hash and compare: the consistency
/// checkers in `cbm-check` memoise on `(event-set, State)` pairs, and the
/// replicated objects in `cbm-core` snapshot states for checkpointing.
pub trait Adt {
    /// The input alphabet `Σi` (methods of the type).
    type Input: Clone + Eq + Hash + Debug;
    /// The output alphabet `Σo` (return values, including the paper's `⊥`).
    type Output: Clone + Eq + Hash + Debug;
    /// The state space `Q`.
    type State: Clone + Eq + Hash + Debug;

    /// The initial state `q0`.
    fn initial(&self) -> Self::State;

    /// The transition function `δ(q, σi)` — the side effect.
    fn transition(&self, q: &Self::State, i: &Self::Input) -> Self::State;

    /// The output function `λ(q, σi)` — the return value, computed in the
    /// state *before* the transition (as in a Mealy machine).
    fn output(&self, q: &Self::State, i: &Self::Input) -> Self::Output;

    /// Declared classification of the input (see [`OpKind`] and the
    /// module docs on why this is declared rather than computed).
    fn kind(&self, i: &Self::Input) -> OpKind;

    /// Does `λ(q, i)` equal `expected`?
    ///
    /// Semantically identical to `self.output(q, i) == *expected`, but
    /// overridable: types whose outputs carry owned data (window
    /// vectors, popped values) can compare against the state directly
    /// instead of materializing an output per comparison. The search
    /// kernels call this once per (node, candidate), so the override
    /// is worth it on hot ADTs.
    #[inline]
    fn output_matches(&self, q: &Self::State, i: &Self::Input, expected: &Self::Output) -> bool {
        self.output(q, i) == *expected
    }

    /// Whether `i` is an update (has a side effect somewhere).
    #[inline]
    fn is_update(&self, i: &Self::Input) -> bool {
        self.kind(i).is_update()
    }

    /// Whether `i` is a query (output depends on the state somewhere).
    #[inline]
    fn is_query(&self, i: &Self::Input) -> bool {
        self.kind(i).is_query()
    }
}

/// Extension helpers on any [`Adt`].
pub trait AdtExt: Adt {
    /// Apply one input: returns `(δ(q, i), λ(q, i))`.
    #[inline]
    fn apply(&self, q: &Self::State, i: &Self::Input) -> (Self::State, Self::Output) {
        (self.transition(q, i), self.output(q, i))
    }

    /// Fold a sequence of inputs from the initial state, discarding
    /// outputs; returns the final state.
    fn fold_inputs<'a, I>(&self, inputs: I) -> Self::State
    where
        Self::Input: 'a,
        I: IntoIterator<Item = &'a Self::Input>,
    {
        let mut q = self.initial();
        for i in inputs {
            q = self.transition(&q, i);
        }
        q
    }
}

impl<T: Adt + ?Sized> AdtExt for T {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opkind_classification() {
        assert!(OpKind::PureUpdate.is_update());
        assert!(!OpKind::PureUpdate.is_query());
        assert!(!OpKind::PureQuery.is_update());
        assert!(OpKind::PureQuery.is_query());
        assert!(OpKind::UpdateQuery.is_update());
        assert!(OpKind::UpdateQuery.is_query());
        assert!(!OpKind::Noop.is_update());
        assert!(!OpKind::Noop.is_query());
    }
}
