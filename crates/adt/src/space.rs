//! [`ObjectSpace`]: a multi-object space as one composite ADT.
//!
//! "Extending Causal Consistency to any Object" (Mostéfaoui, Perrin,
//! Raynal) observes that the paper's constructions generalize from a
//! single shared object to a whole space of them: a store serving
//! objects `0..n`, each an instance of the same base type `T`, is
//! itself an ADT whose inputs are `(object id, T input)` pairs and
//! whose state is the product of the per-object states. The live store
//! engine (`cbm-store`) shards exactly this space across replica
//! worker threads, and its sampled verification windows replay it
//! through the consistency checkers as a single composite machine.
//!
//! Updates on distinct objects commute and queries only read their own
//! object's component — the structure the engine exploits for
//! contention-free sharding — but nothing here depends on it: the
//! composite is a plain [`Adt`] and works with every checker.

use crate::adt::{Adt, OpKind};

/// Identifier of an object inside an [`ObjectSpace`].
pub(crate) type ObjId = u32;

/// An input addressed to one object of the space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpaceInput<I> {
    /// Target object.
    pub obj: ObjId,
    /// The base-type input applied to it.
    pub input: I,
}

impl<I> SpaceInput<I> {
    /// Address `input` to object `obj`.
    pub fn new(obj: ObjId, input: I) -> Self {
        SpaceInput { obj, input }
    }
}

/// A space of `objects` instances of the base type `T`, as one ADT.
///
/// State is the vector of per-object states; `δ` rewrites the addressed
/// component, `λ` reads it. Inputs addressed to an out-of-range object
/// are total like everything else: they act on object `obj % objects`
/// (the sharding function of the store engine).
#[derive(Debug, Clone)]
pub struct ObjectSpace<T> {
    base: T,
    objects: usize,
}

impl<T: Adt> ObjectSpace<T> {
    /// A space of `objects` copies of `base` (at least 1).
    pub fn new(base: T, objects: usize) -> Self {
        ObjectSpace {
            base,
            objects: objects.max(1),
        }
    }

    /// The slot an object id maps to (total for any id).
    #[inline]
    pub(crate) fn slot(&self, obj: ObjId) -> usize {
        obj as usize % self.objects
    }
}

impl<T: Adt> Adt for ObjectSpace<T> {
    type Input = SpaceInput<T::Input>;
    type Output = T::Output;
    type State = Vec<T::State>;

    fn initial(&self) -> Self::State {
        (0..self.objects).map(|_| self.base.initial()).collect()
    }

    fn transition(&self, q: &Self::State, i: &Self::Input) -> Self::State {
        let mut next = q.clone();
        self.transition_in_place(&mut next, i);
        next
    }

    /// Steps the addressed slot alone, through the base's in-place `δ`.
    #[inline]
    fn transition_in_place(&self, q: &mut Self::State, i: &Self::Input) {
        let slot = self.slot(i.obj);
        self.base.transition_in_place(&mut q[slot], &i.input);
    }

    fn output(&self, q: &Self::State, i: &Self::Input) -> Self::Output {
        self.base.output(&q[self.slot(i.obj)], &i.input)
    }

    fn kind(&self, i: &Self::Input) -> OpKind {
        self.base.kind(&i.input)
    }

    fn output_matches(&self, q: &Self::State, i: &Self::Input, expected: &Self::Output) -> bool {
        self.base
            .output_matches(&q[self.slot(i.obj)], &i.input, expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::register::{RegInput, RegOutput, Register};
    use crate::AdtExt;

    #[test]
    fn objects_are_independent() {
        let space = ObjectSpace::new(Register, 3);
        let q = space.initial();
        let q = space.transition(&q, &SpaceInput::new(0, RegInput::Write(5)));
        let q = space.transition(&q, &SpaceInput::new(2, RegInput::Write(9)));
        assert_eq!(
            space.output(&q, &SpaceInput::new(0, RegInput::Read)),
            RegOutput::Val(5)
        );
        assert_eq!(
            space.output(&q, &SpaceInput::new(1, RegInput::Read)),
            RegOutput::Val(0)
        );
        assert_eq!(
            space.output(&q, &SpaceInput::new(2, RegInput::Read)),
            RegOutput::Val(9)
        );
    }

    #[test]
    fn out_of_range_ids_wrap() {
        let space = ObjectSpace::new(Register, 4);
        let q = space.initial();
        let q = space.transition(&q, &SpaceInput::new(6, RegInput::Write(1)));
        assert_eq!(
            space.output(&q, &SpaceInput::new(2, RegInput::Read)),
            RegOutput::Val(1)
        );
        assert_eq!(space.slot(6), 2);
    }

    #[test]
    fn classification_forwards_to_base() {
        let space = ObjectSpace::new(Register, 2);
        assert_eq!(
            space.kind(&SpaceInput::new(0, RegInput::Write(1))),
            OpKind::PureUpdate
        );
        assert_eq!(
            space.kind(&SpaceInput::new(1, RegInput::Read)),
            OpKind::PureQuery
        );
        assert!(space.is_update(&SpaceInput::new(0, RegInput::Write(1))));
        assert!(space.is_query(&SpaceInput::new(0, RegInput::Read)));
    }

    #[test]
    fn output_matches_addresses_the_right_slot() {
        let space = ObjectSpace::new(Register, 2);
        let q = space.fold_inputs(
            [
                SpaceInput::new(0, RegInput::Write(3)),
                SpaceInput::new(1, RegInput::Write(4)),
            ]
            .iter(),
        );
        assert!(space.output_matches(&q, &SpaceInput::new(1, RegInput::Read), &RegOutput::Val(4)));
        assert!(!space.output_matches(&q, &SpaceInput::new(1, RegInput::Read), &RegOutput::Val(3)));
    }

    #[test]
    fn zero_objects_clamps_to_one() {
        let space = ObjectSpace::new(Register, 0);
        assert_eq!(space.objects, 1);
        assert_eq!(space.initial().len(), 1);
    }
}
