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
    pub(crate) fn is_query(self) -> bool {
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

    /// `δ` in place: leaves `q` equal to `self.transition(q, i)`.
    ///
    /// The default builds the new state and moves it in. A container
    /// state that changes one component (an [`crate::space::ObjectSpace`]
    /// slot, a memory cell, a window) overrides it to change just that
    /// component, so a replay steps one state instead of copying it per
    /// input. An adapter that forwards `δ` forwards this too.
    #[inline]
    fn transition_in_place(&self, q: &mut Self::State, i: &Self::Input) {
        *q = self.transition(q, i);
    }

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

    /// Whether `i` overwrites the whole state: true only if `δ(q, i)`
    /// is the same state for every `q`.
    ///
    /// An arbitrated log ([`crate::arbitration::ArbLog`]) may then
    /// drop every update ordered before `i`, as Fig. 5 drops a write
    /// older than all the cells it keeps. `false`, the default, is
    /// always sound; an adapter that forwards `δ` forwards this too.
    #[inline]
    fn overwrites(&self, _i: &Self::Input) -> bool {
        false
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

/// Extension helpers on any [`Adt`] (test-only).
#[cfg(test)]
pub(crate) trait AdtExt: Adt {
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

#[cfg(test)]
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

#[cfg(test)]
mod overwrite_tests {
    use super::*;
    use crate::counter::{Counter, CtInput};
    use crate::kv::{KvInput, KvStore};
    use crate::log::{AppendLog, LogInput};
    use crate::memory::{MemInput, Memory};
    use crate::queue::{FifoQueue, HdRhQueue, QInput, QpInput};
    use crate::register::{RegInput, Register};
    use crate::set::{AddRemSet, SetInput};
    use crate::space::{ObjectSpace, SpaceInput};
    use crate::window::{WInput, WaInput, WindowArray, WindowStream};
    use proptest::prelude::*;

    /// No input of `inputs` claims to overwrite.
    fn keeps_the_default<T: Adt>(adt: &T, inputs: &[T::Input]) {
        for i in inputs {
            let name = std::any::type_name::<T>();
            assert!(!adt.overwrites(i), "{name} overwrites on {i:?}");
        }
    }

    proptest! {
        /// A register write is the same state from any state; a read
        /// is no overwrite.
        #[test]
        fn a_register_overwrite_ignores_the_state(
            q1 in 0u64..1000,
            q2 in 0u64..1000,
            v in 0u64..1000,
            write in prop::bool::ANY,
        ) {
            let i = if write { RegInput::Write(v) } else { RegInput::Read };
            prop_assert_eq!(Register.overwrites(&i), write);
            if Register.overwrites(&i) {
                prop_assert_eq!(Register.transition(&q1, &i), Register.transition(&q2, &i));
            }
        }
    }

    /// No other alphabet overrides the hook, which `false` keeps sound:
    /// their writes change one component or fold the old state in, and
    /// a window keeps the default for every `k`, 1 included.
    #[test]
    fn every_other_alphabet_keeps_the_default() {
        keeps_the_default(&Counter, &[CtInput::Add(1), CtInput::Add(0), CtInput::Read]);
        keeps_the_default(
            &KvStore,
            &[
                KvInput::Put(1, 2),
                KvInput::Del(1),
                KvInput::Get(1),
                KvInput::Scan,
                KvInput::Len,
            ],
        );
        keeps_the_default(
            &AppendLog,
            &[LogInput::Append(1), LogInput::Read, LogInput::Len],
        );
        keeps_the_default(&Memory::new(2), &[MemInput::Write(0, 1), MemInput::Read(0)]);
        keeps_the_default(&FifoQueue, &[QInput::Push(1), QInput::Pop]);
        keeps_the_default(
            &HdRhQueue,
            &[QpInput::Push(1), QpInput::Hd, QpInput::RemoveHead(1)],
        );
        keeps_the_default(
            &AddRemSet,
            &[
                SetInput::Add(1),
                SetInput::Remove(1),
                SetInput::Contains(1),
                SetInput::Len,
            ],
        );
        keeps_the_default(&WindowStream::new(1), &[WInput::Write(1), WInput::Read]);
        keeps_the_default(
            &WindowArray::new(2, 1),
            &[WaInput::Write(0, 1), WaInput::Read(0)],
        );
        keeps_the_default(
            &ObjectSpace::new(Register, 2),
            &[
                SpaceInput::new(0, RegInput::Write(1)),
                SpaceInput::new(1, RegInput::Read),
            ],
        );
    }
}

#[cfg(test)]
mod in_place_tests {
    use super::*;
    use crate::counter::{Counter, CtInput};
    use crate::kv::{KvInput, KvStore};
    use crate::log::{AppendLog, LogInput};
    use crate::memory::{MemInput, Memory};
    use crate::queue::{FifoQueue, HdRhQueue, QInput, QpInput};
    use crate::register::{RegInput, Register};
    use crate::set::{AddRemSet, SetInput};
    use crate::space::{ObjectSpace, SpaceInput};
    use crate::window::{WInput, WaInput, WindowArray, WindowStream};
    use crate::Value;
    use proptest::prelude::*;

    /// One raw script step: an input selector, an address, a value.
    type Step = (u8, u32, Value);

    /// Replays `inputs` from `q0` both ways: each in-place step must
    /// leave exactly the state `transition` returns.
    fn steps_like_transition<T: Adt>(adt: &T, inputs: &[T::Input]) -> Result<(), TestCaseError> {
        let mut q = adt.initial();
        for i in inputs {
            let next = adt.transition(&q, i);
            adt.transition_in_place(&mut q, i);
            prop_assert_eq!(&q, &next, "{} on {:?}", std::any::type_name::<T>(), i);
        }
        Ok(())
    }

    /// A space of four `base` objects steps like `transition`, and like
    /// the base's own `δ` applied to the addressed slot alone.
    fn a_space_steps_its_slot<B: Adt + Clone>(
        base: &B,
        inputs: &[SpaceInput<B::Input>],
    ) -> Result<(), TestCaseError> {
        let space = ObjectSpace::new(base.clone(), 4);
        steps_like_transition(&space, inputs)?;
        let (mut q, mut slots) = (space.initial(), space.initial());
        for i in inputs {
            let slot = i.obj as usize % 4;
            slots[slot] = base.transition(&slots[slot], &i.input);
            space.transition_in_place(&mut q, i);
            prop_assert_eq!(&q, &slots, "{:?}", i);
        }
        Ok(())
    }

    fn reg((k, _, v): Step) -> RegInput {
        if k % 2 == 0 {
            RegInput::Write(v)
        } else {
            RegInput::Read
        }
    }
    fn ctr((k, _, v): Step) -> CtInput {
        if k % 2 == 0 {
            CtInput::Add(v as i64 - 2)
        } else {
            CtInput::Read
        }
    }
    fn win((k, _, v): Step) -> WInput {
        if k % 2 == 0 {
            WInput::Write(v)
        } else {
            WInput::Read
        }
    }
    fn fifo((k, _, v): Step) -> QInput {
        if k % 2 == 0 {
            QInput::Push(v)
        } else {
            QInput::Pop
        }
    }
    fn hdrh((k, _, v): Step) -> QpInput {
        match k % 3 {
            0 => QpInput::Push(v),
            1 => QpInput::Hd,
            _ => QpInput::RemoveHead(v),
        }
    }
    fn set((k, _, v): Step) -> SetInput {
        match k % 4 {
            0 => SetInput::Add(v),
            1 => SetInput::Remove(v),
            2 => SetInput::Contains(v),
            _ => SetInput::Len,
        }
    }
    fn log((k, _, v): Step) -> LogInput {
        match k % 3 {
            0 => LogInput::Append(v),
            1 => LogInput::Read,
            _ => LogInput::Len,
        }
    }
    fn kv((k, x, v): Step) -> KvInput {
        let key = Value::from(x);
        match k % 5 {
            0 | 1 => KvInput::Put(key, v),
            2 => KvInput::Del(key),
            3 => KvInput::Get(key),
            _ => KvInput::Scan,
        }
    }
    fn mem((k, x, v): Step) -> MemInput {
        if k % 2 == 0 {
            MemInput::Write(x as usize, v)
        } else {
            MemInput::Read(x as usize)
        }
    }
    fn wa((k, x, v): Step) -> WaInput {
        if k % 2 == 0 {
            WaInput::Write(x as usize, v)
        } else {
            WaInput::Read(x as usize)
        }
    }

    /// `script` as inputs of one alphabet.
    fn each<I>(script: &[Step], f: impl Fn(Step) -> I) -> Vec<I> {
        script.iter().map(|&s| f(s)).collect()
    }

    /// `script` addressed across a space (addresses 0..6 over 4
    /// objects, so some wrap).
    fn spread<I>(script: &[Step], f: impl Fn(Step) -> I) -> Vec<SpaceInput<I>> {
        script.iter().map(|&s| SpaceInput::new(s.1, f(s))).collect()
    }

    proptest! {
        /// Every alphabet's in-place δ, its own or the default, steps to
        /// `transition`'s state, and a space over five of them steps as
        /// its base does on the addressed slot.
        #[test]
        fn the_in_place_step_is_the_transition(
            script in prop::collection::vec((0u8..20, 0u32..6, 0u64..5), 0..40),
        ) {
            let s = &script[..];
            steps_like_transition(&Register, &each(s, reg))?;
            steps_like_transition(&Counter, &each(s, ctr))?;
            steps_like_transition(&WindowStream::new(3), &each(s, win))?;
            steps_like_transition(&WindowStream::new(0), &each(s, win))?;
            steps_like_transition(&FifoQueue, &each(s, fifo))?;
            steps_like_transition(&HdRhQueue, &each(s, hdrh))?;
            steps_like_transition(&AddRemSet, &each(s, set))?;
            steps_like_transition(&AppendLog, &each(s, log))?;
            steps_like_transition(&KvStore, &each(s, kv))?;
            steps_like_transition(&Memory::new(4), &each(s, mem))?;
            steps_like_transition(&WindowArray::new(4, 2), &each(s, wa))?;
            steps_like_transition(&WindowArray::new(4, 0), &each(s, wa))?;
            a_space_steps_its_slot(&Register, &spread(s, reg))?;
            a_space_steps_its_slot(&Counter, &spread(s, ctr))?;
            a_space_steps_its_slot(&WindowStream::new(3), &spread(s, win))?;
            a_space_steps_its_slot(&FifoQueue, &spread(s, fifo))?;
            a_space_steps_its_slot(&AddRemSet, &spread(s, set))?;
        }
    }

    /// A space steps the addressed slot through its base's in-place δ:
    /// neither the slot vector nor the window it changes is rebuilt (the
    /// default would allocate a new one while the old is alive, so its
    /// address would differ).
    #[test]
    fn a_space_forwards_the_in_place_step_to_its_base() {
        let space = ObjectSpace::new(WindowStream::new(2), 3);
        let mut q = space.initial();
        let (slots, window) = (q.as_ptr(), q[1].as_ptr());
        space.transition_in_place(&mut q, &SpaceInput::new(4, WInput::Write(7)));
        assert_eq!(q, vec![vec![0, 0], vec![0, 7], vec![0, 0]]);
        assert_eq!((q.as_ptr(), q[1].as_ptr()), (slots, window));
    }
}
