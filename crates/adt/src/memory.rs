//! Integer memory `M_X` (Definition 10): a pool of integer registers.
//!
//! Because consistency criteria are **not composable**, causal memory
//! must be defined as a *causally consistent pool of registers* rather
//! than a pool of causally consistent registers (§4.2) — hence memory is
//! one single ADT whose state maps register names to values.
//!
//! Register names are `usize` indices into a fixed name set `X`
//! (the paper's `M[a−z]` examples use letters; our figure builders map
//! `a, b, c, … ↦ 0, 1, 2, …`).

use crate::adt::{Adt, OpKind};
use crate::{Value, DEFAULT_VALUE};

/// Input alphabet of `M_X`: `Σi = {r_x, w_x(v) : v ∈ ℕ, x ∈ X}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemInput {
    /// `w_x(v)` — write `v` into register `x` (pure update).
    Write(usize, Value),
    /// `r_x` — read register `x` (pure query).
    Read(usize),
}

/// Output alphabet of `M_X`: `Σo = ℕ ∪ {⊥}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOutput {
    /// `⊥`, returned by writes.
    Ack,
    /// The value read.
    Val(Value),
}

/// The integer memory ADT over `|X| = registers` names (Definition 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Memory {
    registers: usize,
}

impl Memory {
    /// Memory over the name set `{0, …, registers-1}`.
    pub fn new(registers: usize) -> Self {
        Memory { registers }
    }

    fn addr(&self, x: usize) -> usize {
        x % self.registers.max(1)
    }
}

impl Adt for Memory {
    type Input = MemInput;
    type Output = MemOutput;
    type State = Vec<Value>;

    fn initial(&self) -> Self::State {
        vec![DEFAULT_VALUE; self.registers]
    }

    fn transition(&self, q: &Self::State, i: &Self::Input) -> Self::State {
        let mut next = q.clone();
        self.transition_in_place(&mut next, i);
        next
    }

    fn transition_in_place(&self, q: &mut Self::State, i: &Self::Input) {
        if let MemInput::Write(x, v) = i {
            q[self.addr(*x)] = *v;
        }
    }

    fn output(&self, q: &Self::State, i: &Self::Input) -> Self::Output {
        match i {
            MemInput::Write(..) => MemOutput::Ack,
            MemInput::Read(x) => MemOutput::Val(q[self.addr(*x)]),
        }
    }

    fn kind(&self, i: &Self::Input) -> OpKind {
        match i {
            MemInput::Write(..) => OpKind::PureUpdate,
            MemInput::Read(_) => OpKind::PureQuery,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdtExt;

    #[test]
    fn registers_are_independent() {
        let m = Memory::new(3);
        let q = m.fold_inputs([MemInput::Write(0, 5), MemInput::Write(2, 7)].iter());
        assert_eq!(m.output(&q, &MemInput::Read(0)), MemOutput::Val(5));
        assert_eq!(m.output(&q, &MemInput::Read(1)), MemOutput::Val(0));
        assert_eq!(m.output(&q, &MemInput::Read(2)), MemOutput::Val(7));
    }

    #[test]
    fn write_overwrites_whole_past() {
        let m = Memory::new(1);
        let q = m.fold_inputs(
            [
                MemInput::Write(0, 1),
                MemInput::Write(0, 2),
                MemInput::Write(0, 3),
            ]
            .iter(),
        );
        assert_eq!(m.output(&q, &MemInput::Read(0)), MemOutput::Val(3));
    }

    #[test]
    fn unwritten_register_reads_default() {
        let m = Memory::new(4);
        assert_eq!(
            m.output(&m.initial(), &MemInput::Read(3)),
            MemOutput::Val(0)
        );
    }

    #[test]
    fn classification() {
        let m = Memory::new(2);
        assert_eq!(m.kind(&MemInput::Write(0, 1)), OpKind::PureUpdate);
        assert_eq!(m.kind(&MemInput::Read(0)), OpKind::PureQuery);
    }

    #[test]
    fn address_wrapping_keeps_totality() {
        let m = Memory::new(2);
        let q = m.transition(&m.initial(), &MemInput::Write(7, 9)); // 7 mod 2 = 1
        assert_eq!(m.output(&q, &MemInput::Read(1)), MemOutput::Val(9));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::AdtExt;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn arb_ops(regs: usize, n: usize) -> impl Strategy<Value = Vec<MemInput>> {
        prop::collection::vec(
            prop_oneof![
                (0..regs, 1u64..100).prop_map(|(x, v)| MemInput::Write(x, v)),
                (0..regs).prop_map(MemInput::Read),
            ],
            0..n,
        )
    }

    proptest! {
        /// Memory state equals a map from register to last written value.
        #[test]
        #[allow(clippy::needless_range_loop)]
        fn state_is_last_write_per_register(ops in arb_ops(4, 40)) {
            let m = Memory::new(4);
            let q = m.fold_inputs(ops.iter());
            let mut model: HashMap<usize, u64> = HashMap::new();
            for op in &ops {
                if let MemInput::Write(x, v) = op {
                    model.insert(*x, *v);
                }
            }
            for x in 0..4 {
                prop_assert_eq!(q[x], model.get(&x).copied().unwrap_or(0));
            }
        }

        /// Reads commute with everything that does not write their register.
        #[test]
        fn reads_have_no_side_effect(ops in arb_ops(3, 20), x in 0usize..3) {
            let m = Memory::new(3);
            let q = m.fold_inputs(ops.iter());
            prop_assert_eq!(m.transition(&q, &MemInput::Read(x)), q);
        }
    }
}
