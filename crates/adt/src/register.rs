//! Integer register: a window stream of size 1 up to output renaming
//! (§4.2: "An integer register x is isomorphic to a window stream of
//! size 1").
//!
//! We keep it as a separate ADT because its output type (`Value`, not
//! `Vec<Value>`) matches the memory ADT of Definition 10, which the
//! causal-memory comparison (§4.2) is stated against.

use crate::adt::{Adt, OpKind};
use crate::{Value, DEFAULT_VALUE};

/// Input alphabet of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegInput {
    /// `w(v)` — write `v` (pure update).
    Write(Value),
    /// `r` — read the last written value (pure query).
    Read,
}

/// Output alphabet of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegOutput {
    /// `⊥`, returned by writes.
    Ack,
    /// The register content.
    Val(Value),
}

crate::wire_enum!(RegInput { 0 => Write(v), 1 => Read });
crate::wire_enum!(RegOutput { 0 => Ack, 1 => Val(v) });

/// An integer register initialized to the default value `0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Register;

impl Adt for Register {
    type Input = RegInput;
    type Output = RegOutput;
    type State = Value;

    fn initial(&self) -> Self::State {
        DEFAULT_VALUE
    }

    fn transition(&self, q: &Self::State, i: &Self::Input) -> Self::State {
        match i {
            RegInput::Write(v) => *v,
            RegInput::Read => *q,
        }
    }

    fn output(&self, q: &Self::State, i: &Self::Input) -> Self::Output {
        match i {
            RegInput::Write(_) => RegOutput::Ack,
            RegInput::Read => RegOutput::Val(*q),
        }
    }

    fn kind(&self, i: &Self::Input) -> OpKind {
        match i {
            RegInput::Write(_) => OpKind::PureUpdate,
            RegInput::Read => OpKind::PureQuery,
        }
    }

    #[inline]
    fn overwrites(&self, i: &Self::Input) -> bool {
        matches!(i, RegInput::Write(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{WInput, WOutput, WindowStream};
    use crate::AdtExt;

    #[test]
    fn read_returns_last_write() {
        let r = Register;
        let q = r.transition(&r.initial(), &RegInput::Write(3));
        assert_eq!(r.output(&q, &RegInput::Read), RegOutput::Val(3));
        let q = r.transition(&q, &RegInput::Write(8));
        assert_eq!(r.output(&q, &RegInput::Read), RegOutput::Val(8));
    }

    #[test]
    fn initial_read_is_default() {
        let r = Register;
        assert_eq!(r.output(&r.initial(), &RegInput::Read), RegOutput::Val(0));
    }

    #[test]
    fn isomorphic_to_w1() {
        // The bijections (Write ↔ Write, Read ↔ Read, Val(v) ↔ Window([v]))
        // commute with δ and λ on arbitrary input words.
        let r = Register;
        let w1 = WindowStream::new(1);
        let ops = [5u64, 2, 9, 9, 0];
        let mut qr = r.initial();
        let mut qw = w1.initial();
        for v in ops {
            assert_eq!(vec![qr], qw);
            match (
                r.output(&qr, &RegInput::Read),
                w1.output(&qw, &WInput::Read),
            ) {
                (RegOutput::Val(a), WOutput::Window(b)) => assert_eq!(vec![a], b),
                _ => panic!("unexpected outputs"),
            }
            qr = r.transition(&qr, &RegInput::Write(v));
            qw = w1.transition(&qw, &WInput::Write(v));
        }
    }

    #[test]
    fn classification() {
        let r = Register;
        assert_eq!(r.kind(&RegInput::Write(0)), OpKind::PureUpdate);
        assert_eq!(r.kind(&RegInput::Read), OpKind::PureQuery);
    }

    #[test]
    fn fold_helper() {
        let r = Register;
        let q = r.fold_inputs([RegInput::Write(1), RegInput::Read, RegInput::Write(2)].iter());
        assert_eq!(q, 2);
    }
}
