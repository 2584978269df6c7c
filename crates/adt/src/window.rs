//! The window stream `Wk` (Definition 3) and arrays of window streams
//! `W_k^K` (the object implemented by the algorithms of Figs. 4–5).
//!
//! A window stream of size `k` generalizes a register: `write(v)` shifts
//! `v` into a sliding window and `read` returns the sequence of the last
//! `k` written values, oldest first, with missing values replaced by the
//! default value `0`. The paper uses `Wk` as its guideline example
//! because the value returned by a query depends on *several* updates
//! *and on their order* — exactly what plain memory cannot exhibit.
//!
//! `Wk` has consensus number `k` (§2.1): `k` processes may each write
//! their proposal into a sequentially consistent `Wk` and then return the
//! oldest non-default written value; see `cbm-core::consensus`.

use crate::adt::{Adt, OpKind};
use crate::{Value, DEFAULT_VALUE};

/// Input alphabet of `Wk`: `Σi = {r} ∪ {w(v) : v ∈ ℕ}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WInput {
    /// `w(v)` — shift `v` into the window (pure update).
    Write(Value),
    /// `r` — read the window (pure query).
    Read,
}

/// Output alphabet of `Wk`: `Σo = ℕ^k ∪ {⊥}`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WOutput {
    /// `⊥`, returned by writes.
    Ack,
    /// The window contents, oldest value first.
    Window(Vec<Value>),
}

/// The window stream ADT `Wk` (Definition 3).
///
/// State `Q = ℕ^k`, initial state `(0, …, 0)`,
/// `δ(q, w(v)) = (q2, …, qk, v)`, `δ(q, r) = q`,
/// `λ(q, w(v)) = ⊥`, `λ(q, r) = q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStream {
    k: usize,
}

impl WindowStream {
    /// A window stream of size `k`. `k = 0` is degenerate but legal
    /// (reads always return the empty window); `k = 1` is a register.
    pub fn new(k: usize) -> Self {
        WindowStream { k }
    }
}

impl Adt for WindowStream {
    type Input = WInput;
    type Output = WOutput;
    type State = Vec<Value>;

    fn initial(&self) -> Self::State {
        vec![DEFAULT_VALUE; self.k]
    }

    fn transition(&self, q: &Self::State, i: &Self::Input) -> Self::State {
        let mut next = q.clone();
        self.transition_in_place(&mut next, i);
        next
    }

    fn transition_in_place(&self, q: &mut Self::State, i: &Self::Input) {
        if let WInput::Write(v) = i {
            shift_in(q, *v);
        }
    }

    fn output(&self, q: &Self::State, i: &Self::Input) -> Self::Output {
        match i {
            WInput::Write(_) => WOutput::Ack,
            WInput::Read => WOutput::Window(q.clone()),
        }
    }

    fn kind(&self, i: &Self::Input) -> OpKind {
        match i {
            // For k = 0, writes are loops (δ(q, w) = q on the unique
            // state) — degenerate but classified faithfully.
            WInput::Write(_) if self.k == 0 => OpKind::Noop,
            WInput::Write(_) => OpKind::PureUpdate,
            WInput::Read if self.k == 0 => OpKind::Noop,
            WInput::Read => OpKind::PureQuery,
        }
    }

    fn output_matches(&self, q: &Self::State, i: &Self::Input, expected: &Self::Output) -> bool {
        match (i, expected) {
            (WInput::Write(_), WOutput::Ack) => true,
            (WInput::Read, WOutput::Window(w)) => w == q,
            _ => false,
        }
    }
}

/// `(q1, …, qk) ↦ (q2, …, qk, v)`, in place.
fn shift_in(q: &mut [Value], v: Value) {
    if let Some(last) = q.len().checked_sub(1) {
        q.copy_within(1.., 0);
        q[last] = v;
    }
}

/// Input alphabet of `W_k^K` (array of `K` window streams of size `k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaInput {
    /// `write(x, v)` — `w(v)` on stream `x` (pure update).
    Write(usize, Value),
    /// `read(x)` — `r` on stream `x` (pure query).
    Read(usize),
}

/// Output alphabet of `W_k^K`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum WaOutput {
    /// `⊥`, returned by writes.
    Ack,
    /// Window contents of the addressed stream, oldest first.
    Window(Vec<Value>),
}

/// An array of `K` window streams of size `k` — the shared object
/// implemented by the algorithms of Figs. 4 and 5.
///
/// Consistency criteria are **not composable** (§4.2), so the paper is
/// careful to define the *array* as a single ADT (a causally consistent
/// array of streams, not an array of causally consistent streams); we do
/// the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowArray {
    streams: usize,
    k: usize,
}

impl WindowArray {
    /// An array of `streams` window streams, each of size `k`.
    pub fn new(streams: usize, k: usize) -> Self {
        WindowArray { streams, k }
    }

    /// Number of streams `K`.
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// Window size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Panic-free address check; out-of-range addresses are mapped onto
    /// `x mod K` so that `δ`/`λ` stay total (workload generators may
    /// produce arbitrary addresses).
    fn addr(&self, x: usize) -> usize {
        debug_assert!(self.streams > 0, "WindowArray with zero streams");
        x % self.streams.max(1)
    }

    /// Stream `x`'s window within a flat state.
    #[inline]
    fn window<'q>(&self, q: &'q [Value], x: usize) -> &'q [Value] {
        &q[x * self.k..(x + 1) * self.k]
    }

    /// Mutable view of stream `x`'s window within a flat state.
    #[inline]
    fn window_mut<'q>(&self, q: &'q mut [Value], x: usize) -> &'q mut [Value] {
        &mut q[x * self.k..(x + 1) * self.k]
    }
}

impl Adt for WindowArray {
    type Input = WaInput;
    type Output = WaOutput;
    /// All `K` windows in one flat vector, stream-major: stream `x`
    /// occupies `q[x·k .. (x+1)·k]`. One allocation per state (the
    /// checkers clone a state per search node, so the layout matters).
    type State = Vec<Value>;

    fn initial(&self) -> Self::State {
        vec![DEFAULT_VALUE; self.k * self.streams]
    }

    fn transition(&self, q: &Self::State, i: &Self::Input) -> Self::State {
        let mut next = q.clone();
        self.transition_in_place(&mut next, i);
        next
    }

    fn transition_in_place(&self, q: &mut Self::State, i: &Self::Input) {
        if let WaInput::Write(x, v) = i {
            shift_in(self.window_mut(q, self.addr(*x)), *v);
        }
    }

    fn output(&self, q: &Self::State, i: &Self::Input) -> Self::Output {
        match i {
            WaInput::Write(..) => WaOutput::Ack,
            WaInput::Read(x) => WaOutput::Window(self.window(q, self.addr(*x)).to_vec()),
        }
    }

    fn kind(&self, i: &Self::Input) -> OpKind {
        match i {
            WaInput::Write(..) if self.k == 0 => OpKind::Noop,
            WaInput::Write(..) => OpKind::PureUpdate,
            WaInput::Read(_) if self.k == 0 => OpKind::Noop,
            WaInput::Read(_) => OpKind::PureQuery,
        }
    }

    fn output_matches(&self, q: &Self::State, i: &Self::Input, expected: &Self::Output) -> bool {
        match (i, expected) {
            (WaInput::Write(..), WaOutput::Ack) => true,
            (WaInput::Read(x), WaOutput::Window(w)) => w[..] == *self.window(q, self.addr(*x)),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adt::AdtExt;

    #[test]
    fn initial_window_is_all_default() {
        let w = WindowStream::new(3);
        assert_eq!(w.initial(), vec![0, 0, 0]);
    }

    #[test]
    fn write_shifts_window() {
        let w = WindowStream::new(3);
        let q = w.initial();
        let q = w.transition(&q, &WInput::Write(1));
        assert_eq!(q, vec![0, 0, 1]);
        let q = w.transition(&q, &WInput::Write(2));
        assert_eq!(q, vec![0, 1, 2]);
        let q = w.transition(&q, &WInput::Write(3));
        assert_eq!(q, vec![1, 2, 3]);
        let q = w.transition(&q, &WInput::Write(4));
        assert_eq!(q, vec![2, 3, 4]);
    }

    #[test]
    fn read_is_pure_query() {
        let w = WindowStream::new(2);
        let q = w.fold_inputs([WInput::Write(5), WInput::Write(6)].iter());
        let q2 = w.transition(&q, &WInput::Read);
        assert_eq!(q, q2);
        assert_eq!(w.output(&q, &WInput::Read), WOutput::Window(vec![5, 6]));
    }

    #[test]
    fn write_output_is_ack() {
        let w = WindowStream::new(2);
        assert_eq!(w.output(&w.initial(), &WInput::Write(9)), WOutput::Ack);
    }

    #[test]
    fn k1_behaves_like_register() {
        let w = WindowStream::new(1);
        let q = w.transition(&w.initial(), &WInput::Write(4));
        assert_eq!(w.output(&q, &WInput::Read), WOutput::Window(vec![4]));
        let q = w.transition(&q, &WInput::Write(7));
        assert_eq!(w.output(&q, &WInput::Read), WOutput::Window(vec![7]));
    }

    #[test]
    fn k0_is_degenerate_noop() {
        let w = WindowStream::new(0);
        let q = w.transition(&w.initial(), &WInput::Write(4));
        assert_eq!(q, Vec::<Value>::new());
        assert_eq!(w.output(&q, &WInput::Read), WOutput::Window(vec![]));
        assert_eq!(w.kind(&WInput::Write(1)), OpKind::Noop);
    }

    #[test]
    fn classification() {
        let w = WindowStream::new(2);
        assert_eq!(w.kind(&WInput::Write(1)), OpKind::PureUpdate);
        assert_eq!(w.kind(&WInput::Read), OpKind::PureQuery);
        assert!(w.is_update(&WInput::Write(1)));
        assert!(!w.is_query(&WInput::Write(1)));
        assert!(w.is_query(&WInput::Read));
        assert!(!w.is_update(&WInput::Read));
    }

    #[test]
    fn array_streams_are_independent() {
        let a = WindowArray::new(3, 2);
        let q = a.initial();
        let q = a.transition(&q, &WaInput::Write(0, 1));
        let q = a.transition(&q, &WaInput::Write(2, 9));
        assert_eq!(
            a.output(&q, &WaOutput_read(0)),
            WaOutput::Window(vec![0, 1])
        );
        assert_eq!(
            a.output(&q, &WaOutput_read(1)),
            WaOutput::Window(vec![0, 0])
        );
        assert_eq!(
            a.output(&q, &WaOutput_read(2)),
            WaOutput::Window(vec![0, 9])
        );
    }

    #[allow(non_snake_case)]
    fn WaOutput_read(x: usize) -> WaInput {
        WaInput::Read(x)
    }

    #[test]
    fn array_addresses_wrap_to_stay_total() {
        let a = WindowArray::new(2, 1);
        let q = a.transition(&a.initial(), &WaInput::Write(5, 3)); // 5 mod 2 = 1
        assert_eq!(a.output(&q, &WaInput::Read(1)), WaOutput::Window(vec![3]));
    }

    #[test]
    fn array_classification() {
        let a = WindowArray::new(2, 2);
        assert_eq!(a.kind(&WaInput::Write(0, 1)), OpKind::PureUpdate);
        assert_eq!(a.kind(&WaInput::Read(0)), OpKind::PureQuery);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::adt::AdtExt;
    use proptest::prelude::*;

    fn arb_inputs(max_len: usize) -> impl Strategy<Value = Vec<WInput>> {
        prop::collection::vec(
            prop_oneof![(0u64..50).prop_map(WInput::Write), Just(WInput::Read),],
            0..max_len,
        )
    }

    proptest! {
        /// The window always contains the last k written values, oldest
        /// first, padded with the default value.
        #[test]
        fn window_matches_last_k_writes(k in 0usize..6, inputs in arb_inputs(40)) {
            let w = WindowStream::new(k);
            let q = w.fold_inputs(inputs.iter());
            let writes: Vec<u64> = inputs.iter().filter_map(|i| match i {
                WInput::Write(v) => Some(*v),
                WInput::Read => None,
            }).collect();
            let mut expect = vec![crate::DEFAULT_VALUE; k];
            for (slot, v) in expect.iter_mut().rev().zip(writes.iter().rev()) {
                *slot = *v;
            }
            prop_assert_eq!(q, expect);
        }

        /// Declared classification agrees with semantics on sampled states:
        /// reads never change the state, writes never depend on it for output.
        #[test]
        fn declared_kinds_are_semantically_sound(k in 1usize..5, inputs in arb_inputs(20), v in 0u64..50) {
            let w = WindowStream::new(k);
            let q = w.fold_inputs(inputs.iter());
            // pure query: δ loops
            prop_assert_eq!(w.transition(&q, &WInput::Read), q.clone());
            // pure update: λ constant
            prop_assert_eq!(w.output(&q, &WInput::Write(v)), WOutput::Ack);
        }

        /// Determinism: same input word ⇒ same state (replay stability,
        /// required by the checker memoisation).
        #[test]
        fn deterministic_replay(k in 0usize..5, inputs in arb_inputs(30)) {
            let w = WindowStream::new(k);
            let a = w.fold_inputs(inputs.iter());
            let b = w.fold_inputs(inputs.iter());
            prop_assert_eq!(a, b);
        }
    }
}
