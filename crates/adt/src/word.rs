//! Sequential specifications `L(T)` (Definition 2): words over
//! `Σ = (Σi × Σo) ∪ Σi` and their membership test.
//!
//! A finite word `u` is an admissible *sequential history* for `T` when
//! it labels a run of the transducer from `q0`, where each symbol is
//! either a full operation `σi/σo` (the output must match `λ`) or a
//! *hidden operation* `σi` (only the side effect `δ` is taken; the output
//! is unconstrained). `L(T)` is prefix-closed by construction, and every
//! finite admissible word extends to an infinite one because `δ` and `λ`
//! are total — so the finite membership test below is faithful to the
//! paper's definition via infinite sequences.

use crate::adt::Adt;

/// A symbol of `Σ = (Σi × Σo) ∪ Σi`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Sym<I, O> {
    /// A full operation `σi/σo`.
    Op(I, O),
    /// A hidden operation `σi` (side effect only; output unconstrained).
    Hidden(I),
}

/// Does `word ∈ L(T)`? (Definition 2, finite-word membership.)
pub fn accepts<T: Adt>(adt: &T, word: &[Sym<T::Input, T::Output>]) -> bool {
    longest_accepted_prefix(adt, word) == word.len()
}

/// Length of the longest prefix of `word` that belongs to `L(T)`.
///
/// Because `L(T)` is prefix-closed this is well defined; `word` is
/// accepted iff the result equals `word.len()`.
fn longest_accepted_prefix<T: Adt>(adt: &T, word: &[Sym<T::Input, T::Output>]) -> usize {
    let mut q = adt.initial();
    for (k, sym) in word.iter().enumerate() {
        match sym {
            Sym::Op(i, o) => {
                if adt.output(&q, i) != *o {
                    return k;
                }
                q = adt.transition(&q, i);
            }
            Sym::Hidden(i) => {
                q = adt.transition(&q, i);
            }
        }
    }
    word.len()
}

/// Run a sequence of raw inputs from `q0`, returning the final state and
/// the outputs `λ` produced along the way (the unique full word of
/// `L(T)` with these inputs, by determinism).
#[cfg(test)]
pub(crate) fn run_inputs<T: Adt>(adt: &T, inputs: &[T::Input]) -> (T::State, Vec<T::Output>) {
    let mut q = adt.initial();
    let mut outs = Vec::with_capacity(inputs.len());
    for i in inputs {
        outs.push(adt.output(&q, i));
        q = adt.transition(&q, i);
    }
    (q, outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{WInput, WOutput, WindowStream};

    fn w(v: u64) -> Sym<WInput, WOutput> {
        Sym::Op(WInput::Write(v), WOutput::Ack)
    }
    fn r(vals: &[u64]) -> Sym<WInput, WOutput> {
        Sym::Op(WInput::Read, WOutput::Window(vals.to_vec()))
    }

    #[test]
    fn accepts_paper_fig3d_word() {
        // w(1)/⊥ . r/(0,1) . w(2)/⊥ . r/(1,2) ∈ L(W2)  (§3.1, Fig. 3d)
        let adt = WindowStream::new(2);
        let word = vec![w(1), r(&[0, 1]), w(2), r(&[1, 2])];
        assert!(accepts(&adt, &word));
    }

    #[test]
    fn rejects_wrong_read() {
        let adt = WindowStream::new(2);
        let word = vec![w(1), r(&[1, 0])];
        assert!(!accepts(&adt, &word));
        assert_eq!(longest_accepted_prefix(&adt, &word), 1);
    }

    #[test]
    fn hidden_operations_skip_output_check() {
        // w(1).r.w(2).r/(2,1) ∉ L(W2): the visible read sees (1,2).
        let adt = WindowStream::new(2);
        let bad = vec![
            Sym::Hidden(WInput::Write(1)),
            Sym::Hidden(WInput::Read),
            Sym::Hidden(WInput::Write(2)),
            r(&[2, 1]),
        ];
        assert!(!accepts(&adt, &bad));
        // ... but with the matching output it is accepted.
        let good = vec![
            Sym::Hidden(WInput::Write(1)),
            Sym::Hidden(WInput::Read),
            Sym::Hidden(WInput::Write(2)),
            r(&[1, 2]),
        ];
        assert!(accepts(&adt, &good));
    }

    #[test]
    fn hidden_read_is_unconstrained_but_keeps_effect() {
        // A hidden read is a pure query: hiding it changes nothing.
        let adt = WindowStream::new(2);
        let word = vec![w(7), Sym::Hidden(WInput::Read), r(&[0, 7])];
        assert!(accepts(&adt, &word));
    }

    #[test]
    fn prefix_closure() {
        let adt = WindowStream::new(3);
        let word = vec![w(1), w(2), r(&[1, 2, 0])];
        // wrong read value
        assert!(!accepts(&adt, &word));
        // the accepted prefix is exactly the two writes
        assert_eq!(longest_accepted_prefix(&adt, &word), 2);
    }

    #[test]
    fn run_inputs_produces_unique_full_word() {
        let adt = WindowStream::new(2);
        let inputs = vec![
            WInput::Write(1),
            WInput::Read,
            WInput::Write(2),
            WInput::Read,
        ];
        let (q, outs) = run_inputs(&adt, &inputs);
        assert_eq!(q, vec![1, 2]);
        assert_eq!(
            outs,
            vec![
                WOutput::Ack,
                WOutput::Window(vec![0, 1]),
                WOutput::Ack,
                WOutput::Window(vec![1, 2]),
            ]
        );
    }

    #[test]
    fn empty_word_always_accepted() {
        let adt = WindowStream::new(2);
        assert!(accepts(&adt, &[]));
    }
}
