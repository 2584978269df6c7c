//! Append-only log: the substrate of the collaborative-editing example
//! (the CCI model of §1 and §3.2 — convergence, causality and intention
//! preservation in cooperative editing, Sun et al.).
//!
//! `append(v)` adds an entry at the end; `read` returns the whole
//! sequence; `len` its length. The order of appends is observable, so
//! weak causal consistency is the interesting guarantee: an answer
//! (appended after reading a question) must never be visible to anyone
//! who has not seen the question.

use crate::adt::{Adt, OpKind};
use crate::Value;

/// Input alphabet of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogInput {
    /// Append an entry (pure update).
    Append(Value),
    /// Read the full sequence (pure query).
    Read,
    /// Read the length (pure query).
    Len,
}

/// Output alphabet of the log.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LogOutput {
    /// `⊥`, returned by appends.
    Ack,
    /// The full sequence, oldest first.
    Entries(Vec<Value>),
    /// The length.
    Count(usize),
}

/// The append-only log ADT.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendLog;

impl Adt for AppendLog {
    type Input = LogInput;
    type Output = LogOutput;
    type State = Vec<Value>;

    fn initial(&self) -> Self::State {
        Vec::new()
    }

    fn transition(&self, q: &Self::State, i: &Self::Input) -> Self::State {
        let mut next = q.clone();
        self.transition_in_place(&mut next, i);
        next
    }

    fn transition_in_place(&self, q: &mut Self::State, i: &Self::Input) {
        if let LogInput::Append(v) = i {
            q.push(*v);
        }
    }

    fn output(&self, q: &Self::State, i: &Self::Input) -> Self::Output {
        match i {
            LogInput::Append(_) => LogOutput::Ack,
            LogInput::Read => LogOutput::Entries(q.clone()),
            LogInput::Len => LogOutput::Count(q.len()),
        }
    }

    fn kind(&self, i: &Self::Input) -> OpKind {
        match i {
            LogInput::Append(_) => OpKind::PureUpdate,
            LogInput::Read | LogInput::Len => OpKind::PureQuery,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdtExt;

    #[test]
    fn appends_preserve_order() {
        let l = AppendLog;
        let q = l.fold_inputs([LogInput::Append(1), LogInput::Append(2)].iter());
        assert_eq!(
            l.output(&q, &LogInput::Read),
            LogOutput::Entries(vec![1, 2])
        );
        assert_eq!(l.output(&q, &LogInput::Len), LogOutput::Count(2));
    }

    #[test]
    fn reads_are_pure() {
        let l = AppendLog;
        let q = l.fold_inputs([LogInput::Append(1)].iter());
        assert_eq!(l.transition(&q, &LogInput::Read), q);
        assert_eq!(l.transition(&q, &LogInput::Len), q);
    }

    #[test]
    fn classification() {
        let l = AppendLog;
        assert_eq!(l.kind(&LogInput::Append(0)), OpKind::PureUpdate);
        assert_eq!(l.kind(&LogInput::Read), OpKind::PureQuery);
        assert_eq!(l.kind(&LogInput::Len), OpKind::PureQuery);
    }
}
