//! Events and labels.

use std::fmt;

/// Identifier of an event within a [`crate::History`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u32);

impl EventId {
    /// The arena index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Identifier of a sequential process (a maximal chain in the common
/// disjoint-chains case).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

impl ProcId {
    /// The process index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A label `Λ(e) ∈ Σ = (Σi × Σo) ∪ Σi`.
///
/// `output = Some(σo)` is a full operation `σi/σo`; `output = None` is a
/// hidden operation `σi` whose return value is unconstrained
/// (Definition 2). Recorded executions always carry full labels; hidden
/// labels arise from projections and from workloads that model
/// fire-and-forget updates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Label<I, O> {
    /// The input symbol `σi` (the method and its arguments).
    pub input: I,
    /// The output symbol `σo`, or `None` when hidden.
    pub output: Option<O>,
}

impl<I, O> Label<I, O> {
    /// A full operation `σi/σo`.
    pub(crate) fn op(input: I, output: O) -> Self {
        Label {
            input,
            output: Some(output),
        }
    }

    /// A hidden operation `σi`.
    pub(crate) fn hidden(input: I) -> Self {
        Label {
            input,
            output: None,
        }
    }

    /// Hide the output (projection outside `E″`).
    pub(crate) fn hide(self) -> Self {
        Label {
            input: self.input,
            output: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_constructors() {
        let l: Label<&str, u32> = Label::op("r", 7);
        assert!(l.output.is_some());
        let h = l.clone().hide();
        assert!(h.output.is_none());
        assert_eq!(h.input, "r");
        let g: Label<&str, u32> = Label::hidden("w");
        assert_eq!(g.output, None);
    }

    #[test]
    fn ids_display() {
        assert_eq!(EventId(3).to_string(), "e3");
        assert_eq!(ProcId(1).to_string(), "p1");
        assert_eq!(EventId(7).idx(), 7);
    }
}
