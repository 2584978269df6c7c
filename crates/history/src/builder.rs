//! Ergonomic construction of histories from sequential processes.

use crate::event::{EventId, Label, ProcId};
use crate::history::History;
use crate::order::Relation;

/// Builder for [`History`] values.
///
/// Events pushed on the same process index are chained in program order
/// automatically, so every built program order is a union of chains.
#[derive(Clone, Debug)]
pub struct HistoryBuilder<I, O> {
    labels: Vec<Label<I, O>>,
    proc_of: Vec<Option<ProcId>>,
    last_of_proc: Vec<Option<usize>>,
    edges: Vec<(usize, usize)>,
}

impl<I: Clone, O: Clone> Default for HistoryBuilder<I, O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: Clone, O: Clone> HistoryBuilder<I, O> {
    /// An empty builder.
    pub fn new() -> Self {
        HistoryBuilder {
            labels: Vec::new(),
            proc_of: Vec::new(),
            last_of_proc: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Append a full operation `input/output` on process `p`.
    pub fn op(&mut self, p: usize, input: I, output: O) -> EventId {
        self.push(p, Label::op(input, output))
    }

    /// Append a hidden operation `input` on process `p`.
    pub fn hidden(&mut self, p: usize, input: I) -> EventId {
        self.push(p, Label::hidden(input))
    }

    /// Append a pre-built label on process `p`.
    pub(crate) fn push(&mut self, p: usize, label: Label<I, O>) -> EventId {
        let id = self.labels.len();
        self.labels.push(label);
        if self.last_of_proc.len() <= p {
            self.last_of_proc.resize(p + 1, None);
        }
        if let Some(prev) = self.last_of_proc[p] {
            self.edges.push((prev, id));
        }
        self.last_of_proc[p] = Some(id);
        self.proc_of.push(Some(ProcId(p as u32)));
        EventId(id as u32)
    }

    /// Append an event not assigned to any process (free point in the
    /// partial order); order it explicitly with [`HistoryBuilder::edge`].
    #[cfg(test)]
    pub(crate) fn free(&mut self, label: Label<I, O>) -> EventId {
        let id = self.labels.len();
        self.labels.push(label);
        self.proc_of.push(None);
        EventId(id as u32)
    }

    /// Add a program-order pair `a ↦ b` across processes.
    #[cfg(test)]
    pub(crate) fn edge(&mut self, a: EventId, b: EventId) {
        self.edges.push((a.idx(), b.idx()));
    }

    /// Finish.
    pub fn build(self) -> History<I, O> {
        let n = self.labels.len();
        let prog = Relation::from_edges(n, &self.edges)
            .expect("program order must be acyclic (Definition 4)");
        let n_procs = self.last_of_proc.len();
        History::from_parts(self.labels, self.proc_of, n_procs, prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_chaining() {
        let mut b: HistoryBuilder<&str, u32> = HistoryBuilder::new();
        let a = b.op(0, "x", 1);
        let c = b.op(0, "y", 2);
        let h = b.build();
        assert!(h.prog_lt(a, c));
    }

    #[test]
    fn processes_are_independent() {
        let mut b: HistoryBuilder<&str, u32> = HistoryBuilder::new();
        let a = b.op(0, "x", 1);
        let c = b.op(3, "y", 2); // sparse process indices allowed
        let h = b.build();
        assert!(!h.prog_lt(a, c) && !h.prog_lt(c, a));
        assert_eq!(h.n_procs(), 4);
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn cyclic_edges_panic() {
        let mut b: HistoryBuilder<&str, u32> = HistoryBuilder::new();
        let a = b.op(0, "x", 1);
        let c = b.op(1, "y", 2);
        b.edge(a, c);
        b.edge(c, a);
        let _ = b.build();
    }

    #[test]
    fn free_events_are_unordered() {
        let mut b: HistoryBuilder<&str, u32> = HistoryBuilder::new();
        let a = b.free(Label::op("x", 1));
        let c = b.free(Label::op("y", 2));
        let h = b.build();
        assert!(h.prog().concurrent(a.idx(), c.idx()));
        assert_eq!(h.proc_of(a), None);
    }

    #[test]
    fn hidden_ops() {
        let mut b: HistoryBuilder<&str, u32> = HistoryBuilder::new();
        let a = b.hidden(0, "w");
        let h = b.build();
        assert!(h.label(a).output.is_none());
    }
}
