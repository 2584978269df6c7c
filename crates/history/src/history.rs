//! The [`History`] arena: Definition 4 made concrete.

use crate::bitset::BitSet;
use crate::event::{EventId, Label, ProcId};
use crate::order::Relation;

/// A finite distributed history `H = (Σ, E, Λ, ↦)` (Definition 4).
///
/// Events live in an arena indexed by [`EventId`]; the program order `↦`
/// is stored transitively closed as a [`Relation`]. Histories built from
/// sequential processes (the common case, via
/// [`crate::HistoryBuilder`]) also carry a process assignment, but the
/// model is the paper's general one: the program order may be any
/// partial order (forks/joins, orchestrations), and *processes* are
/// recovered as the maximal chains `P_H`.
#[derive(Clone, Debug)]
pub struct History<I, O> {
    labels: Vec<Label<I, O>>,
    proc_of: Vec<Option<ProcId>>,
    n_procs: usize,
    prog: Relation,
}

impl<I: Clone, O: Clone> History<I, O> {
    /// Assemble a history from parts (used by the builder; `prog` must
    /// already be transitively closed and acyclic).
    pub(crate) fn from_parts(
        labels: Vec<Label<I, O>>,
        proc_of: Vec<Option<ProcId>>,
        n_procs: usize,
        prog: Relation,
    ) -> Self {
        debug_assert_eq!(labels.len(), prog.len());
        debug_assert!(prog.is_acyclic());
        History {
            labels,
            proc_of,
            n_procs,
            prog,
        }
    }

    /// Number of events `|E|`.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Is the history empty?
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// All event ids.
    pub fn events(&self) -> impl Iterator<Item = EventId> {
        (0..self.labels.len() as u32).map(EventId)
    }

    /// The label `Λ(e)`.
    pub fn label(&self, e: EventId) -> &Label<I, O> {
        &self.labels[e.idx()]
    }

    /// All labels, arena-ordered.
    pub fn labels(&self) -> &[Label<I, O>] {
        &self.labels
    }

    /// The (strict, transitively closed) program order `↦`.
    pub fn prog(&self) -> &Relation {
        &self.prog
    }

    /// `a ↦ b` (strictly)?
    pub fn prog_lt(&self, a: EventId, b: EventId) -> bool {
        self.prog.lt(a.idx(), b.idx())
    }

    /// The strict program past of `e` as a bitset.
    pub fn prog_past(&self, e: EventId) -> &BitSet {
        self.prog.past(e.idx())
    }

    /// The process that invoked `e`, when the history was built from
    /// sequential processes.
    pub fn proc_of(&self, e: EventId) -> Option<ProcId> {
        self.proc_of[e.idx()]
    }

    /// Number of declared processes (0 for hand-rolled partial orders).
    pub fn n_procs(&self) -> usize {
        self.n_procs
    }

    /// Events of a declared process, in program order.
    pub fn process_events(&self, p: ProcId) -> Vec<EventId> {
        let mut evs: Vec<EventId> = self
            .events()
            .filter(|e| self.proc_of[e.idx()] == Some(p))
            .collect();
        // within one process the program order is total: sort by it
        evs.sort_by(|a, b| {
            if self.prog_lt(*a, *b) {
                std::cmp::Ordering::Less
            } else if self.prog_lt(*b, *a) {
                std::cmp::Ordering::Greater
            } else {
                a.cmp(b)
            }
        });
        evs
    }

    /// The maximal chains `P_H` (the paper's generalized "processes"),
    /// as event-id sequences ordered along the chain.
    ///
    /// These are the maximal paths of the Hasse diagram. Enumeration is
    /// capped at `cap` chains (exponential in pathological orders; exact
    /// for the disjoint-union-of-chains histories that sequential
    /// processes produce, where it returns exactly the processes).
    pub fn maximal_chains(&self, cap: usize) -> Vec<Vec<EventId>> {
        let n = self.len();
        let covers = self.prog.cover_edges();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut has_pred = vec![false; n];
        for &(a, b) in &covers {
            succ[a].push(b);
            has_pred[b] = true;
        }
        let mut chains = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        for (start, _) in has_pred.iter().enumerate().filter(|(_, hp)| !**hp) {
            self.chains_dfs(start, &succ, &mut stack, &mut chains, cap);
            if chains.len() >= cap {
                break;
            }
        }
        chains
    }

    fn chains_dfs(
        &self,
        v: usize,
        succ: &[Vec<usize>],
        stack: &mut Vec<usize>,
        chains: &mut Vec<Vec<EventId>>,
        cap: usize,
    ) {
        if chains.len() >= cap {
            return;
        }
        stack.push(v);
        if succ[v].is_empty() {
            chains.push(stack.iter().map(|&i| EventId(i as u32)).collect());
        } else {
            for &w in &succ[v] {
                self.chains_dfs(w, succ, stack, chains, cap);
                if chains.len() >= cap {
                    break;
                }
            }
        }
        stack.pop();
    }

    /// Enumerate linearizations `lin(H)` (capped); see
    /// [`Relation::linear_extensions`] for the budget contract.
    pub fn linearizations(&self, cap: usize) -> Vec<Vec<EventId>> {
        let mut out = Vec::new();
        self.prog.linear_extensions(cap, |perm| {
            out.push(perm.iter().map(|&i| EventId(i as u32)).collect());
            true
        });
        out
    }

    /// The projection `H.π(E′, E″)` (§2.2): keep only the events of
    /// `keep`, and hide the outputs of events outside `visible`.
    ///
    /// Returns the projected history plus the map from new ids to
    /// original ids (new id `i` is `mapping[i]`).
    pub fn project(&self, keep: &BitSet, visible: &BitSet) -> (History<I, O>, Vec<EventId>) {
        let mapping: Vec<EventId> = keep.iter().map(|i| EventId(i as u32)).collect();
        let mut new_idx = vec![usize::MAX; self.len()];
        for (ni, e) in mapping.iter().enumerate() {
            new_idx[e.idx()] = ni;
        }
        let labels: Vec<Label<I, O>> = mapping
            .iter()
            .map(|e| {
                let l = self.labels[e.idx()].clone();
                if visible.contains(e.idx()) {
                    l
                } else {
                    l.hide()
                }
            })
            .collect();
        let proc_of: Vec<Option<ProcId>> = mapping.iter().map(|e| self.proc_of[e.idx()]).collect();
        let m = mapping.len();
        let mut edges = Vec::new();
        for (ni, e) in mapping.iter().enumerate() {
            for p in self.prog.past(e.idx()).to_vec() {
                if keep.contains(p) {
                    edges.push((new_idx[p], ni));
                }
            }
        }
        let prog = Relation::from_edges(m, &edges).expect("projection preserves acyclicity");
        (
            History::from_parts(labels, proc_of, self.n_procs, prog),
            mapping,
        )
    }

    /// Turn an event sequence into a word over `Σ`, hiding the outputs
    /// of events outside `visible` — the bridge to
    /// [`cbm_adt::accepts`](https://docs.rs/cbm-adt)-style membership.
    pub fn word(&self, seq: &[EventId], visible: &BitSet) -> Vec<(I, Option<O>)> {
        seq.iter()
            .map(|e| {
                let l = &self.labels[e.idx()];
                let out = if visible.contains(e.idx()) {
                    l.output.clone()
                } else {
                    None
                };
                (l.input.clone(), out)
            })
            .collect()
    }

    /// Bitset of every event (`E_H`).
    pub fn all_set(&self) -> BitSet {
        BitSet::full(self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HistoryBuilder;

    type H = History<&'static str, u32>;

    fn two_proc() -> H {
        // p0: a0 -> a1 ; p1: b0 -> b1
        let mut b = HistoryBuilder::new();
        b.op(0, "w1", 0);
        b.op(0, "r", 1);
        b.op(1, "w2", 0);
        b.op(1, "r", 2);
        b.build()
    }

    #[test]
    fn program_order_within_process() {
        let h = two_proc();
        assert!(h.prog_lt(EventId(0), EventId(1)));
        assert!(h.prog_lt(EventId(2), EventId(3)));
        assert!(!h.prog_lt(EventId(0), EventId(2)));
        assert!(h.prog().concurrent(1, 2));
    }

    #[test]
    fn process_events_ordered() {
        let h = two_proc();
        assert_eq!(h.process_events(ProcId(0)), vec![EventId(0), EventId(1)]);
        assert_eq!(h.process_events(ProcId(1)), vec![EventId(2), EventId(3)]);
        assert_eq!(h.n_procs(), 2);
    }

    #[test]
    fn maximal_chains_of_disjoint_processes_are_processes() {
        let h = two_proc();
        let mut chains = h.maximal_chains(100);
        chains.sort();
        assert_eq!(
            chains,
            vec![vec![EventId(0), EventId(1)], vec![EventId(2), EventId(3)],]
        );
    }

    #[test]
    fn maximal_chains_with_fork_join() {
        // 0 -> 1 -> 3 and 0 -> 2 -> 3 (fork at 0, join at 3)
        let mut b = HistoryBuilder::new();
        let e0 = b.op(0, "a", 0);
        let e1 = b.op(0, "b", 0);
        let e2 = b.op(1, "c", 0);
        let e3 = b.op(1, "d", 0);
        b.edge(e0, e2);
        b.edge(e1, e3);
        let h = b.build();
        let chains = h.maximal_chains(100);
        // chains: [0,1,3] and [0,2,3]
        assert_eq!(chains.len(), 2);
        for c in &chains {
            assert_eq!(c.first(), Some(&e0));
            assert_eq!(c.last(), Some(&e3));
            assert_eq!(c.len(), 3);
        }
        assert_ne!(chains[0], chains[1]);
    }

    #[test]
    fn linearization_check() {
        let h = two_proc();
        let good = vec![EventId(0), EventId(2), EventId(1), EventId(3)];
        let bad = vec![EventId(1), EventId(0), EventId(2), EventId(3)];
        let dup = vec![EventId(0), EventId(0), EventId(2), EventId(3)];
        let all = h.linearizations(100);
        assert!(all.contains(&good));
        assert!(!all.contains(&bad));
        assert!(!all.contains(&dup));
        assert!(!all.contains(&good[..3].to_vec()));
    }

    #[test]
    fn linearization_count() {
        // two chains of 2: C(4,2) = 6 interleavings
        let h = two_proc();
        assert_eq!(h.linearizations(100).len(), 6);
    }

    #[test]
    fn projection_keeps_and_hides() {
        let h = two_proc();
        let mut keep = BitSet::new(4);
        keep.insert(0);
        keep.insert(1);
        keep.insert(2);
        let mut visible = BitSet::new(4);
        visible.insert(1);
        let (ph, map) = h.project(&keep, &visible);
        assert_eq!(ph.len(), 3);
        assert_eq!(map, vec![EventId(0), EventId(1), EventId(2)]);
        assert!(ph.label(EventId(0)).output.is_none());
        assert!(ph.label(EventId(1)).output.is_some());
        assert!(ph.label(EventId(2)).output.is_none());
        // program order survives the projection
        assert!(ph.prog_lt(EventId(0), EventId(1)));
    }

    #[test]
    fn word_extraction() {
        let h = two_proc();
        let mut visible = BitSet::new(4);
        visible.insert(3);
        let w = h.word(&[EventId(2), EventId(3)], &visible);
        assert_eq!(w, vec![("w2", None), ("r", Some(2))]);
    }

    #[test]
    fn proc_set_and_all_set() {
        let h = two_proc();
        let p1: Vec<usize> = h
            .all_set()
            .iter()
            .filter(|&e| h.proc_of(EventId(e as u32)) == Some(ProcId(1)))
            .collect();
        assert_eq!(p1, vec![2, 3]);
        assert_eq!(h.all_set().count(), 4);
    }
}
