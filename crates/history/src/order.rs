//! Strict partial orders over event arenas, as reachability bitsets.
//!
//! A [`Relation`] stores, for each event, the bitset of its **strict
//! predecessors** (its "past row"). This makes the operations the
//! checkers need — containment, transitive closure, linear-extension
//! enumeration, downset queries — word-parallel.
//!
//! On finite histories a *causal order* (Definition 7) is simply a
//! partial order that contains the program order: the cofiniteness
//! requirement (`{e' : e ↛ e'}` finite for all `e`) is vacuous when `E`
//! is finite, so checkers only verify acyclicity and containment. The
//! paper's three reasons for cofiniteness (§3.1) all concern infinite
//! histories.

use crate::bitset::BitSet;
use crate::event::EventId;

/// A strict partial order (or, transiently, an arbitrary DAG relation)
/// over events `0..n`, stored as per-event predecessor bitsets.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Relation {
    /// `past[e]` = strict predecessors of `e`.
    past: Vec<BitSet>,
}

impl Relation {
    /// The empty relation over `n` events.
    pub fn empty(n: usize) -> Self {
        Relation {
            past: vec![BitSet::new(n); n],
        }
    }

    /// Build from a set of edges `(a, b)` meaning `a < b`, then close
    /// transitively. Returns `None` if the result has a cycle.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Option<Self> {
        let mut r = Relation::empty(n);
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range {n}");
            r.past[b].insert(a);
        }
        r.close_transitive();
        r.is_acyclic().then_some(r)
    }

    /// The delivered-before order of a replicated run over `n` events:
    /// `f < e` for every own event `e` of a replica and every `f` that
    /// replica applied before it. `apply_orders[p]` is replica `p`'s
    /// apply order, `own[p]` the events it invoked. Returns `None` if
    /// the result has a cycle.
    ///
    /// It lists one edge per (applied-before, own) pair and closes them,
    /// so it assumes nothing of the apply orders. The witness path
    /// (`cbm_check::verify::Recording`) does not call it: there every
    /// replica applies all its own events, in issue order, so each past
    /// is a prefix per origin and one frontier pass builds the order.
    /// `cbm_core::cluster` keeps this general form because its runs
    /// break that premise (in the SC baseline a crashed process
    /// abandons a pending op, which then never reaches its own apply
    /// order), and the frontier pass's tests use it as their oracle.
    pub fn delivered_before(
        n: usize,
        apply_orders: &[Vec<EventId>],
        own: &[Vec<EventId>],
    ) -> Option<Self> {
        let mut edges = Vec::new();
        let mut mine = BitSet::new(n);
        for (order, own) in apply_orders.iter().zip(own) {
            mine.clear();
            for e in own {
                mine.insert(e.idx());
            }
            for (i, e) in order.iter().enumerate() {
                if mine.contains(e.idx()) {
                    edges.extend(order[..i].iter().map(|g| (g.idx(), e.idx())));
                }
            }
        }
        Relation::from_edges(n, &edges)
    }

    /// Adopt per-event predecessor rows that are **already transitively
    /// closed and acyclic** (e.g. the causal searchers' witness rows,
    /// closed by construction). Debug builds verify both invariants;
    /// release builds trust the caller and skip the closure pass of
    /// [`Relation::from_edges`].
    pub fn from_closed_rows(past: Vec<BitSet>) -> Self {
        let r = Relation { past };
        debug_assert!(r.is_acyclic(), "from_closed_rows: cyclic rows");
        #[cfg(debug_assertions)]
        {
            let mut closed = r.clone();
            closed.close_transitive();
            debug_assert!(
                closed == r,
                "from_closed_rows: rows are not transitively closed"
            );
        }
        r
    }

    /// Build a total order from a permutation of `0..n` (`order[i]` is
    /// the `i`-th event).
    pub fn total_from_sequence(n: usize, order: &[usize]) -> Self {
        assert_eq!(order.len(), n);
        let mut r = Relation::empty(n);
        let mut seen = BitSet::new(n);
        for &e in order {
            r.past[e] = seen.clone();
            seen.insert(e);
        }
        r
    }

    /// Number of events in the universe.
    pub(crate) fn len(&self) -> usize {
        self.past.len()
    }

    /// Does `a < b` hold?
    #[inline]
    pub fn lt(&self, a: usize, b: usize) -> bool {
        self.past[b].contains(a)
    }

    /// Are `a` and `b` incomparable?
    #[inline]
    pub fn concurrent(&self, a: usize, b: usize) -> bool {
        a != b && !self.lt(a, b) && !self.lt(b, a)
    }

    /// The strict past row of `e`.
    #[inline]
    pub fn past(&self, e: usize) -> &BitSet {
        &self.past[e]
    }

    /// The paper's `⌊e⌋`: the causal past **including `e` itself**
    /// (Definition 7's order is reflexive: Prop. 1's proof takes `e` as
    /// "the maximum of `⌊e⌋`").
    pub fn floor(&self, e: usize) -> BitSet {
        let mut s = self.past[e].clone();
        s.insert(e);
        s
    }

    /// Insert the single pair `a < b` **and restore transitivity**:
    /// every `x ≤ a` becomes `< b` and propagates to everything above `b`.
    pub fn add_pair_closed(&mut self, a: usize, b: usize) {
        let n = self.len();
        let mut delta = self.past[a].clone();
        delta.insert(a);
        // everything ≥ b (b and events whose past contains b) absorbs delta
        self.past[b].union_with(&delta);
        for e in 0..n {
            if self.past[e].contains(b) {
                self.past[e].union_with(&delta);
            }
        }
    }

    /// Transitive closure on bitset rows, in topological sweeps over the
    /// ids: an event whose direct predecessors are all closed is closed
    /// by absorbing their rows. When every edge points from a lower id
    /// to a higher one, as the history builder's chains do, one sweep
    /// closes every row; each edge that points back can cost one more
    /// sweep. It allocates two rows (a scratch row and the closed set),
    /// never one per event. Events on or above a cycle never become
    /// ready; a fixpoint over the rows finishes them, so a cycle still
    /// shows as `e ∈ past[e]`.
    pub fn close_transitive(&mut self) {
        let n = self.len();
        let mut scratch = BitSet::new(n);
        let mut closed = BitSet::new(n);
        let (mut open, mut swept) = (n, true);
        while open > 0 && swept {
            swept = false;
            for e in 0..n {
                if !closed.contains(e) && self.past[e].is_subset(&closed) {
                    self.absorb_predecessors(e, &mut scratch);
                    closed.insert(e);
                    open -= 1;
                    swept = true;
                }
            }
        }
        let mut grew = open > 0;
        while grew {
            grew = false;
            for e in 0..n {
                grew |= self.absorb_predecessors(e, &mut scratch);
            }
        }
    }

    /// `past[e] ∪= past[p]` for every `p ∈ past[e]` other than `e`,
    /// with `scratch` holding the row as it was; returns whether the
    /// row grew.
    fn absorb_predecessors(&mut self, e: usize, scratch: &mut BitSet) -> bool {
        scratch.clear_and_copy_from(&self.past[e]);
        let mut row = std::mem::take(&mut self.past[e]);
        for p in scratch.iter().filter(|&p| p != e) {
            row.union_with(&self.past[p]);
        }
        let grew = row != *scratch;
        self.past[e] = row;
        grew
    }

    /// Strict orders are irreflexive; after closure, a cycle shows up as
    /// `e ∈ past[e]`.
    pub fn is_acyclic(&self) -> bool {
        (0..self.len()).all(|e| !self.past[e].contains(e))
    }

    /// Does `self` contain `other` (as sets of ordered pairs)?
    pub fn contains(&self, other: &Relation) -> bool {
        debug_assert_eq!(self.len(), other.len());
        self.past
            .iter()
            .zip(&other.past)
            .all(|(mine, theirs)| theirs.is_subset(mine))
    }

    /// Union with another relation (then re-close); returns `false` and
    /// leaves `self` unspecified-but-valid if the union has a cycle.
    pub fn union_closed(&mut self, other: &Relation) -> bool {
        for (mine, theirs) in self.past.iter_mut().zip(&other.past) {
            mine.union_with(theirs);
        }
        self.close_transitive();
        self.is_acyclic()
    }

    /// A topological order of the events (stable: ties broken by id).
    /// Requires acyclicity.
    #[allow(clippy::needless_range_loop)] // parallel indexing of indeg/placed
    pub fn topo_order(&self) -> Vec<usize> {
        let n = self.len();
        let mut indeg: Vec<usize> = (0..n).map(|e| self.past[e].count()).collect();
        // counting *all* predecessors, not just covers, still yields a
        // valid Kahn ordering because closure is monotone along the order
        let mut placed = BitSet::new(n);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let mut advanced = false;
            for e in 0..n {
                if !placed.contains(e) && indeg[e] == 0 {
                    placed.insert(e);
                    out.push(e);
                    advanced = true;
                    for f in 0..n {
                        if !placed.contains(f) && self.past[f].contains(e) {
                            indeg[f] -= 1;
                        }
                    }
                }
            }
            assert!(advanced, "topo_order on cyclic relation");
        }
        out
    }

    /// Enumerate all linear extensions, calling `visit` with each
    /// permutation; stops early (returning `false`) once `budget`
    /// permutations were produced or `visit` returns `false`.
    ///
    /// Exponential in general — callers pass a budget (the checkers use
    /// their own memoised search instead; this is for tests and small
    /// figure histories).
    pub fn linear_extensions<F: FnMut(&[usize]) -> bool>(
        &self,
        budget: usize,
        mut visit: F,
    ) -> bool {
        let n = self.len();
        let mut done = BitSet::new(n);
        let mut prefix = Vec::with_capacity(n);
        let mut remaining = budget;
        self.lin_rec(&mut done, &mut prefix, &mut remaining, &mut visit)
    }

    fn lin_rec<F: FnMut(&[usize]) -> bool>(
        &self,
        done: &mut BitSet,
        prefix: &mut Vec<usize>,
        remaining: &mut usize,
        visit: &mut F,
    ) -> bool {
        let n = self.len();
        if prefix.len() == n {
            if *remaining == 0 {
                return false;
            }
            *remaining -= 1;
            return visit(prefix);
        }
        for e in 0..n {
            if !done.contains(e) && self.past[e].is_subset(done) {
                done.insert(e);
                prefix.push(e);
                let keep_going = self.lin_rec(done, prefix, remaining, visit);
                prefix.pop();
                done.remove(e);
                if !keep_going {
                    return false;
                }
            }
        }
        true
    }

    /// Count linear extensions up to `cap`.
    pub fn count_linear_extensions(&self, cap: usize) -> usize {
        let mut count = 0;
        self.linear_extensions(cap, |_| {
            count += 1;
            true
        });
        count
    }

    /// The covering (Hasse) edges: pairs `a < b` with no `c`,
    /// `a < c < b`.
    pub fn cover_edges(&self) -> Vec<(usize, usize)> {
        let n = self.len();
        let mut covers = Vec::new();
        for b in 0..n {
            for a in self.past[b].to_vec() {
                let mut between = self.past[b].clone();
                // c with a < c < b: c ∈ past[b] and a ∈ past[c]
                let has_middle = between.iter().any(|c| c != a && self.past[c].contains(a));
                between.clear();
                if !has_middle {
                    covers.push((a, b));
                }
            }
        }
        covers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 < 1 < 3, 0 < 2 < 3 (diamond)
    fn diamond() -> Relation {
        Relation::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn closure_and_queries() {
        let r = diamond();
        assert!(r.lt(0, 3)); // transitivity
        assert!(!r.lt(1, 1));
        assert!(r.concurrent(1, 2));
        assert!(!r.concurrent(0, 3));
    }

    #[test]
    fn cycles_detected() {
        assert!(Relation::from_edges(2, &[(0, 1), (1, 0)]).is_none());
        assert!(Relation::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).is_none());
    }

    #[test]
    fn floor_includes_self() {
        let r = diamond();
        assert_eq!(r.floor(3).to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(r.floor(0).to_vec(), vec![0]);
    }

    #[test]
    fn add_pair_closed_propagates() {
        let mut r = Relation::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        r.add_pair_closed(1, 2);
        assert!(r.lt(0, 2));
        assert!(r.lt(0, 3));
        assert!(r.lt(1, 3));
        assert!(r.is_acyclic());
    }

    #[test]
    fn total_from_sequence_is_total() {
        let r = Relation::total_from_sequence(3, &[2, 0, 1]);
        assert!(r.lt(2, 0) && r.lt(0, 1) && r.lt(2, 1));
        assert_eq!(r.count_linear_extensions(10), 1);
    }

    #[test]
    fn containment() {
        let chain = Relation::from_edges(4, &[(0, 1), (1, 3)]).unwrap();
        let d = diamond();
        assert!(d.contains(&chain));
        assert!(!chain.contains(&d));
    }

    #[test]
    fn union_closed_detects_cycle() {
        let a = Relation::from_edges(2, &[(0, 1)]).unwrap();
        let b = Relation::from_edges(2, &[(1, 0)]).unwrap();
        let mut u = a.clone();
        assert!(!u.union_closed(&b));
    }

    #[test]
    fn topo_order_respects_order() {
        let r = diamond();
        let topo = r.topo_order();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &e) in topo.iter().enumerate() {
                p[e] = i;
            }
            p
        };
        for b in 0..4 {
            for a in r.past(b).to_vec() {
                assert!(pos[a] < pos[b]);
            }
        }
    }

    #[test]
    fn linear_extension_count_of_diamond() {
        // 0 first, 3 last, 1 and 2 in either order: 2 extensions.
        assert_eq!(diamond().count_linear_extensions(100), 2);
    }

    #[test]
    fn linear_extension_budget_stops_early() {
        let free = Relation::empty(6); // 720 extensions
        assert_eq!(free.count_linear_extensions(100), 100);
    }

    #[test]
    fn empty_relation_extensions_are_permutations() {
        let free = Relation::empty(3);
        let mut seen = std::collections::HashSet::new();
        free.linear_extensions(100, |p| {
            seen.insert(p.to_vec());
            true
        });
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn cover_edges_of_diamond() {
        let mut covers = diamond().cover_edges();
        covers.sort_unstable();
        assert_eq!(covers, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn cover_edges_drop_transitive_pair() {
        let r = Relation::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut covers = r.cover_edges();
        covers.sort_unstable();
        assert_eq!(covers, vec![(0, 1), (1, 2)]);
    }
}
