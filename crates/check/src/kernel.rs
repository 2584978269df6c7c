//! The memoised linearization-search kernel.
//!
//! Every criterion in this crate reduces to questions of the form:
//! *does some linearization of a given event set, respecting a given
//! partial order, with a given subset of outputs visible, belong to
//! `L(T)`?* This module answers that question once, with a frontier DFS
//! over the downsets of the order, memoised on `(downset, ADT state)`
//! pairs (two branches reaching the same set of applied events in the
//! same abstract state have identical futures, because `δ`/`λ` only
//! depend on the state).
//!
//! Two soundness-preserving reductions keep the search small:
//!
//! 1. Events whose output is *unconstrained* (hidden in the history, or
//!    outside the visible set) and whose input is not an update are
//!    dropped from the search entirely: they impose no semantic
//!    constraint, and because the order rows are transitively closed,
//!    any linearization of the reduced set extends to one of the full
//!    set.
//! 2. The order is consulted only between retained events (again sound
//!    thanks to transitive closure).
//!
//! ## Allocation discipline
//!
//! The DFS is **mutate-and-undo**: a single `done` set is updated in
//! place around each recursive call, the ready frontier (retained
//! events whose retained predecessors are all done) is maintained
//! incrementally via per-event missing-predecessor counters over a
//! precomputed successor CSR, and the memo stores seeded 64-bit hashes
//! — the done-set part Zobrist-maintained, the ADT-state part hashed
//! once per node — instead of owned `(BitSet, State)` keys. The
//! steady-state path allocates nothing beyond what `δ` itself clones;
//! only query setup (reduction, CSR) touches the allocator. The u64
//! memo admits a ~`nodes²/2⁶⁴` collision probability (a collision can
//! prune a live branch); `tests/kernel_ref` retains the exact
//! owned-key search as the differential oracle of `tests/kernel_diff.rs`.

use cbm_adt::{Adt, OpKind};
use cbm_history::{mix64, BitSet, MixHasher, U64Set};
use std::hash::{Hash, Hasher};

/// Search verdict of a single kernel query or of a full criterion check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A witness linearization exists (event indices, in order).
    Sat(Vec<usize>),
    /// No linearization exists.
    Unsat,
    /// The node budget was exhausted before the search completed.
    Unknown,
}

/// Access to per-event strict-predecessor sets (transitively closed).
///
/// Implemented by `Relation` references and by the causal-search's
/// in-progress past arrays.
pub trait Pasts {
    /// The (closed) strict predecessor set of `e`.
    fn past_of(&self, e: usize) -> &BitSet;
}

impl Pasts for cbm_history::Relation {
    fn past_of(&self, e: usize) -> &BitSet {
        self.past(e)
    }
}

impl Pasts for [BitSet] {
    fn past_of(&self, e: usize) -> &BitSet {
        &self[e]
    }
}

/// One linearization query. `labels[e] = (input, output)` with `output
/// = None` when the history itself hides it. An event's output is
/// *checked* iff it is in `visible` **and** its label carries an output.
pub struct LinQuery<'a, T: Adt, P: Pasts + ?Sized> {
    /// The ADT `T`.
    pub adt: &'a T,
    /// Arena labels (the full history's).
    pub labels: &'a [(T::Input, Option<T::Output>)],
    /// Transitively-closed order to respect.
    pub pasts: &'a P,
    /// Events to linearize.
    pub include: &'a BitSet,
    /// Events whose outputs must match `λ`.
    pub visible: &'a BitSet,
}

impl<'a, T: Adt, P: Pasts + ?Sized> LinQuery<'a, T, P> {
    /// Compute the retained event set (reduction 1): constrained
    /// outputs and updates, restricted to `include`.
    pub fn effective_set(&self) -> BitSet {
        let n = self.labels.len();
        let mut eff = BitSet::new(n);
        for e in self.include.iter() {
            let (input, out) = &self.labels[e];
            let constrained = self.visible.contains(e) && out.is_some();
            if constrained || self.adt.is_update(input) {
                eff.insert(e);
            }
        }
        eff
    }

    /// Deterministic replay: linearize `include` in exactly the order
    /// given by `sequence` (filtered to `include`), checking visible
    /// outputs. Much cheaper than `run`.
    #[cfg(test)]
    pub(crate) fn replay(&self, sequence: &[usize]) -> bool {
        let mut state = self.adt.initial();
        let mut applied = 0usize;
        for &e in sequence {
            if !self.include.contains(e) {
                continue;
            }
            applied += 1;
            let (input, out) = &self.labels[e];
            if self.visible.contains(e) {
                if let Some(expected) = out {
                    if !self.adt.output_matches(&state, input, expected) {
                        return false;
                    }
                }
            }
            state = self.adt.transition(&state, input);
        }
        applied == self.include.count()
    }

    /// Run the search. `nodes` is decremented per explored node; on
    /// reaching zero the query gives up with [`Outcome::Unknown`].
    pub fn run(&self, nodes: &mut u64) -> Outcome {
        let mut scratch = KernelScratch::default();
        self.run_with(&mut scratch, nodes)
    }

    /// [`LinQuery::run`] with caller-owned scratch buffers. Callers
    /// issuing many queries over the same arena (the causal searchers)
    /// reuse one [`KernelScratch`] so per-query setup stops touching
    /// the allocator after the first call.
    pub(crate) fn run_with(&self, scratch: &mut KernelScratch, nodes: &mut u64) -> Outcome {
        let eff = self.effective_set();
        let mut search = Dfs::new(self, eff, scratch);
        let state = self.adt.initial();
        match search.dfs(&state, nodes) {
            DfsResult::Found => Outcome::Sat(search.s.seq.clone()),
            DfsResult::Exhausted => Outcome::Unsat,
            DfsResult::OutOfBudget => Outcome::Unknown,
        }
    }

    /// Decide satisfiability without materializing the witness
    /// sequence — the checkers that only need yes/no (PC, the causal
    /// searchers' per-event conditions) use this to skip the final
    /// `Vec` clone of [`LinQuery::run_with`].
    pub(crate) fn decide_with(&self, scratch: &mut KernelScratch, nodes: &mut u64) -> Outcome {
        let eff = self.effective_set();
        let mut search = Dfs::new(self, eff, scratch);
        let state = self.adt.initial();
        match search.dfs(&state, nodes) {
            DfsResult::Found => Outcome::Sat(Vec::new()),
            DfsResult::Exhausted => Outcome::Unsat,
            DfsResult::OutOfBudget => Outcome::Unknown,
        }
    }
}

enum DfsResult {
    Found,
    Exhausted,
    OutOfBudget,
}

/// Seed for the per-event Zobrist keys of the done-set hash.
const ZOBRIST_SEED: u64 = 0xC0FF_EE00_5EED_0001;

/// Reusable buffers for [`LinQuery::run_with`]. One search's working
/// state: the done/ready sets, the successor CSR with
/// missing-predecessor counters, the shared candidate stack, the
/// witness sequence, and the memo. Reusing one of these across many
/// queries keeps the per-query setup allocation-free once the buffers
/// have grown to the arena size.
#[derive(Default)]
pub(crate) struct KernelScratch {
    done: BitSet,
    ready: BitSet,
    /// CSR of retained successor lists: for retained `p`,
    /// `succ_dat[succ_off[p]..succ_off[p+1]]` are the retained events
    /// whose past contains `p`.
    succ_off: Vec<u32>,
    succ_dat: Vec<u32>,
    /// Per-event count of retained predecessors not yet done.
    missing: Vec<u32>,
    /// Shared candidate stack: each dfs level snapshots its ready set
    /// into a `[mark..]` suffix and truncates on exit, so no per-node
    /// vector is allocated.
    cand: Vec<u32>,
    /// The linearization being built (the eventual witness).
    seq: Vec<usize>,
    /// Seeded-hash memo over `(done, state)`.
    memo: U64Set,
}

/// Mutable search state for one [`LinQuery::run_with`]. All buffer
/// growth happens in [`Dfs::new`]; the recursion itself only mutates
/// in place and undoes on the way back up.
struct Dfs<'q, 'a, 's, T: Adt, P: Pasts + ?Sized> {
    q: &'q LinQuery<'a, T, P>,
    s: &'s mut KernelScratch,
    /// Cardinality of the retained event set (reduction 1).
    eff_count: usize,
    done_count: usize,
    /// Zobrist hash of `done`, maintained incrementally.
    done_hash: u64,
}

impl<'q, 'a, 's, T: Adt, P: Pasts + ?Sized> Dfs<'q, 'a, 's, T, P> {
    fn new(q: &'q LinQuery<'a, T, P>, eff: BitSet, s: &'s mut KernelScratch) -> Self {
        let n = q.labels.len();
        let eff_count = eff.count();
        // Build the retained-successor CSR and missing-pred counters.
        s.missing.clear();
        s.missing.resize(n, 0);
        s.succ_off.clear();
        s.succ_off.resize(n + 1, 0);
        for e in eff.iter() {
            for p in q.pasts.past_of(e).iter() {
                if eff.contains(p) {
                    s.succ_off[p + 1] += 1;
                    s.missing[e] += 1;
                }
            }
        }
        for i in 0..n {
            s.succ_off[i + 1] += s.succ_off[i];
        }
        let total = s.succ_off[n] as usize;
        s.succ_dat.clear();
        s.succ_dat.resize(total, 0);
        // second pass: fill, using missing-of-p? no — use a cursor over
        // succ_off copies kept in cand (repurposed as temporary space)
        s.cand.clear();
        s.cand.extend_from_slice(&s.succ_off[..n]);
        for e in eff.iter() {
            for p in q.pasts.past_of(e).iter() {
                if eff.contains(p) {
                    s.succ_dat[s.cand[p] as usize] = e as u32;
                    s.cand[p] += 1;
                }
            }
        }
        s.cand.clear();
        if s.ready.capacity() == n {
            s.ready.clear();
            s.done.clear();
        } else {
            s.ready = BitSet::new(n);
            s.done = BitSet::new(n);
        }
        for e in eff.iter() {
            if s.missing[e] == 0 {
                s.ready.insert(e);
            }
        }
        s.seq.clear();
        s.memo.clear();
        Dfs {
            q,
            s,
            eff_count,
            done_count: 0,
            done_hash: 0,
        }
    }

    #[inline]
    fn zobrist(e: usize) -> u64 {
        mix64(ZOBRIST_SEED ^ e as u64)
    }

    /// Memo key of the current `(done, state)` pair.
    #[inline]
    fn node_key(&self, state: &T::State) -> u64 {
        let mut h = MixHasher::default();
        state.hash(&mut h);
        mix64(self.done_hash ^ h.finish().rotate_left(32))
    }

    /// Linearize `e`: update done set, hash, frontier, and witness.
    fn place(&mut self, e: usize) {
        let s = &mut *self.s;
        s.done.insert(e);
        self.done_count += 1;
        self.done_hash ^= Self::zobrist(e);
        s.ready.remove(e);
        s.seq.push(e);
        let (lo, hi) = (s.succ_off[e] as usize, s.succ_off[e + 1] as usize);
        for i in lo..hi {
            let f = s.succ_dat[i] as usize;
            s.missing[f] -= 1;
            if s.missing[f] == 0 && !s.done.contains(f) {
                s.ready.insert(f);
            }
        }
    }

    /// Exact inverse of [`Dfs::place`].
    fn unplace(&mut self, e: usize) {
        let s = &mut *self.s;
        let (lo, hi) = (s.succ_off[e] as usize, s.succ_off[e + 1] as usize);
        for i in lo..hi {
            let f = s.succ_dat[i] as usize;
            if s.missing[f] == 0 {
                s.ready.remove(f);
            }
            s.missing[f] += 1;
        }
        s.seq.pop();
        s.ready.insert(e);
        self.done_hash ^= Self::zobrist(e);
        self.done_count -= 1;
        s.done.remove(e);
    }

    fn dfs(&mut self, state: &T::State, nodes: &mut u64) -> DfsResult {
        if self.done_count == self.eff_count {
            return DfsResult::Found;
        }
        if *nodes == 0 {
            return DfsResult::OutOfBudget;
        }
        *nodes -= 1;
        let key = self.node_key(state);
        if !self.s.memo.insert(key) {
            return DfsResult::Exhausted;
        }
        // Snapshot the frontier: recursion mutates `ready`, but undoes
        // its changes, so the suffix stays valid across iterations.
        let mark = self.s.cand.len();
        {
            let s = &mut *self.s;
            for e in s.ready.iter() {
                s.cand.push(e as u32);
            }
        }
        let end = self.s.cand.len();
        let mut ran_out = false;
        for i in mark..end {
            let e = self.s.cand[i] as usize;
            let (input, out) = &self.q.labels[e];
            if self.q.visible.contains(e) {
                if let Some(expected) = out {
                    if !self.q.adt.output_matches(state, input, expected) {
                        continue;
                    }
                }
            }
            // Leaf shortcut: placing the last retained event completes
            // the linearization; skip the needless transition clone.
            if self.done_count + 1 == self.eff_count {
                self.s.seq.push(e);
                return DfsResult::Found;
            }
            let next_state = self.q.adt.transition(state, input);
            self.place(e);
            let r = self.dfs(&next_state, nodes);
            match r {
                DfsResult::Found => return DfsResult::Found,
                DfsResult::Exhausted => {}
                DfsResult::OutOfBudget => ran_out = true,
            }
            self.unplace(e);
        }
        self.s.cand.truncate(mark);
        if ran_out {
            DfsResult::OutOfBudget
        } else {
            DfsResult::Exhausted
        }
    }
}

/// Helper: does the input-kind make the event a potential read (i.e. an
/// event with a state-dependent, visible output that the causal search
/// must branch on)?
pub(crate) fn is_constrained_read<T: Adt>(adt: &T, label: &(T::Input, Option<T::Output>)) -> bool {
    label.1.is_some() && matches!(adt.kind(&label.0), OpKind::PureQuery | OpKind::UpdateQuery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_adt::window::{WInput, WOutput, WindowStream};
    use cbm_history::Relation;

    type L = (WInput, Option<WOutput>);

    fn w(v: u64) -> L {
        (WInput::Write(v), Some(WOutput::Ack))
    }
    fn r(vals: &[u64]) -> L {
        (WInput::Read, Some(WOutput::Window(vals.to_vec())))
    }

    fn query<'a>(
        adt: &'a WindowStream,
        labels: &'a [L],
        rel: &'a Relation,
        include: &'a BitSet,
        visible: &'a BitSet,
    ) -> LinQuery<'a, WindowStream, Relation> {
        LinQuery {
            adt,
            labels,
            pasts: rel,
            include,
            visible,
        }
    }

    #[test]
    fn finds_interleaving_for_fig3d() {
        // p0: w(1), r/(0,1); p1: w(2), r/(1,2) — the SC history (Fig. 3d).
        let adt = WindowStream::new(2);
        let labels = vec![w(1), r(&[0, 1]), w(2), r(&[1, 2])];
        let rel = Relation::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let include = BitSet::full(4);
        let visible = BitSet::full(4);
        let mut nodes = 10_000;
        let out = query(&adt, &labels, &rel, &include, &visible).run(&mut nodes);
        match out {
            Outcome::Sat(seq) => assert_eq!(seq, vec![0, 1, 2, 3]),
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn unsat_when_reads_conflict() {
        // w(1).r/(0,1) forced, then r/(2,1) cannot be explained with only
        // writes 1 available.
        let adt = WindowStream::new(2);
        let labels = vec![w(1), r(&[2, 1])];
        let rel = Relation::from_edges(2, &[(0, 1)]).unwrap();
        let include = BitSet::full(2);
        let visible = BitSet::full(2);
        let mut nodes = 10_000;
        assert_eq!(
            query(&adt, &labels, &rel, &include, &visible).run(&mut nodes),
            Outcome::Unsat
        );
    }

    #[test]
    fn hidden_outputs_are_unconstrained() {
        // same labels but the conflicting read is hidden: Sat.
        let adt = WindowStream::new(2);
        let labels: Vec<L> = vec![w(1), (WInput::Read, None)];
        let rel = Relation::from_edges(2, &[(0, 1)]).unwrap();
        let include = BitSet::full(2);
        let visible = BitSet::full(2);
        let mut nodes = 10_000;
        assert!(matches!(
            query(&adt, &labels, &rel, &include, &visible).run(&mut nodes),
            Outcome::Sat(_)
        ));
    }

    #[test]
    fn invisible_outputs_are_unconstrained() {
        // read present with an output, but outside `visible`: Sat.
        let adt = WindowStream::new(2);
        let labels = vec![w(1), r(&[9, 9])];
        let rel = Relation::from_edges(2, &[(0, 1)]).unwrap();
        let include = BitSet::full(2);
        let visible = {
            let mut v = BitSet::new(2);
            v.insert(0);
            v
        };
        let mut nodes = 10_000;
        assert!(matches!(
            query(&adt, &labels, &rel, &include, &visible).run(&mut nodes),
            Outcome::Sat(_)
        ));
    }

    #[test]
    fn respects_order_constraints() {
        // order w(2) < w(1), read expects (2,1): Sat; expects (1,2): Unsat.
        let adt = WindowStream::new(2);
        let rel = Relation::from_edges(3, &[(1, 0), (0, 2), (1, 2)]).unwrap();
        let include = BitSet::full(3);
        let visible = BitSet::full(3);

        let labels_ok = vec![w(1), w(2), r(&[2, 1])];
        let mut nodes = 10_000;
        assert!(matches!(
            query(&adt, &labels_ok, &rel, &include, &visible).run(&mut nodes),
            Outcome::Sat(_)
        ));

        let labels_bad = vec![w(1), w(2), r(&[1, 2])];
        let mut nodes = 10_000;
        assert_eq!(
            query(&adt, &labels_bad, &rel, &include, &visible).run(&mut nodes),
            Outcome::Unsat
        );
    }

    #[test]
    fn include_restricts_the_universe() {
        // three writes exist; only w(5) is included with the read.
        let adt = WindowStream::new(1);
        let labels = vec![w(3), w(5), w(7), r(&[5])];
        let rel = Relation::empty(4);
        let mut include = BitSet::new(4);
        include.insert(1);
        include.insert(3);
        let visible = BitSet::full(4);
        let mut nodes = 10_000;
        assert!(matches!(
            query(&adt, &labels, &rel, &include, &visible).run(&mut nodes),
            Outcome::Sat(_)
        ));
    }

    #[test]
    fn budget_exhaustion_returns_unknown() {
        let adt = WindowStream::new(2);
        let labels: Vec<L> = (0..12).map(w).chain([r(&[99, 98])]).collect();
        let rel = Relation::empty(13);
        let include = BitSet::full(13);
        let visible = BitSet::full(13);
        let mut nodes = 3;
        assert_eq!(
            query(&adt, &labels, &rel, &include, &visible).run(&mut nodes),
            Outcome::Unknown
        );
    }

    #[test]
    fn replay_checks_exact_order() {
        let adt = WindowStream::new(2);
        let labels = vec![w(1), w(2), r(&[1, 2])];
        let rel = Relation::empty(3);
        let include = BitSet::full(3);
        let visible = BitSet::full(3);
        let q = query(&adt, &labels, &rel, &include, &visible);
        assert!(q.replay(&[0, 1, 2]));
        assert!(!q.replay(&[1, 0, 2])); // (2,1) ≠ (1,2)
        assert!(!q.replay(&[0, 1])); // incomplete
    }

    #[test]
    fn memoisation_collapses_commuting_prefixes() {
        // 2k independent writes of the same value: factorially many
        // orders, but only O(2^k) distinct (set, state) pairs — the memo
        // must keep this cheap enough to finish within a small budget.
        let adt = WindowStream::new(1);
        let mut labels: Vec<L> = (0..10).map(|_| w(1)).collect();
        labels.push(r(&[1]));
        let rel = Relation::empty(11);
        let include = BitSet::full(11);
        let visible = BitSet::full(11);
        let mut nodes = 100_000;
        assert!(matches!(
            query(&adt, &labels, &rel, &include, &visible).run(&mut nodes),
            Outcome::Sat(_)
        ));
    }

    #[test]
    fn pure_update_unsat_is_impossible_updates_always_linearize() {
        let adt = WindowStream::new(2);
        let labels = vec![w(1), w(2), w(3)];
        let rel = Relation::empty(3);
        let include = BitSet::full(3);
        let visible = BitSet::full(3);
        let mut nodes = 10_000;
        assert!(matches!(
            query(&adt, &labels, &rel, &include, &visible).run(&mut nodes),
            Outcome::Sat(_)
        ));
    }
}
