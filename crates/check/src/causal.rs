//! Weak causal consistency (Definition 8) and causal consistency
//! (Definition 9): search over causal orders.
//!
//! Both criteria ask for a **causal order** `→` (a partial order
//! containing the program order) under which every event's causal past
//! `⌊e⌋` admits a suitable linearization:
//!
//! * WCC: `lin((H→).π(⌊e⌋, {e})) ∩ L(T) ≠ ∅` — only `e`'s output is
//!   visible;
//! * CC: `∀p ∈ P_H, ∀e ∈ p: lin((H→).π(⌊e⌋, p)) ∩ L(T) ≠ ∅` — the
//!   outputs of `e`'s whole chain are visible.
//!
//! ## Search strategy
//!
//! A partial order is built incrementally along one of its linear
//! extensions: events are *placed* one at a time, and each placed event
//! chooses its strict causal past `P(e)` among already-placed events,
//! subject to `progpast(e) ⊆ P(e)` and transitive closure
//! (`e' ∈ P(e) ⇒ P(e') ⊆ P(e)`). Every finite causal order arises this
//! way, and the per-event conditions of Defs. 8/9 can be checked at
//! placement time because `P` rows never change afterwards.
//!
//! Three WLOG reductions (proved in the comments below) keep this
//! tractable:
//!
//! 1. **Only "reads" branch.** An event with an unconstrained output
//!    (pure update, hidden operation) can always take the *minimal*
//!    past `base(e)` (the closure of its program past): shrinking an
//!    update's past only removes order constraints from other events'
//!    linearization problems, and its own condition is vacuous (for CC
//!    it is implied by its program predecessor's condition: append the
//!    new past events — all output-hidden — to the predecessor's
//!    witness linearization).
//! 2. **Non-reads are placed eagerly.** Placing an unconstrained event
//!    as soon as its program past is placed only enlarges the option
//!    set of later reads; any solution can be rearranged into this
//!    form.
//! 3. **Past candidates only branch on updates.** Adding a hidden pure
//!    query to `P(e)` beyond what closure forces changes neither the
//!    state seen by `e` nor any later base computation (its own past is
//!    already included by closure).
//!
//! The search memoises on `(placed-set, past-rows)` hashes and is
//! budget-bounded.
//!
//! ## Allocation discipline
//!
//! Like the kernel, the placement DFS is mutate-and-undo: one `placed`
//! set, one `pasts` row table, and one placement sequence are threaded
//! through the recursion by `&mut`, and every placement — eager or
//! branched — is undone on backtrack (an unplaced event's past row is
//! always empty, so undo is a word-level `clear`). Branching still
//! materializes candidate past sets (they are genuinely distinct
//! values), but no level clones the whole `Vec<BitSet>` row table any
//! more; kernel queries reuse one `KernelScratch`, and per-event
//! condition verdicts are cached across sibling branches.

use crate::kernel::{is_constrained_read, KernelScratch, LinQuery, Outcome};
use crate::{label_table, Budget, CheckResult, Verdict};
use cbm_adt::Adt;
use cbm_history::{BitSet, History, MixHasher, Relation, U64Set};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Is `h` weakly causally consistent with `adt` (Definition 8)?
pub fn check_wcc<T: Adt>(
    adt: &T,
    h: &History<T::Input, T::Output>,
    budget: &Budget,
) -> CheckResult {
    Searcher::new(adt, h, Mode::Wcc, budget).run()
}

/// Is `h` causally consistent with `adt` (Definition 9)?
pub fn check_cc<T: Adt>(adt: &T, h: &History<T::Input, T::Output>, budget: &Budget) -> CheckResult {
    Searcher::new(adt, h, Mode::Cc, budget).run()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Wcc,
    Cc,
}

struct Searcher<'a, T: Adt> {
    adt: &'a T,
    h: &'a History<T::Input, T::Output>,
    labels: Vec<(T::Input, Option<T::Output>)>,
    mode: Mode,
    n: usize,
    is_read: Vec<bool>,
    is_update: Vec<bool>,
    /// CC only: bitset per maximal chain.
    chain_sets: Vec<BitSet>,
    /// CC only: indices into `chain_sets` per event.
    chains_of: Vec<Vec<usize>>,
    nodes: u64,
    max_nodes: u64,
    exhausted: bool,
    memo: U64Set,
    witness: Option<Vec<BitSet>>,
    /// Reusable buffer for closed-program-past computations.
    scratch: BitSet,
    /// Reusable kernel working buffers (one kernel query at a time).
    kscratch: KernelScratch,
    /// Cache of per-event condition verdicts, keyed on the event, the
    /// **owned** candidate past, and a 64-bit hash of the past rows of
    /// its members. The same candidate is re-proposed across many
    /// sibling branches; its kernel verdict only depends on those
    /// ingredients, so hits skip the inner search entirely. Only
    /// fully-decided verdicts are cached (never ones cut short by
    /// budget exhaustion). Keeping `(event, past)` exact confines
    /// wrong-verdict risk to a 64-bit collision **among row tables of
    /// the identical candidate** — the same accepted-risk class as the
    /// kernel memo (see `kernel`'s module docs).
    check_cache: HashMap<(usize, BitSet, u64), bool>,
}

impl<'a, T: Adt> Searcher<'a, T> {
    fn new(adt: &'a T, h: &'a History<T::Input, T::Output>, mode: Mode, budget: &Budget) -> Self {
        let labels = label_table::<T>(h);
        let n = h.len();
        let is_read: Vec<bool> = labels.iter().map(|l| is_constrained_read(adt, l)).collect();
        let is_update: Vec<bool> = labels.iter().map(|l| adt.is_update(&l.0)).collect();
        let (chain_sets, chains_of) = if mode == Mode::Cc {
            let chains = h.maximal_chains(budget.max_chains);
            let mut sets = Vec::with_capacity(chains.len());
            let mut of = vec![Vec::new(); n];
            for (ci, chain) in chains.iter().enumerate() {
                let mut s = BitSet::new(n);
                for e in chain {
                    s.insert(e.idx());
                    of[e.idx()].push(ci);
                }
                sets.push(s);
            }
            (sets, of)
        } else {
            (Vec::new(), vec![Vec::new(); n])
        };
        Searcher {
            adt,
            h,
            labels,
            mode,
            n,
            is_read,
            is_update,
            chain_sets,
            chains_of,
            nodes: budget.max_nodes,
            max_nodes: budget.max_nodes,
            exhausted: false,
            memo: U64Set::default(),
            witness: None,
            scratch: BitSet::new(n),
            kscratch: KernelScratch::default(),
            check_cache: HashMap::new(),
        }
    }

    fn run(mut self) -> CheckResult {
        // Prepass: constant outputs of non-query inputs must match λ
        // (a malformed "ack" forgery can be rejected without search).
        for (input, out) in &self.labels {
            if let Some(o) = out {
                if !self.adt.is_query(input) && self.adt.output(&self.adt.initial(), input) != *o {
                    return CheckResult::new(Verdict::Unsat, 0);
                }
            }
        }
        let mut placed = BitSet::new(self.n);
        let mut pasts = vec![BitSet::new(self.n); self.n];
        let mut seq = Vec::with_capacity(self.n);
        let found = self.dfs(&mut placed, &mut pasts, &mut seq);
        let used = self.max_nodes - self.nodes;
        if found {
            // The searcher's rows are transitively closed by
            // construction, so no re-closure pass is needed.
            let witness = self.witness.take().map(Relation::from_closed_rows);
            CheckResult::new(Verdict::Sat, used).with_witness(witness)
        } else if self.exhausted {
            CheckResult::new(Verdict::Unknown, used)
        } else {
            CheckResult::new(Verdict::Unsat, used)
        }
    }

    /// Closure of the program past of `e` under already-fixed past
    /// rows, computed into `self.scratch` (no allocation).
    fn base_into_scratch(&mut self, e: usize, pasts: &[BitSet]) {
        let pp = self.h.prog_past(cbm_history::EventId(e as u32));
        self.scratch.clear_and_copy_from(pp);
        for d in pp.iter() {
            self.scratch.union_with(&pasts[d]);
        }
    }

    /// Backtracking wrapper: `dfs_core` mutates `placed`/`pasts`/`seq`
    /// in place; on failure every placement made below `mark` is
    /// undone, restoring the caller's exact state (unplaced events
    /// always have empty past rows).
    fn dfs(&mut self, placed: &mut BitSet, pasts: &mut Vec<BitSet>, seq: &mut Vec<usize>) -> bool {
        let mark = seq.len();
        if self.dfs_core(placed, pasts, seq) {
            return true;
        }
        for &e in &seq[mark..] {
            placed.remove(e);
            pasts[e].clear();
        }
        seq.truncate(mark);
        false
    }

    fn dfs_core(
        &mut self,
        placed: &mut BitSet,
        pasts: &mut Vec<BitSet>,
        seq: &mut Vec<usize>,
    ) -> bool {
        // Eager phase: place all available non-reads with minimal pasts.
        loop {
            let mut progress = false;
            for e in 0..self.n {
                if placed.contains(e) || self.is_read[e] {
                    continue;
                }
                if self
                    .h
                    .prog_past(cbm_history::EventId(e as u32))
                    .is_subset(placed)
                {
                    self.base_into_scratch(e, pasts);
                    pasts[e].clear_and_copy_from(&self.scratch);
                    placed.insert(e);
                    seq.push(e);
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        if placed.count() == self.n {
            self.witness = Some(pasts.clone());
            return true;
        }
        if self.nodes == 0 {
            self.exhausted = true;
            return false;
        }
        self.nodes -= 1;
        if !self.memo.insert(state_hash(placed, pasts)) {
            return false;
        }

        // Branch phase: pick the next read to place and its past.
        for e in 0..self.n {
            if placed.contains(e) || !self.is_read[e] {
                continue;
            }
            if !self
                .h
                .prog_past(cbm_history::EventId(e as u32))
                .is_subset(placed)
            {
                continue;
            }
            self.base_into_scratch(e, pasts);
            let base = self.scratch.clone();
            let optional: Vec<usize> = placed
                .iter_difference(&base)
                .filter(|&u| self.is_update[u])
                .collect();
            // Enumerate distinct closed supersets of `base` (owned
            // keys: an exact dedup here is cheap — candidates are few
            // — and a hash-only set could silently skip the one past
            // that satisfies the condition).
            let mut seen_pasts: HashSet<BitSet> = HashSet::new();
            let mut stack: Vec<(usize, BitSet)> = vec![(0, base)];
            while let Some((i, current)) = stack.pop() {
                if i == optional.len() {
                    if !seen_pasts.insert(current.clone()) {
                        continue;
                    }
                    if self.nodes == 0 {
                        self.exhausted = true;
                        return false;
                    }
                    self.nodes -= 1;
                    if self.check_event_cached(e, &current, pasts) {
                        // check_event left pasts[e] = current
                        placed.insert(e);
                        seq.push(e);
                        if self.dfs(placed, pasts, seq) {
                            return true;
                        }
                        seq.pop();
                        placed.remove(e);
                    }
                    pasts[e].clear();
                    continue;
                }
                let u = optional[i];
                // exclude u
                stack.push((i + 1, current.clone()));
                // include u (and its closed past)
                if !current.contains(u) {
                    let mut with_u = current;
                    with_u.insert(u);
                    with_u.union_with(&pasts[u]);
                    stack.push((i + 1, with_u));
                }
            }
        }
        false
    }

    /// [`Searcher::check_event`] behind the verdict cache. On a hit the
    /// kernel is skipped; `pasts[e]` is still left holding `past` on
    /// success, exactly like a fresh check.
    fn check_event_cached(&mut self, e: usize, past: &BitSet, pasts: &mut [BitSet]) -> bool {
        let mut h = MixHasher::default();
        for x in past.iter() {
            pasts[x].hash(&mut h);
        }
        let rows_hash = h.finish();
        let key = (e, past.clone(), rows_hash);
        if let Some(&ok) = self.check_cache.get(&key) {
            if ok {
                pasts[e].clear_and_copy_from(past);
            }
            return ok;
        }
        let before_exhausted = self.exhausted;
        let ok = self.check_event(e, past, pasts);
        if self.exhausted == before_exhausted {
            self.check_cache.insert(key, ok);
        }
        ok
    }

    /// The per-event condition of Def. 8 / Def. 9 for read `e` with
    /// candidate past `past`. On return `pasts[e]` holds `past` (the
    /// kernel reads it for order constraints); the caller keeps it on
    /// success and clears it otherwise.
    fn check_event(&mut self, e: usize, past: &BitSet, pasts: &mut [BitSet]) -> bool {
        pasts[e].clear_and_copy_from(past);
        let mut include = past.clone();
        include.insert(e);
        match self.mode {
            Mode::Wcc => {
                let mut visible = BitSet::new(self.n);
                visible.insert(e);
                self.kernel_sat(&include, &visible, pasts)
            }
            Mode::Cc => {
                let mut ok = true;
                for k in 0..self.chains_of[e].len() {
                    let ci = self.chains_of[e][k];
                    let q = LinQuery {
                        adt: self.adt,
                        labels: &self.labels,
                        pasts: &*pasts,
                        include: &include,
                        visible: &self.chain_sets[ci],
                    };
                    match q.decide_with(&mut self.kscratch, &mut self.nodes) {
                        Outcome::Sat(_) => {}
                        Outcome::Unsat => {
                            ok = false;
                            break;
                        }
                        Outcome::Unknown => {
                            self.exhausted = true;
                            ok = false;
                            break;
                        }
                    }
                }
                ok
            }
        }
    }

    fn kernel_sat(&mut self, include: &BitSet, visible: &BitSet, pasts: &[BitSet]) -> bool {
        let q = LinQuery {
            adt: self.adt,
            labels: &self.labels,
            pasts,
            include,
            visible,
        };
        match q.decide_with(&mut self.kscratch, &mut self.nodes) {
            Outcome::Sat(_) => true,
            Outcome::Unsat => false,
            Outcome::Unknown => {
                self.exhausted = true;
                false
            }
        }
    }
}

/// Order-insensitive hash of the search state.
fn state_hash(placed: &BitSet, pasts: &[BitSet]) -> u64 {
    let mut h = MixHasher::default();
    placed.hash(&mut h);
    for e in placed.iter() {
        e.hash(&mut h);
        pasts[e].hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_adt::queue::{FifoQueue, QInput, QOutput};
    use cbm_adt::window::{WInput, WOutput, WindowStream};
    use cbm_history::HistoryBuilder;

    type WB = HistoryBuilder<WInput, WOutput>;
    type QB = HistoryBuilder<QInput, QOutput>;

    fn wr(b: &mut WB, p: usize, v: u64) {
        b.op(p, WInput::Write(v), WOutput::Ack);
    }
    fn rd(b: &mut WB, p: usize, vals: &[u64]) {
        b.op(p, WInput::Read, WOutput::Window(vals.to_vec()));
    }

    fn fig3a() -> cbm_history::History<WInput, WOutput> {
        let mut b = WB::new();
        wr(&mut b, 0, 1);
        rd(&mut b, 0, &[0, 1]);
        rd(&mut b, 0, &[1, 2]);
        wr(&mut b, 1, 2);
        rd(&mut b, 1, &[0, 2]);
        rd(&mut b, 1, &[1, 2]);
        b.build()
    }

    fn fig3b() -> cbm_history::History<WInput, WOutput> {
        // p0: w(1) ↦ r/(2,1); p1: r/(0,1) ↦ w(2)
        let mut b = WB::new();
        wr(&mut b, 0, 1);
        rd(&mut b, 0, &[2, 1]);
        rd(&mut b, 1, &[0, 1]);
        wr(&mut b, 1, 2);
        b.build()
    }

    fn fig3c() -> cbm_history::History<WInput, WOutput> {
        let mut b = WB::new();
        wr(&mut b, 0, 1);
        rd(&mut b, 0, &[2, 1]);
        wr(&mut b, 1, 2);
        rd(&mut b, 1, &[1, 2]);
        b.build()
    }

    #[test]
    fn fig3a_is_wcc_but_not_cc() {
        let adt = WindowStream::new(2);
        let h = fig3a();
        let b = Budget::default();
        assert_eq!(check_wcc(&adt, &h, &b).verdict, Verdict::Sat);
        assert_eq!(check_cc(&adt, &h, &b).verdict, Verdict::Unsat);
    }

    #[test]
    fn fig3b_is_not_wcc() {
        // §3.2: the zigzag forces the total causal order
        // w(1) → r/(0,1) → w(2) → r/(2,1), whose unique linearization
        // has the last read return (1,2) ≠ (2,1).
        let adt = WindowStream::new(2);
        let h = fig3b();
        let b = Budget::default();
        assert_eq!(check_wcc(&adt, &h, &b).verdict, Verdict::Unsat);
        assert_eq!(check_cc(&adt, &h, &b).verdict, Verdict::Unsat);
    }

    #[test]
    fn fig3c_is_cc() {
        let adt = WindowStream::new(2);
        let h = fig3c();
        let b = Budget::default();
        let res = check_cc(&adt, &h, &b);
        assert_eq!(res.verdict, Verdict::Sat);
        // the witness must be a causal order: contains the program order
        let w = res.witness.unwrap();
        assert!(w.contains(h.prog()));
        assert!(w.is_acyclic());
        assert_eq!(check_wcc(&adt, &h, &b).verdict, Verdict::Sat);
    }

    #[test]
    fn fig3e_queue_is_wcc_but_not_cc() {
        // p0: push(1), pop/1, pop/1, push(3); p1: push(2), pop/3, push(1)
        let adt = FifoQueue;
        let mut b = QB::new();
        b.op(0, QInput::Push(1), QOutput::Ack);
        b.op(0, QInput::Pop, QOutput::Popped(Some(1)));
        b.op(0, QInput::Pop, QOutput::Popped(Some(1)));
        b.op(0, QInput::Push(3), QOutput::Ack);
        b.op(1, QInput::Push(2), QOutput::Ack);
        b.op(1, QInput::Pop, QOutput::Popped(Some(3)));
        b.op(1, QInput::Push(1), QOutput::Ack);
        let h = b.build();
        let budget = Budget::default();
        assert_eq!(check_wcc(&adt, &h, &budget).verdict, Verdict::Sat);
        assert_eq!(check_cc(&adt, &h, &budget).verdict, Verdict::Unsat);
    }

    #[test]
    fn fig3f_queue_is_cc() {
        // p0: pop/1, pop/⊥; p1: push(1), push(2); p2: pop/1, pop/⊥
        let adt = FifoQueue;
        let mut b = QB::new();
        b.op(0, QInput::Pop, QOutput::Popped(Some(1)));
        b.op(0, QInput::Pop, QOutput::Popped(None));
        b.op(1, QInput::Push(1), QOutput::Ack);
        b.op(1, QInput::Push(2), QOutput::Ack);
        b.op(2, QInput::Pop, QOutput::Popped(Some(1)));
        b.op(2, QInput::Pop, QOutput::Popped(None));
        let h = b.build();
        assert_eq!(check_cc(&adt, &h, &Budget::default()).verdict, Verdict::Sat);
    }

    #[test]
    fn single_process_wrong_read_is_not_wcc() {
        let adt = WindowStream::new(1);
        let mut b = WB::new();
        wr(&mut b, 0, 1);
        rd(&mut b, 0, &[7]);
        let h = b.build();
        assert_eq!(
            check_wcc(&adt, &h, &Budget::default()).verdict,
            Verdict::Unsat
        );
    }

    #[test]
    fn empty_history_is_causally_consistent() {
        let adt = WindowStream::new(2);
        let h = WB::new().build();
        let b = Budget::default();
        assert_eq!(check_wcc(&adt, &h, &b).verdict, Verdict::Sat);
        assert_eq!(check_cc(&adt, &h, &b).verdict, Verdict::Sat);
    }

    #[test]
    fn forged_ack_output_is_rejected() {
        let adt = WindowStream::new(2);
        let mut b = WB::new();
        b.op(0, WInput::Write(1), WOutput::Window(vec![9, 9]));
        let h = b.build();
        assert_eq!(
            check_wcc(&adt, &h, &Budget::default()).verdict,
            Verdict::Unsat
        );
    }

    #[test]
    fn zero_budget_reports_unknown() {
        let adt = WindowStream::new(2);
        let h = fig3a();
        let res = check_wcc(&adt, &h, &Budget::nodes(0));
        assert_eq!(res.verdict, Verdict::Unknown);
    }
}
