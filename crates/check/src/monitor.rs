//! Streaming bad-pattern monitors: certify **every** operation of a
//! live execution in O(1) amortized, escalating to the exact checkers
//! only on suspicion.
//!
//! The sampled windows of `cbm-store` replay bounded slices of a run
//! through the witness checkers of [`crate::verify`]; everything
//! between windows goes uncertified. Bouajjani, Enea, Guerraoui &
//! Hamza (*On Verifying Causal Consistency*, POPL 2017) show that for
//! read/write histories, causal-consistency checking reduces to
//! detecting a small fixed family of **bad patterns** — and detecting
//! those patterns needs only per-object last-writer tables and a
//! per-process causal frontier, both of which fold one event in O(1)
//! amortized. That observation is what makes a *streaming* checker
//! possible: the monitor rides the replica's hot path, folds each
//! locally-invoked operation and each causally-delivered update into
//! shadow state, and certifies the replica's observable outputs
//! continuously.
//!
//! Two monitors mirror the two replication disciplines of the
//! Perrin/Mostéfaoui/Jard hierarchy:
//!
//! * [`CcMonitor`] — for delivery-order replicas (the Fig. 4
//!   discipline, verified criterion **CC**, Def. 9). Shadow state is
//!   the fold of applied updates in delivery order.
//! * [`CcvMonitor`] — layers the arbitration/convergence check on top
//!   (the Fig. 5 discipline, criterion **CCv**, Def. 12). Shadow
//!   state is the fold of applied updates in Lamport-timestamp
//!   arbitration order, maintained as a sorted per-object log exactly
//!   like the replica's own arbitration tables, but derived
//!   *independently* from the delivered stream.
//!
//! ## Bad patterns and suspicion
//!
//! A monitor never fails open: an output that disagrees with the
//! shadow state raises a **suspicion**, classified into the
//! bad-pattern family ([`BadPattern`]) from the last-writer tables,
//! and the suspicion is **escalated** — the minimal implicated window
//! (the object's retained updates, seeded from the state before them)
//! is rebuilt as a real [`cbm_history::History`] and re-checked
//! *exactly*, twice:
//!
//! 1. **witness re-verification** — the linear-time checkers of
//!    [`crate::verify`] replay the window against the delivery
//!    evidence the monitor observed ([`Escalation::witness`]); this
//!    is the authoritative verdict on the *implementation*;
//! 2. **kernel search** — the bounded DFS kernel ([`crate::check`])
//!    asks whether *any* causal order explains the window
//!    ([`Escalation::verdict`]), distinguishing "the replica broke
//!    its own delivery discipline but the history is still causally
//!    explainable" from a genuine criterion violation.
//!
//! The kernel replays from the window's seed snapshot via the
//! `Seeded` adapter rather than from `T::initial()`.
//!
//! ## Retention
//!
//! Under CC the monitor appends every fold, whatever its object, to
//! one sequential circular log sized `objects × 12` rounded up to a
//! power of two, so the hot path's store lands next to the previous
//! one. An overwritten entry folds into its object's seed, except
//! while it is still that object's newest update: it is then held
//! aside until the object's next entry leaves the log. A window is
//! the seed, the held entry and the object's entries in the log, of
//! which all but the newest 23 fold into a copy of the seed — bounded,
//! and never without the newest update a stale read skipped. Under
//! CCv each object keeps a stamp-sorted log, cut at every drain.
//!
//! ## Determinism
//!
//! On a correct execution no suspicion ever fires, so the monitor's
//! observable counters (`ops_checked`, `escalations = 0`) are pure
//! functions of the workload — which is what lets `cbm-store` gate
//! them next to its other deterministic columns. The *content* of an
//! escalation (window composition) depends on delivery interleaving,
//! but escalations only exist on runs that are already failing.

use crate::verify::{verify_cc_window, verify_ccv_window};
use crate::{check, Budget, Mode, Verdict};
use cbm_adt::Adt;
use cbm_history::{EventId, HistoryBuilder, Relation};
use std::collections::HashMap;

/// A Lamport stamp as the monitor sees it: logical time plus the
/// stamping origin. (Deliberately a local type: `cbm-check` sits
/// below `cbm-net` in the crate graph and must not depend on its
/// clock types.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp {
    /// Lamport time.
    pub time: u64,
    /// Stamping process.
    pub origin: usize,
}

impl Stamp {
    /// Construct a stamp.
    pub fn new(time: u64, origin: usize) -> Self {
        Stamp { time, origin }
    }
}

/// The bad-pattern family the monitors classify suspicions into
/// (after Bouajjani/Enea/Guerraoui/Hamza; object-granular rather than
/// variable-granular, and generalized from read/write registers to
/// arbitrary ADT queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BadPattern {
    /// A query output explained by no applied update at all.
    ThinAirRead {
        /// Implicated object.
        obj: u32,
    },
    /// A query returned the object's initial-state output although
    /// updates were applied in its causal past (CC discipline).
    WriteCoInitRead {
        /// Implicated object.
        obj: u32,
    },
    /// A query skipped over a causally-delivered overwrite: its
    /// output matches the state *before* the last applied update.
    WriteCoRead {
        /// Implicated object.
        obj: u32,
    },
    /// CCv layer: a query returned the initial-state output although
    /// arbitrated updates exist in its past.
    WriteHbInitRead {
        /// Implicated object.
        obj: u32,
    },
    /// CCv layer: a query ignored the arbitration-maximal update —
    /// the conflict order the output implies is cyclic.
    CyclicCf {
        /// Implicated object.
        obj: u32,
    },
    /// A delivered update's Lamport time regressed on its origin's
    /// edge: delivery order disagrees with the origin's issue order,
    /// so the causal order the stream implies has a cycle.
    CyclicCo {
        /// The origin whose stamps regressed.
        origin: usize,
    },
}

impl BadPattern {
    /// Stable snake_case name (metrics labels, trace spans, reports).
    pub fn name(self) -> &'static str {
        match self {
            BadPattern::ThinAirRead { .. } => "thin_air_read",
            BadPattern::WriteCoInitRead { .. } => "write_co_init_read",
            BadPattern::WriteCoRead { .. } => "write_co_read",
            BadPattern::WriteHbInitRead { .. } => "write_hb_init_read",
            BadPattern::CyclicCf { .. } => "cyclic_cf",
            BadPattern::CyclicCo { .. } => "cyclic_co",
        }
    }

    /// Stable numeric code (trace span payloads).
    pub fn code(self) -> u64 {
        match self {
            BadPattern::ThinAirRead { .. } => 1,
            BadPattern::WriteCoInitRead { .. } => 2,
            BadPattern::WriteCoRead { .. } => 3,
            BadPattern::WriteHbInitRead { .. } => 4,
            BadPattern::CyclicCf { .. } => 5,
            BadPattern::CyclicCo { .. } => 6,
        }
    }
}

/// The result of escalating one suspicion to the exact checkers.
#[derive(Debug, Clone)]
pub struct Escalation {
    /// Suspicion classification from the O(1) tables.
    pub pattern: BadPattern,
    /// Events in the rebuilt minimal window (0 for [`BadPattern::CyclicCo`],
    /// which needs no replay — the stamp regression is the proof).
    pub events: usize,
    /// Exact linear-time re-verification of the window against the
    /// delivery evidence the monitor observed. `Err` confirms the
    /// implementation violated its discipline.
    pub witness: Result<(), String>,
    /// Criterion-level verdict of the bounded DFS kernel on the same
    /// window (`Sat` = some causal order still explains it, `Unsat` =
    /// the window violates the criterion itself, `Unknown` = kernel
    /// skipped or out of budget).
    pub verdict: Verdict,
    /// Search nodes the kernel consumed.
    pub nodes_used: u64,
}

impl Escalation {
    /// Did the exact check confirm a violation? (The witness verdict
    /// is authoritative; the kernel verdict refines *what kind*.)
    pub fn confirmed(&self) -> bool {
        self.witness.is_err()
    }
}

/// Monitor counters. On a correct run every field except the
/// wall-time-free fold counters is a pure function of the workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Operations whose outputs were checked (own invocations plus
    /// served routed reads).
    pub ops_checked: u64,
    /// Delivered remote updates folded into shadow state.
    pub folds: u64,
    /// Suspicions escalated to the exact checkers.
    pub escalations: u64,
    /// Escalations the exact witness check cleared (false alarms of
    /// the O(1) classification).
    pub cleared: u64,
    /// Escalations the exact witness check confirmed.
    pub violations: u64,
    /// Escalations whose kernel search was skipped (window too large)
    /// or ran out of budget.
    pub kernel_unknown: u64,
}

impl std::ops::AddAssign for MonitorStats {
    /// Field-wise sum: totals across replicas, or a restarted
    /// monitor's counters continued from its last sealed cut.
    fn add_assign(&mut self, s: MonitorStats) {
        self.ops_checked += s.ops_checked;
        self.folds += s.folds;
        self.escalations += s.escalations;
        self.cleared += s.cleared;
        self.violations += s.violations;
        self.kernel_unknown += s.kernel_unknown;
    }
}

// sealed into every durable epoch-log cut (`cbm_store::durable`)
cbm_adt::wire_struct!(MonitorStats {
    ops_checked,
    folds,
    escalations,
    cleared,
    violations,
    kernel_unknown,
});

/// Per-object shadow: independently-derived state, last-writer
/// context for classification, and where the object's escalation
/// window starts. The retained updates themselves live outside it, in
/// the monitor's one log (CC) or its per-object arbitration logs
/// (CCv), so the shadow table stays small enough to keep warm.
#[derive(Debug, Clone)]
struct Shadow<T: Adt> {
    /// Fold of applied updates in the discipline's order.
    state: T::State,
    /// Escalation seed: the fold of every applied update the object's
    /// window no longer retains.
    seed: T::State,
    /// Updates ever applied (classification: initial-read patterns
    /// need to know whether any write exists in the past).
    writes: u64,
    /// CC: log index of the object's newest update.
    newest: u64,
    /// CC: log index where the window was last cut (construction,
    /// drain compaction, or recovery install): entries before it are
    /// already in the seed.
    since: u64,
    /// CC: the monitor's `held` table has an entry for this object.
    held: bool,
}

/// One applied update as the monitor retains it.
#[derive(Debug, Clone)]
struct Entry<T: Adt> {
    obj: u32,
    origin: u32,
    /// Lamport time (with `origin`, the update's [`Stamp`]).
    time: u64,
    input: T::Input,
    /// Observed output for own events; `None` for remote updates
    /// (their outputs were observed elsewhere — hidden operations).
    output: Option<T::Output>,
}

impl<T: Adt> Entry<T> {
    fn origin(&self) -> usize {
        self.origin as usize
    }

    fn stamp(&self) -> Stamp {
        Stamp::new(self.time, self.origin())
    }

    /// Arbitration key (stamp order).
    fn key(&self) -> (u64, u32) {
        (self.time, self.origin)
    }
}

/// An object's escalation window: the state it starts from and the
/// updates applied after it, oldest first (discipline order).
struct Window<'a, T: Adt> {
    seed: T::State,
    evs: Vec<&'a Entry<T>>,
}

/// An [`Adt`] adapter that replays from a captured snapshot instead
/// of `q0` — how escalation windows (and any other mid-run slice cut
/// at a known state) feed the DFS kernel.
#[derive(Debug, Clone)]
pub(crate) struct Seeded<'a, T: Adt> {
    adt: &'a T,
    initial: T::State,
}

impl<'a, T: Adt> Seeded<'a, T> {
    /// Wrap `adt` so that `initial()` returns `initial`.
    pub(crate) fn new(adt: &'a T, initial: T::State) -> Self {
        Seeded { adt, initial }
    }
}

impl<T: Adt> Adt for Seeded<'_, T> {
    type Input = T::Input;
    type Output = T::Output;
    type State = T::State;

    fn initial(&self) -> Self::State {
        self.initial.clone()
    }
    fn transition(&self, q: &Self::State, i: &Self::Input) -> Self::State {
        self.adt.transition(q, i)
    }
    fn output(&self, q: &Self::State, i: &Self::Input) -> Self::Output {
        self.adt.output(q, i)
    }
    fn kind(&self, i: &Self::Input) -> cbm_adt::OpKind {
        self.adt.kind(i)
    }
    fn overwrites(&self, i: &Self::Input) -> bool {
        self.adt.overwrites(i)
    }
    fn output_matches(&self, q: &Self::State, i: &Self::Input, expected: &Self::Output) -> bool {
        self.adt.output_matches(q, i, expected)
    }
}

/// The streaming monitor: one type, its [`Mode`] chosen at
/// construction. [`CcMonitor`] / [`CcvMonitor`] are constructors that
/// fix the discipline and `Deref` here.
#[derive(Debug, Clone)]
pub struct Monitor<T: Adt> {
    adt: T,
    mode: Mode,
    me: usize,
    /// The pristine initial state (initial-read classification).
    initial: T::State,
    shadows: Vec<Shadow<T>>,
    /// CC: every applied update of every object in delivery order, a
    /// circular log of `log_mask + 1` entries. An append is a
    /// sequential store; the entry it overwrites folds into its
    /// object's seed (see [`Monitor::evict`]).
    log: Vec<Entry<T>>,
    log_mask: usize,
    /// Log index of the next append (CC updates folded so far).
    head: u64,
    /// CC: entries evicted from the log while still their object's
    /// newest update, so that every window keeps it. Each folds into
    /// its seed when the object's next entry is evicted.
    held: HashMap<u32, Entry<T>>,
    /// CCv: per-object stamp-sorted logs of the updates applied since
    /// the last drain.
    arb: Vec<Vec<Entry<T>>>,
    /// Per-origin last delivered Lamport time (CyclicCO automaton).
    last_ts: Vec<Option<u64>>,
    /// Per-origin applied-update counts: the monitor's co/hb
    /// frontier, crosschecked against the drain's published matrix by
    /// the engine.
    delivered: Vec<u64>,
    budget: Budget,
    /// Largest window the kernel search accepts; larger windows still
    /// get the exact witness check but report `Verdict::Unknown`.
    max_kernel_events: usize,
    stats: MonitorStats,
}

/// Default CC window cap: an escalation window holds at most one less
/// than twice this many updates, and the CC log retains this many per
/// object on average.
pub(crate) const DEFAULT_RING_CAP: usize = 12;
/// Default bound on escalation windows handed to the DFS kernel.
pub(crate) const DEFAULT_MAX_KERNEL_EVENTS: usize = 16;

impl<T: Adt + Clone> Monitor<T> {
    /// A monitor over `objects` object slots and `origins` replicas,
    /// running at replica `me`.
    pub fn new(adt: T, mode: Mode, objects: usize, origins: usize, me: usize) -> Self {
        let initial = adt.initial();
        let objects = objects.max(1);
        let shadows = (0..objects)
            .map(|_| Shadow {
                state: initial.clone(),
                seed: initial.clone(),
                writes: 0,
                newest: 0,
                since: 0,
                held: false,
            })
            .collect();
        let (log_cap, arb) = match mode {
            Mode::Causal => ((objects * DEFAULT_RING_CAP).next_power_of_two(), Vec::new()),
            Mode::Convergent => (0, (0..objects).map(|_| Vec::new()).collect()),
        };
        Monitor {
            adt,
            mode,
            me,
            initial,
            shadows,
            // capacity up front, so the hot path never reallocates
            log: Vec::with_capacity(log_cap),
            log_mask: log_cap.saturating_sub(1),
            head: 0,
            held: HashMap::new(),
            arb,
            last_ts: vec![None; origins.max(1)],
            delivered: vec![0; origins.max(1)],
            budget: Budget::nodes(200_000),
            max_kernel_events: DEFAULT_MAX_KERNEL_EVENTS,
            stats: MonitorStats::default(),
        }
    }

    /// Fold one locally-invoked operation (query outputs are checked,
    /// update effects folded). `time` is the op's Lamport time at
    /// this replica.
    pub fn on_own(
        &mut self,
        obj: u32,
        input: &T::Input,
        output: &T::Output,
        time: u64,
    ) -> Option<Escalation> {
        self.stats.ops_checked += 1;
        let mut esc = None;
        if self.adt.is_query(input) {
            let sh = &self.shadows[obj as usize];
            if !self.adt.output_matches(&sh.state, input, output) {
                let pattern = self.classify(obj, input, output);
                esc = Some(self.escalate(obj, input, Some(output), pattern));
            }
        }
        if self.adt.is_update(input) {
            self.fold(Entry {
                obj,
                origin: self.me as u32,
                time,
                input: input.clone(),
                output: Some(output.clone()),
            });
            self.last_ts[self.me] = Some(time);
        }
        esc
    }

    /// Fold one causally-delivered remote update.
    pub fn on_delivered(&mut self, obj: u32, input: &T::Input, stamp: Stamp) -> Option<Escalation> {
        self.stats.folds += 1;
        self.delivered[stamp.origin] += 1;
        let mut esc = None;
        if let Some(t) = self.last_ts[stamp.origin] {
            if stamp.time <= t {
                // issue order and delivery order disagree on this
                // edge: the implied causal order is cyclic. No replay
                // can clear this — the regression is the proof.
                self.stats.escalations += 1;
                self.stats.violations += 1;
                esc = Some(Escalation {
                    pattern: BadPattern::CyclicCo {
                        origin: stamp.origin,
                    },
                    events: 0,
                    witness: Err(format!(
                        "origin {} Lamport time regressed {} -> {} in delivery order",
                        stamp.origin, t, stamp.time
                    )),
                    verdict: Verdict::Unsat,
                    nodes_used: 0,
                });
            }
        }
        self.last_ts[stamp.origin] = Some(stamp.time);
        self.fold(Entry {
            obj,
            origin: stamp.origin as u32,
            time: stamp.time,
            input: input.clone(),
            output: None,
        });
        esc
    }

    /// Check the output of a routed read served *from* this replica
    /// (certifies reads this replica answers for non-hosting peers).
    pub fn on_served_read(
        &mut self,
        obj: u32,
        input: &T::Input,
        output: &T::Output,
    ) -> Option<Escalation> {
        self.stats.ops_checked += 1;
        let sh = &self.shadows[obj as usize];
        if self.adt.output_matches(&sh.state, input, output) {
            return None;
        }
        let pattern = self.classify(obj, input, output);
        Some(self.escalate(obj, input, Some(output), pattern))
    }

    /// Fold one applied update into its object's shadow.
    fn fold(&mut self, ev: Entry<T>) {
        let obj = ev.obj as usize;
        let sh = &mut self.shadows[obj];
        sh.writes += 1;
        match self.mode {
            Mode::Causal => {
                // delivery-order fold: O(1). The update goes to the
                // one log, a sequential store whatever the object;
                // the entry it overwrites, if the log has wrapped,
                // folds into its own object's seed.
                sh.state = self.adt.transition(&sh.state, &ev.input);
                sh.newest = self.head;
                let at = self.head as usize & self.log_mask;
                self.head += 1;
                if at == self.log.len() {
                    self.log.push(ev);
                } else {
                    let old = std::mem::replace(&mut self.log[at], ev);
                    let idx = self.head - 1 - self.log.len() as u64;
                    self.evict(old, idx);
                }
            }
            Mode::Convergent => {
                // arbitration fold: insert by stamp; in-order inserts
                // (the common case) extend the cached fold in O(1),
                // out-of-order inserts refold from the seed — the
                // same amortized profile as the replica's own
                // arbitration log, but derived independently. The
                // log is uncapped between drains (compaction points
                // are the only stamps-ordered cuts).
                let log = &mut self.arb[obj];
                let key = ev.key();
                let at_end = log.last().map(|b| b.key() < key).unwrap_or(true);
                if at_end {
                    sh.state = self.adt.transition(&sh.state, &ev.input);
                    log.push(ev);
                } else {
                    let pos = log.partition_point(|e| e.key() <= key);
                    log.insert(pos, ev);
                    let mut st = sh.seed.clone();
                    for e in log.iter() {
                        st = self.adt.transition(&st, &e.input);
                    }
                    sh.state = st;
                }
            }
        }
    }

    /// CC: the log overwrote `e`, appended at log index `idx`. An
    /// entry from before its object's last cut is already in the
    /// seed; otherwise the object's held entry (older than `e`) folds
    /// into the seed, and `e` either follows it or, while it is still
    /// the object's newest update, is held in its place.
    fn evict(&mut self, e: Entry<T>, idx: u64) {
        let sh = &mut self.shadows[e.obj as usize];
        if idx < sh.since {
            return;
        }
        if sh.held {
            let h = self.held.remove(&e.obj).expect("held flag without entry");
            sh.seed = self.adt.transition(&sh.seed, &h.input);
            sh.held = false;
        }
        if idx == sh.newest {
            sh.held = true;
            self.held.insert(e.obj, e);
        } else {
            sh.seed = self.adt.transition(&sh.seed, &e.input);
        }
    }

    /// The escalation window of `obj`. Under CC it is built from the
    /// seed, the held entry (if any) and the object's entries in the
    /// log; all but the newest `2·cap − 1` fold into the copy of the
    /// seed, so a window is bounded and always holds the object's
    /// newest update. Under CCv it is the seed and the object's whole
    /// arbitration log.
    fn window(&self, obj: u32) -> Window<'_, T> {
        let sh = &self.shadows[obj as usize];
        let mut seed = sh.seed.clone();
        let evs = match self.mode {
            Mode::Causal => {
                let mut evs: Vec<&Entry<T>> = self.held.get(&obj).into_iter().collect();
                let from = sh
                    .since
                    .max(self.head.saturating_sub(self.log.len() as u64));
                evs.extend(
                    (from..self.head)
                        .map(|i| &self.log[i as usize & self.log_mask])
                        .filter(|e| e.obj == obj),
                );
                let excess = evs.len().saturating_sub(2 * DEFAULT_RING_CAP - 1);
                for e in evs.drain(..excess) {
                    seed = self.adt.transition(&seed, &e.input);
                }
                evs
            }
            Mode::Convergent => self.arb[obj as usize].iter().collect(),
        };
        Window { seed, evs }
    }

    /// Classify a query mismatch into the bad-pattern family from the
    /// O(1) last-writer context.
    fn classify(&self, obj: u32, input: &T::Input, output: &T::Output) -> BadPattern {
        if self.shadows[obj as usize].writes == 0 {
            return BadPattern::ThinAirRead { obj };
        }
        // state-before-last-update (CC) / fold minus the arbitration-
        // maximal update (CCv), recomputed here (suspicion path only)
        // so the hot fold never maintains it
        let win = self.window(obj);
        let n = win.evs.len();
        let mut prev = win.seed;
        for e in &win.evs[..n.saturating_sub(1)] {
            prev = self.adt.transition(&prev, &e.input);
        }
        let skipped_last = self.adt.output_matches(&prev, input, output);
        let init_read = self.adt.output_matches(&self.initial, input, output);
        match self.mode {
            Mode::Causal => {
                if skipped_last {
                    BadPattern::WriteCoRead { obj }
                } else if init_read {
                    BadPattern::WriteCoInitRead { obj }
                } else {
                    BadPattern::ThinAirRead { obj }
                }
            }
            Mode::Convergent => {
                // init-read first: with a single arbitrated update,
                // "fold minus the winner" is the initial state too;
                // otherwise, does the output ignore exactly the
                // conflict winner?
                if init_read {
                    BadPattern::WriteHbInitRead { obj }
                } else if n > 0 && skipped_last {
                    BadPattern::CyclicCf { obj }
                } else {
                    BadPattern::ThinAirRead { obj }
                }
            }
        }
    }

    /// Rebuild the minimal implicated window (the object's window plus
    /// the suspect query) and re-check it exactly: witness first, then
    /// the bounded kernel from the [`Seeded`] snapshot.
    fn escalate(
        &mut self,
        obj: u32,
        input: &T::Input,
        output: Option<&T::Output>,
        pattern: BadPattern,
    ) -> Escalation {
        self.stats.escalations += 1;
        let Window { seed, evs } = self.window(obj);

        // processes of the micro-history: every origin in the window
        // plus the querying replica, in id order (determinism)
        let mut origins: Vec<usize> = evs.iter().map(|e| e.origin()).collect();
        origins.push(self.me);
        origins.sort_unstable();
        origins.dedup();
        let pidx = |o: usize| origins.binary_search(&o).expect("origin registered");

        // program order per origin = window order restricted to it
        // (the discipline folds each origin's updates in its issue
        // order)
        let mut b: HistoryBuilder<T::Input, T::Output> = HistoryBuilder::new();
        let mut win_ids: Vec<EventId> = Vec::with_capacity(evs.len());
        let mut stamps: Vec<Stamp> = Vec::with_capacity(evs.len() + 1);
        for o in &origins {
            for e in evs.iter().filter(|e| e.origin() == *o) {
                let id = match &e.output {
                    Some(out) => b.op(pidx(*o), e.input.clone(), out.clone()),
                    None => b.hidden(pidx(*o), e.input.clone()),
                };
                win_ids.push(id);
                stamps.push(e.stamp());
            }
        }
        // win_ids above is grouped by origin; rebuild delivery order
        // (the order of the window itself) for the apply-order witness
        let mut by_win: Vec<EventId> = Vec::with_capacity(evs.len());
        {
            let mut next: HashMap<usize, usize> = HashMap::new();
            let mut grouped: HashMap<usize, Vec<EventId>> = HashMap::new();
            let mut k = 0usize;
            for o in &origins {
                let cnt = evs.iter().filter(|e| e.origin() == *o).count();
                grouped.insert(*o, win_ids[k..k + cnt].to_vec());
                next.insert(*o, 0);
                k += cnt;
            }
            for e in &evs {
                let i = next.get_mut(&e.origin()).expect("grouped");
                by_win.push(grouped[&e.origin()][*i]);
                *i += 1;
            }
        }
        let query_id = match output {
            Some(out) => b.op(pidx(self.me), input.clone(), out.clone()),
            None => b.hidden(pidx(self.me), input.clone()),
        };
        let h = b.build();
        let m = h.len();

        // causal order the monitor witnessed: per-origin issue chains
        // plus delivered-before edges into the replica's own events
        let mut edges: Vec<(usize, usize)> = Vec::new();
        {
            // per-origin chains
            let mut last: HashMap<usize, EventId> = HashMap::new();
            for (id, e) in win_ids.iter().zip(evs.iter()) {
                if let Some(prev) = last.insert(e.origin(), *id) {
                    edges.push((prev.idx(), id.idx()));
                }
            }
            if let Some(prev) = last.get(&self.me) {
                edges.push((prev.idx(), query_id.idx()));
            }
            // everything applied before the query is in its causal
            // past at this replica; own window events likewise saw
            // the window prefix before them
            for (i, id) in by_win.iter().enumerate() {
                if evs[i].origin() == self.me {
                    for prior in &by_win[..i] {
                        edges.push((prior.idx(), id.idx()));
                    }
                }
                edges.push((id.idx(), query_id.idx()));
            }
        }
        let witness = match Relation::from_edges(m, &edges) {
            None => Err("witnessed delivery order is cyclic".to_string()),
            Some(causal) => {
                // the replica's apply order: window in delivery order,
                // then the query; own events carry checked outputs
                let me_p = pidx(self.me);
                let mut apply: Vec<Vec<EventId>> = vec![Vec::new(); origins.len()];
                apply[me_p] = by_win.iter().copied().chain([query_id]).collect();
                let mut own: Vec<Vec<EventId>> = vec![Vec::new(); origins.len()];
                own[me_p] = by_win
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| evs[*i].origin() == self.me)
                    .map(|(_, id)| *id)
                    .chain([query_id])
                    .collect();
                match self.mode {
                    Mode::Causal => {
                        let initials: Vec<T::State> = vec![seed.clone(); origins.len()];
                        verify_cc_window(&self.adt, &h, &causal, &apply, &own, &initials)
                            .map_err(|e| format!("{e:?}"))
                    }
                    Mode::Convergent => {
                        // arbitration total order: window stamps (the
                        // window is stamp-sorted under CCv), query last
                        let mut order: Vec<(Stamp, EventId)> = stamps
                            .iter()
                            .copied()
                            .zip(win_ids.iter().copied())
                            .collect();
                        order.sort_by_key(|(s, _)| (s.time, s.origin));
                        let total: Vec<EventId> = order
                            .into_iter()
                            .map(|(_, id)| id)
                            .chain([query_id])
                            .collect();
                        verify_ccv_window(&self.adt, &h, &causal, &total, 1, &seed)
                            .map_err(|e| format!("{e:?}"))
                    }
                }
            }
        };

        // criterion-level: does *any* causal order explain the window?
        let (verdict, nodes_used) = if m <= self.max_kernel_events {
            let seeded = Seeded::new(&self.adt, seed);
            let criterion = self.mode.checked();
            let r = check(criterion, &seeded, &h, &self.budget);
            (r.verdict, r.nodes_used)
        } else {
            (Verdict::Unknown, 0)
        };

        match &witness {
            Ok(()) => self.stats.cleared += 1,
            Err(_) => self.stats.violations += 1,
        }
        if verdict == Verdict::Unknown {
            self.stats.kernel_unknown += 1;
        }
        Escalation {
            pattern,
            events: m,
            witness,
            verdict,
            nodes_used,
        }
    }

    /// Drain compaction: every window is cut at a stamps-ordered point
    /// (all later Lamport times exceed all folded ones), so the seed
    /// absorbs the fold and the escalation window restarts empty.
    pub fn on_drain(&mut self) {
        for sh in &mut self.shadows {
            sh.seed = sh.state.clone();
            sh.since = self.head;
            sh.held = false;
        }
        self.held.clear();
        for log in &mut self.arb {
            log.clear();
        }
    }

    /// Crash recovery: the replica installed `state` for `slot` from
    /// a co-replica transfer. The shadow restarts from it — window and
    /// last-writer context cleared, so no escalation window rebuilt
    /// after this point can contain pre-crash placeholders.
    pub fn install_slot(&mut self, slot: usize, state: &T::State) {
        let sh = &mut self.shadows[slot];
        sh.state = state.clone();
        sh.seed = state.clone();
        sh.since = self.head;
        sh.writes = 0;
        if std::mem::take(&mut sh.held) {
            self.held.remove(&(slot as u32));
        }
        if let Some(log) = self.arb.get_mut(slot) {
            log.clear();
        }
    }

    /// Recovery resync: restart the per-origin frontier (post-recovery
    /// stamps are all beyond the cut; monotonicity re-arms from the
    /// next delivery).
    pub fn resync(&mut self) {
        for t in &mut self.last_ts {
            *t = None;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Durable-restart seeding: add the counters a crashed monitor had
    /// persisted at its last sealed cut, so a restarted replica's totals
    /// continue from the cut instead of restarting at zero (shadows are
    /// rebuilt separately via [`Monitor::install_slot`]).
    pub fn seed_stats(&mut self, s: MonitorStats) {
        self.stats += s;
    }
}

/// `$name::new` builds a [`Monitor`] of one fixed discipline; every
/// method is the [`Monitor`]'s, reached through `Deref`.
macro_rules! monitor_of {
    ($name:ident, $mode:expr, $doc:literal) => {
        #[doc = $doc]
        #[derive(Debug, Clone)]
        pub struct $name<T: Adt>(Monitor<T>);

        impl<T: Adt + Clone> $name<T> {
            /// A monitor over `objects` object slots and `origins`
            /// replicas, running at replica `me`.
            pub fn new(adt: T, objects: usize, origins: usize, me: usize) -> Self {
                $name(Monitor::new(adt, $mode, objects, origins, me))
            }
        }

        impl<T: Adt> std::ops::Deref for $name<T> {
            type Target = Monitor<T>;
            fn deref(&self) -> &Monitor<T> {
                &self.0
            }
        }

        impl<T: Adt> std::ops::DerefMut for $name<T> {
            fn deref_mut(&mut self) -> &mut Monitor<T> {
                &mut self.0
            }
        }
    };
}

monitor_of!(
    CcMonitor,
    Mode::Causal,
    "Streaming bad-pattern monitor for delivery-order (**CC**, Def. 9) \
     replicas: shadow state folds applied updates in delivery order; \
     query outputs are certified against it in O(1); suspicions \
     escalate to the exact checkers (see the [module docs](self))."
);

monitor_of!(
    CcvMonitor,
    Mode::Convergent,
    "Streaming bad-pattern monitor layering the arbitration/convergence \
     check (**CCv**, Def. 12): shadow state folds applied updates in \
     Lamport-stamp arbitration order via an independent per-object \
     sorted log; adds the `WriteHbInitRead`/`CyclicCf` patterns to the \
     family (see the [module docs](self))."
);

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_adt::register::{RegInput, RegOutput, Register};

    fn w(v: u64) -> RegInput {
        RegInput::Write(v)
    }

    #[test]
    fn cc_certifies_a_clean_stream() {
        let mut m = CcMonitor::new(Register, 4, 2, 0);
        assert!(m.on_own(0, &w(5), &RegOutput::Ack, 1).is_none());
        assert!(m.on_delivered(1, &w(9), Stamp::new(2, 1)).is_none());
        assert!(m
            .on_own(0, &RegInput::Read, &RegOutput::Val(5), 3)
            .is_none());
        assert!(m
            .on_own(1, &RegInput::Read, &RegOutput::Val(9), 4)
            .is_none());
        let s = m.stats();
        assert_eq!(s.ops_checked, 3, "reads + the write invocation");
        assert_eq!(s.folds, 1);
        assert_eq!(s.escalations, 0);
    }

    #[test]
    fn cc_confirms_a_stale_read_but_kernel_may_still_sat() {
        let mut m = CcMonitor::new(Register, 2, 2, 0);
        m.on_delivered(0, &w(5), Stamp::new(1, 1));
        m.on_delivered(0, &w(7), Stamp::new(2, 1));
        // the replica skipped the delivered overwrite
        let esc = m
            .on_own(0, &RegInput::Read, &RegOutput::Val(5), 3)
            .expect("stale read must escalate");
        assert_eq!(esc.pattern, BadPattern::WriteCoRead { obj: 0 });
        assert!(
            esc.confirmed(),
            "witness replay must reject: {:?}",
            esc.witness
        );
        // criterion-level the window is still explainable (a causal
        // order where w(7) is concurrent with the read): the kernel
        // distinguishes discipline violations from CC violations
        assert_eq!(esc.verdict, Verdict::Sat);
        assert_eq!(esc.events, 3);
        let s = m.stats();
        assert_eq!((s.escalations, s.violations, s.cleared), (1, 1, 0));
    }

    #[test]
    fn cc_classifies_thin_air_and_init_reads() {
        let mut m = CcMonitor::new(Register, 2, 2, 0);
        let esc = m
            .on_own(0, &RegInput::Read, &RegOutput::Val(42), 1)
            .expect("unwritten value");
        assert_eq!(esc.pattern, BadPattern::ThinAirRead { obj: 0 });
        assert!(esc.confirmed());

        m.on_delivered(1, &w(5), Stamp::new(2, 1));
        m.on_delivered(1, &w(6), Stamp::new(3, 1));
        let esc = m
            .on_own(1, &RegInput::Read, &RegOutput::Val(0), 4)
            .expect("initial value past delivered writes");
        assert_eq!(esc.pattern, BadPattern::WriteCoInitRead { obj: 1 });
        assert!(esc.confirmed());
        // the kernel agrees this window is unexplainable: every causal
        // order for a same-process read after nothing... the read's
        // own process saw both writes delivered, but criterion-level
        // the reads-from-nothing value 0 is explainable only if both
        // writes are outside the read's past — which the kernel is
        // free to choose, so it may Sat; the witness is authoritative.
    }

    #[test]
    fn cyclic_co_is_confirmed_without_replay() {
        let mut m = CcMonitor::new(Register, 2, 3, 0);
        m.on_delivered(0, &w(1), Stamp::new(5, 2));
        let esc = m
            .on_delivered(1, &w(2), Stamp::new(3, 2))
            .expect("stamp regression");
        assert_eq!(esc.pattern, BadPattern::CyclicCo { origin: 2 });
        assert!(esc.confirmed());
        assert_eq!(esc.verdict, Verdict::Unsat);
        assert_eq!(esc.events, 0);
    }

    #[test]
    fn ccv_arbitrates_by_stamp_and_flags_cyclic_cf() {
        let mut m = CcvMonitor::new(Register, 2, 3, 0);
        // delivered out of stamp order: arbitration must settle on the
        // max-stamp write (value 5)
        m.on_delivered(0, &w(5), Stamp::new(9, 1));
        m.on_delivered(0, &w(7), Stamp::new(3, 2));
        assert!(
            m.on_own(0, &RegInput::Read, &RegOutput::Val(5), 10)
                .is_none(),
            "arbitration winner certifies"
        );
        // reading the arbitration loser = cyclic conflict order
        let esc = m
            .on_own(0, &RegInput::Read, &RegOutput::Val(7), 11)
            .expect("loser read escalates");
        assert_eq!(esc.pattern, BadPattern::CyclicCf { obj: 0 });
        assert!(esc.confirmed(), "{:?}", esc.witness);
    }

    #[test]
    fn ccv_flags_init_read_past_arbitrated_writes() {
        let mut m = CcvMonitor::new(Register, 1, 2, 0);
        m.on_delivered(0, &w(5), Stamp::new(1, 1));
        let esc = m
            .on_own(0, &RegInput::Read, &RegOutput::Val(0), 2)
            .expect("initial value past a write");
        assert_eq!(esc.pattern, BadPattern::WriteHbInitRead { obj: 0 });
        assert!(esc.confirmed());
    }

    #[test]
    fn drain_compaction_preserves_checking() {
        let mut m = CcMonitor::new(Register, 1, 2, 0);
        m.on_delivered(0, &w(5), Stamp::new(1, 1));
        m.on_drain();
        // post-drain the ring is empty but the seed carries the fold
        assert!(m
            .on_own(0, &RegInput::Read, &RegOutput::Val(5), 2)
            .is_none());
        // a stale read after compaction still escalates (witness
        // replays from the seed; the micro-window is just the read)
        let esc = m
            .on_own(0, &RegInput::Read, &RegOutput::Val(3), 3)
            .expect("post-drain mismatch");
        assert!(esc.confirmed());
        assert_eq!(esc.events, 1);
    }

    #[test]
    fn ring_cap_folds_exactly_into_the_seed() {
        let mut m = CcMonitor::new(Register, 1, 2, 0);
        for i in 0..(DEFAULT_RING_CAP as u64 + 20) {
            m.on_delivered(0, &w(i), Stamp::new(i + 1, 1));
        }
        let last = DEFAULT_RING_CAP as u64 + 19;
        assert!(m
            .on_own(0, &RegInput::Read, &RegOutput::Val(last), 100)
            .is_none());
        // escalation windows stay bounded: the retained ring
        // (at most 2*cap - 1 events) + the query
        let esc = m
            .on_own(0, &RegInput::Read, &RegOutput::Val(1), 101)
            .expect("stale");
        assert!(esc.events <= DEFAULT_RING_CAP * 2);
        assert!(esc.confirmed());
    }

    #[test]
    fn install_slot_rebuilds_without_precrash_events() {
        let mut m = CcMonitor::new(Register, 2, 2, 0);
        m.on_delivered(0, &w(5), Stamp::new(1, 1));
        m.on_delivered(0, &w(7), Stamp::new(2, 1));
        // recovery: a helper shipped state 9 for slot 0
        m.install_slot(0, &9u64);
        m.resync();
        assert!(m
            .on_own(0, &RegInput::Read, &RegOutput::Val(9), 5)
            .is_none());
        // a mismatch right after recovery rebuilds a window seeded
        // from the installed state — no pre-crash events in it
        let esc = m
            .on_own(0, &RegInput::Read, &RegOutput::Val(5), 6)
            .expect("mismatch");
        assert_eq!(esc.events, 1, "window must contain only the query");
        // and the frontier re-armed: an old-stamp delivery does not
        // false-positive CyclicCO after resync
        assert!(m.on_delivered(1, &w(1), Stamp::new(1, 1)).is_none());
    }

    #[test]
    fn served_reads_are_certified_on_the_serving_side() {
        let mut m = CcMonitor::new(Register, 1, 2, 0);
        m.on_own(0, &w(3), &RegOutput::Ack, 1);
        assert!(m
            .on_served_read(0, &RegInput::Read, &RegOutput::Val(3))
            .is_none());
        let esc = m
            .on_served_read(0, &RegInput::Read, &RegOutput::Val(8))
            .expect("bad served output");
        assert!(esc.confirmed());
        assert_eq!(m.stats().ops_checked, 3);
    }

    #[test]
    fn seeded_adapter_replays_from_the_snapshot() {
        let s = Seeded::new(&Register, 7u64);
        assert_eq!(s.initial(), 7);
        assert_eq!(s.output(&7, &RegInput::Read), RegOutput::Val(7));
        assert_eq!(s.transition(&7, &w(9)), 9);
        assert!(s.output_matches(&7, &RegInput::Read, &RegOutput::Val(7)));
    }

    #[test]
    fn own_updates_participate_in_escalation_windows() {
        let mut m = CcMonitor::new(Register, 1, 2, 0);
        m.on_own(0, &w(4), &RegOutput::Ack, 1);
        m.on_delivered(0, &w(6), Stamp::new(2, 1));
        let esc = m
            .on_own(0, &RegInput::Read, &RegOutput::Val(4), 3)
            .expect("skipped the delivered overwrite");
        assert_eq!(esc.pattern, BadPattern::WriteCoRead { obj: 0 });
        assert_eq!(esc.events, 3, "own write + remote write + query");
        assert!(esc.confirmed());
    }

    #[test]
    fn pattern_names_and_codes_are_stable() {
        let all = [
            BadPattern::ThinAirRead { obj: 0 },
            BadPattern::WriteCoInitRead { obj: 0 },
            BadPattern::WriteCoRead { obj: 0 },
            BadPattern::WriteHbInitRead { obj: 0 },
            BadPattern::CyclicCf { obj: 0 },
            BadPattern::CyclicCo { origin: 0 },
        ];
        let mut codes: Vec<u64> = all.iter().map(|p| p.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len(), "codes must be distinct");
        assert_eq!(BadPattern::CyclicCf { obj: 0 }.name(), "cyclic_cf");
    }

    #[test]
    fn stale_read_past_the_whole_log_keeps_the_overwrite() {
        let mut m = CcMonitor::new(Register, 2, 2, 0);
        m.on_delivered(0, &w(5), Stamp::new(1, 1));
        m.on_delivered(0, &w(7), Stamp::new(2, 1));
        // traffic on object 1 overwrites the whole log: object 0's
        // two writes are older than every entry in it
        let log = (2 * DEFAULT_RING_CAP).next_power_of_two() as u64;
        for i in 0..log {
            m.on_delivered(1, &w(100 + i), Stamp::new(3 + i, 1));
        }
        assert!(m.log.iter().all(|e| e.obj == 1));
        let newest: Vec<RegInput> = m.window(0).evs.iter().map(|e| e.input).collect();
        assert_eq!(newest, vec![w(7)], "the overwrite stays in the window");
        // the replica skipped that overwrite
        let esc = m
            .on_own(0, &RegInput::Read, &RegOutput::Val(5), 3 + log)
            .expect("stale read must escalate");
        assert_eq!(esc.pattern, BadPattern::WriteCoRead { obj: 0 });
        assert!(esc.confirmed(), "{:?}", esc.witness);
        assert_eq!(esc.verdict, Verdict::Sat);
        assert_eq!(esc.events, 2, "held overwrite + query");
    }

    mod log_props {
        use super::*;
        use cbm_adt::counter::{Counter, CtInput, CtOutput};
        use proptest::prelude::*;

        fn add(n: i64) -> CtInput {
            CtInput::Add(n)
        }

        /// One step of a random CC monitor stream over a few objects
        /// (a counter, so every update moves the state and a fold
        /// the seed missed shows).
        #[derive(Debug, Clone)]
        enum Op {
            Own(u32, i64),
            Read(u32),
            Delivered(u32, i64, usize),
            /// `n` remote writes to one object in a row.
            Burst(u32, usize),
            Drain,
            Install(u32, i64),
        }

        fn op() -> impl Strategy<Value = Op> {
            (0u32..100, 0u32..OBJECTS, 1i64..1000, 1usize..3, 1usize..80).prop_map(
                |(k, obj, v, origin, n)| match k {
                    0..=29 => Op::Own(obj, v),
                    30..=39 => Op::Read(obj),
                    40..=84 => Op::Delivered(obj, v, origin),
                    85..=93 => Op::Burst(obj, n),
                    94..=96 => Op::Drain,
                    _ => Op::Install(obj, v),
                },
            )
        }

        const OBJECTS: u32 = 4;

        proptest! {
            /// After every step, for every object: its window folds
            /// from the window's seed to the shadow state, holds at
            /// most `2·cap − 1` updates, and ends with the object's
            /// newest update since its last cut. The 64-entry log
            /// wraps many times per case.
            #[test]
            fn windows_fold_to_the_shadow_and_keep_the_newest(
                ops in prop::collection::vec(op(), 1..400),
            ) {
                let mut m = CcMonitor::new(Counter, OBJECTS as usize, 3, 0);
                let mut newest: Vec<Option<Stamp>> = vec![None; OBJECTS as usize];
                let mut t = 0u64;
                for op in &ops {
                    match *op {
                        Op::Own(obj, v) => {
                            t += 1;
                            m.on_own(obj, &add(v), &CtOutput::Ack, t);
                            newest[obj as usize] = Some(Stamp::new(t, 0));
                        }
                        Op::Read(obj) => {
                            t += 1;
                            let v = m.shadows[obj as usize].state;
                            let esc = m.on_own(obj, &CtInput::Read, &CtOutput::Val(v), t);
                            prop_assert!(esc.is_none());
                        }
                        Op::Delivered(obj, v, origin) => {
                            t += 1;
                            m.on_delivered(obj, &add(v), Stamp::new(t, origin));
                            newest[obj as usize] = Some(Stamp::new(t, origin));
                        }
                        Op::Burst(obj, n) => {
                            for i in 0..n as u64 {
                                t += 1;
                                m.on_delivered(obj, &add(i as i64 + 1), Stamp::new(t, 1));
                            }
                            newest[obj as usize] = Some(Stamp::new(t, 1));
                        }
                        Op::Drain => {
                            m.on_drain();
                            newest.iter_mut().for_each(|n| *n = None);
                        }
                        Op::Install(obj, v) => {
                            m.install_slot(obj as usize, &v);
                            newest[obj as usize] = None;
                        }
                    }
                    for obj in 0..OBJECTS {
                        let win = m.window(obj);
                        let mut st = win.seed;
                        for e in &win.evs {
                            st = Counter.transition(&st, &e.input);
                        }
                        prop_assert_eq!(st, m.shadows[obj as usize].state);
                        prop_assert!(win.evs.len() < 2 * DEFAULT_RING_CAP);
                        prop_assert_eq!(win.evs.last().map(|e| e.stamp()), newest[obj as usize]);
                    }
                }
            }
        }
    }
}
