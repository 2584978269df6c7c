//! Witness-based verification of recorded executions.
//!
//! The bounded searches in this crate *decide* criteria; executions
//! recorded from the algorithms of Figs. 4 and 5 come with their own
//! evidence — the delivered-before relation (a causal order by
//! construction of the causal broadcast) and either per-replica apply
//! orders (Fig. 4) or a timestamp total order (Fig. 5). Checking that
//! evidence is a replay plus word-parallel checks of the causal order's
//! rows (O(n/64) words per row), not a search, which is how
//! Propositions 6 and 7 are validated on large random executions.
//!
//! A run recorded piecewise — the store's sampled windows, the
//! streaming monitor's escalation windows — is a [`Recording`]: each
//! replica's own events with their stamps, its apply order where it was
//! observed, and the state it started from. [`Recording::check`]
//! derives the history and its causal order from those parts and runs
//! the CC or CCv witness, so both callers share one witness path. Every
//! causal past in a recording is a prefix of each replica's events, so
//! the order takes one frontier pass, O(events × parts), and the check
//! costs that plus the replay.
//!
//! Both witnesses step their replay states with
//! [`Adt::transition_in_place`] and refill their scratch sets, so a
//! replayed event allocates nothing: on an object space a step changes
//! one slot, and a CCv check copies a whole state only once per sampled
//! output, from that output's seed.

use crate::label_table;
use crate::monitor::Stamp;
use crate::Mode;
use cbm_adt::Adt;
use cbm_history::{BitSet, EventId, History, HistoryBuilder, Relation};

/// Why a CC witness was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcViolation {
    /// The claimed causal order does not contain the program order.
    NotACausalOrder,
    /// The claimed causal order is cyclic.
    CyclicCausalOrder,
    /// A process's apply order disagrees with the causal order.
    ApplyOrderViolatesCausality {
        /// The offending process (index into `apply_orders`).
        process: usize,
    },
    /// Some local event's applied prefix differs from its causal past.
    PrefixMismatch {
        /// The offending process.
        process: usize,
        /// The local event whose prefix is wrong.
        event: EventId,
    },
    /// Replaying a process's apply order contradicts a recorded output.
    OutputMismatch {
        /// The offending process.
        process: usize,
        /// The event whose output disagrees with the replay.
        event: EventId,
    },
}

/// Verify that a recorded execution is causally consistent (Def. 9) via
/// its own witness: per replica, one word-parallel check of the causal
/// order's rows per applied event (O(n/64) words each), then one replay
/// of its apply order.
///
/// * `causal` — the delivered-before order (must contain `↦`);
/// * `apply_orders[p]` — the order in which replica `p` applied events
///   (its own invocations plus remote updates at delivery);
/// * `own[p]` — the events invoked by `p` (outputs observed at `p`).
///
/// On success the witness instantiates Def. 9: for each `e ∈ own[p]`,
/// the prefix of `apply_orders[p]` up to `e` is a linearization of
/// `(H→).π(⌊e⌋, p)` in `L(T)` — up to the remote *pure queries* of
/// `⌊e⌋`, which generate no messages, are absent from apply orders,
/// and are harmless in any linearization (hidden outputs, identity
/// transitions), so the prefix comparison is taken against
/// `⌊e⌋ ∩ (updates ∪ own[p])`.
pub fn verify_cc_execution<T: Adt>(
    adt: &T,
    h: &History<T::Input, T::Output>,
    causal: &Relation,
    apply_orders: &[Vec<EventId>],
    own: &[Vec<EventId>],
) -> Result<(), CcViolation> {
    verify_cc_from(adt, h, causal, apply_orders, own, |_| adt.initial())
}

/// The CC witness, replica `p` replaying from `initial_of(p)`.
fn verify_cc_from<T: Adt>(
    adt: &T,
    h: &History<T::Input, T::Output>,
    causal: &Relation,
    apply_orders: &[Vec<EventId>],
    own: &[Vec<EventId>],
    initial_of: impl Fn(usize) -> T::State,
) -> Result<(), CcViolation> {
    if !causal.contains(h.prog()) {
        return Err(CcViolation::NotACausalOrder);
    }
    if !causal.is_acyclic() {
        return Err(CcViolation::CyclicCausalOrder);
    }
    let n = h.len();
    let labels = label_table::<T>(h);
    let mut updates = BitSet::new(n);
    for (i, (input, _)) in labels.iter().enumerate() {
        if adt.is_update(input) {
            updates.insert(i);
        }
    }
    // per-replica scratch, refilled for each replica: nothing below
    // allocates per event
    let mut delivered = BitSet::new(n);
    let mut seen = BitSet::new(n);
    let mut own_set = BitSet::new(n);
    let mut relevant = BitSet::new(n);
    let mut prefix = BitSet::new(n);
    let mut floor = BitSet::new(n);
    let mut with_e = BitSet::new(n);
    for (p, order) in apply_orders.iter().enumerate() {
        // (i) the apply order respects the causal order. Only delivered
        // events constrain (a replica cannot apply what it has not
        // seen; events never delivered to p are absent from `order`
        // entirely) — the delivered set is loop-invariant, so it is
        // built once, and the masked-subset test is word-level.
        delivered.clear();
        for e in order {
            delivered.insert(e.idx());
        }
        seen.clear();
        for e in order {
            if !causal.past(e.idx()).subset_of_with_mask(&seen, &delivered) {
                return Err(CcViolation::ApplyOrderViolatesCausality { process: p });
            }
            seen.insert(e.idx());
        }
        // (ii) per own event: applied prefix = relevant causal past
        own_set.clear();
        for e in &own[p] {
            own_set.insert(e.idx());
        }
        relevant.clear_and_copy_from(&updates);
        relevant.union_with(&own_set);
        prefix.clear();
        for e in order {
            if own_set.contains(e.idx()) {
                floor.clear_and_copy_from(causal.past(e.idx()));
                floor.insert(e.idx());
                floor.intersect_with(&relevant);
                with_e.clear_and_copy_from(&prefix);
                with_e.insert(e.idx());
                with_e.intersect_with(&relevant);
                if with_e != floor {
                    return Err(CcViolation::PrefixMismatch {
                        process: p,
                        event: *e,
                    });
                }
            }
            prefix.insert(e.idx());
        }
        // (iii) replay with own outputs checked, stepping one state
        let mut state = initial_of(p);
        for e in order {
            let (input, out) = &labels[e.idx()];
            if own_set.contains(e.idx()) {
                if let Some(expected) = out {
                    if !adt.output_matches(&state, input, expected) {
                        return Err(CcViolation::OutputMismatch {
                            process: p,
                            event: *e,
                        });
                    }
                }
            }
            adt.transition_in_place(&mut state, input);
        }
    }
    Ok(())
}

/// Why a CCv witness was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcvViolation {
    /// The claimed causal order does not contain the program order.
    NotACausalOrder,
    /// The claimed causal order is cyclic.
    CyclicCausalOrder,
    /// The total order does not contain the causal order.
    TotalOrderViolatesCausality,
    /// Replaying an event's timestamp-sorted causal past contradicts
    /// its recorded output.
    OutputMismatch(EventId),
}

/// Verify that a recorded execution is causally convergent (Def. 12)
/// via its own witness.
///
/// * `causal` — delivered-before order;
/// * `total` — the arbitration sequence (every event exactly once,
///   e.g. Lamport-timestamp order), which must extend `causal`.
///
/// Each event's recorded output is checked against the replay of its
/// `⌊e⌋` sorted by `total`. Cost is O(Σ|⌊e⌋|); pass `sample_every > 1`
/// to check only every k-th event on large executions.
pub fn verify_ccv_execution<T: Adt>(
    adt: &T,
    h: &History<T::Input, T::Output>,
    causal: &Relation,
    total: &[EventId],
    sample_every: usize,
) -> Result<(), CcvViolation> {
    let initial = adt.initial();
    verify_ccv_from(adt, h, causal, total, sample_every, |_| &initial)
}

/// The CCv witness over `total`, event `e`'s replay starting from
/// `seed_of(e)`.
fn verify_ccv_from<'s, T: Adt>(
    adt: &T,
    h: &History<T::Input, T::Output>,
    causal: &Relation,
    total: &[EventId],
    sample_every: usize,
    seed_of: impl Fn(EventId) -> &'s T::State,
) -> Result<(), CcvViolation>
where
    T::State: 's,
{
    if !causal.contains(h.prog()) {
        return Err(CcvViolation::NotACausalOrder);
    }
    if !causal.is_acyclic() {
        return Err(CcvViolation::CyclicCausalOrder);
    }
    let n = h.len();
    let mut pos = vec![usize::MAX; n];
    for (i, e) in total.iter().enumerate() {
        pos[e.idx()] = i;
    }
    // total ⊇ causal
    for e in 0..n {
        for pst in causal.past(e).iter() {
            if pos[pst] == usize::MAX || pos[e] == usize::MAX || pos[pst] >= pos[e] {
                return Err(CcvViolation::TotalOrderViolatesCausality);
            }
        }
    }
    let labels = label_table::<T>(h);
    let step = sample_every.max(1);
    // one past buffer and one state for every replay: a sampled output
    // copies its seed in, then steps it once per event of its past
    let mut past: Vec<usize> = Vec::new();
    let mut state = adt.initial();
    for (k, e) in h.events().enumerate() {
        if k % step != 0 {
            continue;
        }
        let (_, out) = &labels[e.idx()];
        let Some(expected) = out else { continue };
        // replay ⌊e⌋ sorted by the total order (positions are distinct,
        // so the in-place unstable sort gives the one order)
        past.clear();
        past.extend(causal.past(e.idx()).iter());
        past.sort_unstable_by_key(|&x| pos[x]);
        state.clone_from(seed_of(e));
        for &x in &past {
            adt.transition_in_place(&mut state, &labels[x].0);
        }
        if !adt.output_matches(&state, &labels[e.idx()].0, expected) {
            return Err(CcvViolation::OutputMismatch(e));
        }
    }
    Ok(())
}

/// One replica's share of a [`Recording`].
#[derive(Debug, Clone)]
pub struct Part<'a, T: Adt> {
    /// The replica's own events in issue order: input, output (`None`
    /// for a hidden one) and stamp.
    pub events: Vec<(T::Input, Option<T::Output>, Stamp)>,
    /// The order in which the replica applied events — its own at
    /// invocation, remote updates at delivery — as `(part, index into
    /// that part's events)`; `None` if the replica was not observed.
    pub applies: Option<Vec<(usize, u32)>>,
    /// The replica's state before the recording's first event.
    pub seed: &'a T::State,
}

/// A recorded run, one [`Part`] per replica: a window cut at a drained
/// point, or an escalation window seen from the one replica that
/// observed it. In the history [`Recording::check`] builds, part `p`
/// is process `p` and events are numbered part-major.
#[derive(Debug, Clone)]
pub struct Recording<'a, T: Adt> {
    /// The replicas' parts.
    pub parts: Vec<Part<'a, T>>,
}

/// Why a [`Recording`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordingViolation {
    /// An apply order names an event no part recorded.
    UnknownEvent(usize, u32),
    /// An observed part's apply order does not list each of the part's
    /// own events exactly once, in issue order.
    OwnOrder {
        /// The offending part.
        part: usize,
    },
    /// The delivered-before relation is cyclic.
    CyclicDelivery,
    /// The CC witness failed.
    Cc(CcViolation),
    /// The CCv witness failed.
    Ccv(CcvViolation),
}

impl std::fmt::Display for RecordingViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordingViolation::UnknownEvent(p, i) => {
                write!(f, "apply order references unknown event ({p},{i})")
            }
            RecordingViolation::OwnOrder { part } => write!(
                f,
                "part {part} does not apply its own events once each, in issue order"
            ),
            RecordingViolation::CyclicDelivery => write!(f, "delivered-before relation is cyclic"),
            RecordingViolation::Cc(e) => write!(f, "CC violation: {e:?}"),
            RecordingViolation::Ccv(e) => write!(f, "CCv violation: {e:?}"),
        }
    }
}

/// A [`Recording`]'s events in part-major ids.
struct Orders {
    /// Where each part's events start, and the number of events last.
    base: Vec<u32>,
    /// Each part's own events.
    own: Vec<Vec<EventId>>,
    /// Each observed part's apply order; empty for an unobserved part.
    applies: Vec<Vec<EventId>>,
}

impl<T: Adt> Recording<'_, T> {
    /// The recorded history: part `p`'s events on process `p`, in
    /// issue order.
    fn history(&self) -> History<T::Input, T::Output> {
        let mut b = HistoryBuilder::new();
        for (p, part) in self.parts.iter().enumerate() {
            for (input, output, _) in &part.events {
                match output {
                    Some(out) => b.op(p, input.clone(), out.clone()),
                    None => b.hidden(p, input.clone()),
                };
            }
        }
        b.build()
    }

    /// Check the recording against `mode`'s criterion. The causal order
    /// is delivered-before over the observed parts plus program order
    /// over the unobserved ones. Under CC each observed part replays
    /// its apply order from its seed; under CCv each `sample_every`-th
    /// event replays its causal past, sorted by stamp, from its own
    /// part's seed. Returns the history checked with the verdict.
    pub fn check(
        &self,
        adt: &T,
        mode: Mode,
        sample_every: usize,
    ) -> (History<T::Input, T::Output>, Result<(), RecordingViolation>) {
        let h = self.history();
        let verdict = self.apply_orders().and_then(|orders| {
            let causal = self.causal_order(&orders.base)?;
            self.replay(adt, &h, mode, sample_every, &orders, &causal)
        });
        (h, verdict)
    }

    /// Run `mode`'s witness over `causal`.
    fn replay(
        &self,
        adt: &T,
        h: &History<T::Input, T::Output>,
        mode: Mode,
        sample_every: usize,
        orders: &Orders,
        causal: &Relation,
    ) -> Result<(), RecordingViolation> {
        let parts = &self.parts;
        match mode {
            Mode::Causal => verify_cc_from(adt, h, causal, &orders.applies, &orders.own, |p| {
                parts[p].seed.clone()
            })
            .map_err(RecordingViolation::Cc),
            Mode::Convergent => {
                let stamps: Vec<Stamp> = (parts.iter())
                    .flat_map(|part| part.events.iter().map(|ev| ev.2))
                    .collect();
                let mut total: Vec<EventId> = h.events().collect();
                total.sort_by_key(|e| stamps[e.idx()]);
                let seed_of =
                    |e: EventId| parts[h.proc_of(e).expect("every event has a part").idx()].seed;
                verify_ccv_from(adt, h, causal, &total, sample_every, seed_of)
                    .map_err(RecordingViolation::Ccv)
            }
        }
    }

    /// The recording's events in part-major ids. Fails unless every
    /// apply order names recorded events only and lists its part's own
    /// events once each, in issue order.
    fn apply_orders(&self) -> Result<Orders, RecordingViolation> {
        let parts = &self.parts;
        let mut base = vec![0u32; parts.len() + 1];
        for (p, part) in parts.iter().enumerate() {
            base[p + 1] = base[p] + part.events.len() as u32;
        }
        let own: Vec<Vec<EventId>> = (0..parts.len())
            .map(|p| (base[p]..base[p + 1]).map(EventId).collect())
            .collect();
        let mut applies: Vec<Vec<EventId>> = Vec::with_capacity(parts.len());
        for (p, part) in parts.iter().enumerate() {
            let Some(refs) = &part.applies else {
                applies.push(Vec::new());
                continue;
            };
            let mut order = Vec::with_capacity(refs.len());
            for &(q, i) in refs {
                if q >= parts.len() || i >= parts[q].events.len() as u32 {
                    return Err(RecordingViolation::UnknownEvent(q, i));
                }
                order.push(EventId(base[q] + i));
            }
            // program order is not assumed for an observed part: an own
            // event missing from its apply order would go unchecked
            let mine = order
                .iter()
                .filter(|e| (base[p]..base[p + 1]).contains(&e.0));
            if !mine.eq(&own[p]) {
                return Err(RecordingViolation::OwnOrder { part: p });
            }
            applies.push(order);
        }
        Ok(Orders { base, own, applies })
    }

    /// The causal order: delivered-before over the observed parts plus
    /// program order over the unobserved ones. An observed part applies
    /// its own events in issue order (as `apply_orders` checks) and an
    /// unobserved one is ordered by program order alone, so every past
    /// is a prefix of each part's events: a count per part. One pass
    /// over the apply orders finds them all, in O(events × parts). Each
    /// part keeps a running frontier. An own event takes it as its
    /// past, then counts itself in; a remote event, once its origin has
    /// placed it, joins its past and itself in. A sweep that moves no
    /// part means the parts wait on each other: delivery is cyclic.
    fn causal_order(&self, base: &[u32]) -> Result<Relation, RecordingViolation> {
        let k = self.parts.len();
        let n = base[k] as usize;
        // past[e * k + q]: how many of part q's events precede event e
        let mut past = vec![0u32; n * k];
        // running[p * k + q]: how many of part q's events part p has
        // taken in; placed[q]: how many of its own events q has placed
        let mut running = vec![0u32; k * k];
        let mut placed = vec![0u32; k];
        let mut cursor = vec![0usize; k];
        for (p, part) in self.parts.iter().enumerate() {
            if part.applies.is_none() {
                for i in 0..part.events.len() {
                    past[(base[p] as usize + i) * k + p] = i as u32;
                }
                placed[p] = part.events.len() as u32;
            }
        }
        loop {
            let (mut moved, mut done) = (false, true);
            for (p, part) in self.parts.iter().enumerate() {
                let Some(refs) = &part.applies else { continue };
                let frontier = &mut running[p * k..(p + 1) * k];
                for &(q, i) in &refs[cursor[p]..] {
                    let e = (base[q] + i) as usize;
                    let past_e = &mut past[e * k..(e + 1) * k];
                    if q == p {
                        past_e.copy_from_slice(frontier);
                        placed[p] = i + 1;
                    } else if i >= placed[q] {
                        break;
                    } else {
                        for (r, &f) in frontier.iter_mut().zip(&*past_e) {
                            *r = (*r).max(f);
                        }
                    }
                    frontier[q] = frontier[q].max(i + 1);
                    cursor[p] += 1;
                    moved = true;
                }
                done &= cursor[p] == refs.len();
            }
            if done {
                break;
            }
            if !moved {
                return Err(RecordingViolation::CyclicDelivery);
            }
        }
        let rows = (0..n).map(|e| {
            let mut row = BitSet::new(n);
            for (q, &count) in past[e * k..(e + 1) * k].iter().enumerate() {
                row.insert_range(base[q] as usize, (base[q] + count) as usize);
            }
            row
        });
        Ok(Relation::from_closed_rows(rows.collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_adt::register::{RegInput, RegOutput, Register};
    use cbm_adt::space::{ObjectSpace, SpaceInput};
    use cbm_adt::window::{WInput, WOutput, WindowStream};

    type B = HistoryBuilder<WInput, WOutput>;

    /// A two-replica execution of the Fig. 4 algorithm on W2:
    /// p0: w(1), r/(0,1); p1: r/(0,0), r/(0,1) — p1 reads before and
    /// after delivery of w(1).
    #[allow(clippy::type_complexity)]
    fn cc_execution() -> (
        History<WInput, WOutput>,
        Relation,
        Vec<Vec<EventId>>,
        Vec<Vec<EventId>>,
    ) {
        let mut b = B::new();
        let e0 = b.op(0, WInput::Write(1), WOutput::Ack);
        let e1 = b.op(0, WInput::Read, WOutput::Window(vec![0, 1]));
        let e2 = b.op(1, WInput::Read, WOutput::Window(vec![0, 0]));
        let e3 = b.op(1, WInput::Read, WOutput::Window(vec![0, 1]));
        let h = b.build();
        // causal order: prog + w(1) delivered before p1's second read
        let mut causal = h.prog().clone();
        causal.add_pair_closed(e0.idx(), e3.idx());
        let apply = vec![vec![e0, e1], vec![e2, e0, e3]];
        let own = vec![vec![e0, e1], vec![e2, e3]];
        (h, causal, apply, own)
    }

    #[test]
    fn valid_cc_witness_accepted() {
        let adt = WindowStream::new(2);
        let (h, causal, apply, own) = cc_execution();
        assert_eq!(verify_cc_execution(&adt, &h, &causal, &apply, &own), Ok(()));
    }

    #[test]
    fn wrong_output_rejected() {
        let adt = WindowStream::new(2);
        let (hb, causal, apply, own) = {
            let (h, c, a, o) = cc_execution();
            let _ = h;
            // rebuild with a wrong read output on p1's second read
            let mut b = B::new();
            b.op(0, WInput::Write(1), WOutput::Ack);
            b.op(0, WInput::Read, WOutput::Window(vec![0, 1]));
            b.op(1, WInput::Read, WOutput::Window(vec![0, 0]));
            b.op(1, WInput::Read, WOutput::Window(vec![9, 9]));
            (b.build(), c, a, o)
        };
        let res = verify_cc_execution(&adt, &hb, &causal, &apply, &own);
        assert!(matches!(res, Err(CcViolation::OutputMismatch { .. })));
    }

    #[test]
    fn prefix_mismatch_rejected() {
        let adt = WindowStream::new(2);
        let (h, causal, _, own) = cc_execution();
        // p1 applies w(1) *after* its second read: prefix ≠ floor
        let apply = vec![
            vec![EventId(0), EventId(1)],
            vec![EventId(2), EventId(3), EventId(0)],
        ];
        let res = verify_cc_execution(&adt, &h, &causal, &apply, &own);
        // rejected at the earliest check that notices it: applying w(1)
        // after a causally-later event violates delivery causality
        assert!(matches!(
            res,
            Err(CcViolation::PrefixMismatch { .. })
                | Err(CcViolation::OutputMismatch { .. })
                | Err(CcViolation::ApplyOrderViolatesCausality { .. })
        ));
    }

    /// Replica 2 applies `w(2)` before the `w(1)` it causally follows,
    /// and nothing but the apply-order check can see it: its read
    /// matches that order. Replicas 0 and 1 applied both writes first,
    /// in causal order, which must not vouch for replica 2.
    #[test]
    fn a_remote_apply_out_of_causal_order_is_caught_at_every_replica() {
        let adt = WindowStream::new(2);
        let check = |apply: Vec<EventId>, read: Vec<u64>| {
            let mut b = B::new();
            let x = b.op(0, WInput::Write(1), WOutput::Ack);
            let e = b.op(1, WInput::Write(2), WOutput::Ack);
            let r = b.op(2, WInput::Read, WOutput::Window(read));
            let h = b.build();
            let mut causal = h.prog().clone();
            causal.add_pair_closed(x.idx(), e.idx());
            causal.add_pair_closed(e.idx(), r.idx());
            let apply = vec![vec![x, e], vec![x, e], apply];
            let own = vec![vec![x], vec![e], vec![r]];
            verify_cc_execution(&adt, &h, &causal, &apply, &own)
        };
        let (x, e, r) = (EventId(0), EventId(1), EventId(2));
        assert_eq!(check(vec![x, e, r], vec![1, 2]), Ok(()));
        assert_eq!(
            check(vec![e, x, r], vec![2, 1]),
            Err(CcViolation::ApplyOrderViolatesCausality { process: 2 })
        );
    }

    #[test]
    fn causal_order_must_contain_prog() {
        let adt = WindowStream::new(2);
        let (h, _, apply, own) = cc_execution();
        let causal = Relation::empty(h.len());
        assert_eq!(
            verify_cc_execution(&adt, &h, &causal, &apply, &own),
            Err(CcViolation::NotACausalOrder)
        );
    }

    #[test]
    fn valid_ccv_witness_accepted() {
        let adt = WindowStream::new(2);
        let (h, causal, _, _) = cc_execution();
        let total = vec![EventId(0), EventId(1), EventId(2), EventId(3)];
        // p1's first read has empty past: (0,0) ✓; second read past {w(1)}: (0,1) ✓
        assert_eq!(verify_ccv_execution(&adt, &h, &causal, &total, 1), Ok(()));
    }

    #[test]
    fn ccv_total_order_must_extend_causal() {
        let adt = WindowStream::new(2);
        let (h, causal, _, _) = cc_execution();
        let total = vec![EventId(3), EventId(2), EventId(1), EventId(0)];
        assert_eq!(
            verify_ccv_execution(&adt, &h, &causal, &total, 1),
            Err(CcvViolation::TotalOrderViolatesCausality)
        );
    }

    /// A window cut mid-run on W2: p0 writes 9, p1 applies it and
    /// reads (7, 9) — explainable only from a snapshot in which the
    /// pre-window prefix wrote 7.
    fn snapshot_window(seed: &Vec<u64>) -> Recording<'_, WindowStream> {
        Recording {
            parts: vec![
                Part {
                    events: vec![(WInput::Write(9), Some(WOutput::Ack), Stamp::new(1, 0))],
                    applies: Some(vec![(0, 0)]),
                    seed,
                },
                Part {
                    events: vec![(
                        WInput::Read,
                        Some(WOutput::Window(vec![7, 9])),
                        Stamp::new(2, 1),
                    )],
                    applies: Some(vec![(0, 0), (1, 0)]),
                    seed,
                },
            ],
        }
    }

    #[test]
    fn windowed_cc_accepts_with_snapshot_rejects_without() {
        let adt = WindowStream::new(2);
        // both replicas entered the window holding the drained state
        // (0, 7): the read output (7, 9) replays correctly from it
        let (h, verdict) = snapshot_window(&vec![0, 7]).check(&adt, Mode::Causal, 1);
        assert_eq!((h.len(), verdict), (2, Ok(())));
        // from the blank initial state the same window is inconsistent
        let blank = adt.initial();
        assert!(matches!(
            snapshot_window(&blank).check(&adt, Mode::Causal, 1).1,
            Err(RecordingViolation::Cc(CcViolation::OutputMismatch { .. }))
        ));
    }

    #[test]
    fn windowed_cc_detects_wrong_snapshot() {
        let adt = WindowStream::new(2);
        assert!(matches!(
            snapshot_window(&vec![0, 3]).check(&adt, Mode::Causal, 1).1,
            Err(RecordingViolation::Cc(CcViolation::OutputMismatch { .. }))
        ));
    }

    #[test]
    fn windowed_ccv_replays_from_common_snapshot() {
        let adt = WindowStream::new(2);
        let seed = vec![0, 7];
        let rec = snapshot_window(&seed);
        assert_eq!(rec.check(&adt, Mode::Convergent, 1).1, Ok(()));
        let blank = adt.initial();
        assert_eq!(
            snapshot_window(&blank).check(&adt, Mode::Convergent, 1).1,
            Err(RecordingViolation::Ccv(CcvViolation::OutputMismatch(
                EventId(1)
            )))
        );
    }

    type Space = ObjectSpace<Register>;
    type Event = (SpaceInput<RegInput>, Option<RegOutput>, Stamp);

    fn op(obj: u32, input: RegInput, output: RegOutput, time: u64, origin: usize) -> Event {
        (
            SpaceInput::new(obj, input),
            Some(output),
            Stamp::new(time, origin),
        )
    }

    /// Two replicas, two registers, both seeded with (0, 9): replica 0
    /// writes obj0 = 5; replica 1 applies it, reads it, then writes
    /// obj1 = 4, which replica 0 applies (a read is never applied
    /// remotely).
    fn healthy(seed: &Vec<u64>) -> Recording<'_, Space> {
        Recording {
            parts: vec![
                Part {
                    events: vec![op(0, RegInput::Write(5), RegOutput::Ack, 1, 0)],
                    applies: Some(vec![(0, 0), (1, 1)]),
                    seed,
                },
                Part {
                    events: vec![
                        op(0, RegInput::Read, RegOutput::Val(5), 2, 1),
                        op(1, RegInput::Write(4), RegOutput::Ack, 3, 1),
                    ],
                    applies: Some(vec![(0, 0), (1, 0), (1, 1)]),
                    seed,
                },
            ],
        }
    }

    #[test]
    fn a_healthy_recording_verifies_under_both_modes() {
        let space = ObjectSpace::new(Register, 2);
        let seed = vec![0, 9];
        for mode in Mode::BOTH {
            let (h, verdict) = healthy(&seed).check(&space, mode, 1);
            assert_eq!((h.len(), verdict), (3, Ok(())), "{mode:?}");
        }
    }

    #[test]
    fn the_seed_feeds_the_replay() {
        // replica 1 reads obj1 = 9: only explainable through the seed
        let space = ObjectSpace::new(Register, 2);
        let seed = vec![0, 9];
        let mut rec = healthy(&seed);
        rec.parts[1].events[1] = op(1, RegInput::Read, RegOutput::Val(9), 3, 1);
        assert_eq!(rec.check(&space, Mode::Causal, 1).1, Ok(()));
        // ...and a wrong carried-in value is caught
        rec.parts[1].events[1] = op(1, RegInput::Read, RegOutput::Val(8), 3, 1);
        assert!(matches!(
            rec.check(&space, Mode::Causal, 1).1,
            Err(RecordingViolation::Cc(CcViolation::OutputMismatch { .. }))
        ));
    }

    #[test]
    fn a_tampered_output_fails_both_modes() {
        let space = ObjectSpace::new(Register, 2);
        let seed = vec![0, 9];
        let mut rec = healthy(&seed);
        rec.parts[1].events[0] = op(0, RegInput::Read, RegOutput::Val(777), 2, 1);
        assert!(matches!(
            rec.check(&space, Mode::Causal, 1).1,
            Err(RecordingViolation::Cc(CcViolation::OutputMismatch { .. }))
        ));
        assert!(matches!(
            rec.check(&space, Mode::Convergent, 1).1,
            Err(RecordingViolation::Ccv(CcvViolation::OutputMismatch(_)))
        ));
    }

    #[test]
    fn a_non_causal_apply_order_is_rejected() {
        // replica 1 claims it read 5 but applied the write after the read
        let space = ObjectSpace::new(Register, 2);
        let seed = vec![0, 9];
        let mut rec = healthy(&seed);
        rec.parts[1].applies = Some(vec![(1, 0), (0, 0), (1, 1)]);
        assert!(matches!(
            rec.check(&space, Mode::Causal, 1).1,
            Err(RecordingViolation::Cc(_))
        ));
    }

    #[test]
    fn apply_orders_must_name_recorded_events_acyclically() {
        let space = ObjectSpace::new(Register, 2);
        let seed = vec![0, 9];
        let mut rec = healthy(&seed);
        rec.parts[0].applies = Some(vec![(0, 0), (1, 1), (1, 2)]);
        assert_eq!(
            rec.check(&space, Mode::Causal, 1).1,
            Err(RecordingViolation::UnknownEvent(1, 2))
        );
        // each replica applied the other's write before its own
        let mut cyclic = healthy(&seed);
        cyclic.parts[1].events.remove(0);
        cyclic.parts[0].applies = Some(vec![(1, 0), (0, 0)]);
        cyclic.parts[1].applies = Some(vec![(0, 0), (1, 0)]);
        assert_eq!(
            cyclic.check(&space, Mode::Causal, 1).1,
            Err(RecordingViolation::CyclicDelivery)
        );
    }

    /// The monitor's case: one observed replica, and an origin seen
    /// only through the updates it delivered. The unobserved part is
    /// ordered by its program order and nothing else: its outputs are
    /// not replayed, but its order still binds the arbitration.
    #[test]
    fn an_unobserved_part_is_ordered_by_program_order_only() {
        let space = ObjectSpace::new(Register, 1);
        let seed = vec![0];
        let hidden = |v, time| {
            (
                SpaceInput::new(0, RegInput::Write(v)),
                None,
                Stamp::new(time, 1),
            )
        };
        let read = |v| op(0, RegInput::Read, RegOutput::Val(v), 9, 0);
        let rec = |writes: Vec<Event>, seen| Recording {
            parts: vec![
                Part {
                    events: vec![read(seen)],
                    applies: Some(vec![(1, 0), (1, 1), (0, 0)]),
                    seed: &seed,
                },
                Part {
                    events: writes,
                    applies: None,
                    seed: &seed,
                },
            ],
        };
        let writes = || vec![hidden(5, 1), hidden(7, 2)];
        for mode in Mode::BOTH {
            assert_eq!(
                rec(writes(), 7).check(&space, mode, 1).1,
                Ok(()),
                "{mode:?}"
            );
            assert!(
                rec(writes(), 5).check(&space, mode, 1).1.is_err(),
                "{mode:?}"
            );
        }
        // an unobserved output is never replayed...
        let mut visible = writes();
        visible[0].1 = Some(RegOutput::Val(123));
        assert_eq!(rec(visible, 7).check(&space, Mode::Causal, 1).1, Ok(()));
        // ...but its program order is in the causal order: stamps that
        // run against it cannot arbitrate
        let backwards = vec![hidden(5, 2), hidden(7, 1)];
        assert_eq!(
            rec(backwards, 7).check(&space, Mode::Convergent, 1).1,
            Err(RecordingViolation::Ccv(
                CcvViolation::TotalOrderViolatesCausality
            ))
        );
    }

    /// Two concurrent writes at equal Lamport time: CCv arbitrates by
    /// origin, whatever order the reader applied them in.
    #[test]
    fn a_ccv_tie_at_equal_lamport_time_is_broken_by_origin() {
        let space = ObjectSpace::new(Register, 1);
        let seed = vec![0];
        let rec = |seen| Recording {
            parts: vec![
                Part {
                    events: vec![op(0, RegInput::Write(5), RegOutput::Ack, 1, 0)],
                    applies: Some(vec![(0, 0)]),
                    seed: &seed,
                },
                Part {
                    events: vec![op(0, RegInput::Write(7), RegOutput::Ack, 1, 1)],
                    applies: Some(vec![(1, 0)]),
                    seed: &seed,
                },
                Part {
                    events: vec![op(0, RegInput::Read, RegOutput::Val(seen), 2, 2)],
                    applies: Some(vec![(1, 0), (0, 0), (2, 0)]),
                    seed: &seed,
                },
            ],
        };
        assert_eq!(rec(7).check(&space, Mode::Convergent, 1).1, Ok(()));
        assert_eq!(
            rec(5).check(&space, Mode::Convergent, 1).1,
            Err(RecordingViolation::Ccv(CcvViolation::OutputMismatch(
                EventId(2)
            )))
        );
        // delivery order, not the stamp, decides under CC
        assert_eq!(rec(5).check(&space, Mode::Causal, 1).1, Ok(()));
    }

    /// An observed replica's apply order must hold each of its own
    /// events once, in issue order: program order does not fill a gap,
    /// or the omitted event's output would go unchecked.
    #[test]
    fn an_apply_order_that_omits_an_own_event_is_rejected() {
        let space = ObjectSpace::new(Register, 2);
        let seed = vec![0, 9];
        for applies in [
            vec![(0, 0), (1, 1)],                 // the bogus read is missing
            vec![(0, 0), (1, 0), (1, 0), (1, 1)], // ...applied twice
            vec![(0, 0), (1, 1), (1, 0)],         // ...out of issue order
        ] {
            let mut rec = healthy(&seed);
            rec.parts[1].events[0] = op(0, RegInput::Read, RegOutput::Val(42), 2, 1);
            rec.parts[1].applies = Some(applies.clone());
            for mode in Mode::BOTH {
                assert_eq!(
                    rec.check(&space, mode, 1).1,
                    Err(RecordingViolation::OwnOrder { part: 1 }),
                    "{mode:?} {applies:?}"
                );
            }
        }
        // a lone own event with an empty apply order
        let mut rec = healthy(&seed);
        rec.parts[0].applies = Some(Vec::new());
        assert_eq!(
            rec.check(&space, Mode::Causal, 1).1,
            Err(RecordingViolation::OwnOrder { part: 0 })
        );
    }

    /// A test-only adapter that hides its base's in-place δ: every
    /// replayed step builds a new state through `transition`.
    #[derive(Debug, Clone)]
    struct ClonePath<T>(T);

    impl<T: Adt> Adt for ClonePath<T> {
        type Input = T::Input;
        type Output = T::Output;
        type State = T::State;

        fn initial(&self) -> T::State {
            self.0.initial()
        }
        fn transition(&self, q: &T::State, i: &T::Input) -> T::State {
            self.0.transition(q, i)
        }
        fn output(&self, q: &T::State, i: &T::Input) -> T::Output {
            self.0.output(q, i)
        }
        fn kind(&self, i: &T::Input) -> cbm_adt::OpKind {
            self.0.kind(i)
        }
        fn output_matches(&self, q: &T::State, i: &T::Input, expected: &T::Output) -> bool {
            self.0.output_matches(q, i, expected)
        }
    }

    /// One script step: replica, action, object, value.
    type Step = (usize, u8, u32, u64);

    /// Runs `script` as a causal-broadcast execution of `procs`
    /// register replicas over `space`, all seeded with `seed`. A step
    /// either issues an operation at its replica — a write, or a read
    /// answered as `mode`'s replica answers it (its applied writes
    /// folded in apply order under CC, in stamp order under CCv) — or
    /// delivers to it one of the writes it can take next.
    fn simulate<'s>(
        space: &Space,
        seed: &'s Vec<u64>,
        mode: Mode,
        procs: usize,
        script: &[Step],
    ) -> Recording<'s, Space> {
        struct Write {
            origin: usize,
            index: u32,
            stamp: Stamp,
            input: SpaceInput<RegInput>,
            /// per origin, how many of its writes the issuer had applied
            deps: Vec<usize>,
        }
        let mut writes: Vec<Write> = Vec::new();
        let mut parts: Vec<Part<'s, Space>> = (0..procs)
            .map(|_| Part {
                events: Vec::new(),
                applies: Some(Vec::new()),
                seed,
            })
            .collect();
        let mut clock = vec![0u64; procs];
        let mut applied: Vec<Vec<usize>> = vec![Vec::new(); procs];
        let mut taken = vec![vec![0usize; procs]; procs];
        for &(p, action, obj, v) in script {
            let p = p % procs;
            let index = parts[p].events.len() as u32;
            if action < 4 {
                let input = if action < 2 {
                    RegInput::Write(v)
                } else {
                    RegInput::Read
                };
                let input = SpaceInput::new(obj, input);
                clock[p] += 1;
                let stamp = Stamp::new(clock[p], p);
                let mut order: Vec<usize> = applied[p].clone();
                if mode == Mode::Convergent {
                    order.sort_by_key(|&w| writes[w].stamp);
                }
                let state = order
                    .iter()
                    .fold(seed.clone(), |q, &w| space.transition(&q, &writes[w].input));
                let output = space.output(&state, &input);
                if space.is_update(&input) {
                    let deps = taken[p].clone();
                    taken[p][p] += 1;
                    applied[p].push(writes.len());
                    writes.push(Write {
                        origin: p,
                        index,
                        stamp,
                        input: input.clone(),
                        deps,
                    });
                }
                parts[p].events.push((input, Some(output), stamp));
                parts[p].applies.as_mut().unwrap().push((p, index));
            } else {
                let ready: Vec<usize> = (0..writes.len())
                    .filter(|&w| {
                        let u = &writes[w];
                        u.origin != p
                            && taken[p][u.origin] == u.deps[u.origin]
                            && (0..procs).all(|r| r == u.origin || u.deps[r] <= taken[p][r])
                    })
                    .collect();
                if let Some(&w) = ready.get(v as usize % ready.len().max(1)) {
                    let u = &writes[w];
                    taken[p][u.origin] += 1;
                    clock[p] = clock[p].max(u.stamp.time);
                    applied[p].push(w);
                    parts[p].applies.as_mut().unwrap().push((u.origin, u.index));
                }
            }
        }
        Recording { parts }
    }

    /// The same recording, checked through [`ClonePath`].
    fn through_clone_path<'s>(rec: &Recording<'s, Space>) -> Recording<'s, ClonePath<Space>> {
        let parts = rec.parts.iter().map(|p| Part {
            events: p.events.clone(),
            applies: p.applies.clone(),
            seed: p.seed,
        });
        Recording {
            parts: parts.collect(),
        }
    }

    /// `healthy` with a fault planted at replica `index` (mod the
    /// replica count) by `how`: 0 a read answered with a value never
    /// written, 1 two adjacent applies swapped, 2 the replica
    /// unobserved, 3 every replica's latest remote apply hoisted to the
    /// front of its order (two that exchanged updates then wait on each
    /// other: cyclic), 4 a remote apply repeated. Also says whether a
    /// read was changed.
    fn tamper<'s>(
        healthy: &Recording<'s, Space>,
        index: usize,
        how: usize,
    ) -> (Recording<'s, Space>, bool) {
        let mut tampered = healthy.clone();
        let me = index % tampered.parts.len();
        if how == 3 {
            for (p, part) in tampered.parts.iter_mut().enumerate() {
                let applies = part.applies.as_mut().expect("observed");
                if let Some(at) = applies.iter().rposition(|&(q, _)| q != p) {
                    let hoisted = applies.remove(at);
                    applies.insert(0, hoisted);
                }
            }
        }
        let part = &mut tampered.parts[me];
        let applies = part.applies.as_mut().expect("observed");
        let remote: Vec<usize> = (0..applies.len())
            .filter(|&at| applies[at].0 != me)
            .collect();
        let mut bad_read = false;
        match how {
            0 => {
                let reads = part.events.iter_mut().filter_map(|ev| ev.1.as_mut());
                let mut reads = reads.filter(|o| matches!(o, RegOutput::Val(_)));
                if let Some(out) = reads.nth(index % 4) {
                    *out = RegOutput::Val(1000);
                    bad_read = true;
                }
            }
            1 if applies.len() > 1 => {
                let at = index % (applies.len() - 1);
                applies.swap(at, at + 1);
            }
            2 => part.applies = None,
            4 if !remote.is_empty() => applies.push(applies[remote[index % remote.len()]]),
            _ => {}
        }
        (tampered, bad_read)
    }

    proptest::proptest! {
        /// Stepping the space in place decides every recording as the
        /// clone path does, in both modes: healthy runs (which pass in
        /// the mode they ran), a read answered with a value never
        /// written (which fails), and a swapped pair of applies or an
        /// unobserved part (either verdict).
        #[test]
        fn in_place_replay_decides_as_the_clone_path(
            procs in 1usize..4,
            script in proptest::collection::vec((0usize..4, 0u8..7, 0u32..4, 0u64..6), 0..60),
            seed in proptest::collection::vec(0u64..3, 3),
            fault in (0usize..64, 0usize..3),
        ) {
            let space = ObjectSpace::new(Register, 3);
            let cloning = ClonePath(space.clone());
            let (index, how) = fault;
            for ran in Mode::BOTH {
                let healthy = simulate(&space, &seed, ran, procs, &script);
                let (tampered, bad_read) = tamper(&healthy, index, how);
                for mode in Mode::BOTH {
                    for sample_every in [1, 3] {
                        let verdict = healthy.check(&space, mode, sample_every).1;
                        if mode == ran {
                            proptest::prop_assert_eq!(&verdict, &Ok(()), "ran {:?}", ran);
                        }
                        let cloned = through_clone_path(&healthy).check(&cloning, mode, sample_every).1;
                        proptest::prop_assert_eq!(verdict, cloned);
                        let verdict = tampered.check(&space, mode, sample_every).1;
                        if bad_read && sample_every == 1 {
                            proptest::prop_assert!(verdict.is_err(), "{:?}", mode);
                        }
                        let cloned = through_clone_path(&tampered).check(&cloning, mode, sample_every).1;
                        proptest::prop_assert_eq!(verdict, cloned);
                    }
                }
            }
        }
    }

    /// The recording restricted to the events on objects `keep` holds,
    /// renumbered, as the store cuts a window per shard.
    fn project<'s>(rec: &Recording<'s, Space>, keep: impl Fn(u32) -> bool) -> Recording<'s, Space> {
        let index: Vec<Vec<Option<u32>>> = (rec.parts.iter())
            .map(|part| {
                let mut next = 0;
                let kept = part.events.iter().map(|ev| {
                    keep(ev.0.obj).then(|| {
                        next += 1;
                        next - 1
                    })
                });
                kept.collect()
            })
            .collect();
        let parts = rec.parts.iter().map(|part| Part {
            events: (part.events.iter())
                .filter(|ev| keep(ev.0.obj))
                .cloned()
                .collect(),
            applies: part.applies.as_ref().map(|refs| {
                let kept = refs
                    .iter()
                    .filter_map(|&(q, i)| Some((q, index[q][i as usize]?)));
                kept.collect()
            }),
            seed: part.seed,
        });
        Recording {
            parts: parts.collect(),
        }
    }

    /// The verdict with the causal order built by the general
    /// edge-list construction, and that order (`None` if cyclic).
    fn through_delivered_before(
        rec: &Recording<'_, Space>,
        space: &Space,
        mode: Mode,
        sample_every: usize,
    ) -> (Result<(), RecordingViolation>, Option<Option<Relation>>) {
        let h = rec.history();
        let orders = match rec.apply_orders() {
            Ok(orders) => orders,
            Err(e) => return (Err(e), None),
        };
        let delivered: Vec<Vec<EventId>> = (rec.parts.iter().enumerate())
            .map(|(p, part)| match part.applies {
                Some(_) => orders.applies[p].clone(),
                None => orders.own[p].clone(),
            })
            .collect();
        let causal = Relation::delivered_before(h.len(), &delivered, &orders.own);
        let verdict = match &causal {
            Some(causal) => rec.replay(space, &h, mode, sample_every, &orders, causal),
            None => Err(RecordingViolation::CyclicDelivery),
        };
        (verdict, Some(causal))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// The frontier pass builds exactly the order the edge list and
        /// its closure build, and finds a cycle exactly when they do, on
        /// healthy recordings, on every fault `tamper` plants, and on
        /// the projections a sharded store checks. The verdicts match
        /// in both modes.
        #[test]
        fn frontier_pass_builds_the_delivered_before_order(
            procs in 1usize..5,
            script in proptest::collection::vec((0usize..5, 0u8..7, 0u32..4, 0u64..6), 0..70),
            seed in proptest::collection::vec(0u64..3, 4),
            fault in (0usize..64, 0usize..5),
        ) {
            let space = ObjectSpace::new(Register, 4);
            let (index, how) = fault;
            for ran in Mode::BOTH {
                let healthy = simulate(&space, &seed, ran, procs, &script);
                let (tampered, _) = tamper(&healthy, index, how);
                let shards = [
                    project(&healthy, |obj| obj % 2 == 0),
                    project(&tampered, |obj| obj % 2 == 1),
                ];
                for rec in [&healthy, &tampered].into_iter().chain(&shards) {
                    let orders = rec.apply_orders();
                    let frontier = orders.as_ref().map(|o| rec.causal_order(&o.base));
                    for mode in Mode::BOTH {
                        for sample_every in [1, 3] {
                            let (verdict, oracle) =
                                through_delivered_before(rec, &space, mode, sample_every);
                            proptest::prop_assert_eq!(rec.check(&space, mode, sample_every).1, verdict);
                            if let (Ok(frontier), Some(oracle)) = (&frontier, oracle) {
                                proptest::prop_assert_eq!(frontier.as_ref().ok(), oracle.as_ref());
                                if let Err(e) = frontier {
                                    proptest::prop_assert_eq!(e, &RecordingViolation::CyclicDelivery);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ccv_output_mismatch_detected() {
        let adt = WindowStream::new(2);
        let mut b = B::new();
        let e0 = b.op(0, WInput::Write(1), WOutput::Ack);
        let e1 = b.op(1, WInput::Read, WOutput::Window(vec![9, 9]));
        let h = b.build();
        let mut causal = h.prog().clone();
        causal.add_pair_closed(e0.idx(), e1.idx());
        let total = vec![e0, e1];
        assert_eq!(
            verify_ccv_execution(&adt, &h, &causal, &total, 1),
            Err(CcvViolation::OutputMismatch(e1))
        );
    }
}
