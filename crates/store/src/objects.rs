//! One replica's view of the sharded object space.
//!
//! Both modes keep a current state per object for **wait-free local
//! reads** (a query is one `λ` evaluation on the local component; no
//! locks, no messages):
//!
//! * [`Mode::Causal`] applies updates in delivery order — `δ` on the
//!   addressed component, nothing else;
//! * [`Mode::Convergent`] arbitrates updates by Lamport timestamp into
//!   a per-object [`ArbLog`] (Fig. 5 generalized); an out-of-order
//!   arrival refolds the object from the log's last checkpoint before
//!   it (one every 32 entries), not from the epoch seed. An update that
//!   overwrites the whole object ([`Adt::overwrites`], a register
//!   write) becomes the log's *floor*: it is folded into the log's
//!   seed, never logged, and drops the entries ordered before it; one
//!   that arrives ordered before the floor is absorbed unlogged, as
//!   Fig. 5 discards a write older than every cell. So a log holds the
//!   writes since its newest overwrite, not the epoch, and a register's
//!   log is its floor's key beside its seed, with no entry at all. At
//!   every drain the engine calls [`ObjectTable::compact`]: all
//!   replicas have delivered the same set, every future timestamp
//!   exceeds every logged one, so the fold becomes the new seed and the
//!   log is dropped — keeping memory bounded by the epoch length, at
//!   worst, instead of the run length. Debug builds check that premise:
//!   a log keeps its highest key across the drain and refuses an update
//!   ordered at or below it ("ordered before a compacted cut"); a
//!   crash-recovery install forgets it.
//!
//! Object `obj` lives in slot `obj mod objects` (`slot_of`); the engine's
//! monitor taps place its shadows by the same rule.

use crate::config::Mode;
use cbm_adt::arbitration::{ArbLog, Placed};
use cbm_adt::Adt;
use cbm_net::clock::Timestamp;
use std::hash::{Hash, Hasher};

/// The slot rule: object `obj` lives in slot `obj mod objects`.
///
/// A plain remainder: a mask at a power-of-two count, or a remainder by
/// multiplication, each made `ObjectTable::apply_update` too large to
/// inline unasked, and a sequential causal replay then paid a call per
/// update (`write_fanout_tcp` `setup_s` +10–27%).
#[inline]
pub(crate) fn slot_of(obj: u32, objects: usize) -> usize {
    obj as usize % objects
}

/// Per-object replica state for one worker.
pub struct ObjectTable<T: Adt> {
    /// Current state per object (the read path in both modes).
    states: Vec<T::State>,
    /// Convergent mode: per-object epoch log, seeded with the state at
    /// the last compaction or at its floor; `states` holds its fold.
    logs: Vec<ArbLog<Timestamp, T>>,
    /// Mid-log inserts (arbitration work).
    pub refolds: u64,
    /// `δ` steps those inserts replayed.
    pub(crate) refold_steps: u64,
    /// Updates ordered before their log's floor, an overwrite already
    /// folded: neither logged nor folded.
    pub(crate) absorbed: u64,
}

impl<T: Adt> ObjectTable<T> {
    /// Fresh table of `objects` initial states.
    pub fn new(adt: &T, objects: usize, mode: Mode) -> Self {
        ObjectTable {
            states: (0..objects).map(|_| adt.initial()).collect(),
            logs: match mode {
                Mode::Causal => Vec::new(),
                Mode::Convergent => (0..objects).map(|_| ArbLog::new(adt.initial())).collect(),
            },
            refolds: 0,
            refold_steps: 0,
            absorbed: 0,
        }
    }

    /// The slot an object id maps to.
    #[inline]
    pub fn slot(&self, obj: u32) -> usize {
        slot_of(obj, self.states.len())
    }

    /// Wait-free local read: `λ` on the addressed component.
    #[inline]
    pub fn output(&self, adt: &T, obj: u32, input: &T::Input) -> T::Output {
        adt.output(&self.states[self.slot(obj)], input)
    }

    /// Integrate one update (own at invocation, remote at delivery).
    pub fn apply_update(&mut self, adt: &T, obj: u32, ts: Timestamp, input: &T::Input) {
        let slot = self.slot(obj);
        match self.logs.get_mut(slot) {
            // causal mode keeps no logs: δ in delivery order
            None => self.states[slot] = adt.transition(&self.states[slot], input),
            Some(log) => match log.insert(adt, &mut self.states[slot], ts, input.clone()) {
                Placed::Appended => {}
                Placed::Absorbed => self.absorbed += 1,
                Placed::Refolded(steps) => {
                    self.refolds += 1;
                    self.refold_steps += steps as u64;
                }
            },
        }
    }

    /// Drain-point compaction (convergent mode; no-op in causal mode,
    /// which keeps no logs).
    pub fn compact(&mut self) {
        for (log, state) in self.logs.iter_mut().zip(&self.states) {
            log.reseed(state);
        }
    }

    /// Snapshot every object's current state.
    pub(crate) fn snapshot(&self) -> Vec<T::State> {
        self.states.clone()
    }

    /// Install a snapshot taken at a consistent cut (crash recovery).
    ///
    /// The cut is a drain point, so in convergent mode the snapshot is
    /// post-compaction state: it becomes both the current states and
    /// the epoch seeds, and the arbitration logs restart empty and
    /// forget their keys — the missed-envelope replay then applies on
    /// top exactly as live delivery would have.
    pub fn install(&mut self, snapshot: &[T::State]) {
        assert_eq!(snapshot.len(), self.states.len(), "snapshot arity");
        self.states = snapshot.to_vec();
        for (log, state) in self.logs.iter_mut().zip(&self.states) {
            log.install(state);
        }
    }

    /// Install one shard's slot states at a consistent cut (partial-
    /// replication crash recovery): `slots` names the table indices in
    /// the order `states` lists them. Same compaction contract as
    /// [`ObjectTable::install`], applied per slot.
    pub(crate) fn install_slots(
        &mut self,
        slots: impl Iterator<Item = usize>,
        states: &[T::State],
    ) {
        let mut n = 0;
        for (slot, state) in slots.zip(states) {
            self.states[slot] = state.clone();
            if let Some(log) = self.logs.get_mut(slot) {
                log.install(state);
            }
            n += 1;
        }
        assert_eq!(n, states.len(), "shard snapshot arity");
    }

    /// Order-sensitive hash of one shard's slots (per-shard drain
    /// convergence evidence under partial replication).
    pub(crate) fn shard_hash(&self, slots: impl Iterator<Item = usize>) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for slot in slots {
            self.states[slot].hash(&mut h);
        }
        h.finish()
    }

    /// Clone one shard's slot states, ascending slot order.
    pub(crate) fn shard_snapshot(&self, slots: impl Iterator<Item = usize>) -> Vec<T::State> {
        slots.map(|slot| self.states[slot].clone()).collect()
    }

    /// Order-sensitive hash of the full space state (drain-point
    /// convergence evidence).
    pub fn state_hash(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for s in &self.states {
            s.hash(&mut h);
        }
        h.finish()
    }

    /// Log entries currently held (convergent arbitration backlog).
    #[cfg(test)]
    pub(crate) fn log_len(&self) -> usize {
        self.logs.iter().map(ArbLog::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_adt::arbitration::testing::{SaInput, SetAdd};
    use cbm_adt::arbitration::CHECKPOINT_INTERVAL;
    use cbm_adt::counter::{Counter, CtInput, CtOutput};
    use cbm_adt::queue::{FifoQueue, QInput};
    use cbm_adt::register::{RegInput, RegOutput, Register};
    use cbm_adt::window::{WInput, WindowStream};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn ts(t: u64, p: usize) -> Timestamp {
        Timestamp::new(t, p)
    }

    #[test]
    fn causal_mode_applies_in_delivery_order() {
        let adt = Register;
        let mut tab = ObjectTable::new(&adt, 4, Mode::Causal);
        tab.apply_update(&adt, 1, ts(1, 0), &RegInput::Write(5));
        tab.apply_update(&adt, 1, ts(2, 1), &RegInput::Write(7));
        tab.apply_update(&adt, 5, ts(3, 0), &RegInput::Write(9)); // wraps to slot 1
        assert_eq!(tab.output(&adt, 1, &RegInput::Read), RegOutput::Val(9));
        assert_eq!(tab.output(&adt, 0, &RegInput::Read), RegOutput::Val(0));
    }

    #[test]
    fn convergent_mode_arbitrates_by_timestamp() {
        let adt = Register;
        let mut a = ObjectTable::new(&adt, 2, Mode::Convergent);
        let mut b = ObjectTable::new(&adt, 2, Mode::Convergent);
        // same updates, opposite delivery orders
        let u1 = (ts(1, 0), RegInput::Write(5));
        let u2 = (ts(2, 1), RegInput::Write(7));
        a.apply_update(&adt, 0, u1.0, &u1.1);
        a.apply_update(&adt, 0, u2.0, &u2.1);
        b.apply_update(&adt, 0, u2.0, &u2.1);
        b.apply_update(&adt, 0, u1.0, &u1.1);
        assert_eq!(a.output(&adt, 0, &RegInput::Read), RegOutput::Val(7));
        assert_eq!(b.output(&adt, 0, &RegInput::Read), RegOutput::Val(7));
        assert_eq!(a.state_hash(), b.state_hash());
        // b's late write sorts before the write it holds: absorbed
        assert_eq!((a.refolds, a.absorbed), (0, 0));
        assert_eq!((b.refolds, b.absorbed), (0, 1));

        // a counter never overwrites: its late update refolds
        let adt = Counter;
        let mut a = ObjectTable::new(&adt, 2, Mode::Convergent);
        let mut b = ObjectTable::new(&adt, 2, Mode::Convergent);
        let u1 = (ts(1, 0), CtInput::Add(5));
        let u2 = (ts(2, 1), CtInput::Add(7));
        a.apply_update(&adt, 0, u1.0, &u1.1);
        a.apply_update(&adt, 0, u2.0, &u2.1);
        b.apply_update(&adt, 0, u2.0, &u2.1);
        b.apply_update(&adt, 0, u1.0, &u1.1);
        assert_eq!(b.output(&adt, 0, &CtInput::Read), CtOutput::Val(12));
        assert_eq!(a.state_hash(), b.state_hash());
        assert_eq!((a.refolds, a.absorbed), (0, 0));
        assert_eq!((b.refolds, b.absorbed), (1, 0));
    }

    #[test]
    fn shard_install_and_hash_touch_only_their_slots() {
        let adt = Register;
        let mut tab = ObjectTable::new(&adt, 4, Mode::Convergent);
        tab.apply_update(&adt, 1, ts(1, 0), &RegInput::Write(5));
        // shard = even slots {0, 2}
        let even = || [0usize, 2].into_iter();
        let before_even = tab.shard_hash(even());
        tab.install_slots(even(), &[7, 9]);
        assert_ne!(tab.shard_hash(even()), before_even);
        assert_eq!(tab.output(&adt, 0, &RegInput::Read), RegOutput::Val(7));
        assert_eq!(tab.output(&adt, 2, &RegInput::Read), RegOutput::Val(9));
        // the odd slot survives untouched
        assert_eq!(tab.output(&adt, 1, &RegInput::Read), RegOutput::Val(5));
        assert_eq!(tab.shard_snapshot(even()), vec![7, 9]);
        // post-install updates fold from the installed seed
        tab.apply_update(&adt, 0, ts(9, 1), &RegInput::Write(8));
        assert_eq!(tab.output(&adt, 0, &RegInput::Read), RegOutput::Val(8));
    }

    #[test]
    fn compaction_preserves_state_and_clears_logs() {
        let adt = Counter;
        let mut tab = ObjectTable::new(&adt, 2, Mode::Convergent);
        tab.apply_update(&adt, 0, ts(2, 0), &CtInput::Add(4));
        tab.apply_update(&adt, 0, ts(1, 1), &CtInput::Add(3)); // refold
        assert_eq!(tab.log_len(), 2);
        let before = tab.state_hash();
        tab.compact();
        assert_eq!(tab.log_len(), 0);
        assert_eq!(tab.state_hash(), before);
        // post-compaction updates fold from the new seed
        tab.apply_update(&adt, 0, ts(5, 0), &CtInput::Add(8));
        assert_eq!(tab.output(&adt, 0, &CtInput::Read), CtOutput::Val(15));

        // a register logs only its newest write
        let adt = Register;
        let mut tab = ObjectTable::new(&adt, 2, Mode::Convergent);
        tab.apply_update(&adt, 0, ts(2, 0), &RegInput::Write(4));
        tab.apply_update(&adt, 0, ts(1, 1), &RegInput::Write(3)); // absorbed
        assert_eq!(tab.log_len(), 1);
        let before = tab.state_hash();
        tab.compact();
        assert_eq!(tab.log_len(), 0);
        assert_eq!(tab.state_hash(), before);
        tab.apply_update(&adt, 0, ts(5, 0), &RegInput::Write(8));
        assert_eq!(tab.output(&adt, 0, &RegInput::Read), RegOutput::Val(8));
    }

    /// Applying one update twice is one of the engine bugs the
    /// arbitration log refuses in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "applied twice")]
    fn an_update_applied_twice_trips_in_debug_builds() {
        let adt = Register;
        let mut tab = ObjectTable::new(&adt, 1, Mode::Convergent);
        for t in [1, 3, 3] {
            tab.apply_update(&adt, 0, ts(t, 0), &RegInput::Write(t));
        }
    }

    /// A drain's premise is that no later update is ordered before what
    /// it compacted; a crash-recovery install makes no such claim.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ordered before a compacted cut")]
    fn an_update_ordered_before_a_drain_trips_in_debug_builds() {
        let adt = Register;
        let mut tab = ObjectTable::new(&adt, 1, Mode::Convergent);
        tab.apply_update(&adt, 0, ts(5, 0), &RegInput::Write(5));
        tab.install(&[7]);
        tab.apply_update(&adt, 0, ts(3, 1), &RegInput::Write(3));
        assert_eq!(tab.output(&adt, 0, &RegInput::Read), RegOutput::Val(3));
        tab.compact();
        tab.apply_update(&adt, 0, ts(2, 2), &RegInput::Write(2));
    }

    /// One scripted update: `(lateness class, value, cut)`. Update `i`
    /// carries timestamp `i + 1` and arrives after the updates up to
    /// `i + hold-back`; `cut` may follow its arrival with a compaction
    /// (a drain, or an install of every slot where an earlier update is
    /// still in flight) or an install of slot 1.
    type Script = [(u32, u64, u32)];

    /// Late inserts [`check_arbitration`] saw: more than a checkpoint
    /// interval back, more than half the log back, and overwrites that
    /// landed behind a logged entry; and the updates it saw absorbed.
    #[derive(Default)]
    struct Depths {
        far: usize,
        half: usize,
        late_overwrites: usize,
        absorbed: usize,
    }

    /// Drive a two-object convergent table through `script`. After
    /// every apply the slot's state must be the timestamp-sorted fold
    /// of its entries from its seed, and a late insert may replay at
    /// most one checkpoint interval plus the entries after it. An
    /// update is absorbed exactly when an overwrite ordered after it
    /// already reached its slot, and a slot's log holds its entries
    /// from the newest overwrite on.
    fn check_arbitration<T: Adt>(
        adt: &T,
        input: impl Fn(u64) -> T::Input,
        script: &Script,
    ) -> Result<Depths, TestCaseError> {
        let n = script.len();
        let hold_back = |(class, v, _): (u32, u64, u32)| match class {
            0..60 => 0,
            60..80 => 1 + v as usize % 8,
            80..92 => CHECKPOINT_INTERVAL + 1 + v as usize % 40,
            _ => n / 2 + 1 + v as usize % n,
        };
        let mut arrivals: Vec<usize> = (0..n).collect();
        arrivals.sort_by_key(|&i| (i + hold_back(script[i]), i));

        let mut tab = ObjectTable::new(adt, 2, Mode::Convergent);
        // per slot: seed, the entries since it, and the newest of them
        // that overwrites
        let mut model = vec![
            (
                adt.initial(),
                BTreeMap::<Timestamp, T::Input>::new(),
                None::<Timestamp>
            );
            2
        ];
        let logged = |entries: &BTreeMap<Timestamp, T::Input>, newest: Option<Timestamp>| {
            newest.map_or(entries.len(), |o| entries.range(o..).count())
        };
        let installed = adt.transition(&adt.initial(), &input(999));
        let mut depths = Depths::default();
        // arrivals so far, and the latest update among them
        let (mut arrived, mut latest) = (0, 0);
        for i in arrivals {
            (arrived, latest) = (arrived + 1, latest.max(i));
            let (_, v, cut) = script[i];
            let (slot, at, op) = (v as usize % 2, ts(i as u64 + 1, i % 4), input(v));
            let (seed, entries, newest) = &mut model[slot];
            let absorbed = newest.is_some_and(|o| at < o);
            let after = entries.range(at..).count();
            let before = logged(entries, *newest).saturating_sub(after);
            let (refolds, steps, absorbs) = (tab.refolds, tab.refold_steps, tab.absorbed);
            tab.apply_update(adt, slot as u32, at, &op);
            let overwrites = adt.overwrites(&op);
            if overwrites && !absorbed {
                *newest = Some(at);
            }
            entries.insert(at, op);
            let sorted = entries
                .values()
                .fold(seed.clone(), |q, i| adt.transition(&q, i));
            prop_assert_eq!(
                &tab.snapshot()[slot],
                &sorted,
                "update {} on slot {}",
                i,
                slot
            );
            let steps = (tab.refold_steps - steps) as usize;
            prop_assert_eq!(tab.absorbed - absorbs, u64::from(absorbed));
            if absorbed {
                prop_assert_eq!((tab.refolds - refolds, steps), (0, 0));
                depths.absorbed += 1;
            } else {
                prop_assert!(
                    steps <= CHECKPOINT_INTERVAL + after,
                    "{} steps, {} after",
                    steps,
                    after
                );
                prop_assert_eq!(tab.refolds - refolds, u64::from(after > 0));
                depths.far += usize::from(after > CHECKPOINT_INTERVAL);
                depths.half += usize::from(2 * after > logged(entries, *newest));
                depths.late_overwrites += usize::from(overwrites && before > 0 && after > 0);
            }
            match cut {
                0..3 => {
                    // a drain's premise: every update still in flight is
                    // ordered after every one that arrived. Where it
                    // fails, the same cut is a snapshot install.
                    if arrived == latest + 1 {
                        tab.compact();
                    } else {
                        tab.install(&tab.snapshot());
                    }
                    for (slot, (seed, entries, newest)) in model.iter_mut().enumerate() {
                        *seed = tab.snapshot()[slot].clone();
                        entries.clear();
                        *newest = None;
                    }
                }
                3 => {
                    tab.install_slots([1].into_iter(), std::slice::from_ref(&installed));
                    model[1] = (installed.clone(), BTreeMap::new(), None);
                }
                _ => {}
            }
            prop_assert_eq!(
                tab.log_len(),
                model.iter().map(|(_, e, o)| logged(e, *o)).sum::<usize>()
            );
        }
        Ok(depths)
    }

    /// A third of the updates overwrite.
    fn set_add(v: u64) -> SaInput {
        if v.is_multiple_of(3) {
            SaInput::Set(v)
        } else {
            SaInput::Add(v)
        }
    }

    fn register_write(v: u64) -> RegInput {
        RegInput::Write(v)
    }

    fn window_write(v: u64) -> WInput {
        WInput::Write(v)
    }

    fn queue_op(v: u64) -> QInput {
        if v.is_multiple_of(3) {
            QInput::Pop
        } else {
            QInput::Push(v)
        }
    }

    fn script() -> impl Strategy<Value = Vec<(u32, u64, u32)>> {
        prop::collection::vec((0u32..100, 0u64..1000, 0u32..400), 1..300)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn window_log_is_the_sorted_fold(script in script()) {
            check_arbitration(&WindowStream::new(3), window_write, &script)?;
        }

        #[test]
        fn queue_log_is_the_sorted_fold(script in script()) {
            check_arbitration(&FifoQueue, queue_op, &script)?;
        }

        #[test]
        fn register_log_is_the_sorted_fold(script in script()) {
            check_arbitration(&Register, register_write, &script)?;
        }

        #[test]
        fn set_add_log_is_the_sorted_fold(script in script()) {
            check_arbitration(&SetAdd, set_add, &script)?;
        }
    }

    /// The property's scripts do reach the deep inserts it bounds.
    #[test]
    fn arbitration_scripts_reach_far_inserts() {
        let mut x = 7u64;
        let script: Vec<_> = (0..300)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (
                    (x >> 33) as u32 % 100,
                    (x >> 13) % 1000,
                    (x >> 45) as u32 % 400,
                )
            })
            .collect();
        let depths = check_arbitration(&FifoQueue, queue_op, &script).unwrap();
        assert!(
            depths.far > 0 && depths.half > 0,
            "{} far, {} half",
            depths.far,
            depths.half
        );
        // and, where a third of the updates overwrite, every branch of
        // the discard
        let depths = check_arbitration(&SetAdd, set_add, &script).unwrap();
        assert!(
            depths.late_overwrites > 0 && depths.absorbed > 0,
            "{} late overwrites, {} absorbed",
            depths.late_overwrites,
            depths.absorbed
        );
    }
}
