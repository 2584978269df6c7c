//! [`ArbLog`]: the arbitrated operation log behind causal convergence.
//!
//! Fig. 5 folds every update through `δ` in one Lamport total order.
//! For any sequential specification that fold stays a generic replay:
//! an update ordered before logged ones refolds them. A checkpoint
//! every [`CHECKPOINT_INTERVAL`] entries bounds the replay of a late
//! insert to that interval plus the entries after it, and its position
//! is found by galloping back from the tail, where causal delivery
//! keeps late arrivals. The fold is the caller's (`fold` below), so a
//! replica keeps its states in one vector and reads with one `λ`.
//! `cbm-core`'s `ConvergentShared` and `cbm-store`'s convergent object
//! table share it.
//!
//! An update whose `δ` ignores the state it meets ([`Adt::overwrites`])
//! becomes the log's *floor*: nothing ordered before it can reach the
//! fold, so it is folded into the seed, the entries ahead of it are
//! dropped, and it is never logged. An update that arrives ordered
//! before the floor is *absorbed* — neither logged nor folded. That is
//! Fig. 5's discard (lines 12–17): a write older than all `k` cells a
//! window keeps (`y = 0`) leaves the window as it is. A register, the
//! `k = 1` window, so is one `(floor key, seed)` pair and an empty
//! vector, and [`ArbLog::insert`]'s inline front arbitrates its write
//! in one comparison. An alphabet that never overwrites has no floor
//! and keeps every update, as before.
//!
//! The front never inlines the replay: the rest of `insert` stays out
//! of line, so `cbm-store`'s `ObjectTable::apply_update`, whose causal
//! branch is one `δ`, stays small enough to inline into its callers.

use crate::adt::Adt;

/// Entries between two checkpoints of an [`ArbLog`].
pub const CHECKPOINT_INTERVAL: usize = 32;

/// What [`ArbLog::insert`] did with an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placed {
    /// Appended at the tail, or made the floor from there: one `δ`.
    Appended,
    /// Ordered before the floor: neither logged nor folded, since the
    /// fold cannot see it.
    Absorbed,
    /// Inserted before the tail: the `δ` steps replayed, from the last
    /// checkpoint at or before its position to the end, itself
    /// included.
    Refolded(usize),
}

/// Updates sorted by an arbitration key `K`, relative to a seed state.
#[derive(Debug, Clone)]
pub struct ArbLog<K, T: Adt> {
    /// The key of the newest overwrite. It is folded into `seed` and
    /// never logged; an update keyed below it is absorbed.
    floor: Option<K>,
    /// Whether [`ArbLog::keys`] still lists the floor: a stability
    /// compaction folds past it, and from then on it only absorbs.
    listed: bool,
    /// Ascending by key, every key above the floor; keys are unique.
    /// No logged entry overwrites.
    entries: Vec<(K, T::Input)>,
    /// The fold of no entry (from the floor, if there is one).
    seed: T::State,
    /// `checkpoints[c]` is the fold of the first `(c + 1) *`
    /// [`CHECKPOINT_INTERVAL`] entries (an empty log allocates nothing).
    checkpoints: Vec<T::State>,
    /// Every key inserted since the last reseed, absorbed or dropped
    /// ones too: a second insert of one is an update applied twice.
    #[cfg(debug_assertions)]
    inserted: std::collections::BTreeSet<K>,
    /// The highest key inserted before the last drain reseed: every
    /// later key must exceed it.
    #[cfg(debug_assertions)]
    cut: Option<K>,
}

impl<K: Ord + Clone, T: Adt> ArbLog<K, T> {
    /// An empty log whose fold is `seed`.
    pub fn new(seed: T::State) -> Self {
        ArbLog {
            floor: None,
            listed: false,
            entries: Vec::new(),
            seed,
            checkpoints: Vec::new(),
            #[cfg(debug_assertions)]
            inserted: Default::default(),
            #[cfg(debug_assertions)]
            cut: None,
        }
    }

    /// Keys held: the floor, while listed, and the entries.
    pub fn len(&self) -> usize {
        usize::from(self.listed) + self.entries.len()
    }

    /// Whether the log holds no key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The keys, in arbitration order: the floor, while listed, first.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        let floor = self.floor.as_ref().filter(|_| self.listed);
        floor.into_iter().chain(self.entries.iter().map(|(k, _)| k))
    }

    /// Insert `input` at `key`'s place and bring `fold` — the fold of
    /// the seed and every entry, which the caller keeps — up to date.
    ///
    /// An `input` ordered before the floor is absorbed; an overwriting
    /// `input` becomes the floor and drops the entries ordered before
    /// it.
    ///
    /// A key inserted twice since the last reseed means an update was
    /// applied twice, and a key at or below one a drain reseed
    /// compacted means the drain's premise broke: a debug build panics
    /// on either, a release build keeps both (or absorbs the second).
    ///
    /// Inline, but only this front: the absorb and the overwrite of an
    /// empty log, the only paths a register takes, touch no heap
    /// buffer. Everything else is the out-of-line `place`.
    #[inline]
    pub fn insert(&mut self, adt: &T, fold: &mut T::State, key: K, input: T::Input) -> Placed {
        #[cfg(debug_assertions)]
        self.note(&key);
        if self.floor.as_ref().is_some_and(|floor| key < *floor) {
            return Placed::Absorbed;
        }
        if self.entries.is_empty() && adt.overwrites(&input) {
            self.raise_floor(adt, key, &input);
            fold.clone_from(&self.seed);
            return Placed::Appended;
        }
        self.place(adt, fold, key, input)
    }

    /// [`ArbLog::insert`] past its front: append, gallop, refold.
    ///
    /// Never inlined: folded into `ObjectTable::apply_update`, its
    /// replay makes that function too large to inline into its callers,
    /// and causal mode, whose branch there is one `transition`, pays a
    /// call per update for a path it never takes.
    #[inline(never)]
    fn place(&mut self, adt: &T, fold: &mut T::State, key: K, input: T::Input) -> Placed {
        let overwrites = adt.overwrites(&input);
        if self.entries.last().is_none_or(|(last, _)| *last < key) {
            if overwrites {
                self.entries.clear();
                self.checkpoints.clear();
                self.raise_floor(adt, key, &input);
                fold.clone_from(&self.seed);
            } else {
                self.entries.push((key, input));
                self.advance(adt, fold, self.entries.len() - 1);
            }
            return Placed::Appended;
        }
        let pos = self.gallop(&key);
        let from = if overwrites {
            // what is ordered before an overwrite cannot reach the fold
            self.entries.drain(..pos);
            self.raise_floor(adt, key, &input);
            0
        } else {
            self.entries.insert(pos, (key, input));
            pos / CHECKPOINT_INTERVAL
        };
        self.replay(adt, fold, from);
        // an overwrite's own `δ` was folded into the seed
        let own = usize::from(overwrites);
        Placed::Refolded(own + self.entries.len() - from * CHECKPOINT_INTERVAL)
    }

    /// Make the overwrite `input` at `key` the floor: the seed becomes
    /// its fold. The caller drops the entries ordered before it.
    fn raise_floor(&mut self, adt: &T, key: K, input: &T::Input) {
        self.seed = adt.transition(&self.seed, input);
        self.floor = Some(key);
        self.listed = true;
    }

    /// Restart the log empty from `seed` at a drain compaction, whose
    /// premise is that every later key exceeds every key so far.
    pub fn reseed(&mut self, seed: &T::State) {
        #[cfg(debug_assertions)]
        {
            let high = self.inserted.pop_last();
            self.cut = high.or(self.cut.take());
        }
        self.install(seed);
    }

    /// Restart the log empty from an installed `seed` (crash recovery):
    /// it forgets every key, so the replay after it may reach below
    /// keys logged before.
    pub fn install(&mut self, seed: &T::State) {
        self.floor = None;
        self.listed = false;
        self.entries.clear();
        self.checkpoints.clear();
        #[cfg(debug_assertions)]
        self.inserted.clear();
        self.seed.clone_from(seed);
    }

    /// Fold the first `n` keys into the seed and drop them (stability
    /// compaction); the fold of the whole log is unchanged. The floor,
    /// folded into the seed already, stops being listed and keeps
    /// absorbing the keys below it.
    pub fn compact_prefix(&mut self, adt: &T, mut n: usize) {
        if n > 0 && self.listed {
            self.listed = false;
            n -= 1;
        }
        for (_, input) in self.entries.drain(..n) {
            self.seed = adt.transition(&self.seed, &input);
        }
        let mut fold = self.seed.clone();
        self.replay(adt, &mut fold, 0);
    }

    /// Debug builds: refuse `key` if it was inserted before, or if a
    /// drain reseed compacted a key at or above it.
    #[cfg(debug_assertions)]
    fn note(&mut self, key: &K) {
        assert!(
            self.cut.as_ref().is_none_or(|cut| key > cut),
            "an update ordered before a compacted cut"
        );
        assert!(
            self.inserted.insert(key.clone()),
            "an update was applied twice"
        );
    }

    /// First position whose key is not below `key`, searched backward
    /// from the tail in doubling strides. The tail's key must not be
    /// below `key`.
    fn gallop(&self, key: &K) -> usize {
        let below = |entry: &(K, T::Input)| entry.0 < *key;
        let (len, mut stride) = (self.entries.len(), 1);
        // every key from `len - stride / 2` on is at least `key`
        while stride < len && !below(&self.entries[len - stride]) {
            stride *= 2;
        }
        let lo = len.saturating_sub(stride);
        lo + self.entries[lo..len - stride / 2].partition_point(below)
    }

    /// The fold of the first `c * CHECKPOINT_INTERVAL` entries.
    fn checkpoint(&self, c: usize) -> &T::State {
        c.checked_sub(1)
            .map_or(&self.seed, |c| &self.checkpoints[c])
    }

    /// Refold `fold` from checkpoint `from` to the end, replacing the
    /// checkpoints past it.
    fn replay(&mut self, adt: &T, fold: &mut T::State, from: usize) {
        fold.clone_from(self.checkpoint(from));
        self.checkpoints.truncate(from);
        for i in from * CHECKPOINT_INTERVAL..self.entries.len() {
            self.advance(adt, fold, i);
        }
    }

    /// Extend `fold` by entry `i`, checkpointing at an interval
    /// boundary.
    fn advance(&mut self, adt: &T, fold: &mut T::State, i: usize) {
        *fold = adt.transition(fold, &self.entries[i].1);
        if (i + 1).is_multiple_of(CHECKPOINT_INTERVAL) {
            self.checkpoints.push(fold.clone());
        }
    }
}

/// A test alphabet that mixes overwrites with order-sensitive updates,
/// which no shipped object does: `Set(v)` replaces the state, `Add(v)`
/// folds `31q + v`. So one log holds a floor and entries at once.
#[doc(hidden)]
pub mod testing {
    use crate::{Adt, OpKind};

    /// One `SetAdd` update.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum SaInput {
        /// Replace the state: an overwrite.
        Set(u64),
        /// Fold `v` in after the state: `31q + v`.
        Add(u64),
    }

    /// The alphabet; every input is a pure update, and the output is
    /// the state.
    #[derive(Debug, Clone, Copy)]
    pub struct SetAdd;

    impl Adt for SetAdd {
        type Input = SaInput;
        type Output = u64;
        type State = u64;

        fn initial(&self) -> u64 {
            0
        }
        fn transition(&self, q: &u64, i: &SaInput) -> u64 {
            match *i {
                SaInput::Set(v) => v,
                SaInput::Add(v) => q.wrapping_mul(31).wrapping_add(v),
            }
        }
        fn output(&self, q: &u64, _: &SaInput) -> u64 {
            *q
        }
        fn kind(&self, _: &SaInput) -> OpKind {
            OpKind::PureUpdate
        }
        fn overwrites(&self, i: &SaInput) -> bool {
            matches!(i, SaInput::Set(_))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{SaInput, SetAdd};
    use super::*;
    use crate::queue::{FifoQueue, QInput};
    use crate::register::{RegInput, Register};

    type Log = ArbLog<u64, FifoQueue>;

    /// Insert `keys` in the given order, each pushing its own key;
    /// returns the `δ` steps each replayed.
    fn build(keys: &[u64]) -> (Log, Vec<u64>, Vec<usize>) {
        let mut log = Log::new(Vec::new());
        let mut fold = Vec::new();
        let steps = keys
            .iter()
            .map(
                |&k| match log.insert(&FifoQueue, &mut fold, k, QInput::Push(k)) {
                    Placed::Refolded(steps) => steps,
                    Placed::Appended => 0,
                    Placed::Absorbed => unreachable!("a queue never overwrites"),
                },
            )
            .collect();
        (log, fold, steps)
    }

    /// Write each key's value at that key, in the given order.
    fn write_register(keys: &[u64]) -> (ArbLog<u64, Register>, u64, Vec<Placed>) {
        let mut log = ArbLog::new(0);
        let mut fold = 0;
        let placed = keys
            .iter()
            .map(|&k| log.insert(&Register, &mut fold, k, RegInput::Write(k)))
            .collect();
        (log, fold, placed)
    }

    #[test]
    fn late_inserts_replay_from_their_checkpoint() {
        // 100 even keys in order, then odd keys at various depths
        let mut keys: Vec<u64> = (0..100).map(|k| 2 * k).collect();
        keys.extend([197, 131, 63, 1]);
        let (log, fold, steps) = build(&keys);
        assert!(
            steps[..100].iter().all(|&s| s == 0),
            "appends replay nothing"
        );
        // 197 lands at 99: checkpoint 3 = entry 96, replay 96..101
        // 131 lands at 66: checkpoint 2 = entry 64, replay 64..102
        // 63 lands at 32, right at checkpoint 1: replay 32..103
        // 1 lands at 1: the seed, replay everything
        assert_eq!(steps[100..], [5, 38, 71, 104]);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert!(log.keys().eq(sorted.iter()));
        assert_eq!(fold, sorted);
        assert_eq!(log.checkpoints.len(), 104 / CHECKPOINT_INTERVAL);
    }

    #[test]
    fn prefix_compaction_keeps_the_fold() {
        let keys: Vec<u64> = (0..80).rev().map(|k| 2 * k).collect();
        let (mut log, mut fold, _) = build(&keys);
        log.compact_prefix(&FifoQueue, 45);
        assert_eq!(log.len(), 35);
        assert_eq!(log.seed, (0..45).map(|k| 2 * k).collect::<Vec<_>>());
        // 155 lands at 33 of the remainder: replay from its rebuilt
        // checkpoint 1, and the pop removes the head of the seed
        assert_eq!(
            log.insert(&FifoQueue, &mut fold, 155, QInput::Pop),
            Placed::Refolded(4)
        );
        assert_eq!(fold, (1..80).map(|k| 2 * k).collect::<Vec<_>>());
    }

    #[test]
    fn reseed_restarts_from_the_given_state() {
        let (mut log, _, _) = build(&[5, 3, 9]);
        log.reseed(&vec![42]);
        assert!(log.is_empty());
        let mut fold = vec![42];
        // every key after a drain exceeds every key before it
        assert_eq!(
            log.insert(&FifoQueue, &mut fold, 11, QInput::Pop),
            Placed::Appended
        );
        assert_eq!(
            log.insert(&FifoQueue, &mut fold, 10, QInput::Push(7)),
            Placed::Refolded(2)
        );
        assert_eq!(fold, vec![7], "push 7 arbitrated before the pop");
    }

    /// A drain reseed keeps its cut across the restart: a key at or
    /// below the highest one it compacted breaks the drain's premise.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ordered before a compacted cut")]
    fn a_key_below_a_drain_cut_trips_in_debug_builds() {
        let (mut log, _, _) = build(&[5, 3, 9]);
        log.reseed(&Vec::new());
        // a drain with nothing new keeps the cut it had
        log.reseed(&Vec::new());
        log.insert(&FifoQueue, &mut Vec::new(), 7, QInput::Pop);
    }

    /// A key logged twice is an update applied twice.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "applied twice")]
    fn a_duplicate_key_trips_in_debug_builds() {
        build(&[1, 4, 2, 4]);
    }

    /// A register keeps its newest write: a later one clears the log,
    /// an earlier one is absorbed, and the fold is the newest value.
    #[test]
    fn a_register_log_keeps_only_its_newest_write() {
        let keys: Vec<u64> = (0..100).map(|k| 3 * k + 10).collect();
        let (mut log, mut fold, placed) = write_register(&keys);
        assert!(placed.iter().all(|&p| p == Placed::Appended));
        assert!(log.keys().eq([307].iter()));
        assert!(log.checkpoints.is_empty());
        assert_eq!(fold, 307);
        for late in [306, 5] {
            let placed = log.insert(&Register, &mut fold, late, RegInput::Write(late));
            assert_eq!(placed, Placed::Absorbed);
        }
        assert_eq!((log.len(), fold), (1, 307));
        // an install forgets the keys: an older one appends again
        log.install(&42);
        fold = 42;
        assert_eq!(
            log.insert(&Register, &mut fold, 1, RegInput::Write(8)),
            Placed::Appended
        );
        assert_eq!((log.len(), fold), (1, 8));
    }

    /// The key set survives what the log drops: a write absorbed
    /// behind a newer one, then delivered again, was applied twice.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "applied twice")]
    fn an_absorbed_update_applied_twice_trips_in_debug_builds() {
        write_register(&[5, 3, 3]);
    }

    /// Insert `(key, input)` pairs in the given order.
    fn set_add(ops: &[(u64, SaInput)]) -> (ArbLog<u64, SetAdd>, u64, Vec<Placed>) {
        let mut log = ArbLog::new(0);
        let mut fold = 0;
        let placed = ops
            .iter()
            .map(|&(k, i)| log.insert(&SetAdd, &mut fold, k, i))
            .collect();
        (log, fold, placed)
    }

    /// The fold of `adds` from `q`.
    fn add_all(q: u64, adds: &[u64]) -> u64 {
        adds.iter()
            .fold(q, |q, &v| SetAdd.transition(&q, &SaInput::Add(v)))
    }

    /// An overwrite becomes the floor: folded into the seed, never an
    /// entry, yet listed first and counted by `len`.
    #[test]
    fn an_overwrite_is_the_floor_not_an_entry() {
        use SaInput::{Add, Set};
        let (log, fold, placed) = set_add(&[
            (1, Add(1)),
            (2, Add(2)),
            (5, Set(10)),
            (6, Add(3)),
            (7, Add(4)),
        ]);
        assert!(placed.iter().all(|&p| p == Placed::Appended));
        assert_eq!(log.floor, Some(5));
        assert_eq!(log.seed, 10);
        assert!(log.entries.iter().all(|(_, i)| !SetAdd.overwrites(i)));
        assert!(log.keys().eq([5, 6, 7].iter()));
        assert_eq!((log.len(), log.entries.len()), (3, 2));
        assert_eq!(fold, add_all(10, &[3, 4]));

        // a register is all floor: no entry, no checkpoint, no buffer
        let (log, fold, _) = write_register(&[4, 9, 2, 12]);
        assert!(log.entries.is_empty() && log.checkpoints.is_empty());
        assert_eq!(log.entries.capacity(), 0, "a register log never allocates");
        assert!(log.keys().eq([12].iter()));
        assert_eq!((log.len(), fold), (1, 12));
    }

    /// A late overwrite drops the logged entries ordered before it, and
    /// its `Refolded` steps count its own `δ`.
    #[test]
    fn a_late_overwrite_drops_what_it_follows() {
        use SaInput::{Add, Set};
        let (mut log, mut fold, _) =
            set_add(&[(10, Add(1)), (20, Add(2)), (40, Add(4)), (50, Add(5))]);
        assert_eq!(
            log.insert(&SetAdd, &mut fold, 30, Set(9)),
            Placed::Refolded(3),
            "its own δ, then 40 and 50"
        );
        assert!(log.keys().eq([30, 40, 50].iter()));
        assert_eq!(log.entries.len(), 2);
        assert_eq!(fold, add_all(9, &[4, 5]));
        // behind the floor: absorbed, whether or not it overwrites
        for (k, i) in [(15, Add(7)), (25, Set(3))] {
            assert_eq!(log.insert(&SetAdd, &mut fold, k, i), Placed::Absorbed);
        }
        assert_eq!(fold, add_all(9, &[4, 5]));
        // between the floor and the tail: a refold from the floor
        assert_eq!(
            log.insert(&SetAdd, &mut fold, 45, Add(6)),
            Placed::Refolded(3)
        );
        assert_eq!(fold, add_all(9, &[4, 6, 5]));
    }

    /// Stability compaction past a floor keeps the fold, stops listing
    /// the floor, and still absorbs what is ordered before it.
    #[test]
    fn prefix_compaction_past_the_floor_keeps_absorbing() {
        use SaInput::{Add, Set};
        let (mut log, mut fold, _) =
            set_add(&[(30, Set(9)), (40, Add(4)), (50, Add(5)), (60, Add(6))]);
        log.compact_prefix(&SetAdd, 2);
        assert!(log.keys().eq([50, 60].iter()));
        assert_eq!(log.len(), 2);
        assert_eq!(log.seed, add_all(9, &[4]));
        assert_eq!(fold, add_all(9, &[4, 5, 6]));
        assert_eq!(log.insert(&SetAdd, &mut fold, 25, Add(1)), Placed::Absorbed);
        assert_eq!(
            log.insert(&SetAdd, &mut fold, 55, Add(7)),
            Placed::Refolded(3)
        );
        assert_eq!(fold, add_all(9, &[4, 5, 7, 6]));
        // a compaction that reaches no entry only unlists the floor
        let (mut log, _, _) = write_register(&[3, 8]);
        log.compact_prefix(&Register, 1);
        assert!(log.is_empty());
        let mut fold = 8;
        assert_eq!(
            log.insert(&Register, &mut fold, 5, RegInput::Write(5)),
            Placed::Absorbed
        );
        assert_eq!(fold, 8);
    }
}
