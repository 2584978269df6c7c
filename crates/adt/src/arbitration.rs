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

use crate::adt::Adt;

/// Entries between two checkpoints of an [`ArbLog`].
pub const CHECKPOINT_INTERVAL: usize = 32;

/// Updates sorted by an arbitration key `K`, relative to a seed state.
#[derive(Debug, Clone)]
pub struct ArbLog<K, T: Adt> {
    /// Ascending by key; keys are unique.
    entries: Vec<(K, T::Input)>,
    /// The fold of no entry.
    seed: T::State,
    /// `checkpoints[c]` is the fold of the first `(c + 1) *`
    /// [`CHECKPOINT_INTERVAL`] entries (an empty log allocates nothing).
    checkpoints: Vec<T::State>,
}

impl<K: Ord, T: Adt> ArbLog<K, T> {
    /// An empty log whose fold is `seed`.
    pub fn new(seed: T::State) -> Self {
        ArbLog {
            entries: Vec::new(),
            seed,
            checkpoints: Vec::new(),
        }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The keys, in arbitration order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Insert `input` at `key`'s place and bring `fold` — the fold of
    /// the seed and every entry, which the caller keeps — up to date.
    ///
    /// Returns the `δ` steps replayed: 0 for an append at the tail,
    /// otherwise the entries from the last checkpoint at or before the
    /// insert position to the end, the inserted one included.
    ///
    /// A key already in the log means an update was applied twice: a
    /// debug build panics, a release build keeps both.
    pub fn insert(&mut self, adt: &T, fold: &mut T::State, key: K, input: T::Input) -> usize {
        let len = self.entries.len();
        if self.entries.last().is_none_or(|(last, _)| *last < key) {
            self.entries.push((key, input));
            self.advance(adt, fold, len);
            return 0;
        }
        let pos = self.gallop(&key);
        debug_assert!(self.entries[pos].0 != key, "an update was applied twice");
        self.entries.insert(pos, (key, input));
        let from = pos / CHECKPOINT_INTERVAL;
        self.replay(adt, fold, from);
        len + 1 - from * CHECKPOINT_INTERVAL
    }

    /// Restart the log empty from `seed` (drain compaction, snapshot
    /// install).
    pub fn reseed(&mut self, seed: &T::State) {
        self.entries.clear();
        self.checkpoints.clear();
        self.seed.clone_from(seed);
    }

    /// Fold the first `n` entries into the seed and drop them
    /// (stability compaction); the fold of the whole log is unchanged.
    pub fn compact_prefix(&mut self, adt: &T, n: usize) {
        for (_, input) in self.entries.drain(..n) {
            self.seed = adt.transition(&self.seed, &input);
        }
        let mut fold = self.seed.clone();
        self.replay(adt, &mut fold, 0);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{FifoQueue, QInput};

    type Log = ArbLog<u64, FifoQueue>;

    /// Insert `keys` in the given order, each pushing its own key.
    fn build(keys: &[u64]) -> (Log, Vec<u64>, Vec<usize>) {
        let mut log = Log::new(Vec::new());
        let mut fold = Vec::new();
        let steps = keys
            .iter()
            .map(|&k| log.insert(&FifoQueue, &mut fold, k, QInput::Push(k)))
            .collect();
        (log, fold, steps)
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
        assert_eq!(log.insert(&FifoQueue, &mut fold, 155, QInput::Pop), 4);
        assert_eq!(fold, (1..80).map(|k| 2 * k).collect::<Vec<_>>());
    }

    #[test]
    fn reseed_restarts_from_the_given_state() {
        let (mut log, _, _) = build(&[5, 3, 9]);
        log.reseed(&vec![42]);
        assert!(log.is_empty());
        let mut fold = vec![42];
        assert_eq!(log.insert(&FifoQueue, &mut fold, 1, QInput::Pop), 0);
        assert_eq!(log.insert(&FifoQueue, &mut fold, 0, QInput::Push(7)), 2);
        assert_eq!(fold, vec![7], "push 7 arbitrated before the pop");
    }

    /// A key logged twice is an update applied twice.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "applied twice")]
    fn a_duplicate_key_trips_in_debug_builds() {
        build(&[1, 4, 2, 4]);
    }
}
