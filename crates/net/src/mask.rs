//! [`InterestMask`]: the recipient set of an interest-filtered
//! multicast, as an inline fixed-width bitset over node ids.
//!
//! The first sharded engine carried these sets as bare `u64` bitmasks,
//! which capped clusters at 64 workers and left `1u64 << n` overflow
//! traps at every call-site that built one. This type widens the mask
//! to [`InterestMask::MAX_NODES`] bits held inline (no allocation: the
//! mask sits in hot per-update paths and in every pending-batch key),
//! and funnels every construction through checked bit operations so no
//! shift-overflow path survives for `n ≥ 64`.

/// The recipient set of an interest-filtered multicast (bit `i` = node
/// `i` is interested). Fixed-width inline bitset; the node bound is
/// [`InterestMask::MAX_NODES`], asserted by
/// [`crate::broadcast::InterestBatchCausalBroadcast::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InterestMask {
    words: [u64; Self::WORDS],
}

impl InterestMask {
    const WORDS: usize = 4;

    /// Largest cluster the mask can address.
    pub const MAX_NODES: usize = Self::WORDS * 64;

    /// The empty set.
    pub const EMPTY: InterestMask = InterestMask {
        words: [0; Self::WORDS],
    };

    /// The singleton set `{i}`.
    pub fn solo(i: usize) -> Self {
        let mut m = Self::EMPTY;
        m.set(i);
        m
    }

    /// The set `{0, 1, …, n-1}` — every node of a cluster of `n`
    /// interested (replaces the old `u64` path whose `1 << n`
    /// saturated at 64).
    pub fn first_n(n: usize) -> Self {
        assert!(n <= Self::MAX_NODES, "cluster of {n} > {}", Self::MAX_NODES);
        let mut m = Self::EMPTY;
        for w in 0..Self::WORDS {
            let lo = w * 64;
            m.words[w] = match n.saturating_sub(lo) {
                0 => 0,
                k if k >= 64 => u64::MAX,
                k => (1u64 << k) - 1,
            };
        }
        m
    }

    /// Insert node `i`.
    pub fn set(&mut self, i: usize) {
        assert!(i < Self::MAX_NODES, "node {i} ≥ {}", Self::MAX_NODES);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Is node `i` in the set? (`false` for any `i` past the width —
    /// total, so callers can probe without their own bound check.)
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < Self::MAX_NODES && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of interested nodes.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// The members in ascending node order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

/// The mask with every node of a cluster of `n` interested (kept as a
/// free function for source compatibility with the `u64`-mask era).
pub fn full_interest(n: usize) -> InterestMask {
    InterestMask::first_n(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_n_covers_exactly_the_prefix() {
        for n in [0, 1, 63, 64, 65, 127, 128, 200, 256] {
            let m = InterestMask::first_n(n);
            assert_eq!(m.count() as usize, n, "count at n = {n}");
            for i in 0..InterestMask::MAX_NODES {
                assert_eq!(m.contains(i), i < n, "bit {i} at n = {n}");
            }
        }
    }

    #[test]
    fn set_contains_and_iter_agree_across_word_boundaries() {
        let picks = [0usize, 1, 63, 64, 65, 127, 128, 191, 192, 255];
        let mut m = InterestMask::EMPTY;
        assert_eq!(m.count(), 0);
        for &i in &picks {
            m.set(i);
        }
        assert_eq!(m.count() as usize, picks.len());
        assert_eq!(m.iter().collect::<Vec<_>>(), picks, "ascending order");
        assert!(!m.contains(2));
        assert!(!m.contains(usize::MAX), "out-of-width probe is total");
    }

    #[test]
    fn solo_is_a_singleton() {
        let m = InterestMask::solo(200);
        assert_eq!(m.count(), 1);
        assert!(m.contains(200));
        assert_eq!(m, {
            let mut x = InterestMask::EMPTY;
            x.set(200);
            x
        });
        assert_ne!(m, InterestMask::solo(199));
    }

    #[test]
    #[should_panic(expected = "≥ 256")]
    fn set_past_width_panics() {
        let mut m = InterestMask::EMPTY;
        m.set(256);
    }

    #[test]
    fn full_interest_matches_first_n() {
        assert_eq!(full_interest(96), InterestMask::first_n(96));
    }
}
