//! Fixed-capacity bitsets over event ids.
//!
//! The consistency checkers in `cbm-check` manipulate many small sets of
//! events (pasts, downsets, frontiers) and memoise on them; a compact
//! word-wise representation keeps those inner loops allocation-light and
//! hashable. Universes of up to [`BitSet::INLINE_BITS`] indices — which
//! covers every paper figure and every simulator scenario — are stored
//! **inline** (no heap allocation at all), so cloning and clearing the
//! sets the search kernels juggle is a couple of register moves.

use std::fmt;
use std::hash::{Hash, Hasher};

const INLINE_WORDS: usize = 2;

/// Word storage: inline for small universes, heap beyond.
#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// A fixed-capacity set of `usize` indices backed by 64-bit words.
#[derive(Clone)]
pub struct BitSet {
    words: Words,
    /// Number of valid bits (indices `0..len`).
    len: usize,
}

impl Default for BitSet {
    fn default() -> Self {
        BitSet::new(0)
    }
}

impl BitSet {
    /// Universes of at most this many indices are stored inline
    /// (without heap allocation).
    pub(crate) const INLINE_BITS: usize = INLINE_WORDS * 64;

    #[inline]
    fn word_count(len: usize) -> usize {
        len.div_ceil(64)
    }

    /// The valid word slice (exactly `⌈len/64⌉` words).
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(a) => &a[..Self::word_count(self.len)],
            Words::Heap(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(a) => &mut a[..Self::word_count(self.len)],
            Words::Heap(v) => v,
        }
    }

    /// The empty set over a universe of `len` indices.
    pub fn new(len: usize) -> Self {
        let words = if len <= Self::INLINE_BITS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; Self::word_count(len)])
        };
        BitSet { words, len }
    }

    /// The full set `{0, …, len-1}`.
    pub fn full(len: usize) -> Self {
        let mut s = Self::new(len);
        let tail = len % 64;
        let nwords = Self::word_count(len);
        let ws = s.words_mut();
        for w in ws.iter_mut() {
            *w = !0;
        }
        if tail != 0 {
            ws[nwords - 1] = (1u64 << tail) - 1;
        }
        s
    }

    /// Build from an iterator with a **known** universe size — the
    /// preferred constructor when callers already know `universe`
    /// (unlike `FromIterator`, which must size the set from the data).
    /// Panics if an element is outside the universe.
    pub fn with_capacity_from<I: IntoIterator<Item = usize>>(iter: I, universe: usize) -> Self {
        let mut s = Self::new(universe);
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// Universe size (not the cardinality; see [`BitSet::count`]).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Insert `i`. Panics if `i` is outside the universe.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words_mut()[i / 64] |= 1 << (i % 64);
    }

    /// Remove `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words_mut()[i / 64] &= !(1 << (i % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words()[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of elements.
    #[inline]
    pub fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self ∪= other` (universes must match).
    #[inline]
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a |= *b;
        }
    }

    /// `self ∩= other`.
    #[inline]
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= *b;
        }
    }

    /// `|self ∪ other|` without materializing the union.
    #[inline]
    #[cfg(test)]
    pub(crate) fn union_count(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.len, other.len);
        self.words()
            .iter()
            .zip(other.words())
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum()
    }

    /// Is `self ⊆ other`?
    #[inline]
    pub fn is_subset(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & !b == 0)
    }

    /// Is `self ∩ mask ⊆ other`? Word-parallel and allocation-free —
    /// the search kernels use this for "are all *retained* predecessors
    /// done" without materializing the intersection.
    #[inline]
    pub fn subset_of_with_mask(&self, other: &BitSet, mask: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        debug_assert_eq!(self.len, mask.len);
        self.words()
            .iter()
            .zip(other.words())
            .zip(mask.words())
            .all(|((a, b), m)| a & m & !b == 0)
    }

    /// Overwrite `self` with `other`'s contents. Universes must match;
    /// never allocates.
    #[inline]
    pub fn clear_and_copy_from(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        self.words_mut().copy_from_slice(other.words());
    }

    /// Iterate over members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        Self::iter_words(self.words())
    }

    /// Iterate over `self ∖ other` in increasing order, without
    /// materializing the difference.
    pub fn iter_difference<'a>(&'a self, other: &'a BitSet) -> impl Iterator<Item = usize> + 'a {
        debug_assert_eq!(self.len, other.len);
        self.words()
            .iter()
            .zip(other.words())
            .enumerate()
            .flat_map(|(wi, (&a, &b))| {
                let mut w = a & !b;
                std::iter::from_fn(move || {
                    if w == 0 {
                        None
                    } else {
                        let bit = w.trailing_zeros() as usize;
                        w &= w - 1;
                        Some(wi * 64 + bit)
                    }
                })
            })
    }

    fn iter_words(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
        words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Collect members into a vector (test convenience).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        self.words_mut().iter_mut().for_each(|w| *w = 0);
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for BitSet {}

impl Hash for BitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        for &w in self.words() {
            w.hash(state);
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to the maximum element + 1 in a single pass,
    /// growing as elements arrive. Prefer [`BitSet::with_capacity_from`]
    /// when the universe size is known.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = BitSet::new(0);
        for i in iter {
            if i >= s.len {
                s.grow_to(i + 1);
            }
            s.insert(i);
        }
        s
    }
}

impl BitSet {
    /// Enlarge the universe to `new_len`, preserving members.
    fn grow_to(&mut self, new_len: usize) {
        debug_assert!(new_len > self.len);
        let nwords = Self::word_count(new_len);
        match &mut self.words {
            Words::Inline(a) if new_len <= Self::INLINE_BITS => {
                let _ = a; // capacity already present
            }
            Words::Inline(a) => {
                let mut v = a.to_vec();
                v.resize(nwords, 0);
                self.words = Words::Heap(v);
            }
            Words::Heap(v) => v.resize(nwords, 0),
        }
        self.len = new_len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(!s.contains(0));
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert_eq!(s.count(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn out_of_universe_contains_is_false() {
        let s = BitSet::new(5);
        assert!(!s.contains(100));
    }

    #[test]
    #[should_panic]
    fn out_of_universe_insert_panics() {
        let mut s = BitSet::new(5);
        s.insert(5);
    }

    #[test]
    fn set_ops() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        a.insert(65);
        b.insert(65);
        b.insert(2);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 2, 65]);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![65]);

        assert!(i.is_subset(&a) && i.is_subset(&b));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn full_and_clear() {
        let mut s = BitSet::full(66);
        assert_eq!(s.count(), 66);
        s.clear();
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn full_exact_word_boundary() {
        let s = BitSet::full(128);
        assert_eq!(s.count(), 128);
        assert!(s.contains(127));
        let t = BitSet::full(192);
        assert_eq!(t.count(), 192);
        assert!(t.contains(191));
    }

    #[test]
    fn iter_order() {
        let mut s = BitSet::new(200);
        for i in [3, 199, 64, 63, 128] {
            s.insert(i);
        }
        assert_eq!(s.to_vec(), vec![3, 63, 64, 128, 199]);
    }

    #[test]
    fn from_iterator() {
        let s: BitSet = [4usize, 9, 2].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.to_vec(), vec![2, 4, 9]);
    }

    #[test]
    fn from_iterator_grows_past_inline() {
        let s: BitSet = [1usize, 300, 5].into_iter().collect();
        assert_eq!(s.capacity(), 301);
        assert_eq!(s.to_vec(), vec![1, 5, 300]);
    }

    #[test]
    fn with_capacity_from_keeps_universe() {
        let s = BitSet::with_capacity_from([2usize, 4], 40);
        assert_eq!(s.capacity(), 40);
        assert_eq!(s.to_vec(), vec![2, 4]);
    }

    #[test]
    fn subset_of_with_mask_matches_naive() {
        let mut a = BitSet::new(130);
        let mut b = BitSet::new(130);
        let mut m = BitSet::new(130);
        for i in [1, 7, 64, 127, 129] {
            a.insert(i);
        }
        for i in [1, 64] {
            b.insert(i);
        }
        for i in [1, 7, 64] {
            m.insert(i);
        }
        // a ∩ m = {1, 7, 64}; 7 ∉ b → not subset
        assert!(!a.subset_of_with_mask(&b, &m));
        m.remove(7);
        assert!(a.subset_of_with_mask(&b, &m));
        let naive = {
            let mut x = a.clone();
            x.intersect_with(&m);
            x.is_subset(&b)
        };
        assert!(naive);
    }

    #[test]
    fn union_count_matches_materialized_union() {
        let mut a = BitSet::new(150);
        let mut b = BitSet::new(150);
        for i in [0, 63, 64, 100] {
            a.insert(i);
        }
        for i in [63, 149] {
            b.insert(i);
        }
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(a.union_count(&b), u.count());
        assert_eq!(a.union_count(&b), 5);
    }

    #[test]
    fn iter_difference_matches_materialized_difference() {
        let mut a = BitSet::new(140);
        let mut b = BitSet::new(140);
        for i in [0, 5, 64, 128, 139] {
            a.insert(i);
        }
        for i in [5, 128] {
            b.insert(i);
        }
        let d: Vec<usize> = a.iter().filter(|&i| !b.contains(i)).collect();
        assert_eq!(a.iter_difference(&b).collect::<Vec<_>>(), d);
    }

    #[test]
    fn clear_and_copy_from_copies() {
        let mut a = BitSet::new(70);
        a.insert(3);
        let mut b = BitSet::new(70);
        b.insert(65);
        a.clear_and_copy_from(&b);
        assert_eq!(a.to_vec(), vec![65]);
    }

    #[test]
    fn hash_and_eq_agree() {
        use std::collections::HashSet;
        let mut a = BitSet::new(64);
        a.insert(3);
        let mut b = BitSet::new(64);
        b.insert(3);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn inline_and_heap_behave_identically() {
        for len in [1usize, 63, 64, 65, 128, 129, 300] {
            let mut s = BitSet::new(len);
            s.insert(0);
            s.insert(len - 1);
            assert_eq!(s.count(), if len == 1 { 1 } else { 2 });
            assert!(s.contains(len - 1));
            let t = s.clone();
            assert_eq!(s, t);
            s.remove(0);
            assert_ne!(s, t);
        }
    }
}
