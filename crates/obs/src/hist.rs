//! Log-bucketed latency histograms with a documented error bound.
//!
//! [`LatencyHistogram`] is the single-threaded accumulator each worker
//! owns; [`AtomicHistogram`] is the shared mirror workers merge into at
//! drain rendezvous. Both use the same HDR-style bucket layout:
//!
//! * values below 32 get one exact bucket each;
//! * every power-of-two octave above that is split into
//!   `2^SUB_BITS = 32` equal sub-buckets.
//!
//! A value `v ≥ 32` therefore lands in a bucket of width
//! `2^(⌊log₂ v⌋ - 5) ≤ v/32`, so any quantile reported by
//! [`LatencyHistogram::quantile`] (which returns the bucket's inclusive
//! upper bound at the nearest rank) overestimates the exact order
//! statistic by **at most 3.125 % (2⁻⁵) relative error**, and never
//! exceeds the recorded maximum. `max`, `count`, and the mean are
//! exact. Merging histograms is bucket-wise addition, so merged
//! quantiles carry the same bound — unlike the sample-and-sort summary
//! this replaces, whose nearest-index `pick(q)` biased tails low and
//! could not be merged without concatenating raw samples.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave (32).
const SUB: usize = 1 << SUB_BITS;
/// Number of octave groups above the exact range (`2^5 .. 2^64`).
const GROUPS: usize = 64 - SUB_BITS as usize;
/// Total bucket count (exact range + grouped octaves).
const NBUCKETS: usize = SUB + GROUPS * SUB;

/// Bucket index of a value. Values `< 32` map to themselves; larger
/// values map to `32·(octave − 5) + sub` past the exact range.
fn index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let group = (exp - SUB_BITS) as usize;
        let sub = ((v >> (exp - SUB_BITS)) as usize) & (SUB - 1);
        SUB + group * SUB + sub
    }
}

/// Inclusive upper bound of a bucket (the value [`quantile`] reports).
///
/// [`quantile`]: LatencyHistogram::quantile
fn upper(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let group = ((idx - SUB) / SUB) as u32;
        let sub = ((idx - SUB) % SUB) as u64;
        // The very top bucket's exclusive bound is 2^64, which wraps
        // to 0; wrapping_sub turns it into the correct u64::MAX.
        ((SUB as u64 + sub + 1) << group).wrapping_sub(1)
    }
}

/// A mergeable log-bucketed histogram of `u64` samples (nanoseconds,
/// by convention). See the module docs for the bucket layout
/// and the ≤ 3.125 % quantile error bound.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram (~15 KiB of buckets).
    pub fn new() -> Self {
        Self {
            counts: vec![0; NBUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of value `v` at once: indistinguishable from
    /// `n` calls of [`record`](LatencyHistogram::record). This is how a
    /// sampled measurement stands for the `n` events it was drawn from
    /// (its *weight*), so `count` stays the number of events and every
    /// quantile stays a quantile over events. `n = 0` records nothing.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[index(v)] += n;
        self.count += n;
        self.sum = self.sum.wrapping_add(v.wrapping_mul(n));
        self.max = self.max.max(v);
    }

    /// Add every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Nearest-rank quantile estimate for `q ∈ [0, 1]`.
    ///
    /// Walks the buckets to the bucket holding rank `⌈q·count⌉` and
    /// returns its inclusive upper bound, clamped to the exact
    /// maximum: at most 3.125 % above the exact order statistic,
    /// exact for values below 32.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return upper(idx).min(self.max);
            }
        }
        self.max
    }
}

/// Shared-mutation mirror of [`LatencyHistogram`]: every slot is an
/// `AtomicU64`, so concurrent workers can [`merge_from`] their local
/// histograms with plain `fetch_add`s (wait-free, no locks) and a
/// reader can [`snapshot`] the merged result at any time.
///
/// [`merge_from`]: AtomicHistogram::merge_from
/// [`snapshot`]: AtomicHistogram::snapshot
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty atomic histogram.
    pub(crate) fn new() -> Self {
        Self {
            counts: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Add every non-empty bucket of a local histogram into the shared
    /// one. Wait-free; intended to run once per worker at a drain
    /// rendezvous rather than per sample.
    pub fn merge_from(&self, local: &LatencyHistogram) {
        for (slot, &c) in self.counts.iter().zip(&local.counts) {
            if c > 0 {
                slot.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
        self.max.fetch_max(local.max, Ordering::Relaxed);
    }

    /// Copy the current contents into an owned [`LatencyHistogram`].
    pub fn snapshot(&self) -> LatencyHistogram {
        LatencyHistogram {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.max(), 31);
        // Below 32 every bucket is exact, so quantiles are exact
        // order statistics.
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        let samples: Vec<u64> = (0..10_000u64).map(|i| i * i + 17).collect();
        for &v in &samples {
            h.record(v);
        }
        for &(q, idx) in &[(0.5, 4999usize), (0.9, 8999), (0.99, 9899), (0.999, 9989)] {
            let exact = samples[idx];
            let est = h.quantile(q);
            assert!(est >= exact, "q={q}: est {est} < exact {exact}");
            let err = (est - exact) as f64 / exact as f64;
            assert!(err <= 0.03125, "q={q}: err {err} above bound");
        }
        assert_eq!(h.quantile(1.0), *samples.last().unwrap());
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..500u64 {
            let v = i * 37 % 4096;
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.mean(), all.mean());
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn atomic_mirror_round_trips() {
        let shared = AtomicHistogram::new();
        let mut local = LatencyHistogram::new();
        for v in [1u64, 100, 10_000, 1 << 40, 7] {
            local.record(v);
        }
        shared.merge_from(&local);
        let snap = shared.snapshot();
        assert_eq!(snap.count(), 5);
        assert_eq!(snap.max(), 1 << 40);
    }

    const QUANTILES: [f64; 9] = [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0];

    fn assert_same(a: &LatencyHistogram, b: &LatencyHistogram, what: &str) {
        assert_eq!(a.count(), b.count(), "{what}: count");
        assert_eq!(a.mean(), b.mean(), "{what}: mean");
        assert_eq!(a.max(), b.max(), "{what}: max");
        for q in QUANTILES {
            assert_eq!(a.quantile(q), b.quantile(q), "{what}: q{q}");
        }
        assert!(a.counts == b.counts, "{what}: buckets");
    }

    /// `record_n(v, n)` is `n × record(v)`: through `count`, `mean`,
    /// `max`, every quantile, `merge`, and the atomic mirror. A seeded
    /// property loop (this crate has no dev-dependencies): values
    /// spread over every octave, weights from 0 up.
    #[test]
    fn record_n_is_n_records() {
        let mut s = 0x5EED_u64;
        let mut next = move || {
            // splitmix64
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for case in 0..200 {
            let (mut weighted, mut unrolled) = (LatencyHistogram::new(), LatencyHistogram::new());
            let (mut w_half, mut u_half) = (LatencyHistogram::new(), LatencyHistogram::new());
            for i in 0..1 + next() % 24 {
                // a value of any magnitude, a weight in 0..=130
                let v = next() >> (next() % 64);
                let n = next() % 131;
                let (w, u) = if i % 2 == 0 {
                    (&mut weighted, &mut unrolled)
                } else {
                    (&mut w_half, &mut u_half)
                };
                w.record_n(v, n);
                for _ in 0..n {
                    u.record(v);
                }
            }
            let what = format!("case {case}");
            assert_same(&weighted, &unrolled, &what);
            assert_same(&w_half, &u_half, &what);

            let (shared_w, shared_u) = (AtomicHistogram::new(), AtomicHistogram::new());
            for (shared, parts) in [
                (&shared_w, [&weighted, &w_half]),
                (&shared_u, [&unrolled, &u_half]),
            ] {
                for part in parts {
                    shared.merge_from(part);
                }
            }
            assert_same(&shared_w.snapshot(), &shared_u.snapshot(), &what);

            weighted.merge(&w_half);
            unrolled.merge(&u_half);
            assert_same(&weighted, &unrolled, &what);
            assert_same(&weighted, &shared_w.snapshot(), &what);
        }
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        for v in (0..200u64).chain((1..60).map(|e| (1u64 << e) + e)) {
            let idx = index(v);
            let up = upper(idx);
            assert!(up >= v, "upper({idx}) = {up} < {v}");
            if v >= 32 {
                // Bucket width stays within the 2^-5 relative bound.
                assert!(up - v < v / 32 + 1, "v={v} up={up}");
            } else {
                assert_eq!(up, v);
            }
        }
    }

    #[test]
    fn top_bucket_index_in_range() {
        assert!(index(u64::MAX) < NBUCKETS);
        assert_eq!(upper(index(u64::MAX)), u64::MAX);
    }
}
