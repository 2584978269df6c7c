//! A minimal, stable FNV-1a hasher.
//!
//! `std`'s `RandomState` is seeded per process, so anything that must
//! hash identically across runs — checker memo keys, scenario run
//! fingerprints — uses this instead. One canonical copy lives here so
//! every crate hashes with the same constants.

use std::hash::Hasher;

/// FNV-1a over bytes; `Default` starts at the offset basis.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }
}

/// Word-at-a-time mixing hasher for internal memo keys.
///
/// [`Fnv`] is byte-oriented (eight multiplies per `u64`), which is the
/// right trade for canonical, documented fingerprints but needless on
/// the search hot path, where keys only have to be well-distributed
/// and stable within a process run. This hasher folds each integer
/// write with one [`mix64`] round. Like [`Fnv`] it is deterministic
/// across runs.
#[derive(Debug, Clone)]
pub struct MixHasher(u64);

impl Default for MixHasher {
    fn default() -> Self {
        MixHasher(0x4D49_5848_4153_4845) // "MIXHASHE"
    }
}

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.0 = mix64(self.0 ^ u64::from_le_bytes(w));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = mix64(self.0 ^ i);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(i as u64);
    }
}

/// Identity hasher for already-mixed `u64` keys.
///
/// The search memos key on 64-bit hashes that have been through
/// [`mix64`] or [`Fnv`] already; feeding those through SipHash again
/// (the `HashSet` default) costs real time on the hot path for zero
/// distribution benefit. This hasher passes the key through untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHash(u64);

impl Hasher for NoHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic path (unused by u64 keys, kept total for safety).
        let mut h = Fnv::default();
        h.write(bytes);
        self.0 = h.finish();
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

/// A `HashSet<u64>` that trusts its keys' existing mixing.
pub type U64Set = std::collections::HashSet<u64, std::hash::BuildHasherDefault<NoHash>>;

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer.
///
/// The search kernels use it to derive per-event Zobrist keys and to
/// combine incrementally-maintained set hashes with state hashes into
/// one memo key. Stable across runs (no per-process seeding).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_stable_and_sensitive() {
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(0), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // avalanche sanity: one input bit flips many output bits
        assert!((mix64(3) ^ mix64(2)).count_ones() > 10);
    }

    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(Fnv::default().finish(), OFFSET);
    }

    #[test]
    fn stable_and_input_sensitive() {
        let hash = |bytes: &[u8]| {
            let mut h = Fnv::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"abc"), hash(b"abc"));
        assert_ne!(hash(b"abc"), hash(b"abd"));
        assert_ne!(hash(b""), hash(b"\0"));
    }
}
