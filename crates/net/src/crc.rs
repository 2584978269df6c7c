//! IEEE 802.3 CRC-32 — the checksum in every frame header (socket data
//! frames, control-protocol frames, epoch-log records and snapshots;
//! see [`crate::tcp`]).
//!
//! Two kernels compute the same function:
//!
//! - **table**: slice-by-16 look-ups, sixteen input bytes per step,
//!   then an 8- and a 4-byte slice and at most three single bytes for
//!   the remainder. It runs everywhere, and it is the whole computation
//!   for bodies under 32 bytes and the sub-16-byte tail of longer ones.
//! - **clmul** (x86_64 with `pclmulqdq` and `sse4.1`, detected at run
//!   time): the carry-less-multiply fold of Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction"
//!   (Intel, 2009), with the paper's bit-reflected IEEE constants
//!   (the ones the Linux kernel and crc32fast use). It folds 64 bytes
//!   per step over four 128-bit lanes (a body under 64 bytes starts
//!   on one), folds the lanes into one, 16 bytes per step on to the
//!   tail, then reduces 128 bits to 64 and Barrett-reduces those to 32.
//!
//! [`crc32`] picks the kernel per call; [`kernel`] says which one long
//! bodies get on this CPU.

/// IEEE 802.3 CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    if data.len() >= CLMUL_MIN_LEN {
        if let Some(crc) = crc32_clmul(data) {
            return crc;
        }
    }
    !table_update(!0, data)
}

/// The kernel [`crc32`] uses on this CPU for a body of 32 bytes or
/// more: `"clmul"` or `"table"`. Shorter bodies always take the table.
pub fn kernel() -> &'static str {
    if crc32_clmul(&[]).is_some() {
        "clmul"
    } else {
        "table"
    }
}

/// The fold kernel's CRC of `data`, or `None` on a CPU without it.
#[allow(unsafe_code)]
fn crc32_clmul(data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if clmul::detected() {
        // SAFETY: `clmul::update` needs only the `pclmulqdq` and
        // `sse4.1` target features, and `detected` has just confirmed
        // this CPU has both. It reads `data` through safe slices.
        return Some(!unsafe { clmul::update(!0, data) });
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = data;
    None
}

/// Shortest body [`crc32`] hands to the fold. Measured per kernel on
/// a 2-core Xeon with `pclmulqdq`, `rustc -C opt-level=3`, best of six
/// runs, ns per body, table → fold: 16 B 4.7 → 5.4, 24 B 6.5 → 6.6,
/// 28 B 8.2 → 7.7, 30 B 10.8 → 9.3, 31 B 12.2 → 10.6, 32 B 9.4 → 6.2,
/// 40 B 11.5 → 8.0, 48 B 13.8 → 7.6, 64 B 19.8 → 6.2, 128 B 48 → 8.5,
/// 900 B 488 → 44. Both kernels take a sub-16-byte tail as an 8- and a
/// 4-byte slice and at most three single bytes. The fold's fixed
/// reduction costs what the table spends on 16 bytes, so it loses at
/// 16 and breaks even at 24. From 28 to 31 it leads by 6–14%, inside
/// the spread between runs; from 32 on it leads by a third or more.
const CLMUL_MIN_LEN: usize = 32;

/// Slice-by-16 tables: `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so sixteen input bytes fold with
/// sixteen independent look-ups instead of a sixteen-step chain.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The table kernel: advance the CRC register `c` (pre-inverted, not
/// yet post-inverted) over `data`: sixteen bytes a step, then the
/// remainder as one 8-byte slice, one 4-byte slice and at most three
/// single bytes.
fn table_update(mut c: u32, data: &[u8]) -> u32 {
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        c = slice_step([word(b) ^ c, word(&b[4..]), word(&b[8..]), word(&b[12..])]);
    }
    let mut rest = blocks.remainder();
    if let Some((b, tail)) = rest.split_first_chunk::<8>() {
        c = slice_step([word(b) ^ c, word(&b[4..])]);
        rest = tail;
    }
    if let Some((b, tail)) = rest.split_first_chunk::<4>() {
        c = slice_step([word(b) ^ c]);
        rest = tail;
    }
    for &b in rest {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// One slice of `4 * N` bytes as `N` little-endian words, the
/// register already XORed into the first: every byte is one
/// independent look-up, byte `j` in the table for the `4 * N - 1 - j`
/// bytes that follow it.
#[inline]
fn slice_step<const N: usize>(w: [u32; N]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0;
    for (i, w) in w.iter().enumerate() {
        let k = 4 * (N - i) - 1;
        c ^= t[k][(w & 0xFF) as usize]
            ^ t[k - 1][(w >> 8 & 0xFF) as usize]
            ^ t[k - 2][(w >> 16 & 0xFF) as usize]
            ^ t[k - 3][(w >> 24) as usize];
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Fold distances for the bit-reflected IEEE polynomial, from the
    // Intel paper: K1/K2 move a lane 512 bits ahead (the four-lane
    // loop), K3/K4 move it 128 bits (lane merging and the one-lane
    // loop), K5 folds 96 bits to 64. P is the polynomial with its x^32
    // term and MU its Barrett quotient, both bit-reflected.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Whether this CPU runs [`update`]; the standard library caches
    /// the probe, so a call costs a relaxed load per feature.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// The fold kernel: advance the CRC register `c` (pre-inverted,
    /// not yet post-inverted) over `data`, of any length. Bodies under
    /// 16 bytes, and the tail under 16 bytes of longer ones, go through
    /// the table kernel.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(c: u32, mut data: &[u8]) -> u32 {
        if data.len() < 16 {
            return super::table_update(c, data);
        }
        let seed = _mm_cvtsi32_si128(c as i32);
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = if data.len() >= 64 {
            let mut x3 = _mm_xor_si128(next(&mut data), seed);
            let mut x2 = next(&mut data);
            let mut x1 = next(&mut data);
            let mut x0 = next(&mut data);
            let k1k2 = _mm_set_epi64x(K2, K1);
            while data.len() >= 64 {
                x3 = fold(x3, next(&mut data), k1k2);
                x2 = fold(x2, next(&mut data), k1k2);
                x1 = fold(x1, next(&mut data), k1k2);
                x0 = fold(x0, next(&mut data), k1k2);
            }
            fold(fold(fold(x3, x2, k3k4), x1, k3k4), x0, k3k4)
        } else {
            _mm_xor_si128(next(&mut data), seed)
        };
        while data.len() >= 16 {
            x = fold(x, next(&mut data), k3k4);
        }

        // 128 → 64 bits: multiply the low half by K4 into the high
        // half (a 96-bit value), then the low 32 bits of that by K5
        // into its upper 64
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction 64 → 32 bits, reflected: the remainder is
        // the upper 32 bits of R ^ ((R mod x^32) * MU mod x^32) * P
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::table_update(c, data)
    }

    /// `a` moved forward over the distance `k` encodes, XORed into `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// The next 16 bytes of `data` as one little-endian lane; the
    /// caller has checked there are 16.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn next(data: &mut &[u8]) -> __m128i {
        let (lane, rest) = data.split_first_chunk::<16>().expect("16 bytes");
        *data = rest;
        let (lo, hi) = lane.split_at(8);
        let word = |b: &[u8]| i64::from_le_bytes(b.try_into().expect("8 bytes"));
        _mm_set_epi64x(word(hi), word(lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC-32 straight from the reflected polynomial: the
    /// reference every kernel is checked against, sharing no table or
    /// constant with them.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    /// Every kernel and the dispatching [`crc32`] agree with the
    /// bitwise reference on `data`.
    fn check_all_kernels(data: &[u8]) {
        let want = crc32_bitwise(data);
        assert_eq!(crc32(data), want, "crc32, len {}", data.len());
        assert_eq!(!table_update(!0, data), want, "table, len {}", data.len());
        if let Some(got) = crc32_clmul(data) {
            assert_eq!(got, want, "clmul, len {}", data.len());
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // the IEEE check value every crc32 implementation agrees on,
        // then vectors checked against zlib
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(&[0x00; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFF; 32]), 0xFF6C_AB0B);
        let ramp: Vec<u8> = (0..32).collect();
        assert_eq!(crc32(&ramp), 0x9126_7E8A);
    }

    #[test]
    fn long_zlib_vectors_on_every_kernel() {
        // long enough for the fold: both loops, the lane merge and a
        // tail (100 = 64 + 2·16 + 4); zlib's values
        let ramp: Vec<u8> = (0..1024).map(|i| i as u8).collect();
        for (data, want) in [
            (vec![0x00; 4096], 0xC71C_0011),
            (ramp, 0xB70B_4C26),
            (vec![0xFF; 100], 0x03D2_8681),
        ] {
            assert_eq!(crc32_bitwise(&data), want);
            check_all_kernels(&data);
        }
    }

    #[test]
    fn dispatch_takes_the_fold_whenever_it_is_detected() {
        #[cfg(target_arch = "x86_64")]
        let detected = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let detected = false;
        assert_eq!(crc32_clmul(&[0; CLMUL_MIN_LEN]).is_some(), detected);
        assert_eq!(kernel(), if detected { "clmul" } else { "table" });
    }

    #[test]
    fn sliced_crc_equals_bytewise_at_every_length_and_alignment() {
        // 0..=300 covers empty, table-only, the one-lane fold (16..64),
        // one to four four-lane steps and every tail; the offsets move
        // the lanes across every alignment of the backing buffer
        let buf: Vec<u8> = (0..320u32).map(|i| (i * 151 + 43) as u8).collect();
        for start in 0..16 {
            for len in 0..=300 {
                check_all_kernels(&buf[start..start + len]);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn sliced_crc_equals_bytewise_on_random_slices(
            buf in proptest::collection::vec(0u8..=255u8, 0..8192),
            a in 0usize..8192,
            b in 0usize..8192,
        ) {
            let (a, b) = (a.min(buf.len()), b.min(buf.len()));
            check_all_kernels(&buf[a.min(b)..a.max(b)]);
        }

        #[test]
        fn table_kernel_resumes_from_any_register(
            data in proptest::collection::vec(0u8..=255u8, 0..=64),
        ) {
            // the second call starts its 8- and 4-byte slices from a
            // register that is not `!0`, at every split point
            let whole = table_update(!0, &data);
            proptest::prop_assert_eq!(!whole, crc32_bitwise(&data));
            for i in 0..=data.len() {
                let (a, b) = data.split_at(i);
                proptest::prop_assert_eq!(table_update(table_update(!0, a), b), whole);
            }
        }
    }
}
