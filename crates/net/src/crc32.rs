//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! Every wire frame carries a CRC over its payload so that corruption —
//! a flipped bit on a flaky link, a desynchronised stream — is detected
//! before the payload is interpreted. A CSI request payload runs to tens
//! of kilobytes (45.7 KiB for 4 APs × 16 packets), so the checksum sits
//! squarely on the serving hot path. [`crc32`] picks its kernel at run
//! time:
//!
//! * On x86-64 hosts with `pclmulqdq` and `sse4.1`, an input of at least
//!   64 bytes is folded 64 bytes per step by carry-less multiplies: four
//!   128-bit accumulators, folded into one and reduced to 32 bits with a
//!   Barrett reduction (Gopal et al., "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ", Intel 2009). It takes the input's
//!   whole 16-byte blocks; the last `len % 16` bytes go through
//!   slicing-by-8. On a 45.7 KiB payload this is about 15× faster than
//!   slicing-by-8 alone.
//! * Shorter inputs, the tail, and every other host use slicing-by-8
//!   (eight compile-time tables, eight payload bytes folded per step).
//!
//! Both kernels compute the same function. The byte-wise loop lives in
//! this module's tests as the oracle for both, and the tests call each
//! kernel directly, so the slicing-by-8 path stays covered on a host
//! that never takes it for long inputs.

/// Slicing-by-8 lookup tables: `TABLES[0]` is the classic reflected
/// byte table; `TABLES[j][b]` advances the CRC of byte `b` through `j`
/// additional zero bytes, letting eight bytes fold in one step.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            tables[j][i] = tables[0][(tables[j - 1][i] & 0xFF) as usize] ^ (tables[j - 1][i] >> 8);
            i += 1;
        }
        j += 1;
    }
    tables
}

/// CRC-32 (IEEE) of `data`: init `0xFFFFFFFF`, final XOR `0xFFFFFFFF`.
///
/// Folds with carry-less multiplies where the host has them and the
/// input is long enough, and finishes (or does all the work) with
/// slicing-by-8; see the module docs. Bit-identical to the classic
/// byte-at-a-time loop for every input (checked against it in the tests).
pub fn crc32(data: &[u8]) -> u32 {
    let (state, tail) = clmul::update(!0, data).unwrap_or((!0, data));
    !update_sliced(state, tail)
}

/// Slicing-by-8 over `data`, continuing from the CRC register `c` (the
/// running value before the final XOR).
fn update_sliced(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The carry-less-multiply kernel. Besides `poll.rs`'s `sys`, this is
/// the crate's only `unsafe`: the target-feature call, made after the
/// run-time check, and the unaligned 16-byte loads from `&[u8; 16]`.
#[allow(unsafe_code)]
mod clmul {
    /// Shortest input the kernel takes: its four accumulators start from
    /// the first 64 bytes.
    pub(super) const MIN_LEN: usize = 64;

    /// Folds the whole 16-byte blocks of `data` into the CRC register
    /// `state` and returns the new register with the unfolded tail
    /// (fewer than 16 bytes). `None` when `data` is shorter than
    /// [`MIN_LEN`] or the host lacks `pclmulqdq` or `sse4.1`.
    #[cfg(target_arch = "x86_64")]
    pub(super) fn update(state: u32, data: &[u8]) -> Option<(u32, &[u8])> {
        if data.len() < MIN_LEN
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        let (blocks, tail) = data.as_chunks::<16>();
        // SAFETY: both target features were detected on this host above.
        Some((unsafe { x86::fold(state, blocks) }, tail))
    }

    /// Other architectures have no folding kernel.
    #[cfg(not(target_arch = "x86_64"))]
    pub(super) fn update(_state: u32, _data: &[u8]) -> Option<(u32, &[u8])> {
        None
    }

    #[cfg(target_arch = "x86_64")]
    mod x86 {
        use std::arch::x86_64::*;

        /// `x^e mod P(x)` for the normal-order IEEE polynomial, bit-reflected
        /// and shifted left by one: the form the reflected-domain folds
        /// multiply by.
        const fn fold_constant(e: u32) -> i64 {
            let mut r = 1u32;
            let mut i = 0;
            while i < e {
                let top = r & 0x8000_0000 != 0;
                r <<= 1;
                if top {
                    r ^= 0x04C1_1DB7;
                }
                i += 1;
            }
            (r.reverse_bits() as i64) << 1
        }

        /// `floor(x^64 / P(x))`, bit-reflected over its 33 bits: the Barrett
        /// reduction's quotient estimate.
        const fn barrett_mu() -> i64 {
            let mut rem = 1u128 << 64;
            let mut q = 0u64;
            let mut bit = 64;
            while bit >= 32 {
                if (rem >> bit) & 1 == 1 {
                    q |= 1 << (bit - 32);
                    rem ^= 0x1_04C1_1DB7u128 << (bit - 32);
                }
                bit -= 1;
            }
            (q.reverse_bits() >> 31) as i64
        }

        /// Carrying an accumulator `d` bits ahead multiplies its halves by
        /// `x^(d+32)` and `x^(d−32)` mod P: `d` = 512 across the four
        /// accumulators (k1, k2) and 128 from one block to the next
        /// (k3, k4). k5 = `x^64` mod P carries the 64 → 32 step, and μ is
        /// the Barrett constant. The published values are `0x1_5444_2BD4`,
        /// `0x1_C6E4_1596`, `0x1_7519_97D0`, `0x0_CCAA_009E`,
        /// `0x1_63CD_6124` and `0x1_F701_1641`.
        const K: [i64; 6] = [
            fold_constant(4 * 128 + 32),
            fold_constant(4 * 128 - 32),
            fold_constant(128 + 32),
            fold_constant(128 - 32),
            fold_constant(64),
            barrett_mu(),
        ];

        /// The reflected polynomial with its `x^32` term, `0x1_DB71_0641`.
        const P: i64 = ((0xEDB8_8320u32 as i64) << 1) | 1;

        fn load(block: &[u8; 16]) -> __m128i {
            // SAFETY: `block` is 16 readable bytes; the load is unaligned.
            unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
        }

        /// `acc.lo·k.lo ⊕ acc.hi·k.hi ⊕ next`: carries `acc` forward
        /// over the distance `k` encodes and adds the block `next`.
        #[inline]
        #[target_feature(enable = "pclmulqdq")]
        fn fold16(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
            let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
            let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
            _mm_xor_si128(_mm_xor_si128(lo, hi), next)
        }

        /// CRC register after `blocks` (at least four) starting from
        /// `state`.
        #[target_feature(enable = "pclmulqdq,sse4.1")]
        pub(in super::super) fn fold(state: u32, blocks: &[[u8; 16]]) -> u32 {
            let (first, rest) = blocks.split_at(4);
            let mut acc = [
                load(&first[0]),
                load(&first[1]),
                load(&first[2]),
                load(&first[3]),
            ];
            acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(state as i32));
            // Four independent 128-bit lanes, each carried 512 bits ahead
            // per step, so the multiplies of one step overlap.
            let k1k2 = _mm_set_epi64x(K[1], K[0]);
            let mut quads = rest.chunks_exact(4);
            for quad in &mut quads {
                for (a, block) in acc.iter_mut().zip(quad) {
                    *a = fold16(*a, load(block), k1k2);
                }
            }
            // Collapse the four lanes into one, then fold the remaining
            // single blocks 128 bits at a time.
            let k3k4 = _mm_set_epi64x(K[3], K[2]);
            let mut x = fold16(acc[0], acc[1], k3k4);
            x = fold16(x, acc[2], k3k4);
            x = fold16(x, acc[3], k3k4);
            for block in quads.remainder() {
                x = fold16(x, load(block), k3k4);
            }
            // 128 → 64 bits: the low half carried 64 bits by k4, then the
            // low 32 bits of the result carried 32 more by k5.
            let low32 = _mm_setr_epi32(-1, 0, -1, 0);
            x = _mm_xor_si128(
                _mm_srli_si128::<8>(x),
                _mm_clmulepi64_si128::<0x10>(x, k3k4),
            );
            x = _mm_xor_si128(
                _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K[4])),
                _mm_srli_si128::<4>(x),
            );
            // Barrett reduction 64 → 32 bits: t = (x mod x^32)·μ, then
            // (t mod x^32)·P cancels everything but the remainder.
            let poly_mu = _mm_set_epi64x(K[5], P);
            let mut t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly_mu);
            t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly_mu);
            _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic byte-at-a-time reflected table-driven CRC-32: the
    /// equivalence oracle for both kernels.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Slicing-by-8 alone, as every host without the folding kernel runs.
    fn crc32_sliced(data: &[u8]) -> u32 {
        !update_sliced(!0, data)
    }

    /// The folding kernel with its slicing-by-8 tail; `None` where the
    /// host lacks it or the input is too short for it.
    fn crc32_folded(data: &[u8]) -> Option<u32> {
        clmul::update(!0, data).map(|(state, tail)| !update_sliced(state, tail))
    }

    fn host_folds() -> bool {
        #[cfg(target_arch = "x86_64")]
        return is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        return false;
    }

    fn pseudo_random(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761).rotate_left(7) >> 3) as u8)
            .collect()
    }

    /// Checks every path against the oracle on one input.
    fn assert_all_paths_agree(data: &[u8], what: &str) {
        let expect = crc32_bytewise(data);
        assert_eq!(crc32(data), expect, "dispatched, {what}");
        assert_eq!(crc32_sliced(data), expect, "slicing-by-8, {what}");
        match crc32_folded(data) {
            Some(folded) => assert_eq!(folded, expect, "folded, {what}"),
            None => assert!(
                data.len() < clmul::MIN_LEN || !host_folds(),
                "folding kernel refused a {}-byte input on a host that has it",
                data.len()
            ),
        }
    }

    #[test]
    fn check_value() {
        // The standard CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_sliced(b"123456789"), 0xCBF4_3926);
        // The same nine bytes repeated past the folding kernel's minimum.
        let long: Vec<u8> = b"123456789".iter().copied().cycle().take(9 * 15).collect();
        assert_all_paths_agree(&long, "check vector ×15");
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b""), 0);
        assert_eq!(crc32_sliced(b""), 0);
        assert_eq!(crc32_folded(b""), None);
    }

    #[test]
    fn every_path_matches_bytewise_at_every_length_and_alignment() {
        // Every length up to 1 KiB covers every split between the four
        // 64-byte accumulators, the single 16-byte folds, the 8-byte
        // slices and the byte tail; every start offset up to 16 covers
        // every alignment of the 16-byte loads.
        let data = pseudo_random(1024 + 16);
        for start in 0..16 {
            for len in 0..=1024 {
                assert_all_paths_agree(
                    &data[start..start + len],
                    &format!("start {start} len {len}"),
                );
            }
        }
    }

    #[test]
    fn every_path_matches_bytewise_on_a_dense_request_payload() {
        // A 45.7 KiB payload: one request of 4 APs × 16 packets.
        let data = pseudo_random(46_797);
        assert_all_paths_agree(&data, "45.7 KiB payload");
        // Saturated bytes exercise every bit of the folds at once.
        assert_all_paths_agree(&vec![0xFF; 46_797], "45.7 KiB of 0xFF");
    }

    #[test]
    fn folding_kernel_runs_where_the_host_has_it() {
        // Pins the dispatch: a regression that silently left every
        // input on slicing-by-8 would still pass the equality tests.
        assert_eq!(crc32_folded(&[0; 64]).is_some(), host_folds());
        assert_eq!(crc32_folded(&[0; 63]), None);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        for len in [25, 200] {
            let base_bytes = pseudo_random(len);
            let base = crc32(&base_bytes);
            let mut corrupted = base_bytes.clone();
            for i in 0..corrupted.len() {
                for bit in 0..8 {
                    corrupted[i] ^= 1 << bit;
                    assert_ne!(
                        crc32(&corrupted),
                        base,
                        "len {len}: flip at byte {i} bit {bit}"
                    );
                    corrupted[i] ^= 1 << bit;
                }
            }
        }
    }
}
