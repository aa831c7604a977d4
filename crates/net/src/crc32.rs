//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! Every wire frame carries a CRC over its payload so that corruption —
//! a flipped bit on a flaky link, a desynchronised stream — is detected
//! before the payload is interpreted. A CSI request payload runs to tens
//! of kilobytes, so the checksum sits squarely on the serving hot path:
//! the main entry point is slicing-by-8 (eight compile-time tables, eight
//! payload bytes folded per iteration), which retires roughly an order of
//! magnitude more bytes per cycle than the classic byte-at-a-time loop.
//! The byte-wise form lives in this module's tests as the equivalence
//! oracle for the sliced kernel; it does not ship in the library.

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
/// Slicing-by-8: folds eight bytes per iteration through the precomputed
/// tables, with the byte-wise loop finishing the tail. Bit-identical to
/// the classic byte-at-a-time loop for every input (checked against it
/// in the tests).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
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
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic byte-at-a-time reflected table-driven CRC-32: the
    /// equivalence oracle for the sliced [`crc32`].
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn check_value() {
        // The standard CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b""), 0);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        // Pseudo-random buffer; check every length 0..=64 (covers all
        // chunk/remainder splits) and every start offset up to 8 (covers
        // all alignments of the 8-byte folding loop).
        let data: Vec<u8> = (0u32..96)
            .map(|i| (i.wrapping_mul(2_654_435_761).rotate_left(7) & 0xFF) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "divergence at start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let base = crc32(b"nomloc wire frame payload");
        let mut corrupted = *b"nomloc wire frame payload";
        for i in 0..corrupted.len() {
            for bit in 0..8 {
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at byte {i} bit {bit}");
                corrupted[i] ^= 1 << bit;
            }
        }
    }
}
