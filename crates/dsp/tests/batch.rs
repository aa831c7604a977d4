//! Property-based tests for the batched SoA DSP layer.
//!
//! The batched PDP transform's contract is *bit*-identity, not
//! approximate equality: per lane it must perform exactly the per-packet
//! kernel's float operations in the same order, so every assertion here is
//! `prop_assert_eq!` on the raw values — one flipped rounding anywhere in
//! a butterfly fails the suite.

use nomloc_dsp::pdp::DelayProfile;
use nomloc_dsp::{fft, Complex, FftPlan, SoaComplex};
use proptest::prelude::*;

fn complex_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec(
        (-10.0..10.0f64, -10.0..10.0f64).prop_map(|(re, im)| Complex::new(re, im)),
        len,
    )
}

/// Deterministic pseudo-random batch of `lanes` rows of `n` samples —
/// sized by the drawn parameters, which the shim's strategies cannot do
/// directly (no `prop_flat_map`), matching the idiom of the existing
/// seeded plan properties.
fn seeded_rows(n: usize, lanes: usize, seed: u64) -> Vec<Vec<Complex>> {
    (0..lanes)
        .map(|l| {
            (0..n)
                .map(|i| {
                    let t = (i as f64 + 1.3 * l as f64 + 1.0) * (seed as f64 * 0.01 + 1.0);
                    Complex::new((0.37 * t).sin(), (0.73 * t).cos())
                })
                .collect()
        })
        .collect()
}

fn pack(rows: &[Vec<Complex>]) -> SoaComplex {
    let lanes = rows.len();
    let mut soa = SoaComplex::new();
    soa.reset(rows[0].len() * lanes);
    for (l, row) in rows.iter().enumerate() {
        soa.write_lane(l, lanes, row);
    }
    soa
}

proptest! {
    #[test]
    fn soa_interleaved_round_trip(x in complex_vec(0..120)) {
        let soa = SoaComplex::from_interleaved(&x);
        prop_assert_eq!(soa.len(), x.len());
        prop_assert_eq!(soa.to_interleaved(), x);
    }

    #[test]
    fn soa_lane_transpose_round_trip(
        n in 1usize..64,
        lanes in 1usize..17,
        seed in 0u64..1000,
    ) {
        // write_lane/read_lane_into are exact inverses, and writing every
        // lane fully determines the lane-major matrix.
        let rows = seeded_rows(n, lanes, seed);
        let soa = pack(&rows);
        let mut out = Vec::new();
        for (l, row) in rows.iter().enumerate() {
            soa.read_lane_into(l, lanes, &mut out);
            prop_assert_eq!(&out, row, "lane {} of {}", l, lanes);
        }
    }

    #[test]
    fn soa_short_rows_keep_zero_padding(
        n in 1usize..32,
        lanes in 1usize..17,
        pad_rows in 1usize..32,
        seed in 0u64..1000,
    ) {
        // Lane rows beyond the written CSI stay zero — exactly the padding
        // the batched padded IFFT relies on.
        let rows = seeded_rows(n, lanes, seed);
        let mut soa = SoaComplex::new();
        soa.reset((n + pad_rows) * lanes);
        for (l, row) in rows.iter().enumerate() {
            soa.write_lane(l, lanes, row);
        }
        for i in n..n + pad_rows {
            for l in 0..lanes {
                prop_assert_eq!(soa.get(i * lanes + l), Complex::ZERO);
            }
        }
        let mut out = Vec::new();
        for (l, row) in rows.iter().enumerate() {
            soa.read_lane_into(l, lanes, &mut out);
            prop_assert_eq!(&out[..n], &row[..], "lane {} of {}", l, lanes);
            prop_assert!(out[n..].iter().all(|z| *z == Complex::ZERO));
        }
    }

    #[test]
    fn pruned_pdp_peaks_match_scalar_oracle(
        csi_len in 1usize..60,
        lanes in 1usize..40,
        min_log2 in 0u32..10,
        seed in 0u64..500,
    ) {
        // The serving path: compact, unpadded CSI rows through the pruned
        // transform (first live stage filled from the rows, chunked to the
        // working-set budget with a zero-padded tail, last two stages
        // folded into the peaks) against the scalar kernel. Bit-identity
        // per lane.
        let min_taps = 1usize << min_log2;
        let rows = seeded_rows(csi_len, lanes, seed);
        let plan = FftPlan::new(fft::padded_len(csi_len, min_taps));
        let mut peaks = Vec::new();
        DelayProfile::peak_powers_from_csi_rows_with(
            &plan,
            &pack(&rows),
            lanes,
            &mut SoaComplex::new(),
            &mut peaks,
        );
        prop_assert_eq!(peaks.len(), lanes);
        let mut scratch = Vec::new();
        for (l, row) in rows.iter().enumerate() {
            let scalar =
                DelayProfile::peak_power_from_csi_with(row, 20e6, min_taps, &mut scratch);
            prop_assert_eq!(peaks[l].to_bits(), scalar.to_bits(), "lane {} of {}", l, lanes);
        }
    }
}
