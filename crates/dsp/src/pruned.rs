//! The batched PDP transform, doing only the work zero padding leaves.
//!
//! The PDP (§IV-A) zero-pads each snapshot of `n` subcarriers to `N`
//! taps, inverse-transforms it and keeps the peak tap power. Let
//! `P = n.next_power_of_two()` and `N = 2^p · P`. After the bit-reversal
//! permutation, row `r` of the radix-2 transform holds input
//! `bitrev_N(r)`, which is live only when the low `p` bits of `r` are zero:
//! every block of `2^p` rows holds one input and `2^p − 1` zeros. The
//! first `p` stages only add those zeros, so after them every row of a
//! block holds its one input, copied.
//!
//! The pruned transform therefore starts at stage `p + 1`:
//!
//! 1. [`Fill`] reads each block's live inputs straight from the compact
//!    lane-major rows (`n` rows, natural order; the bit reversal becomes
//!    the read index) and writes stage `p + 1` — twiddle-free ([`bf2`])
//!    when `p = 0` — or, when the stages left after it would be odd in
//!    number, stages `p + 1` and `p + 2` fused. No zeroing, no scatter, no
//!    swap pass, and `p` fewer stages.
//! 2. [`Passes`] runs the middle stages as fused radix-2² passes
//!    ([`fused_pass`]). The odd stage, if any, went into the fill: a
//!    trailing single stage walks the whole buffer for half a pass's
//!    work, which at 8 lanes cost more than the whole unpruned transform.
//! 3. [`FoldPass`] runs the last two stages in registers, applies `1/N`
//!    and the gain, and folds each lane's tap powers into its `total_cmp`
//!    maximum without storing the transform. (Chunks narrower than 8
//!    lanes store the last pass and fold the stored taps, which measured
//!    faster for them.)
//!
//! Chunks hold as many lanes as fit [`WORKING_SET_BYTES`] of
//! split-complex working set (8 at 256 taps, 16 at 128), so the passes
//! stay in a 48 KiB L1d.
//!
//! **Bit identity.** Per lane, every stage from `p + 1` on performs the
//! per-packet kernel's float ops in its order. The skipped stages are not
//! exact copies: `x ± 0` can flip the sign of a zero and quiets a
//! signaling NaN. Neither changes a peak. A zero's sign only ever decides
//! the sign of another zero through `+`, `−` and `×` by finite twiddles,
//! and the power `sr² + si²` of either zero is `+0`; an operation on a
//! signaling NaN yields the NaN an operation on its quieted copy yields.
//! The tests compare peaks with the per-packet oracle bit for bit,
//! special values included.

use crate::batch::{bf, bf2, fused_pass, quad_regs, stage_twiddles, BatchFftPlan};
use crate::pdp::{max_total, DelayProfile};
use crate::simd::{self, Kernel};
use crate::soa::SoaComplex;
use crate::Complex;

/// Split-complex bytes one chunk of lanes may occupy: `lanes × N × 16 B`.
/// Two thirds of a 48 KiB L1d, leaving room for the twiddles and the
/// compact input rows; a 64 KiB chunk (16 lanes at 256 taps) ran slower.
const WORKING_SET_BYTES: usize = 32 * 1024;

/// Lanes per chunk for `padded`-tap transforms: [`WORKING_SET_BYTES`] /
/// (`padded` × 16 B), clamped to the kernels' widest arm, 1..=16.
fn chunk_lanes(padded: usize) -> usize {
    (WORKING_SET_BYTES / (padded * 16)).clamp(1, 16)
}

/// Width of the next chunk when `remaining` lanes are left: at most the
/// budget, and one of the widths the kernels are built for (1–8, 16).
fn chunk_width(remaining: usize, budget: usize) -> usize {
    match remaining.min(budget) {
        16 => 16,
        l => l.min(8),
    }
}

/// Whether the pruned path covers CSI rows of `csi_len` subcarriers: it
/// needs at least two stages after the fill for its folding pass, so
/// `csi_len.next_power_of_two() >= 8`.
pub(crate) fn covers(csi_len: usize) -> bool {
    csi_len > 4
}

/// Peak tap power of every lane of `rows` (`csi_len` rows × `lanes`,
/// lane-major, natural order) zero-padded to `plan.len()` taps, appended
/// to `out` in lane order. `work` is resized to one chunk's buffer and
/// keeps its capacity. Requires [`covers`]`(csi_len)` and
/// `plan.len() >= csi_len`.
pub(crate) fn peaks(
    plan: &BatchFftPlan,
    rows: &SoaComplex,
    lanes: usize,
    csi_len: usize,
    work: &mut SoaComplex,
    out: &mut Vec<f64>,
) {
    let n = plan.len();
    let live = csi_len.next_power_of_two();
    debug_assert!(covers(csi_len) && n >= live);
    let shift = (n / live).trailing_zeros();
    // Stages after a one-stage fill: log2(P) − 1. When that is odd the
    // fill takes two, so the rest pair up into fused passes.
    let two = live.trailing_zeros().is_multiple_of(2);
    let block = (1usize << shift) * if two { 4 } else { 2 };
    let table = plan.plan().twiddles(true);
    let scale = 1.0 / n as f64;
    let gain = n as f64 / csi_len as f64;
    let budget = chunk_lanes(n);
    work.re.resize(n * budget.min(lanes), 0.0);
    work.im.resize(n * budget.min(lanes), 0.0);
    let mut lane0 = 0;
    while lane0 < lanes {
        let width = chunk_width(lanes - lane0, budget);
        let (re, im) = (&mut work.re[..n * width], &mut work.im[..n * width]);
        simd::run(Fill {
            src_re: &rows.re,
            src_im: &rows.im,
            stride: lanes,
            lane0,
            csi_len,
            bitrev: plan.bitrev(),
            shift,
            two,
            table,
            re: &mut *re,
            im: &mut *im,
            lanes: width,
        });
        simd::run(Passes {
            re: &mut *re,
            im: &mut *im,
            lanes: width,
            table,
            from: 2 * block,
            n,
        });
        simd::run(FoldPass {
            re,
            im,
            lanes: width,
            table,
            n,
            scale,
            gain,
            out: &mut *out,
        });
        // A lane whose every tap is a negative NaN (its CSI held one) has
        // a folded maximum with the sign bit set; `bits_max` orders such
        // NaNs backwards, so the per-packet kernel answers for it (its
        // bandwidth argument is only checked, never used).
        let done = out.len() - width;
        for (l, peak) in out[done..].iter_mut().enumerate() {
            if peak.is_sign_negative() {
                let row: Vec<Complex> = (0..csi_len)
                    .map(|i| rows.get(i * lanes + lane0 + l))
                    .collect();
                *peak = DelayProfile::peak_power_from_csi_with(&row, 1.0, n, &mut Vec::new());
            }
        }
        lane0 += width;
    }
}

/// Dispatches a const-generic kernel body on the chunk width: one arm
/// per width [`chunk_width`] hands out, so every lane loop runs over
/// `[f64; L]` with compile-time trip counts.
macro_rules! by_lanes {
    ($lanes:expr, $body:ident($($arg:expr),* $(,)?)) => {
        match $lanes {
            1 => $body::<1>($($arg),*),
            2 => $body::<2>($($arg),*),
            3 => $body::<3>($($arg),*),
            4 => $body::<4>($($arg),*),
            5 => $body::<5>($($arg),*),
            6 => $body::<6>($($arg),*),
            7 => $body::<7>($($arg),*),
            8 => $body::<8>($($arg),*),
            16 => $body::<16>($($arg),*),
            l => unreachable!("no kernel arm for {l} lanes"),
        }
    };
}

/// Writes the first live stage (or two) of one chunk straight from the
/// compact rows. A [`Kernel`], built for the baseline target and AVX2.
struct Fill<'a> {
    /// Compact rows: tap `i` of lane `l` at `i * stride + l`.
    src_re: &'a [f64],
    src_im: &'a [f64],
    stride: usize,
    /// First lane of this chunk within the compact rows.
    lane0: usize,
    csi_len: usize,
    bitrev: &'a [u32],
    /// `p`: the number of pruned stages.
    shift: u32,
    /// Fill stages `p + 1` and `p + 2` fused, not `p + 1` alone.
    two: bool,
    table: &'a [Complex],
    re: &'a mut [f64],
    im: &'a mut [f64],
    lanes: usize,
}

impl Kernel for Fill<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        by_lanes!(self.lanes, fill(self))
    }
}

#[inline(always)]
fn fill<const L: usize>(f: Fill<'_>) {
    let Fill {
        src_re,
        src_im,
        stride,
        lane0,
        csi_len,
        bitrev,
        shift,
        two,
        table,
        re,
        im,
        ..
    } = f;
    let half = 1usize << shift;
    // The `j`-th live input, bitrev_P(j) = bitrev_N(j << p), as one lane
    // row each of re and im; zeros past the CSI (the padding
    // `fft::ifft_padded_into` appends is `+0`).
    let live = |j: usize| -> [[f64; L]; 2] {
        let i = bitrev[j << shift] as usize;
        if i < csi_len {
            let at = i * stride + lane0;
            [
                src_re[at..at + L].try_into().expect("one lane row"),
                src_im[at..at + L].try_into().expect("one lane row"),
            ]
        } else {
            [[0.0; L]; 2]
        }
    };
    // Stage p + 1 has length 2^(p+1); it is twiddle-free at p = 0.
    let tw1 = if half >= 2 {
        stage_twiddles(table, 2 * half)
    } else {
        &[]
    };
    if two {
        let tw2 = stage_twiddles(table, 4 * half);
        let blocks = re
            .chunks_exact_mut(4 * half * L)
            .zip(im.chunks_exact_mut(4 * half * L));
        for (i, (re, im)) in blocks.enumerate() {
            let [a, b, c, d] = [0, 1, 2, 3].map(|q| live(4 * i + q));
            let (h0_re, h1_re) = re.split_at_mut(2 * half * L);
            let (h0_im, h1_im) = im.split_at_mut(2 * half * L);
            let (a_re, b_re) = h0_re.split_at_mut(half * L);
            let (a_im, b_im) = h0_im.split_at_mut(half * L);
            let (c_re, d_re) = h1_re.split_at_mut(half * L);
            let (c_im, d_im) = h1_im.split_at_mut(half * L);
            let rows = a_re
                .chunks_exact_mut(L)
                .zip(a_im.chunks_exact_mut(L))
                .zip(b_re.chunks_exact_mut(L))
                .zip(b_im.chunks_exact_mut(L))
                .zip(c_re.chunks_exact_mut(L))
                .zip(c_im.chunks_exact_mut(L))
                .zip(d_re.chunks_exact_mut(L))
                .zip(d_im.chunks_exact_mut(L));
            for (k, (((((((a_re, a_im), b_re), b_im), c_re), c_im), d_re), d_im)) in
                rows.enumerate()
            {
                let mut v = [a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1]];
                quad_regs::<L>(&mut v, tw1.get(k).copied(), (tw2[k], tw2[k + half]));
                for (dst, src) in [a_re, a_im, b_re, b_im, c_re, c_im, d_re, d_im]
                    .into_iter()
                    .zip(&v)
                {
                    dst.copy_from_slice(src);
                }
            }
        }
    } else {
        let blocks = re
            .chunks_exact_mut(2 * half * L)
            .zip(im.chunks_exact_mut(2 * half * L));
        for (i, (re, im)) in blocks.enumerate() {
            let [[ar, ai], [br, bi]] = [0, 1].map(|q| live(2 * i + q));
            let (u_re, v_re) = re.split_at_mut(half * L);
            let (u_im, v_im) = im.split_at_mut(half * L);
            let rows = u_re
                .chunks_exact_mut(L)
                .zip(u_im.chunks_exact_mut(L))
                .zip(v_re.chunks_exact_mut(L))
                .zip(v_im.chunks_exact_mut(L));
            for (k, (((u_re, u_im), v_re), v_im)) in rows.enumerate() {
                let (mut ur, mut ui, mut vr, mut vi) = (ar, ai, br, bi);
                match tw1.get(k) {
                    Some(&w) => bf::<L>(&mut ur, &mut ui, &mut vr, &mut vi, w),
                    None => bf2::<L>(&mut ur, &mut ui, &mut vr, &mut vi),
                }
                u_re.copy_from_slice(&ur);
                u_im.copy_from_slice(&ui);
                v_re.copy_from_slice(&vr);
                v_im.copy_from_slice(&vi);
            }
        }
    }
}

/// The middle stages of one chunk: fused radix-2² passes from stage
/// `from` up to, not including, the folding pass's `n/2`. A [`Kernel`].
struct Passes<'a> {
    re: &'a mut [f64],
    im: &'a mut [f64],
    lanes: usize,
    table: &'a [Complex],
    from: usize,
    n: usize,
}

impl Kernel for Passes<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        by_lanes!(
            self.lanes,
            passes(self.re, self.im, self.table, self.from, self.n)
        )
    }
}

#[inline(always)]
fn passes<const L: usize>(
    re: &mut [f64],
    im: &mut [f64],
    table: &[Complex],
    from: usize,
    n: usize,
) {
    let mut len = from;
    while len < n / 2 {
        fused_pass::<L>(re, im, table, len, None);
        len <<= 2;
    }
    debug_assert_eq!(len, n / 2, "the fill leaves an even stage count");
}

/// The last two stages of one chunk and the peak fold. Each output tap
/// is scaled by `1/N`, multiplied by the gain and squared into a power,
/// and each lane keeps its `total_cmp` maximum; one peak per lane is
/// appended to `out`. A [`Kernel`].
///
/// Chunks of 8 and 16 lanes fold in registers: a fused radix-2² pass over
/// stages `n/2` and `n` that stores nothing, walked in 4-lane groups so
/// that a block's eight rows, the running maxima and the constants fit
/// the sixteen vector registers (all 8 lanes at once spilled, and the
/// fold ran at half the speed). Narrower chunks — a request's tail, or a
/// request with fewer snapshots — ran that loop 1.5–2× slower than
/// storing the last pass (scale fused) and folding the stored taps, so
/// they do the latter.
struct FoldPass<'a> {
    re: &'a mut [f64],
    im: &'a mut [f64],
    lanes: usize,
    table: &'a [Complex],
    n: usize,
    scale: f64,
    gain: f64,
    out: &'a mut Vec<f64>,
}

impl Kernel for FoldPass<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        by_lanes!(self.lanes, fold_pass(self))
    }
}

#[inline(always)]
fn fold_pass<const L: usize>(f: FoldPass<'_>) {
    let FoldPass {
        re,
        im,
        table,
        n,
        scale,
        gain,
        out,
        ..
    } = f;
    if L < 8 {
        fused_pass::<L>(re, im, table, n / 2, Some(scale));
        let mut best = [BOTTOM; L];
        for (re, im) in re.chunks_exact(L).zip(im.chunks_exact(L)) {
            for l in 0..L {
                // `(h · gain).norm_sq()` of the scaled tap.
                let sr = re[l] * gain;
                let si = im[l] * gain;
                best[l] = max_total(best[l], sr * sr + si * si);
            }
        }
        out.extend_from_slice(&best);
        return;
    }
    let (len, half) = (n / 2, n / 4);
    let tw1 = stage_twiddles(table, len);
    let (tw2a, tw2b) = stage_twiddles(table, n).split_at(half);
    let (h0_re, h1_re) = re.split_at(len * L);
    let (h0_im, h1_im) = im.split_at(len * L);
    let (a_re, b_re) = h0_re.split_at(half * L);
    let (a_im, b_im) = h0_im.split_at(half * L);
    let (c_re, d_re) = h1_re.split_at(half * L);
    let (c_im, d_im) = h1_im.split_at(half * L);
    for g in (0..L).step_by(4) {
        // Maxima in the integer order of the bits (see `bits_max`),
        // starting from that order's bottom.
        let mut best = [f64::from_bits(i64::MIN as u64); 4];
        for ((((((((((a_re, a_im), b_re), b_im), c_re), c_im), d_re), d_im), w1), w2a), w2b) in a_re
            .chunks_exact(L)
            .zip(a_im.chunks_exact(L))
            .zip(b_re.chunks_exact(L))
            .zip(b_im.chunks_exact(L))
            .zip(c_re.chunks_exact(L))
            .zip(c_im.chunks_exact(L))
            .zip(d_re.chunks_exact(L))
            .zip(d_im.chunks_exact(L))
            .zip(tw1)
            .zip(tw2a)
            .zip(tw2b)
        {
            let mut v: [[f64; 4]; 8] = [a_re, a_im, b_re, b_im, c_re, c_im, d_re, d_im]
                .map(|r| r[g..g + 4].try_into().expect("one lane group"));
            quad_regs::<4>(&mut v, Some(*w1), (*w2a, *w2b));
            for l in 0..4 {
                // Per tap `DelayProfile::peak_power_from_csi_with`'s
                // expression: the IFFT's `1/N` multiply, then
                // `(h · gain).norm_sq()`. A maximum in a total order is
                // one value however it is grouped, so the block's four
                // taps reduce as a tree.
                let power = |t: usize| {
                    let sr = v[2 * t][l] * scale * gain;
                    let si = v[2 * t + 1][l] * scale * gain;
                    sr * sr + si * si
                };
                let taps = bits_max(bits_max(power(0), power(1)), bits_max(power(2), power(3)));
                best[l] = bits_max(best[l], taps);
            }
        }
        out.extend_from_slice(&best);
    }
}

/// The larger of `a` and `b` as signed integers of their bits. On the
/// values a power can take (`+0` and up, and NaNs of either sign), that is
/// `total_cmp`'s maximum unless both are negative NaNs, whose integer
/// order is the reverse of `total_cmp`'s. A maximum with the sign bit set
/// therefore means every tap was a negative NaN, and the caller
/// recomputes that lane (see [`peaks`]).
#[inline(always)]
fn bits_max(a: f64, b: f64) -> f64 {
    if (b.to_bits() as i64) > (a.to_bits() as i64) {
        b
    } else {
        a
    }
}

/// The bottom of `total_cmp`'s order (−NaN, every payload bit set): a
/// running maximum's start, which the first tap always replaces.
const BOTTOM: f64 = f64::from_bits(u64::MAX);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdp::DelayProfile;

    /// Xorshift64: the seeded draws of these tests.
    fn draw(state: &mut u64, k: usize) -> usize {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % k as u64) as usize
    }

    /// Values a CSI coefficient's component can carry past the wire, which
    /// checks the grid offsets for finiteness but not `h`.
    fn special(k: usize) -> f64 {
        [
            0.0,
            -0.0,
            f64::from_bits(1),                      // smallest subnormal
            -f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
            1e-310,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7FF8_0000_0000_0001), // +qNaN, payload 1
            f64::from_bits(0xFFF8_0000_0000_0003), // −qNaN, payload 3
            f64::from_bits(0x7FF0_0000_0000_0002), // +sNaN, payload 2
        ][k]
    }

    /// `lanes` CSI rows of `n` coefficients. Lane `l % 4` picks what the
    /// row may hold: 0 finite values only, 1 also ±0 and subnormals, 2
    /// also one ±∞ or NaN, 3 any special value anywhere.
    fn rows(n: usize, lanes: usize, seed: u64) -> Vec<Vec<Complex>> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..lanes)
            .map(|l| {
                let mut row: Vec<Complex> = (0..n)
                    .map(|i| {
                        let t = (i + 3 * l) as f64 + seed as f64 * 0.01;
                        Complex::new((0.37 * t).sin() * 4.0, (0.73 * t).cos() - 0.5)
                    })
                    .collect();
                let mut set = |i: usize, v: f64, state: &mut u64| {
                    if draw(state, 2) == 0 {
                        row[i].re = v;
                    } else {
                        row[i].im = v;
                    }
                };
                match l % 4 {
                    1 => {
                        for _ in 0..1 + n / 4 {
                            let (i, v) = (draw(&mut state, n), special(draw(&mut state, 5)));
                            set(i, v, &mut state);
                        }
                    }
                    2 => {
                        let (i, v) = (draw(&mut state, n), special(5 + draw(&mut state, 5)));
                        set(i, v, &mut state);
                    }
                    3 => {
                        for _ in 0..1 + n / 8 {
                            let (i, v) = (draw(&mut state, n), special(draw(&mut state, 10)));
                            set(i, v, &mut state);
                        }
                    }
                    _ => {}
                }
                row
            })
            .collect()
    }

    /// Peaks of `rows` through the batched path.
    fn batched(rows: &[Vec<Complex>], padded: usize, work: &mut SoaComplex) -> Vec<f64> {
        let (n, lanes) = (rows[0].len(), rows.len());
        let mut soa = SoaComplex::new();
        soa.reset(n * lanes);
        for (l, row) in rows.iter().enumerate() {
            soa.write_lane(l, lanes, row);
        }
        let mut out = vec![f64::NAN; 3]; // dirty: the call must overwrite it
        let plan = BatchFftPlan::new(padded);
        DelayProfile::peak_powers_from_csi_rows_with(&plan, &soa, lanes, work, &mut out);
        out
    }

    /// How many different NaNs a row's transform can produce: one per
    /// distinct input payload (quieted), plus the default NaN when an
    /// infinity is present (∞ − ∞, ∞ · 0).
    fn nan_sources(row: &[Complex]) -> usize {
        const QUIET: u64 = 1 << 51;
        let parts = row.iter().flat_map(|z| [z.re, z.im]);
        let mut payloads: Vec<u64> = parts
            .clone()
            .filter(|x| x.is_nan())
            .map(|x| x.to_bits() | QUIET)
            .collect();
        payloads.sort_unstable();
        payloads.dedup();
        payloads.len() + usize::from(parts.clone().any(f64::is_infinite))
    }

    /// Checks the batched peaks of `rows` in both builds against the
    /// per-packet oracle.
    ///
    /// Bit for bit wherever a lane's NaNs share one source. Where two
    /// different NaNs can meet in one operation, Rust leaves the result's
    /// payload (and so its sign) to the compiler, which commutes operands
    /// differently in the two kernels — the unpruned batched path it
    /// replaces disagreed with the oracle on such lanes as well. There
    /// only what is determined is checked: which taps are NaN and every
    /// other tap's value, so the peaks agree or one of them is a NaN.
    fn check(rows: &[Vec<Complex>], padded: usize, work: &mut SoaComplex) {
        let mut scratch = Vec::new();
        let expect: Vec<f64> = rows
            .iter()
            .map(|row| DelayProfile::peak_power_from_csi_with(row, 20e6, padded, &mut scratch))
            .collect();
        let host = batched(rows, padded, work);
        let portable = simd::portable_scope(|| batched(rows, padded, work));
        for (build, got) in [("host", host), ("baseline", portable)] {
            assert_eq!(got.len(), rows.len());
            for (l, ((row, &want), &got)) in rows.iter().zip(&expect).zip(&got).enumerate() {
                let what = format!(
                    "{build} build, n {} padded {padded} lanes {} lane {l}: {:#x} vs oracle {:#x}",
                    row.len(),
                    rows.len(),
                    got.to_bits(),
                    want.to_bits()
                );
                if nan_sources(row) <= 1 {
                    assert_eq!(got.to_bits(), want.to_bits(), "{what}");
                } else {
                    assert!(
                        got.to_bits() == want.to_bits() || got.is_nan() || want.is_nan(),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn peaks_match_per_packet_oracle_at_every_length() {
        // Every CSI length 1..=padded for every padded length 2..=512:
        // every pruned-stage count p, both fill shapes, the unpruned
        // fallback below 5 subcarriers, and lane counts cycling through
        // 1..=16 (chunked at 8 lanes from 256 taps, 4 at 512).
        let mut work = SoaComplex::new();
        for log2 in 1..=9 {
            let padded = 1usize << log2;
            for n in 1..=padded {
                let lanes = 1 + (n * 7 + log2) % 16;
                check(&rows(n, lanes, (n * 31 + padded) as u64), padded, &mut work);
            }
        }
    }

    #[test]
    fn peaks_match_per_packet_oracle_at_every_lane_count() {
        // Every lane count 1..=16 and a few multi-chunk ones, so every
        // kernel arm (1–8, 16) runs, at the serving shapes (30
        // subcarriers at 256 and 128 taps), the 56-subcarrier grid (an
        // odd stage count after one fill stage), and the smallest
        // pruned shapes.
        let mut work = SoaComplex::new();
        for (n, padded) in [(30, 256), (30, 128), (56, 512), (5, 8), (9, 16), (16, 64)] {
            for lanes in (1..=16).chain([17, 23, 40, 64]) {
                check(&rows(n, lanes, (lanes * 5 + n) as u64), padded, &mut work);
            }
        }
    }

    #[test]
    fn chunks_are_sized_to_the_working_set() {
        assert_eq!(chunk_lanes(256), 8);
        assert_eq!(chunk_lanes(128), 16);
        assert_eq!(chunk_lanes(512), 4);
        assert_eq!(chunk_lanes(64), 16);
        assert_eq!(chunk_lanes(1 << 16), 1);
        // Chunks take only widths with a kernel arm.
        for budget in [1, 4, 8, 16] {
            for remaining in 1..=40 {
                let w = chunk_width(remaining, budget);
                assert!(w <= remaining && w <= budget && (w <= 8 || w == 16), "{w}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "padded plan must cover the CSI length")]
    fn rows_longer_than_the_plan_are_rejected() {
        let mut soa = SoaComplex::new();
        soa.reset(9 * 2);
        let mut out = Vec::new();
        let plan = BatchFftPlan::new(8);
        DelayProfile::peak_powers_from_csi_rows_with(
            &plan,
            &soa,
            2,
            &mut SoaComplex::new(),
            &mut out,
        );
    }
}
