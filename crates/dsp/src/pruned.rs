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
//!    lane-major rows (`n` rows, natural order; the bit reversal
//!    `bitrev_N(j << p) = bitrev_P(j)` becomes the read index) and writes
//!    stage `p + 1` — twiddle-free ([`bf2`]) when `p = 0` — or, when the
//!    stages left after it would be odd in number, stages `p + 1` and
//!    `p + 2` fused. No zeroing, no scatter, no swap pass, and `p` fewer
//!    stages.
//! 2. [`Passes`] runs the middle stages as fused radix-2² passes
//!    ([`fused_pass`]). The odd stage, if any, went into the fill: a
//!    trailing single stage walks the whole buffer for half a pass's
//!    work, which at 8 lanes cost more than the whole unpruned transform.
//! 3. [`FoldPass`] runs the last two stages in registers, applies `1/N`
//!    and the gain, and folds each lane's tap powers into its `total_cmp`
//!    maximum without storing the transform.
//!
//! Chunks hold 8 lanes when they fit [`WORKING_SET_BYTES`] of
//! split-complex working set (up to 256 taps) and 4 otherwise, so the
//! passes stay in a 48 KiB L1d. A tail chunk is padded with zero lanes up
//! to 4 or 8, whose peaks are dropped; lanes are independent, so padding
//! changes no real lane's peak. Rows of at most four subcarriers, too
//! short to leave two stages for the folding pass, take the per-packet
//! kernel lane by lane.
//!
//! The kernels run through [`simd::run`], in an AVX2 build where the host
//! has AVX2 and a baseline build elsewhere.
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

use crate::pdp::DelayProfile;
use crate::plan::FftPlan;
use crate::simd::{self, Kernel};
use crate::soa::SoaComplex;
use crate::Complex;

/// Split-complex bytes one chunk of lanes may occupy: `lanes × N × 16 B`.
/// Two thirds of a 48 KiB L1d, leaving room for the twiddles and the
/// compact input rows; a 64 KiB chunk (16 lanes at 256 taps) ran slower.
const WORKING_SET_BYTES: usize = 32 * 1024;

/// Lanes per chunk for `padded`-tap transforms: [`WORKING_SET_BYTES`] /
/// (`padded` × 16 B), clamped to the kernels' two widths, 4..=8.
fn chunk_lanes(padded: usize) -> usize {
    (WORKING_SET_BYTES / (padded * 16)).clamp(4, 8)
}

/// Width of the next chunk when `remaining` lanes are left: 4 when they
/// fit 4 lanes, else the budget. The chunk's lanes past `remaining` are
/// padding.
fn chunk_width(remaining: usize, budget: usize) -> usize {
    if remaining <= 4 {
        4
    } else {
        budget
    }
}

/// Peak tap power of every lane of `rows` (`csi_len` rows × `lanes`,
/// lane-major, natural order) zero-padded to `plan.len()` taps, appended
/// to `out` in lane order. `work` is resized to one chunk's buffer and
/// keeps its capacity. Requires `plan.len() >= csi_len`.
pub(crate) fn peaks(
    plan: &FftPlan,
    rows: &SoaComplex,
    lanes: usize,
    csi_len: usize,
    work: &mut SoaComplex,
    out: &mut Vec<f64>,
) {
    let n = plan.len();
    let live = csi_len.next_power_of_two();
    debug_assert!(n >= live);
    // The folding pass needs two stages after the fill: P >= 8.
    if live < 8 {
        out.extend((0..lanes).map(|l| lane_peak(rows, lanes, l, n)));
        return;
    }
    let shift = (n / live).trailing_zeros();
    // Stages after a one-stage fill: log2(P) − 1. When that is odd the
    // fill takes two, so the rest pair up into fused passes.
    let two = live.trailing_zeros().is_multiple_of(2);
    let block = (1usize << shift) * if two { 4 } else { 2 };
    let table = plan.inverse_twiddles();
    let scale = 1.0 / n as f64;
    let gain = n as f64 / csi_len as f64;
    let budget = chunk_lanes(n);
    // The first chunk is the widest.
    let widest = chunk_width(lanes, budget);
    work.re.resize(n * widest, 0.0);
    work.im.resize(n * widest, 0.0);
    let mut lane0 = 0;
    while lane0 < lanes {
        let width = chunk_width(lanes - lane0, budget);
        let real = width.min(lanes - lane0);
        let (re, im) = (&mut work.re[..n * width], &mut work.im[..n * width]);
        simd::run(Fill {
            src_re: &rows.re,
            src_im: &rows.im,
            stride: lanes,
            lane0,
            real,
            csi_len,
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
            real,
            table,
            n,
            scale,
            gain,
            out: &mut *out,
        });
        // A lane whose every tap is a negative NaN (its CSI held one) has
        // a folded maximum with the sign bit set; `bits_max` orders such
        // NaNs backwards, so the per-packet kernel answers for it.
        let done = out.len() - real;
        for (l, peak) in out[done..].iter_mut().enumerate() {
            if peak.is_sign_negative() {
                *peak = lane_peak(rows, lanes, lane0 + l, n);
            }
        }
        lane0 += width;
    }
}

/// The per-packet kernel's peak for lane `lane` of `rows`, zero-padded
/// to `n` taps: the oracle itself, for rows too short to prune and for
/// lanes the fold cannot order.
fn lane_peak(rows: &SoaComplex, lanes: usize, lane: usize, n: usize) -> f64 {
    let row: Vec<Complex> = (0..rows.len() / lanes)
        .map(|i| rows.get(i * lanes + lane))
        .collect();
    // The bandwidth argument is only checked, never used.
    DelayProfile::peak_power_from_csi_with(&row, 1.0, n, &mut Vec::new())
}

/// Dispatches a const-generic kernel body on the chunk width: one arm
/// per width [`chunk_width`] hands out, so every lane loop runs over
/// `[f64; L]` with compile-time trip counts.
macro_rules! by_lanes {
    ($lanes:expr, $body:ident($($arg:expr),* $(,)?)) => {
        match $lanes {
            4 => $body::<4>($($arg),*),
            8 => $body::<8>($($arg),*),
            l => unreachable!("no kernel arm for {l} lanes"),
        }
    };
}

/// Views a `lanes`-wide chunk as a fixed-size lane row.
#[inline(always)]
fn row<const L: usize>(s: &mut [f64]) -> &mut [f64; L] {
    s.try_into().expect("chunk is exactly one lane row")
}

/// The twiddle-free butterfly (`w = 1`): `u' = u + v; v' = u − v` across
/// all lanes. Per lane this is exactly the per-packet kernel's len = 2
/// stage.
#[inline(always)]
fn bf2<const L: usize>(
    u_re: &mut [f64; L],
    u_im: &mut [f64; L],
    v_re: &mut [f64; L],
    v_im: &mut [f64; L],
) {
    for l in 0..L {
        let (a_re, a_im) = (u_re[l], u_im[l]);
        let (b_re, b_im) = (v_re[l], v_im[l]);
        u_re[l] = a_re + b_re;
        u_im[l] = a_im + b_im;
        v_re[l] = a_re - b_re;
        v_im[l] = a_im - b_im;
    }
}

/// The twiddle butterfly `b = v·w; u' = u + b; v' = u − b` unrolled into
/// components across all lanes. Same per-lane float op order as
/// [`FftPlan::process`] — the bit-identity contract depends on it.
#[inline(always)]
fn bf<const L: usize>(
    u_re: &mut [f64; L],
    u_im: &mut [f64; L],
    v_re: &mut [f64; L],
    v_im: &mut [f64; L],
    w: Complex,
) {
    let (w_re, w_im) = (w.re, w.im);
    for l in 0..L {
        let b_re = v_re[l] * w_re - v_im[l] * w_im;
        let b_im = v_re[l] * w_im + v_im[l] * w_re;
        let (a_re, a_im) = (u_re[l], u_im[l]);
        u_re[l] = a_re + b_re;
        u_im[l] = a_im + b_im;
        v_re[l] = a_re - b_re;
        v_im[l] = a_im - b_im;
    }
}

/// The two butterfly stages of one radix-2² block on lane rows held in
/// registers, `v = [a_re, a_im, b_re, b_im, c_re, c_im, d_re, d_im]`:
/// stage `len` pairs (a, b) and (c, d) with `w1` (the twiddle-free
/// butterfly when `None`), stage `2·len` pairs (a, c) with `w2.0` and
/// (b, d) with `w2.1`. Per lane the float ops and their order are those
/// of [`bf2`]/[`bf`].
#[inline(always)]
fn quad_regs<const L: usize>(v: &mut [[f64; L]; 8], w1: Option<Complex>, w2: (Complex, Complex)) {
    let [ar, ai, br, bi, cr, ci, dr, di] = v;
    match w1 {
        Some(w) => {
            bf::<L>(ar, ai, br, bi, w);
            bf::<L>(cr, ci, dr, di, w);
        }
        None => {
            bf2::<L>(ar, ai, br, bi);
            bf2::<L>(cr, ci, dr, di);
        }
    }
    bf::<L>(ar, ai, cr, ci, w2.0);
    bf::<L>(br, bi, dr, di, w2.1);
}

/// Stage `len`'s twiddles (`len/2` entries) in a plan's concatenated
/// table, which holds stages 4, 8, …, so stage `len` starts at
/// `Σ_{l<len} l/2 = len/2 − 2`.
#[inline(always)]
fn stage_twiddles(table: &[Complex], len: usize) -> &[Complex] {
    &table[len / 2 - 2..len - 2]
}

/// One fused radix-2² pass over stages `len` and `2·len` (`len >= 4`):
/// within each `2·len`-row block the four quarter-runs hold rows a = k,
/// b = k + len/2, c = len + k, d = len + k + len/2; stage `len` pairs
/// (a, b) and (c, d) with its twiddle `k` and stage `2·len` pairs (a, c)
/// and (b, d) with its twiddles `k` and `k + len/2`.
///
/// Each block's eight lane rows are copied into locals, both stages run
/// there ([`quad_regs`]), and each row is stored back once. Storing the
/// rows between the stages and loading them straight back stalls on
/// false store-to-load dependencies (4 KiB aliasing: the rows sit a
/// power-of-two stride apart), the more so at 256-bit width.
#[inline(always)]
fn fused_pass<const L: usize>(re: &mut [f64], im: &mut [f64], table: &[Complex], len: usize) {
    let half = len / 2;
    let tw1 = stage_twiddles(table, len);
    let (tw2a, tw2b) = stage_twiddles(table, 2 * len).split_at(half);
    for (block_re, block_im) in re
        .chunks_exact_mut(2 * len * L)
        .zip(im.chunks_exact_mut(2 * len * L))
    {
        let (h0_re, h1_re) = block_re.split_at_mut(len * L);
        let (h0_im, h1_im) = block_im.split_at_mut(len * L);
        let (a_re, b_re) = h0_re.split_at_mut(half * L);
        let (a_im, b_im) = h0_im.split_at_mut(half * L);
        let (c_re, d_re) = h1_re.split_at_mut(half * L);
        let (c_im, d_im) = h1_im.split_at_mut(half * L);
        for ((((((((((a_re, a_im), b_re), b_im), c_re), c_im), d_re), d_im), w1), w2a), w2b) in a_re
            .chunks_exact_mut(L)
            .zip(a_im.chunks_exact_mut(L))
            .zip(b_re.chunks_exact_mut(L))
            .zip(b_im.chunks_exact_mut(L))
            .zip(c_re.chunks_exact_mut(L))
            .zip(c_im.chunks_exact_mut(L))
            .zip(d_re.chunks_exact_mut(L))
            .zip(d_im.chunks_exact_mut(L))
            .zip(tw1)
            .zip(tw2a)
            .zip(tw2b)
        {
            let rows = [a_re, a_im, b_re, b_im, c_re, c_im, d_re, d_im];
            let mut v: [[f64; L]; 8] = std::array::from_fn(|k| *row::<L>(&mut *rows[k]));
            quad_regs::<L>(&mut v, Some(*w1), (*w2a, *w2b));
            for (dst, src) in rows.into_iter().zip(&v) {
                *row::<L>(dst) = *src;
            }
        }
    }
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
    /// Lanes of this chunk that hold a row; the rest are zero padding.
    real: usize,
    csi_len: usize,
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
        real,
        csi_len,
        shift,
        two,
        table,
        re,
        im,
        ..
    } = f;
    let half = 1usize << shift;
    let bits = csi_len.next_power_of_two().trailing_zeros();
    // The `j`-th live input, bitrev_P(j), as one lane row each of re and
    // im; zeros past the CSI (the padding `fft::ifft_padded_into`
    // appends is `+0`) and in a tail chunk's padding lanes.
    let live = |j: usize| -> [[f64; L]; 2] {
        let i = j.reverse_bits() >> (usize::BITS - bits);
        let mut v = [[0.0; L]; 2];
        if i < csi_len {
            let at = i * stride + lane0;
            if real == L {
                return [
                    src_re[at..at + L].try_into().expect("one lane row"),
                    src_im[at..at + L].try_into().expect("one lane row"),
                ];
            }
            v[0][..real].copy_from_slice(&src_re[at..at + real]);
            v[1][..real].copy_from_slice(&src_im[at..at + real]);
        }
        v
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
        fused_pass::<L>(re, im, table, len);
        len <<= 2;
    }
    debug_assert_eq!(len, n / 2, "the fill leaves an even stage count");
}

/// The last two stages of one chunk and the peak fold. Each output tap
/// is scaled by `1/N`, multiplied by the gain and squared into a power,
/// and each real lane keeps its `total_cmp` maximum; one peak per real
/// lane is appended to `out`. A [`Kernel`].
///
/// It is a fused radix-2² pass over stages `n/2` and `n` that stores
/// nothing, walked in 4-lane groups so that a block's eight rows, the
/// running maxima and the constants fit the sixteen vector registers
/// (all 8 lanes at once spilled, and the fold ran at half the speed).
struct FoldPass<'a> {
    re: &'a mut [f64],
    im: &'a mut [f64],
    lanes: usize,
    /// Lanes whose peaks are kept; the rest are zero padding.
    real: usize,
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
        real,
        table,
        n,
        scale,
        gain,
        out,
        ..
    } = f;
    let (len, half) = (n / 2, n / 4);
    let tw1 = stage_twiddles(table, len);
    let (tw2a, tw2b) = stage_twiddles(table, n).split_at(half);
    let (h0_re, h1_re) = re.split_at(len * L);
    let (h0_im, h1_im) = im.split_at(len * L);
    let (a_re, b_re) = h0_re.split_at(half * L);
    let (a_im, b_im) = h0_im.split_at(half * L);
    let (c_re, d_re) = h1_re.split_at(half * L);
    let (c_im, d_im) = h1_im.split_at(half * L);
    for g in (0..real).step_by(4) {
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
        out.extend_from_slice(&best[..(real - g).min(4)]);
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let plan = FftPlan::new(padded);
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
    /// differently in the two kernels. There only what is determined is
    /// checked: which taps are NaN and every other tap's value, so the
    /// peaks agree or one of them is a NaN.
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
        // every pruned-stage count p, both fill shapes, the per-packet
        // kernel below 5 subcarriers, and lane counts cycling through
        // 1..=16 (chunked at 8 lanes up to 256 taps, 4 at 512, with
        // padded tail chunks).
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
        // Every lane count 1..=16 and a few multi-chunk ones, so both
        // kernel arms run full and as padded tails of every width, at
        // the serving shapes (30 subcarriers at 256 and 128 taps), the
        // 56-subcarrier grid (an odd stage count after one fill stage,
        // 4-lane chunks), and the smallest pruned shapes.
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
        assert_eq!(chunk_lanes(128), 8);
        assert_eq!(chunk_lanes(512), 4);
        assert_eq!(chunk_lanes(64), 8);
        assert_eq!(chunk_lanes(1 << 16), 4);
        // Chunks take only widths with a kernel arm, within the budget,
        // and never pad a whole 4-lane group: each group the folding pass
        // walks holds a real lane.
        for budget in [4, 8] {
            for remaining in 1..=40 {
                let w = chunk_width(remaining, budget);
                assert!((w == 4 || w == 8) && w <= budget, "{w}");
                assert!(w.saturating_sub(remaining) < 4, "{w} for {remaining}");
            }
        }
    }

    /// Bit patterns a tap power can take (`+0` and up, and NaNs of both
    /// signs), across `total_cmp`'s order: quiet and signaling payloads,
    /// +∞, +0, subnormals and normals.
    fn power_values() -> Vec<f64> {
        [
            0xFFFF_FFFF_FFFF_FFFFu64, // −qNaN, every payload bit
            0xFFF8_0000_0000_0003,    // −qNaN, payload 3
            0xFFF0_0000_0000_0004,    // −sNaN, payload 4
            0x0000_0000_0000_0000,    // +0
            0x0000_0000_0000_0001,    // smallest subnormal
            0x000F_FFFF_FFFF_FFFF,    // largest subnormal
            0x3FF0_0000_0000_0000,    // 1
            0x7FEF_FFFF_FFFF_FFFF,    // largest finite
            0x7FF0_0000_0000_0000,    // +∞
            0x7FF0_0000_0000_0002,    // +sNaN, payload 2
            0x7FF8_0000_0000_0001,    // +qNaN, payload 1
        ]
        .into_iter()
        .map(f64::from_bits)
        .collect()
    }

    /// The per-packet kernel's branchy fold: later ties win.
    fn total_cmp_fold(values: &[f64]) -> f64 {
        let mut best = values[0];
        for &x in &values[1..] {
            if x.total_cmp(&best) != std::cmp::Ordering::Less {
                best = x;
            }
        }
        best
    }

    /// `bits_max` folded over `values` equals the `total_cmp` fold, unless
    /// every value is a negative NaN; then its sign bit is set, which
    /// sends the lane to the per-packet kernel.
    fn check_bits_max(values: &[f64], what: &str) {
        let folded = values[1..]
            .iter()
            .fold(values[0], |best, &x| bits_max(best, x));
        if values.iter().all(|x| x.is_nan() && x.is_sign_negative()) {
            assert!(folded.is_sign_negative(), "{what}: {:#x}", folded.to_bits());
        } else {
            assert_eq!(folded.to_bits(), total_cmp_fold(values).to_bits(), "{what}");
        }
    }

    #[test]
    fn branch_free_max_matches_total_cmp_fold_on_special_values() {
        let values = power_values();
        // Every ordered pair…
        for &a in &values {
            for &b in &values {
                check_bits_max(
                    &[a, b],
                    &format!("{:#x} then {:#x}", a.to_bits(), b.to_bits()),
                );
            }
        }
        // …and seeded sequences with repeats, in scrambled orders.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for len in 1..=40 {
            let seq: Vec<f64> = (0..len)
                .map(|_| values[draw(&mut state, values.len())])
                .collect();
            check_bits_max(&seq, &format!("sequence {len}"));
        }
        // Sequences of negative NaNs alone.
        for len in 1..=4 {
            let seq: Vec<f64> = (0..len).map(|_| values[draw(&mut state, 3)]).collect();
            check_bits_max(&seq, &format!("negative NaNs {len}"));
        }
    }

    #[test]
    #[should_panic(expected = "padded plan must cover the CSI length")]
    fn rows_longer_than_the_plan_are_rejected() {
        let mut soa = SoaComplex::new();
        soa.reset(9 * 2);
        let mut out = Vec::new();
        let plan = FftPlan::new(8);
        DelayProfile::peak_powers_from_csi_rows_with(
            &plan,
            &soa,
            2,
            &mut SoaComplex::new(),
            &mut out,
        );
    }
}
