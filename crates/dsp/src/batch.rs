//! Batched FFTs: N same-length signals marched through the planned
//! butterflies in lockstep.
//!
//! The per-packet planned kernel ([`crate::plan::FftPlan`]) already runs
//! without allocation or bounds checks, but it processes one interleaved
//! `Complex` packet at a time: every butterfly is a handful of scalar
//! multiply-adds, so the CPU's vector lanes sit mostly empty and the
//! bit-reversal/twiddle traversal is re-paid per packet. A burst of CSI
//! snapshots, though, is a *batch* of transforms of identical size — the
//! ideal SIMD shape. [`BatchFftPlan`] packs the batch lane-major into a
//! split [`SoaComplex`] buffer (sample `i` of lane `l` at `i * lanes + l`)
//! and executes **one** traversal of the swap pairs and twiddle tables,
//! with every butterfly applied to all lanes via contiguous per-lane inner
//! loops that the compiler autovectorizes.
//!
//! The kernel is chosen at run time: on an x86-64 host with AVX2 the
//! lane-count dispatch runs inside the crate's one AVX2 wrapper, where
//! the lane loops compile to packed 256-bit `vmulpd`/`vaddpd` (four lanes
//! per instruction); elsewhere the same source runs as the baseline
//! build, two lanes per SSE2 instruction. The workspace passes no
//! `-C target-cpu`, so this check is what puts the wider units to work in
//! the shipped binary (`scripts/asm_check.sh` inspects that build).
//!
//! Per lane the kernel performs *exactly* the floating-point operations of
//! [`FftPlan::process`] in the same order — lanes are mutually
//! independent, so vectorizing across them, at either width, is a pure
//! reordering of independent IEEE-754 operations — which makes every
//! batched result bit-identical to running the per-packet planned kernel
//! on that lane alone. The per-packet kernel is therefore retained
//! unchanged as the bit-identity oracle (see `crates/dsp/tests/batch.rs`),
//! and this module's tests compare the AVX2 and baseline builds directly.

use crate::plan::FftPlan;
use crate::simd::{self, Kernel};
use crate::soa::SoaComplex;
use crate::Complex;
use std::rc::Rc;

/// Views a `lanes`-wide chunk as a fixed-size lane row.
#[inline(always)]
fn row<const L: usize>(s: &mut [f64]) -> &mut [f64; L] {
    s.try_into().expect("chunk is exactly one lane row")
}

/// The twiddle-free butterfly (`w = 1`): `u' = u + v; v' = u − v` across
/// all lanes. Per lane this is exactly the scalar kernel's len = 2 stage.
#[inline(always)]
pub(crate) fn bf2<const L: usize>(
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
/// `FftPlan::process` — the bit-identity contract depends on it.
#[inline(always)]
pub(crate) fn bf<const L: usize>(
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

/// One lane row of the fused `1/N` multiply — applied at the final pass's
/// stores so the normalization costs no extra memory traversal. Per value
/// this is the same single multiply the scalar kernel's separate scale
/// pass performs, so the result is bit-identical.
#[inline(always)]
fn scale_row<const L: usize>(r: &mut [f64; L], s: f64) {
    for v in r.iter_mut() {
        *v *= s;
    }
}

/// The two butterfly stages of one radix-2² block on lane rows held in
/// registers, `v = [a_re, a_im, b_re, b_im, c_re, c_im, d_re, d_im]`:
/// stage `len` pairs (a, b) and (c, d) with `w1` (the twiddle-free
/// butterfly when `None`), stage `2·len` pairs (a, c) with `w2.0` and
/// (b, d) with `w2.1`. Per lane the float ops and their order are those
/// of [`bf2`]/[`bf`].
#[inline(always)]
pub(crate) fn quad_regs<const L: usize>(
    v: &mut [[f64; L]; 8],
    w1: Option<Complex>,
    w2: (Complex, Complex),
) {
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

/// One block of a fused radix-2² pass, held in registers: the eight lane
/// rows `[a_re, a_im, b_re, b_im, c_re, c_im, d_re, d_im]` are copied
/// into locals, both stages run there ([`quad_regs`]), the optional
/// scale is applied, and each row is stored back once.
///
/// Working on locals keeps the first stage's results out of memory. The
/// rows of one block sit a power-of-two stride apart, so storing them
/// between the stages and loading them straight back stalls on false
/// store-to-load dependencies (4 KiB aliasing), the more so at 256-bit
/// width. Per lane the float ops and their order are those of
/// [`bf2`]/[`bf`] and [`scale_row`], so results are unchanged.
#[inline(always)]
fn quad<const L: usize>(
    rows: [&mut [f64]; 8],
    w1: Option<Complex>,
    w2: (Complex, Complex),
    scale: Option<f64>,
) {
    let mut v: [[f64; L]; 8] = std::array::from_fn(|k| *row::<L>(&mut *rows[k]));
    quad_regs::<L>(&mut v, w1, w2);
    if let Some(s) = scale {
        for r in v.iter_mut() {
            scale_row::<L>(r, s);
        }
    }
    for (dst, src) in rows.into_iter().zip(&v) {
        *row::<L>(dst) = *src;
    }
}

/// Stage `len`'s twiddles (`len/2` entries) in a plan's concatenated
/// table, which holds stages 4, 8, …, so stage `len` starts at
/// `Σ_{l<len} l/2 = len/2 − 2`.
#[inline(always)]
pub(crate) fn stage_twiddles(table: &[Complex], len: usize) -> &[Complex] {
    &table[len / 2 - 2..len - 2]
}

/// One fused radix-2² pass over stages `len` and `2·len`: within each
/// `2·len`-row block the four quarter-runs hold rows a = k,
/// b = k + len/2, c = len + k, d = len + k + len/2; stage `len` pairs
/// (a, b) and (c, d) with its twiddle `k` (none at `len = 2`) and stage
/// `2·len` pairs (a, c) and (b, d) with its twiddles `k` and `k + len/2`.
/// All four rows are loaded and stored once ([`quad`]), with `scale`
/// fused into the stores.
#[inline(always)]
pub(crate) fn fused_pass<const L: usize>(
    re: &mut [f64],
    im: &mut [f64],
    table: &[Complex],
    len: usize,
    scale: Option<f64>,
) {
    let half = len / 2;
    // Empty at len = 2, whose stage is twiddle-free: `get` yields None.
    let tw1 = if len >= 4 {
        stage_twiddles(table, len)
    } else {
        &[]
    };
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
        for (k, (((((((((a_re, a_im), b_re), b_im), c_re), c_im), d_re), d_im), w2a), w2b)) in a_re
            .chunks_exact_mut(L)
            .zip(a_im.chunks_exact_mut(L))
            .zip(b_re.chunks_exact_mut(L))
            .zip(b_im.chunks_exact_mut(L))
            .zip(c_re.chunks_exact_mut(L))
            .zip(c_im.chunks_exact_mut(L))
            .zip(d_re.chunks_exact_mut(L))
            .zip(d_im.chunks_exact_mut(L))
            .zip(tw2a)
            .zip(tw2b)
            .enumerate()
        {
            quad::<L>(
                [a_re, a_im, b_re, b_im, c_re, c_im, d_re, d_im],
                tw1.get(k).copied(),
                (*w2a, *w2b),
                scale,
            );
        }
    }
}

/// A radix-2 FFT plan applied to a lane-major batch of same-length
/// signals.
///
/// Wraps (and shares) an [`FftPlan`]: the swap pairs and twiddle tables
/// are identical, only the traversal changes — one pass over the plan
/// drives all `lanes` transforms.
///
/// # Example
///
/// ```
/// use nomloc_dsp::{BatchFftPlan, Complex, FftPlan, SoaComplex};
///
/// let signal: Vec<Complex> = (0..8).map(|i| Complex::new(i as f64, 0.0)).collect();
/// // Two identical lanes through the batched kernel…
/// let batch = BatchFftPlan::new(8);
/// let mut soa = SoaComplex::new();
/// soa.reset(8 * 2);
/// soa.write_lane(0, 2, &signal);
/// soa.write_lane(1, 2, &signal);
/// batch.forward(&mut soa, 2);
/// // …match the per-packet planned kernel bit for bit.
/// let mut expect = signal.clone();
/// FftPlan::new(8).forward(&mut expect);
/// let mut lane = Vec::new();
/// soa.read_lane_into(0, 2, &mut lane);
/// assert_eq!(lane, expect);
/// ```
#[derive(Debug, Clone)]
pub struct BatchFftPlan {
    plan: Rc<FftPlan>,
    /// Full bit-reversal permutation: `bitrev[i]` is the input row the
    /// swap pass moves into row `i` (and vice versa: it is an
    /// involution). The zero-padded PDP transform reads its live inputs
    /// through it instead of running the swap pass.
    bitrev: Vec<u32>,
}

impl BatchFftPlan {
    /// Builds a batched plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two (see [`FftPlan::new`]).
    pub fn new(n: usize) -> Self {
        Self::from_plan(Rc::new(FftPlan::new(n)))
    }

    /// Wraps an existing per-packet plan, sharing its tables.
    pub fn from_plan(plan: Rc<FftPlan>) -> Self {
        // Reconstruct the full permutation by replaying the plan's swap
        // pairs on an identity map — `bitrev` then moves rows exactly as
        // the swap pass does.
        let mut bitrev: Vec<u32> = (0..plan.len() as u32).collect();
        for &(i, j) in plan.swaps() {
            bitrev.swap(i as usize, j as usize);
        }
        BatchFftPlan { plan, bitrev }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    /// Whether this is the trivial length-zero plan.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// The shared per-packet plan.
    pub fn plan(&self) -> &FftPlan {
        &self.plan
    }

    /// Runs the raw in-place transform on all `lanes` lanes *without*
    /// inverse normalization, matching [`FftPlan::process`] per lane.
    ///
    /// `buf` must hold the batch lane-major: `len() * lanes` elements with
    /// sample `i` of lane `l` at flat index `i * lanes + l`.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is zero or `buf.len() != len() * lanes`.
    pub fn process(&self, buf: &mut SoaComplex, lanes: usize, inverse: bool) {
        self.run(buf, lanes, inverse, None);
    }

    /// The full bit-reversal permutation of this plan's length.
    pub(crate) fn bitrev(&self) -> &[u32] {
        &self.bitrev
    }

    /// Shared entry for [`Self::process`] (`scale: None`) and
    /// [`Self::inverse`] (`scale: Some(1/N)`, folded into the final
    /// pass's stores).
    fn run(&self, buf: &mut SoaComplex, lanes: usize, inverse: bool, scale: Option<f64>) {
        simd::run(self.transform(buf, lanes, inverse, scale));
    }

    /// Validates a batch and binds it to this plan's tables.
    fn transform<'a>(
        &'a self,
        buf: &'a mut SoaComplex,
        lanes: usize,
        inverse: bool,
        scale: Option<f64>,
    ) -> Transform<'a> {
        let n = self.plan.len();
        assert!(lanes > 0, "batch must have at least one lane");
        assert_eq!(
            buf.len(),
            n * lanes,
            "buffer length must match plan size × lanes"
        );
        Transform {
            re: buf.re.as_mut_slice(),
            im: buf.im.as_mut_slice(),
            lanes,
            swaps: self.plan.swaps(),
            table: self.plan.twiddles(inverse),
            n,
            scale,
        }
    }

    /// The full post-validation transform for a compile-time lane count:
    /// bit-reversal row swaps, then the butterfly stages walked as
    /// *fused pairs* ([`fused_pass`]) — each pass loads four lane rows
    /// once, applies both stages' butterflies in registers (radix-2²
    /// traversal), and stores once, halving the full-buffer traversals.
    /// An odd stage count runs its lone twiddle-free `len = 2` stage
    /// first, never last: a trailing single stage walks the whole buffer
    /// with twiddles for half a pass's work.
    ///
    /// When `scale` is set the multiply is applied at the final pass's
    /// stores (one multiply per value, exactly what a separate scale pass
    /// performs — bit-identical, one traversal cheaper).
    ///
    /// Per lane the float op order is exactly [`FftPlan::process`], which
    /// the bit-identity tests pin down. `#[inline(always)]` so that each
    /// build of [`Transform`] gets its own copy.
    #[inline(always)]
    fn kernel<const L: usize>(
        re: &mut [f64],
        im: &mut [f64],
        swaps: &[(u32, u32)],
        table: &[Complex],
        n: usize,
        scale: Option<f64>,
    ) {
        // Bit-reversal permutation: each swap pair exchanges two whole
        // lane-rows, i.e. two contiguous `L`-wide runs.
        for &(i, j) in swaps {
            let (i, j) = (i as usize * L, j as usize * L);
            let (lo, hi) = re.split_at_mut(j);
            lo[i..i + L].swap_with_slice(&mut hi[..L]);
            let (lo, hi) = im.split_at_mut(j);
            lo[i..i + L].swap_with_slice(&mut hi[..L]);
        }
        let mut len = 2;
        if n.trailing_zeros() % 2 == 1 {
            // Odd stage count: the lone twiddle-free stage, with the
            // scale fused into its stores when it is the only stage.
            let stage_scale = if n == 2 { scale } else { None };
            for (pair_re, pair_im) in re.chunks_exact_mut(2 * L).zip(im.chunks_exact_mut(2 * L)) {
                let (ur, vr) = pair_re.split_at_mut(L);
                let (ui, vi) = pair_im.split_at_mut(L);
                let (ur, ui, vr, vi) = (row::<L>(ur), row::<L>(ui), row::<L>(vr), row::<L>(vi));
                bf2::<L>(ur, ui, vr, vi);
                if let Some(s) = stage_scale {
                    scale_row::<L>(ur, s);
                    scale_row::<L>(ui, s);
                    scale_row::<L>(vr, s);
                    scale_row::<L>(vi, s);
                }
            }
            len = 4;
        }
        while len < n {
            let pass_scale = if 2 * len == n { scale } else { None };
            fused_pass::<L>(re, im, table, len, pass_scale);
            len <<= 2;
        }
    }

    /// Fallback transform for lane counts without a monomorphized arm —
    /// same per-lane op order as [`Self::kernel`], with runtime `lanes`
    /// (single-stage passes and dynamic trip counts, so this path is
    /// correct but not specialized; `scale` runs as the scalar kernel's
    /// separate trailing pass, which is equally bit-identical).
    #[inline(always)]
    fn kernel_dyn(
        re: &mut [f64],
        im: &mut [f64],
        lanes: usize,
        swaps: &[(u32, u32)],
        table: &[Complex],
        n: usize,
        scale: Option<f64>,
    ) {
        // Bit-reversal permutation: each swap pair exchanges two whole
        // lane-rows, i.e. two contiguous `lanes`-wide runs.
        for &(i, j) in swaps {
            let (i, j) = (i as usize * lanes, j as usize * lanes);
            let (lo, hi) = re.split_at_mut(j);
            lo[i..i + lanes].swap_with_slice(&mut hi[..lanes]);
            let (lo, hi) = im.split_at_mut(j);
            lo[i..i + lanes].swap_with_slice(&mut hi[..lanes]);
        }
        // Stage len = 2: twiddle is exactly 1 — a pure add/sub pair of
        // adjacent rows, done across all lanes at once.
        for (pair_re, pair_im) in re
            .chunks_exact_mut(2 * lanes)
            .zip(im.chunks_exact_mut(2 * lanes))
        {
            let (ur, vr) = pair_re.split_at_mut(lanes);
            let (ui, vi) = pair_im.split_at_mut(lanes);
            for (((ur, ui), vr), vi) in ur
                .iter_mut()
                .zip(ui.iter_mut())
                .zip(vr.iter_mut())
                .zip(vi.iter_mut())
            {
                let (a_re, a_im) = (*ur, *ui);
                let (b_re, b_im) = (*vr, *vi);
                *ur = a_re + b_re;
                *ui = a_im + b_im;
                *vr = a_re - b_re;
                *vi = a_im - b_im;
            }
        }
        let mut off = 0;
        let mut len = 4;
        while len <= n {
            let half = len / 2;
            let tw = &table[off..off + half];
            // Within one block the u rows (k = 0..half) and v rows
            // (k = half..len) are two *contiguous* lane-major runs, so the
            // whole stage is walked with chunked iterators — no index
            // arithmetic or bounds checks anywhere in the butterfly path.
            for (block_re, block_im) in re
                .chunks_exact_mut(len * lanes)
                .zip(im.chunks_exact_mut(len * lanes))
            {
                let (u_re, v_re) = block_re.split_at_mut(half * lanes);
                let (u_im, v_im) = block_im.split_at_mut(half * lanes);
                for ((((ur, ui), vr), vi), w) in u_re
                    .chunks_exact_mut(lanes)
                    .zip(u_im.chunks_exact_mut(lanes))
                    .zip(v_re.chunks_exact_mut(lanes))
                    .zip(v_im.chunks_exact_mut(lanes))
                    .zip(tw)
                {
                    let (w_re, w_im) = (w.re, w.im);
                    // The scalar butterfly `b = v·w; u' = a+b; v' = a−b`
                    // unrolled into components, one lockstep lane loop.
                    // Same per-lane op order as FftPlan::process — the
                    // bit-identity contract depends on it.
                    for (((ur, ui), vr), vi) in ur
                        .iter_mut()
                        .zip(ui.iter_mut())
                        .zip(vr.iter_mut())
                        .zip(vi.iter_mut())
                    {
                        let b_re = *vr * w_re - *vi * w_im;
                        let b_im = *vr * w_im + *vi * w_re;
                        let (a_re, a_im) = (*ur, *ui);
                        *ur = a_re + b_re;
                        *ui = a_im + b_im;
                        *vr = a_re - b_re;
                        *vi = a_im - b_im;
                    }
                }
            }
            off += half;
            len <<= 1;
        }
        if let Some(s) = scale {
            for v in re.iter_mut() {
                *v *= s;
            }
            for v in im.iter_mut() {
                *v *= s;
            }
        }
    }

    /// In-place forward DFT of every lane.
    pub fn forward(&self, buf: &mut SoaComplex, lanes: usize) {
        self.process(buf, lanes, false);
    }

    /// In-place inverse DFT of every lane, including the `1/N`
    /// normalization (the same per-component multiply as
    /// [`FftPlan::inverse`], fused into the final pass's stores of the
    /// batched kernel).
    pub fn inverse(&self, buf: &mut SoaComplex, lanes: usize) {
        let scale = 1.0 / self.plan.len() as f64;
        self.run(buf, lanes, true, Some(scale));
    }
}

/// One validated batched transform: the buffer halves and the plan
/// tables it runs over, as a [`Kernel`] built for both the baseline
/// target and AVX2.
struct Transform<'a> {
    re: &'a mut [f64],
    im: &'a mut [f64],
    lanes: usize,
    swaps: &'a [(u32, u32)],
    table: &'a [Complex],
    n: usize,
    scale: Option<f64>,
}

impl Kernel for Transform<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Transform {
            re,
            im,
            lanes,
            swaps,
            table,
            n,
            scale,
        } = self;
        if n <= 1 {
            // Trivial transforms still get the scalar kernel's `*= 1/N`
            // pass (a no-op multiply by 1.0 when n == 1).
            if let Some(s) = scale {
                for v in re.iter_mut().chain(im.iter_mut()) {
                    *v *= s;
                }
            }
            return;
        }
        // Dispatch on the lane count: each arm monomorphizes the kernel
        // with the lane width as a `const`, so every lane loop runs over
        // `&mut [f64; L]` — compile-time trip counts and bounds, which
        // LLVM unrolls into straight packed instructions with no
        // per-butterfly trip-count checks, remainder loops, or runtime
        // aliasing guards (a dynamic `lanes` pays vector-loop entry
        // overhead comparable to the butterfly's own arithmetic). The PDP
        // serving path runs the pruned transform (`crate::pruned`), not
        // this one, except for CSI rows of at most four subcarriers.
        match lanes {
            2 => BatchFftPlan::kernel::<2>(re, im, swaps, table, n, scale),
            3 => BatchFftPlan::kernel::<3>(re, im, swaps, table, n, scale),
            4 => BatchFftPlan::kernel::<4>(re, im, swaps, table, n, scale),
            5 => BatchFftPlan::kernel::<5>(re, im, swaps, table, n, scale),
            6 => BatchFftPlan::kernel::<6>(re, im, swaps, table, n, scale),
            7 => BatchFftPlan::kernel::<7>(re, im, swaps, table, n, scale),
            8 => BatchFftPlan::kernel::<8>(re, im, swaps, table, n, scale),
            16 => BatchFftPlan::kernel::<16>(re, im, swaps, table, n, scale),
            l => BatchFftPlan::kernel_dyn(re, im, l, swaps, table, n, scale),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex;

    fn signal(n: usize, lane: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let t = i as f64 + lane as f64 * 0.37;
                Complex::new((0.3 * t).sin() + 0.1 * t, (0.7 * t).cos() - 0.05 * t)
            })
            .collect()
    }

    fn pack(lanes_data: &[Vec<Complex>]) -> SoaComplex {
        let lanes = lanes_data.len();
        let n = lanes_data[0].len();
        let mut soa = SoaComplex::new();
        soa.reset(n * lanes);
        for (l, row) in lanes_data.iter().enumerate() {
            soa.write_lane(l, lanes, row);
        }
        soa
    }

    #[test]
    fn batch_matches_per_packet_plan_bit_for_bit() {
        for lanes in [1usize, 2, 3, 5, 8] {
            for log2 in 1..=6 {
                let n = 1usize << log2;
                let rows: Vec<Vec<Complex>> = (0..lanes).map(|l| signal(n, l)).collect();
                let plan = FftPlan::new(n);
                let batch = BatchFftPlan::from_plan(Rc::new(plan.clone()));
                for inverse in [false, true] {
                    let mut soa = pack(&rows);
                    batch.process(&mut soa, lanes, inverse);
                    let mut lane_out = Vec::new();
                    for (l, row) in rows.iter().enumerate() {
                        let mut expect = row.clone();
                        plan.process(&mut expect, inverse);
                        soa.read_lane_into(l, lanes, &mut lane_out);
                        assert_eq!(lane_out, expect, "n={n} lanes={lanes} lane={l}");
                    }
                }
            }
        }
    }

    #[test]
    fn avx2_build_matches_baseline_build_bit_for_bit() {
        // Every monomorphized lane arm (2–8, 16), the dynamic arm (1, 9
        // and 12 lanes), every transform length from 2 to 512, both
        // directions, with and without the fused 1/N.
        for lanes in [1usize, 2, 3, 4, 5, 6, 7, 8, 16, 9, 12] {
            for log2 in 1..=9 {
                let n = 1usize << log2;
                let rows: Vec<Vec<Complex>> = (0..lanes).map(|l| signal(n, l)).collect();
                let batch = BatchFftPlan::new(n);
                for inverse in [false, true] {
                    for scale in [None, Some(1.0 / n as f64)] {
                        let mut baseline = pack(&rows);
                        simd::portable(batch.transform(&mut baseline, lanes, inverse, scale));
                        let mut wide = pack(&rows);
                        if simd::avx2(batch.transform(&mut wide, lanes, inverse, scale)).is_err() {
                            return; // no AVX2 on this host: one build only
                        }
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let what = format!("lanes {lanes} n {n} inverse {inverse} scale {scale:?}");
                        assert_eq!(bits(&wide.re), bits(&baseline.re), "re, {what}");
                        assert_eq!(bits(&wide.im), bits(&baseline.im), "im, {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn inverse_normalization_matches_plan() {
        let n = 16;
        let lanes = 4;
        let rows: Vec<Vec<Complex>> = (0..lanes).map(|l| signal(n, l)).collect();
        let plan = FftPlan::new(n);
        let batch = BatchFftPlan::new(n);
        let mut soa = pack(&rows);
        batch.inverse(&mut soa, lanes);
        let mut lane_out = Vec::new();
        for (l, row) in rows.iter().enumerate() {
            let mut expect = row.clone();
            plan.inverse(&mut expect);
            soa.read_lane_into(l, lanes, &mut lane_out);
            assert_eq!(lane_out, expect, "lane {l}");
        }
    }

    #[test]
    fn trivial_size_is_identity() {
        let batch = BatchFftPlan::new(1);
        let rows = vec![vec![Complex::new(2.5, -1.5)], vec![Complex::new(0.5, 3.0)]];
        let mut soa = pack(&rows);
        batch.forward(&mut soa, 2);
        assert_eq!(soa.get(0), Complex::new(2.5, -1.5));
        assert_eq!(soa.get(1), Complex::new(0.5, 3.0));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let batch = BatchFftPlan::new(4);
        let mut soa = SoaComplex::new();
        batch.process(&mut soa, 0, false);
    }

    #[test]
    #[should_panic(expected = "plan size × lanes")]
    fn mismatched_buffer_rejected() {
        let batch = BatchFftPlan::new(4);
        let mut soa = SoaComplex::new();
        soa.reset(4 * 3 - 1);
        batch.process(&mut soa, 3, false);
    }
}
