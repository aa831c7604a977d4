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
//! loops that the compiler autovectorizes (packed `vmulpd`/`vfmadd` under
//! `-C target-cpu=native`; see `scripts/asm_check.sh`).
//!
//! Per lane the kernel performs *exactly* the floating-point operations of
//! [`FftPlan::process`] in the same order — lanes are mutually
//! independent, so vectorizing across them is a pure reordering of
//! independent IEEE-754 operations — which makes every batched result
//! bit-identical to running the per-packet planned kernel on that lane
//! alone. The per-packet kernel is therefore retained unchanged as the
//! bit-identity oracle (see `crates/dsp/tests/batch.rs`).

use crate::plan::FftPlan;
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
/// `FftPlan::process` — the bit-identity contract depends on it.
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
    /// Full bit-reversal permutation: `bitrev[i]` is where the swap pass
    /// would move row `i`. Lets fill paths scatter rows straight into
    /// their post-permutation positions so the transform can skip the
    /// swap traversal entirely (see [`Self::scatter_lane`]).
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
        // the swap pass does (bit reversal is an involution, so this is
        // also the scatter target of each logical row).
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
        self.run(buf, lanes, inverse, None, false);
    }

    /// Writes `values` into lane `lane` with every row already at its
    /// bit-reversed position: `values[i]` lands in row `bitrev[i]`.
    ///
    /// A batch filled this way (into a freshly [`SoaComplex::reset`]
    /// buffer, so untouched rows are zero — and zero rows are invariant
    /// under any permutation) is in exactly the state the swap pass would
    /// produce, so [`Self::process_prepermuted`] can skip that full-buffer
    /// traversal. Pure data movement, no arithmetic: results stay
    /// bit-identical to [`SoaComplex::write_lane`] + [`Self::process`].
    ///
    /// Like `write_lane`, `values` may be shorter than the transform
    /// length (the zero-padded fill path); rows past `values.len()` are
    /// left untouched.
    ///
    /// # Panics
    ///
    /// Panics when `lane >= lanes`, `buf.len() != len() * lanes`, or
    /// `values.len() > len()`.
    pub fn scatter_lane(
        &self,
        buf: &mut SoaComplex,
        lane: usize,
        lanes: usize,
        values: &[Complex],
    ) {
        assert!(lane < lanes, "lane index out of range");
        assert_eq!(
            buf.len(),
            self.plan.len() * lanes,
            "buffer length must match plan size × lanes"
        );
        assert!(
            values.len() <= self.plan.len(),
            "lane data must fit the transform length"
        );
        for (v, &p) in values.iter().zip(&self.bitrev) {
            let at = p as usize * lanes + lane;
            buf.re[at] = v.re;
            buf.im[at] = v.im;
        }
    }

    /// [`Self::process`] for a batch whose rows are already bit-reversed
    /// (filled via [`Self::scatter_lane`]): runs the butterfly stages
    /// without the swap traversal. Bit-identical to the unpermuted path.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is zero or `buf.len() != len() * lanes`.
    pub fn process_prepermuted(&self, buf: &mut SoaComplex, lanes: usize, inverse: bool) {
        self.run(buf, lanes, inverse, None, true);
    }

    /// [`Self::inverse`] for a batch filled via [`Self::scatter_lane`]:
    /// skips the swap traversal, keeps the fused `1/N` normalization.
    pub fn inverse_prepermuted(&self, buf: &mut SoaComplex, lanes: usize) {
        let scale = 1.0 / self.plan.len() as f64;
        self.run(buf, lanes, true, Some(scale), true);
    }

    /// Shared entry for [`Self::process`] (`scale: None`) and
    /// [`Self::inverse`] (`scale: Some(1/N)`, folded into the final
    /// pass's stores). `prepermuted` skips the bit-reversal swap pass for
    /// batches scattered directly into permuted row order.
    fn run(
        &self,
        buf: &mut SoaComplex,
        lanes: usize,
        inverse: bool,
        scale: Option<f64>,
        prepermuted: bool,
    ) {
        let n = self.plan.len();
        assert!(lanes > 0, "batch must have at least one lane");
        assert_eq!(
            buf.len(),
            n * lanes,
            "buffer length must match plan size × lanes"
        );
        if n <= 1 {
            // Trivial transforms still get the scalar kernel's `*= 1/N`
            // pass (a no-op multiply by 1.0 when n == 1).
            if let Some(s) = scale {
                for v in buf.re.iter_mut() {
                    *v *= s;
                }
                for v in buf.im.iter_mut() {
                    *v *= s;
                }
            }
            return;
        }
        let re = buf.re.as_mut_slice();
        let im = buf.im.as_mut_slice();
        let table = self.plan.twiddles(inverse);
        let swaps: &[(u32, u32)] = if prepermuted { &[] } else { self.plan.swaps() };
        // Dispatch on the lane count: each arm monomorphizes the kernel
        // with the lane width as a `const`, so every lane loop runs over
        // `&mut [f64; L]` — compile-time trip counts and bounds, which
        // LLVM unrolls into straight packed instructions with no
        // per-butterfly trip-count checks, remainder loops, or runtime
        // aliasing guards (a dynamic `lanes` pays vector-loop entry
        // overhead comparable to the butterfly's own arithmetic). The
        // serving hot path batches 8 lanes (4 APs × 2 packets) and chunks
        // larger bursts at 16, so those widths matter most; small burst
        // sizes get arms too because `pdp_of_burst` batches at the burst
        // length.
        match lanes {
            2 => Self::kernel::<2>(re, im, swaps, table, n, scale),
            3 => Self::kernel::<3>(re, im, swaps, table, n, scale),
            4 => Self::kernel::<4>(re, im, swaps, table, n, scale),
            5 => Self::kernel::<5>(re, im, swaps, table, n, scale),
            6 => Self::kernel::<6>(re, im, swaps, table, n, scale),
            7 => Self::kernel::<7>(re, im, swaps, table, n, scale),
            8 => Self::kernel::<8>(re, im, swaps, table, n, scale),
            16 => Self::kernel::<16>(re, im, swaps, table, n, scale),
            l => Self::kernel_dyn(re, im, l, swaps, table, n, scale),
        }
    }

    /// The full post-validation transform for a compile-time lane count:
    /// bit-reversal row swaps, then the butterfly stages walked as
    /// *fused pairs* — each pass loads four lane rows once, applies both
    /// stages' butterflies in registers (radix-2² traversal), and stores
    /// once. The batch at the serving shape (8 lanes × 256 taps, 32 KiB
    /// split-complex) overflows a 32 KiB L1d, so halving the number of
    /// full-buffer traversals is where the batched win comes from; the
    /// per-value computation dags are untouched, so results stay
    /// bit-identical to the per-packet kernel.
    ///
    /// When `scale` is set the multiply is applied at the final pass's
    /// stores (one multiply per value, exactly what a separate scale pass
    /// performs — bit-identical, one traversal cheaper).
    ///
    /// Per lane the float op order is exactly [`FftPlan::process`], which
    /// the bit-identity tests pin down.
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
        let mut off = 0;
        let mut len;
        if n >= 4 {
            // Fused (len = 2, len = 4) pass: blocks of four rows
            // (a, b, c, d); stage 2 is the twiddle-free pairs (a, b) and
            // (c, d), stage 4 couples (a, c) and (b, d) with the first
            // two table entries.
            let pass_scale = if n == 4 { scale } else { None };
            let (w20, w21) = (table[0], table[1]);
            off = 2;
            for (block_re, block_im) in re.chunks_exact_mut(4 * L).zip(im.chunks_exact_mut(4 * L)) {
                let (h0_re, h1_re) = block_re.split_at_mut(2 * L);
                let (h0_im, h1_im) = block_im.split_at_mut(2 * L);
                let (a_re, b_re) = h0_re.split_at_mut(L);
                let (a_im, b_im) = h0_im.split_at_mut(L);
                let (c_re, d_re) = h1_re.split_at_mut(L);
                let (c_im, d_im) = h1_im.split_at_mut(L);
                let (ar, ai) = (row::<L>(a_re), row::<L>(a_im));
                let (br, bi) = (row::<L>(b_re), row::<L>(b_im));
                let (cr, ci) = (row::<L>(c_re), row::<L>(c_im));
                let (dr, di) = (row::<L>(d_re), row::<L>(d_im));
                bf2::<L>(ar, ai, br, bi);
                bf2::<L>(cr, ci, dr, di);
                bf::<L>(ar, ai, cr, ci, w20);
                bf::<L>(br, bi, dr, di, w21);
                if let Some(s) = pass_scale {
                    scale_row::<L>(ar, s);
                    scale_row::<L>(ai, s);
                    scale_row::<L>(br, s);
                    scale_row::<L>(bi, s);
                    scale_row::<L>(cr, s);
                    scale_row::<L>(ci, s);
                    scale_row::<L>(dr, s);
                    scale_row::<L>(di, s);
                }
            }
            len = 8;
        } else {
            // n == 2: the lone twiddle-free stage, with the scale fused
            // into its stores when requested.
            for (pair_re, pair_im) in re.chunks_exact_mut(2 * L).zip(im.chunks_exact_mut(2 * L)) {
                let (ur, vr) = pair_re.split_at_mut(L);
                let (ui, vi) = pair_im.split_at_mut(L);
                let (ur, ui, vr, vi) = (row::<L>(ur), row::<L>(ui), row::<L>(vr), row::<L>(vi));
                bf2::<L>(ur, ui, vr, vi);
                if let Some(s) = scale {
                    scale_row::<L>(ur, s);
                    scale_row::<L>(ui, s);
                    scale_row::<L>(vr, s);
                    scale_row::<L>(vi, s);
                }
            }
            len = 4;
        }
        while len <= n {
            let half = len / 2;
            if 2 * len <= n {
                // Fused (len, 2·len) pass: within one 2·len block the
                // four quarter-runs hold rows a = k, b = k + half,
                // c = len + k, d = len + k + half — stage `len` pairs
                // (a, b) and (c, d) with w1[k] and stage `2·len` pairs
                // (a, c) with w2[k] and (b, d) with w2[k + half]. All
                // four rows are loaded and stored once per fused pass.
                let pass_scale = if 2 * len == n { scale } else { None };
                let tw1 = &table[off..off + half];
                let (tw2a, tw2b) = table[off + half..off + half + len].split_at(half);
                off += half + len;
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
                    for (((((((((a_re, a_im), b_re), b_im), c_re), c_im), d_re), d_im), w1), w2) in
                        a_re.chunks_exact_mut(L)
                            .zip(a_im.chunks_exact_mut(L))
                            .zip(b_re.chunks_exact_mut(L))
                            .zip(b_im.chunks_exact_mut(L))
                            .zip(c_re.chunks_exact_mut(L))
                            .zip(c_im.chunks_exact_mut(L))
                            .zip(d_re.chunks_exact_mut(L))
                            .zip(d_im.chunks_exact_mut(L))
                            .zip(tw1)
                            .zip(tw2a.iter().zip(tw2b))
                    {
                        let (ar, ai) = (row::<L>(a_re), row::<L>(a_im));
                        let (br, bi) = (row::<L>(b_re), row::<L>(b_im));
                        let (cr, ci) = (row::<L>(c_re), row::<L>(c_im));
                        let (dr, di) = (row::<L>(d_re), row::<L>(d_im));
                        let (w2a, w2b) = w2;
                        bf::<L>(ar, ai, br, bi, *w1);
                        bf::<L>(cr, ci, dr, di, *w1);
                        bf::<L>(ar, ai, cr, ci, *w2a);
                        bf::<L>(br, bi, dr, di, *w2b);
                        if let Some(s) = pass_scale {
                            scale_row::<L>(ar, s);
                            scale_row::<L>(ai, s);
                            scale_row::<L>(br, s);
                            scale_row::<L>(bi, s);
                            scale_row::<L>(cr, s);
                            scale_row::<L>(ci, s);
                            scale_row::<L>(dr, s);
                            scale_row::<L>(di, s);
                        }
                    }
                }
                len <<= 2;
            } else {
                // Trailing single stage (odd stage count): the plain
                // planned butterfly walk, scale fused into its stores.
                let pass_scale = if len == n { scale } else { None };
                let tw = &table[off..off + half];
                off += half;
                for (block_re, block_im) in re
                    .chunks_exact_mut(len * L)
                    .zip(im.chunks_exact_mut(len * L))
                {
                    let (u_re, v_re) = block_re.split_at_mut(half * L);
                    let (u_im, v_im) = block_im.split_at_mut(half * L);
                    for ((((ur, ui), vr), vi), w) in u_re
                        .chunks_exact_mut(L)
                        .zip(u_im.chunks_exact_mut(L))
                        .zip(v_re.chunks_exact_mut(L))
                        .zip(v_im.chunks_exact_mut(L))
                        .zip(tw)
                    {
                        let (ur, ui, vr, vi) =
                            (row::<L>(ur), row::<L>(ui), row::<L>(vr), row::<L>(vi));
                        bf::<L>(ur, ui, vr, vi, *w);
                        if let Some(s) = pass_scale {
                            scale_row::<L>(ur, s);
                            scale_row::<L>(ui, s);
                            scale_row::<L>(vr, s);
                            scale_row::<L>(vi, s);
                        }
                    }
                }
                len <<= 1;
            }
        }
    }

    /// Fallback transform for lane counts without a monomorphized arm —
    /// same per-lane op order as [`Self::kernel`], with runtime `lanes`
    /// (single-stage passes and dynamic trip counts, so this path is
    /// correct but not specialized; `scale` runs as the scalar kernel's
    /// separate trailing pass, which is equally bit-identical).
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
        self.run(buf, lanes, true, Some(scale), false);
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
    fn scattered_prepermuted_matches_unpermuted_path() {
        for lanes in [1usize, 3, 8] {
            for log2 in 0..=6 {
                let n = 1usize << log2;
                // Short rows exercise the zero-padded scatter fill.
                let fill = (n * 3).div_ceil(4).max(1);
                let rows: Vec<Vec<Complex>> = (0..lanes).map(|l| signal(fill, l)).collect();
                let batch = BatchFftPlan::new(n);
                for inverse in [false, true] {
                    let mut via_swap = SoaComplex::new();
                    via_swap.reset(n * lanes);
                    let mut scattered = SoaComplex::new();
                    scattered.reset(n * lanes);
                    for (l, row) in rows.iter().enumerate() {
                        via_swap.write_lane(l, lanes, row);
                        batch.scatter_lane(&mut scattered, l, lanes, row);
                    }
                    batch.process(&mut via_swap, lanes, inverse);
                    batch.process_prepermuted(&mut scattered, lanes, inverse);
                    assert_eq!(scattered.re, via_swap.re, "n={n} lanes={lanes} re");
                    assert_eq!(scattered.im, via_swap.im, "n={n} lanes={lanes} im");
                }
                let mut via_swap = SoaComplex::new();
                via_swap.reset(n * lanes);
                let mut scattered = SoaComplex::new();
                scattered.reset(n * lanes);
                for (l, row) in rows.iter().enumerate() {
                    via_swap.write_lane(l, lanes, row);
                    batch.scatter_lane(&mut scattered, l, lanes, row);
                }
                batch.inverse(&mut via_swap, lanes);
                batch.inverse_prepermuted(&mut scattered, lanes);
                assert_eq!(scattered.re, via_swap.re, "inverse n={n} lanes={lanes} re");
                assert_eq!(scattered.im, via_swap.im, "inverse n={n} lanes={lanes} im");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane data must fit")]
    fn scatter_lane_rejects_long_rows() {
        let batch = BatchFftPlan::new(4);
        let mut soa = SoaComplex::new();
        soa.reset(4 * 2);
        batch.scatter_lane(&mut soa, 0, 2, &[Complex::ONE; 5]);
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
