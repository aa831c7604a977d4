//! Precomputed FFT plans and a per-thread plan cache.
//!
//! A textbook iterative radix-2 kernel recomputes the bit-reversal
//! permutation on every call and generates twiddle factors by repeated
//! complex multiplication (`w *= wlen`), which both wastes work and
//! accumulates one rounding error per butterfly. An [`FftPlan`] does that
//! work once per transform size: the swap pairs of the bit-reversal
//! permutation and a per-stage twiddle table whose entries are each computed
//! directly as `e^{±j2πk/len}` — no accumulated drift. (The iterative
//! kernel survives only in [`crate::fft`]'s tests, as the drift reference.)
//!
//! Plans are immutable after construction, so a [`PlanCache`] hands out
//! shared references and each batcher thread reuses its plans across
//! requests via [`with_thread_plan`]. The hot path therefore performs zero
//! allocation in steady state: the first transform of a given size on a
//! thread builds the plan, every later one just runs butterflies.

use crate::Complex;
use std::cell::RefCell;
use std::f64::consts::PI;
use std::rc::Rc;

/// A precomputed radix-2 FFT plan for one fixed power-of-two size.
///
/// Holds the bit-reversal swap pairs and per-stage twiddle tables for both
/// transform directions. Construction is `O(N log N)`; each
/// [`process`](FftPlan::process) call then runs the classic in-place
/// Cooley–Tukey butterflies with table lookups instead of iterated twiddle
/// multiplication.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversal swap pairs `(i, j)` with `i < j`.
    swaps: Vec<(u32, u32)>,
    /// Concatenated twiddle tables for stages `len = 4, 8, …, n` (the
    /// `len = 2` stage has `w = 1` and is executed as pure add/sub).
    /// Stage `len` contributes `len/2` entries `e^{−j2πk/len}`.
    forward: Vec<Complex>,
    /// Same layout as `forward` with entries `e^{+j2πk/len}`.
    inverse: Vec<Complex>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or exceeds `2^31`.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT plan size must be a power of two");
        assert!(n <= 1 << 31, "FFT plan size too large");
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i as u32, j as u32));
            }
        }
        // n − 2 twiddles per direction: Σ_{len=4,8,…,n} len/2.
        let mut forward = Vec::with_capacity(n.saturating_sub(2));
        let mut inverse = Vec::with_capacity(n.saturating_sub(2));
        let mut len = 4;
        while len <= n {
            for k in 0..len / 2 {
                let ang = 2.0 * PI * k as f64 / len as f64;
                forward.push(Complex::cis(-ang));
                inverse.push(Complex::cis(ang));
            }
            len <<= 1;
        }
        Self {
            n,
            swaps,
            forward,
            inverse,
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether this is the trivial length-zero plan.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Runs the raw in-place transform *without* inverse normalization,
    /// matching the semantics of the module-private radix-2 kernel.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the planned size.
    pub fn process(&self, buf: &mut [Complex], inverse: bool) {
        assert_eq!(buf.len(), self.n, "buffer length must match the plan");
        let n = self.n;
        if n <= 1 {
            return;
        }
        for &(i, j) in &self.swaps {
            buf.swap(i as usize, j as usize);
        }
        // Stage len = 2: twiddle is exactly 1, so the butterfly is a pure
        // add/sub pair. chunks_exact_mut keeps the loop bounds-check-free.
        for pair in buf.chunks_exact_mut(2) {
            let u = pair[0];
            let v = pair[1];
            pair[0] = u + v;
            pair[1] = u - v;
        }
        let table = if inverse {
            &self.inverse
        } else {
            &self.forward
        };
        let mut off = 0;
        let mut len = 4;
        while len <= n {
            let half = len / 2;
            let tw = &table[off..off + half];
            // Splitting each block into its two halves lets the butterfly
            // loop run on zipped iterators — no index arithmetic, no
            // bounds checks — while keeping the exact float-op order of
            // the indexed form (the bit-identity contracts depend on it).
            for block in buf.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                for ((u, v), w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                    let a = *u;
                    let b = *v * *w;
                    *u = a + b;
                    *v = a - b;
                }
            }
            off += half;
            len <<= 1;
        }
    }

    /// In-place forward DFT.
    pub fn forward(&self, buf: &mut [Complex]) {
        self.process(buf, false);
    }

    /// In-place inverse DFT, including the `1/N` normalization.
    pub fn inverse(&self, buf: &mut [Complex]) {
        self.process(buf, true);
        let scale = 1.0 / self.n as f64;
        for v in buf.iter_mut() {
            *v = v.scale(scale);
        }
    }

    /// The concatenated per-stage inverse twiddle table, in the layout
    /// documented on the struct fields: what the batched PDP transform
    /// (`crate::pruned`) reads.
    pub(crate) fn inverse_twiddles(&self) -> &[Complex] {
        &self.inverse
    }
}

/// A size-keyed cache of [`FftPlan`]s.
///
/// Plans are indexed by `log2(n)` so lookup is a bounds check plus a vector
/// index. Cached plans are shared via `Rc`, letting callers run transforms
/// without holding a borrow of the cache (important for the thread-local
/// wrapper below, where a Bluestein transform performs several planned
/// transforms back to back).
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Vec<Option<Rc<FftPlan>>>,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the plan for length `n`, building and caching it on first use.
    ///
    /// The returned `Rc` clone is deliberate, not redundant: handing out an
    /// owned handle lets the caller drop the cache borrow before running the
    /// transform, which is what allows [`with_thread_plan`] to be re-entered
    /// (a Bluestein-style transform runs several planned transforms back to
    /// back on one thread). The steady-state cost is one refcount increment;
    /// the hit path below avoids the resize branch entirely.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn plan(&mut self, n: usize) -> Rc<FftPlan> {
        assert!(n.is_power_of_two(), "FFT plan size must be a power of two");
        let idx = n.trailing_zeros() as usize;
        if let Some(Some(plan)) = self.plans.get(idx) {
            return Rc::clone(plan);
        }
        if self.plans.len() <= idx {
            self.plans.resize(idx + 1, None);
        }
        Rc::clone(self.plans[idx].get_or_insert_with(|| Rc::new(FftPlan::new(n))))
    }

    /// Number of distinct transform sizes currently cached.
    pub fn cached_sizes(&self) -> usize {
        self.plans.iter().filter(|p| p.is_some()).count()
    }
}

thread_local! {
    static THREAD_PLANS: RefCell<PlanCache> = RefCell::new(PlanCache::new());
}

/// Runs `f` with this thread's cached plan for length `n`, building the plan
/// on first use.
///
/// The cache is thread-local, so long-lived serving threads (the daemon's
/// event loops and batchers) amortize plan construction across every
/// request they serve while short-lived helpers pay it at most once per
/// size.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn with_thread_plan<R>(n: usize, f: impl FnOnce(&FftPlan) -> R) -> R {
    let plan = THREAD_PLANS.with(|cache| cache.borrow_mut().plan(n));
    f(&plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::dft_naive;

    fn signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                Complex::new((0.3 * t).sin() + 0.1 * t, (0.7 * t).cos() - 0.05 * t)
            })
            .collect()
    }

    #[test]
    fn plan_matches_naive_dft_both_directions() {
        for log2 in 1..=8 {
            let n = 1usize << log2;
            let x = signal(n);
            let plan = FftPlan::new(n);

            let mut fwd = x.clone();
            plan.forward(&mut fwd);
            let expect = dft_naive(&x, false);
            for (a, b) in fwd.iter().zip(&expect) {
                assert!((*a - *b).abs() < 1e-9 * n as f64, "forward n={n}");
            }

            let mut inv = x.clone();
            plan.inverse(&mut inv);
            let expect = dft_naive(&x, true);
            for (a, b) in inv.iter().zip(&expect) {
                assert!((*a - *b).abs() < 1e-9, "inverse n={n}");
            }
        }
    }

    #[test]
    fn round_trip_is_identity() {
        for n in [1usize, 2, 4, 32, 256] {
            let x = signal(n);
            let plan = FftPlan::new(n);
            let mut buf = x.clone();
            plan.forward(&mut buf);
            plan.inverse(&mut buf);
            for (a, b) in buf.iter().zip(&x) {
                assert!((*a - *b).abs() < 1e-9, "round trip n={n}");
            }
        }
    }

    #[test]
    fn trivial_sizes_are_identity() {
        let plan = FftPlan::new(1);
        let mut buf = vec![Complex::new(2.5, -1.5)];
        plan.forward(&mut buf);
        assert_eq!(buf, vec![Complex::new(2.5, -1.5)]);
        plan.inverse(&mut buf);
        assert_eq!(buf, vec![Complex::new(2.5, -1.5)]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = FftPlan::new(30);
    }

    #[test]
    #[should_panic(expected = "buffer length must match")]
    fn mismatched_buffer_rejected() {
        let plan = FftPlan::new(8);
        let mut buf = vec![Complex::ZERO; 4];
        plan.process(&mut buf, false);
    }

    #[test]
    fn cache_reuses_plans() {
        let mut cache = PlanCache::new();
        let a = cache.plan(64);
        let b = cache.plan(64);
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(cache.cached_sizes(), 1);
        let _ = cache.plan(128);
        assert_eq!(cache.cached_sizes(), 2);
    }

    #[test]
    fn thread_plan_runs_transform() {
        let x = signal(16);
        let mut buf = x.clone();
        with_thread_plan(16, |p| p.forward(&mut buf));
        let expect = dft_naive(&x, false);
        for (a, b) in buf.iter().zip(&expect) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }
}
