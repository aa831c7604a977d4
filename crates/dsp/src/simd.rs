//! Run-time selection of the host's vector units for the batched kernels.
//!
//! The workspace builds for baseline x86-64, whose vector registers are
//! SSE2's 128 bits: two `f64` lanes. The batched PDP transform's kernels
//! (`pruned::{Fill, Passes, FoldPass}`) work on rows of 4 or 8
//! independent lanes, so on an AVX2 host the same loops run twice as wide
//! in 256-bit registers. Rather than ship a build
//! that needs `-C target-cpu=...`, each such kernel implements [`Kernel`]
//! with an `#[inline(always)]` body, and [`run`] calls that body through
//! one `#[target_feature(enable = "avx2")]` wrapper when the host has
//! AVX2. The body is then compiled twice from one source: once for the
//! baseline target and once, inlined into the wrapper, for AVX2.
//!
//! Both builds are bit-identical. Every lane loop performs the same IEEE
//! operations in the same per-lane order at either width, and Rust never
//! contracts a multiply and an add into an FMA (nor does the wrapper
//! enable `fma`). The tests run a whole multi-kernel path in its baseline
//! build with [`portable_scope`] and compare it with the host's build.

/// A kernel compiled for the baseline target and for AVX2.
pub(crate) trait Kernel {
    /// What the kernel returns.
    type Output;

    /// The kernel's body. Implementations mark it `#[inline(always)]`, so
    /// that it is compiled into each caller, the AVX2 wrapper included.
    fn run(self) -> Self::Output;
}

/// Runs `kernel` in its AVX2 build when the host has AVX2, else in its
/// baseline build.
#[inline]
pub(crate) fn run<K: Kernel>(kernel: K) -> K::Output {
    #[cfg(test)]
    if PORTABLE.with(std::cell::Cell::get) {
        return kernel.run();
    }
    avx2(kernel).unwrap_or_else(K::run)
}

#[cfg(test)]
thread_local! {
    static PORTABLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with every [`run`] on this thread taking the baseline build.
#[cfg(test)]
pub(crate) fn portable_scope<R>(f: impl FnOnce() -> R) -> R {
    PORTABLE.with(|p| p.set(true));
    let out = f();
    PORTABLE.with(|p| p.set(false));
    out
}

use x86::avx2;

/// The `unsafe` island of the crate: one target-feature call, made only
/// after the run-time check.
#[allow(unsafe_code)]
mod x86 {
    use super::Kernel;

    /// Runs `kernel` in its AVX2 build, or hands it back when the host
    /// lacks AVX2 (or is not x86-64).
    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub(crate) fn avx2<K: Kernel>(kernel: K) -> Result<K::Output, K> {
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the host has AVX2, the wrapper's only feature.
            Ok(unsafe { with_avx2(kernel) })
        } else {
            Err(kernel)
        }
    }

    /// Other architectures have no AVX2 build.
    #[cfg(not(target_arch = "x86_64"))]
    pub(crate) fn avx2<K: Kernel>(kernel: K) -> Result<K::Output, K> {
        Err(kernel)
    }

    /// The AVX2 build of every kernel: `run` is `#[inline(always)]`, so
    /// its body is compiled here with 256-bit vectors enabled.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn with_avx2<K: Kernel>(kernel: K) -> K::Output {
        kernel.run()
    }
}
