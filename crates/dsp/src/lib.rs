//! Signal-processing primitives for the NomLoc indoor localization system.
//!
//! NomLoc's PDP (power-of-direct-path) estimator consumes PHY-layer channel
//! state information (CSI) in the frequency domain and transforms it to the
//! time-domain channel impulse response (CIR) via an inverse FFT; the
//! maximum power tap of the resulting power delay profile approximates the
//! direct-path power (§IV-A of the paper). This crate supplies that
//! machinery plus the descriptive statistics used by the evaluation:
//!
//! * [`Complex`] — minimal complex arithmetic (no external deps).
//! * [`fft`] — radix-2 FFT/IFFT and a Bluestein fallback for arbitrary
//!   lengths (Intel 5300 CSI has 30 grouped subcarriers, not a power of 2).
//! * [`plan`] — precomputed FFT plans (bit-reversal indices + per-stage
//!   twiddle tables) and the per-thread [`plan::PlanCache`] the radix-2
//!   kernel runs through.
//! * [`soa`] — split (structure-of-arrays) complex buffers, the lane-major
//!   layout of a burst of same-length packets.
//! * [`pdp`] — power delay profiles and their summary taps, including the
//!   batched peak tap powers of a lane-major burst: a zero-padded IFFT
//!   that skips the stages padding leaves idle and runs every lane in
//!   lockstep, bit-identical per lane to the per-packet plan.
//! * [`stats`] — mean/variance/percentiles and empirical CDFs (the paper's
//!   accuracy metric) plus the spatial-localizability-variance helper.
//! * [`Window`] — spectral tapers (Hann/Hamming/Blackman) for sidelobe
//!   control ahead of the IFFT.
//!
//! # Example
//!
//! ```
//! use nomloc_dsp::{fft, Complex};
//!
//! let time = vec![
//!     Complex::new(1.0, 0.0),
//!     Complex::new(0.0, 0.0),
//!     Complex::new(0.0, 0.0),
//!     Complex::new(0.0, 0.0),
//! ];
//! let freq = fft::fft(&time);
//! // A unit impulse has a flat spectrum.
//! for h in &freq {
//!     assert!((h.abs() - 1.0).abs() < 1e-12);
//! }
//! let back = fft::ifft(&freq);
//! assert!((back[0].re - 1.0).abs() < 1e-12);
//! ```

// `deny` instead of `forbid` for one reason: running a kernel in its
// AVX2 build is a target-feature call. That call lives in `simd`'s one
// `allow`ed module; everything else in the crate still refuses `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod complex;
pub mod fft;
pub mod pdp;
pub mod plan;
mod pruned;
mod simd;
pub mod soa;
pub mod stats;
mod window;

pub use complex::Complex;
pub use plan::{FftPlan, PlanCache};
pub use soa::SoaComplex;
pub use window::Window;

/// Converts a linear power ratio to decibels.
///
/// Returns negative infinity for non-positive input.
#[inline]
pub fn to_db(linear: f64) -> f64 {
    if linear <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * linear.log10()
    }
}

/// Converts decibels to a linear power ratio.
#[inline]
pub fn from_db(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trip() {
        for &x in &[1e-9, 1e-3, 1.0, 42.0, 1e6] {
            assert!((from_db(to_db(x)) - x).abs() / x < 1e-12);
        }
    }

    #[test]
    fn db_of_known_values() {
        assert!((to_db(10.0) - 10.0).abs() < 1e-12);
        assert!((to_db(100.0) - 20.0).abs() < 1e-12);
        assert!(to_db(0.0) == f64::NEG_INFINITY);
        assert!(to_db(-1.0) == f64::NEG_INFINITY);
        assert!((from_db(0.0) - 1.0).abs() < 1e-12);
        assert!((from_db(30.0) - 1000.0).abs() < 1e-9);
    }
}
