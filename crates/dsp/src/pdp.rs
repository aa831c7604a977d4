//! Power delay profiles.
//!
//! The *power delay profile* (PDP, the delay-domain power distribution of a
//! radio channel — not to be confused with the paper's "power of direct
//! path", which is a scalar extracted *from* the profile) describes how the
//! received energy spreads across propagation delays. NomLoc obtains it by
//! an IFFT of the frequency-domain CSI and summarizes each link by its
//! maximum tap power (§IV-A).

use crate::plan::FftPlan;
use crate::pruned;
use crate::soa::SoaComplex;
use crate::{fft, Complex};

/// The delay-domain power profile of one radio link.
///
/// # Example
///
/// ```
/// use nomloc_dsp::pdp::DelayProfile;
/// use nomloc_dsp::Complex;
///
/// // A flat spectrum concentrates all energy at delay zero.
/// let csi = vec![Complex::ONE; 32];
/// let profile = DelayProfile::from_csi(&csi, 20e6, 64);
/// assert_eq!(profile.peak().index, 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DelayProfile {
    /// Power of each delay tap (linear, |h|²).
    powers: Vec<f64>,
    /// Delay spacing between consecutive taps, in seconds.
    tap_spacing: f64,
}

/// One tap of a [`DelayProfile`], as returned by its queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tap {
    /// Index of the tap within the profile.
    pub index: usize,
    /// Delay of the tap in seconds.
    pub delay: f64,
    /// Linear power of the tap.
    pub power: f64,
}

impl DelayProfile {
    /// Builds a profile from time-domain CIR taps sampled every
    /// `tap_spacing` seconds.
    ///
    /// # Panics
    ///
    /// Panics when `cir` is empty or `tap_spacing` is not positive.
    pub fn from_cir(cir: &[Complex], tap_spacing: f64) -> Self {
        assert!(!cir.is_empty(), "CIR must not be empty");
        assert!(tap_spacing > 0.0, "tap spacing must be positive");
        DelayProfile {
            powers: cir.iter().map(|h| h.norm_sq()).collect(),
            tap_spacing,
        }
    }

    /// Builds a profile from frequency-domain CSI spanning `bandwidth` Hz.
    ///
    /// The CSI is zero-padded to at least `min_taps` (rounded up to a power
    /// of two) before the IFFT, interpolating the delay axis; the effective
    /// tap spacing is `len(csi) / (bandwidth · n_taps)` so that the total
    /// unambiguous delay window remains `len(csi)/bandwidth`.
    ///
    /// # Panics
    ///
    /// Panics when `csi` is empty or `bandwidth` is not positive.
    pub fn from_csi(csi: &[Complex], bandwidth: f64, min_taps: usize) -> Self {
        Self::from_csi_with(csi, bandwidth, min_taps, &mut Vec::new())
    }

    /// [`DelayProfile::from_csi`] with a caller-provided IFFT scratch
    /// buffer. `scratch` is overwritten and keeps its capacity, so a loop
    /// over a burst of same-sized snapshots performs the delay-domain
    /// transform without per-packet allocation. Bit-identical to
    /// `from_csi`.
    ///
    /// # Panics
    ///
    /// Panics when `csi` is empty or `bandwidth` is not positive.
    pub fn from_csi_with(
        csi: &[Complex],
        bandwidth: f64,
        min_taps: usize,
        scratch: &mut Vec<Complex>,
    ) -> Self {
        assert!(!csi.is_empty(), "CSI must not be empty");
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        fft::ifft_padded_into(csi, min_taps, scratch);
        // The n-point unpadded IFFT has tap spacing 1/bandwidth and window
        // n/bandwidth; padding to m taps subdivides the same window.
        let window = csi.len() as f64 / bandwidth;
        let spacing = window / scratch.len() as f64;
        // Undo the extra 1/pad scaling relative to the unpadded IFFT so
        // that tap powers are comparable across pad sizes.
        let gain = scratch.len() as f64 / csi.len() as f64;
        DelayProfile {
            powers: scratch.iter().map(|h| (*h * gain).norm_sq()).collect(),
            tap_spacing: spacing,
        }
    }

    /// The peak tap power of [`DelayProfile::from_csi_with`] without
    /// materializing the profile: the tap powers are folded into a running
    /// maximum as they are computed, so the per-packet hot path performs no
    /// allocation beyond the reused IFFT scratch.
    ///
    /// Value-identical to `from_csi_with(..).peak().power` — each power is
    /// the same `(h · gain)` norm and the fold uses the same `total_cmp`
    /// order with later ties winning, exactly like
    /// [`DelayProfile::peak`]'s `max_by`.
    ///
    /// # Panics
    ///
    /// Panics when `csi` is empty or `bandwidth` is not positive.
    pub fn peak_power_from_csi_with(
        csi: &[Complex],
        bandwidth: f64,
        min_taps: usize,
        scratch: &mut Vec<Complex>,
    ) -> f64 {
        assert!(!csi.is_empty(), "CSI must not be empty");
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        fft::ifft_padded_into(csi, min_taps, scratch);
        let gain = scratch.len() as f64 / csi.len() as f64;
        let mut taps = scratch.iter();
        let first = taps.next().expect("padded IFFT output is never empty");
        let mut best = (*first * gain).norm_sq();
        for h in taps {
            let power = (*h * gain).norm_sq();
            if power.total_cmp(&best) != std::cmp::Ordering::Less {
                best = power;
            }
        }
        best
    }

    /// Batched [`DelayProfile::peak_power_from_csi_with`] straight from
    /// compact CSI rows: one peak tap power per lane of `rows`, which holds
    /// `lanes` CSI rows of one length lane-major (tap `i` of lane `l` at
    /// `i * lanes + l`, no padding), with
    /// `plan.len() == fft::padded_len(csi_len, min_taps)`.
    ///
    /// The transform does only the work the zero padding leaves: it skips
    /// the stages that only add padding zeros, reads its first live stage
    /// from `rows`, runs in chunks of 8 lanes (4 from 512 taps up) sized
    /// to a 32 KiB working set (`work`, reused), padding a short tail
    /// chunk with zero lanes, and folds the last two stages into the
    /// peaks without storing them (see the `pruned` module). CSI rows of
    /// at most four subcarriers, too short to prune, take
    /// [`DelayProfile::peak_power_from_csi_with`] lane by lane.
    ///
    /// Bit-identical per lane to the scalar path, ±0, subnormals,
    /// infinities and NaNs in the CSI included — except the payload where
    /// two different NaNs meet in one operation, which Rust leaves to the
    /// compiler in either path.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is zero, `rows` is empty or not a whole number
    /// of lane rows, or `plan.len()` is shorter than the CSI rows.
    pub fn peak_powers_from_csi_rows_with(
        plan: &FftPlan,
        rows: &SoaComplex,
        lanes: usize,
        work: &mut SoaComplex,
        out: &mut Vec<f64>,
    ) {
        assert!(lanes > 0, "batch must have at least one lane");
        assert!(
            !rows.is_empty() && rows.len().is_multiple_of(lanes),
            "CSI rows must be a non-empty whole number of lane rows"
        );
        let csi_len = rows.len() / lanes;
        assert!(
            plan.len() >= csi_len,
            "padded plan must cover the CSI length"
        );
        out.clear();
        pruned::peaks(plan, rows, lanes, csi_len, work, out);
    }

    /// Number of delay taps.
    #[inline]
    pub fn len(&self) -> usize {
        self.powers.len()
    }

    /// Returns `true` when the profile has no taps (never, post-construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.powers.is_empty()
    }

    /// Delay spacing between taps, in seconds.
    #[inline]
    pub fn tap_spacing(&self) -> f64 {
        self.tap_spacing
    }

    /// Linear tap powers.
    #[inline]
    pub fn powers(&self) -> &[f64] {
        &self.powers
    }

    /// Tap at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn tap(&self, index: usize) -> Tap {
        Tap {
            index,
            delay: index as f64 * self.tap_spacing,
            power: self.powers[index],
        }
    }

    /// The maximum-power tap.
    ///
    /// This is the paper's PDP surrogate: "it is reasonable to assume that
    /// the [power of the direct path] is the highest among all the
    /// transmission paths. Hence, we can use the maximum power of the power
    /// delay profile to approximate PDP of each link" (§IV-A).
    pub fn peak(&self) -> Tap {
        let (index, _) = self
            .powers
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("profile is non-empty by construction");
        self.tap(index)
    }

    /// The first tap whose power exceeds `threshold × peak power`.
    ///
    /// A *first-path* detector: under LOS this coincides with the peak; under
    /// NLOS the first path is attenuated and arrives before stronger
    /// reflections, which is the dichotomy Fig. 3 of the paper illustrates.
    pub fn first_path(&self, threshold: f64) -> Tap {
        let peak_power = self.peak().power;
        let cut = peak_power * threshold;
        for (i, &p) in self.powers.iter().enumerate() {
            if p >= cut {
                return self.tap(i);
            }
        }
        self.peak()
    }

    /// Total received power (sum of all taps).
    pub fn total_power(&self) -> f64 {
        self.powers.iter().sum()
    }

    /// Mean excess delay: the power-weighted mean tap delay.
    pub fn mean_excess_delay(&self) -> f64 {
        let total = self.total_power();
        if total <= 0.0 {
            return 0.0;
        }
        self.powers
            .iter()
            .enumerate()
            .map(|(i, &p)| i as f64 * self.tap_spacing * p)
            .sum::<f64>()
            / total
    }

    /// RMS delay spread: the power-weighted standard deviation of tap delay.
    ///
    /// A standard channel dispersion metric; large values indicate rich
    /// multipath, the regime where RSS-based localization breaks down.
    pub fn rms_delay_spread(&self) -> f64 {
        let total = self.total_power();
        if total <= 0.0 {
            return 0.0;
        }
        let mean = self.mean_excess_delay();
        let second: f64 = self
            .powers
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let d = i as f64 * self.tap_spacing;
                d * d * p
            })
            .sum::<f64>()
            / total;
        (second - mean * mean).max(0.0).sqrt()
    }

    /// Rician K-factor estimate: peak power over the summed power of all
    /// other taps, in linear scale. Larger means more LOS-dominated.
    pub fn k_factor(&self) -> f64 {
        let peak = self.peak().power;
        let rest = self.total_power() - peak;
        if rest <= 0.0 {
            f64::INFINITY
        } else {
            peak / rest
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn two_path_csi(n: usize, bw: f64, d1: f64, a1: f64, d2: f64, a2: f64) -> Vec<Complex> {
        (0..n)
            .map(|k| {
                let f = k as f64 * bw / n as f64;
                Complex::cis(-2.0 * PI * f * d1).scale(a1)
                    + Complex::cis(-2.0 * PI * f * d2).scale(a2)
            })
            .collect()
    }

    #[test]
    fn from_csi_with_matches_from_csi() {
        let bw = 20e6;
        let mut scratch = vec![Complex::new(7.0, -7.0); 5]; // dirty, wrong size
        for (n, min_taps) in [(30usize, 256usize), (30, 64), (16, 16), (56, 128)] {
            let csi = two_path_csi(n, bw, 80e-9, 1.0, 350e-9, 0.5);
            let direct = DelayProfile::from_csi(&csi, bw, min_taps);
            let reused = DelayProfile::from_csi_with(&csi, bw, min_taps, &mut scratch);
            // Bit-identical, not just approximately equal.
            assert_eq!(reused, direct, "n={n} min_taps={min_taps}");
        }
    }

    #[test]
    fn peak_power_from_csi_with_matches_profile_peak() {
        let bw = 20e6;
        let mut scratch = vec![Complex::new(3.0, 3.0); 9]; // dirty, wrong size
        for (n, min_taps) in [(30usize, 256usize), (30, 64), (16, 16), (56, 128), (1, 1)] {
            let csi = two_path_csi(n, bw, 80e-9, 1.0, 350e-9, 0.5);
            let profile = DelayProfile::from_csi(&csi, bw, min_taps);
            let fused = DelayProfile::peak_power_from_csi_with(&csi, bw, min_taps, &mut scratch);
            // Value-identical: same powers, same tie-break order.
            assert_eq!(fused, profile.peak().power, "n={n} min_taps={min_taps}");
        }
    }

    #[test]
    fn from_cir_powers() {
        let cir = vec![
            Complex::new(2.0, 0.0),
            Complex::new(0.0, 1.0),
            Complex::ZERO,
        ];
        let p = DelayProfile::from_cir(&cir, 50e-9);
        assert_eq!(p.len(), 3);
        assert_eq!(p.powers(), &[4.0, 1.0, 0.0]);
        assert_eq!(p.peak().index, 0);
        assert!((p.tap(1).delay - 50e-9).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "CIR must not be empty")]
    fn from_cir_rejects_empty() {
        let _ = DelayProfile::from_cir(&[], 1.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn from_csi_rejects_bad_bandwidth() {
        let _ = DelayProfile::from_csi(&[Complex::ONE], 0.0, 8);
    }

    #[test]
    fn flat_spectrum_is_single_tap() {
        let csi = vec![Complex::ONE; 30];
        let p = DelayProfile::from_csi(&csi, 20e6, 64);
        assert_eq!(p.peak().index, 0);
        // Zero-padding a rectangular spectrum smears the impulse into a
        // Dirichlet main lobe; the lobe (peak ± 3 taps, with wrap-around)
        // still holds the bulk of the energy.
        let n = p.len();
        let lobe: f64 = (-3i64..=3)
            .map(|d| p.powers()[((d.rem_euclid(n as i64)) as usize) % n])
            .sum();
        assert!(lobe / p.total_power() > 0.8, "lobe fraction too small");
    }

    #[test]
    fn delayed_path_peaks_at_its_delay() {
        let bw = 20e6;
        let n = 30;
        let delay = 300e-9; // 300 ns
        let csi: Vec<Complex> = (0..n)
            .map(|k| Complex::cis(-2.0 * PI * (k as f64 * bw / n as f64) * delay))
            .collect();
        let p = DelayProfile::from_csi(&csi, bw, 256);
        let peak = p.peak();
        assert!(
            (peak.delay - delay).abs() < 2.0 * p.tap_spacing(),
            "peak at {} s, expected {} s",
            peak.delay,
            delay
        );
    }

    #[test]
    fn stronger_path_wins_peak() {
        let bw = 20e6;
        // Direct path at 50 ns with amplitude 1.0; reflection at 400 ns, 0.4.
        let csi = two_path_csi(30, bw, 50e-9, 1.0, 400e-9, 0.4);
        let p = DelayProfile::from_csi(&csi, bw, 256);
        assert!((p.peak().delay - 50e-9).abs() < 2.0 * p.tap_spacing());
        // NLOS flips the strengths: the late path now wins the max.
        let csi = two_path_csi(30, bw, 50e-9, 0.2, 400e-9, 0.8);
        let p = DelayProfile::from_csi(&csi, bw, 256);
        assert!((p.peak().delay - 400e-9).abs() < 2.0 * p.tap_spacing());
    }

    #[test]
    fn first_path_detects_early_weak_tap() {
        let bw = 20e6;
        let csi = two_path_csi(30, bw, 50e-9, 0.5, 400e-9, 1.0);
        let p = DelayProfile::from_csi(&csi, bw, 256);
        let first = p.first_path(0.1);
        assert!(first.delay < 100e-9, "first path at {}", first.delay);
        assert!(p.peak().delay > 300e-9);
    }

    #[test]
    fn peak_power_scales_quadratically_with_amplitude() {
        let bw = 20e6;
        let weak = DelayProfile::from_csi(&two_path_csi(30, bw, 0.0, 1.0, 0.0, 0.0), bw, 128);
        let strong = DelayProfile::from_csi(&two_path_csi(30, bw, 0.0, 2.0, 0.0, 0.0), bw, 128);
        let ratio = strong.peak().power / weak.peak().power;
        assert!((ratio - 4.0).abs() < 1e-6, "ratio {ratio}");
    }

    #[test]
    fn peak_power_invariant_to_padding() {
        let bw = 20e6;
        // Delay window is 30/bw = 1.5 µs; 93.75 ns lands exactly on a tap
        // for both pad sizes (4/64 and 32/512 of the window), so the peak
        // sample sits on the true maximum and only the normalization is
        // under test.
        let csi = two_path_csi(30, bw, 93.75e-9, 1.0, 0.0, 0.0);
        let p64 = DelayProfile::from_csi(&csi, bw, 64);
        let p512 = DelayProfile::from_csi(&csi, bw, 512);
        let rel = (p64.peak().power - p512.peak().power).abs() / p64.peak().power;
        assert!(rel < 1e-9, "padding changed peak power by {rel}");
        // Off-grid delays suffer bounded scalloping: still within ~15 %.
        let csi = two_path_csi(30, bw, 100e-9, 1.0, 0.0, 0.0);
        let p256 = DelayProfile::from_csi(&csi, bw, 256);
        let p1024 = DelayProfile::from_csi(&csi, bw, 1024);
        let rel = (p256.peak().power - p1024.peak().power).abs() / p1024.peak().power;
        assert!(rel < 0.15, "off-grid scalloping too large: {rel}");
    }

    #[test]
    fn delay_spread_zero_for_single_path() {
        let cir = vec![Complex::ONE, Complex::ZERO, Complex::ZERO];
        let p = DelayProfile::from_cir(&cir, 50e-9);
        assert_eq!(p.rms_delay_spread(), 0.0);
        assert_eq!(p.mean_excess_delay(), 0.0);
    }

    #[test]
    fn delay_spread_positive_for_two_paths() {
        let cir = vec![Complex::ONE, Complex::ZERO, Complex::ONE];
        let p = DelayProfile::from_cir(&cir, 50e-9);
        assert!((p.mean_excess_delay() - 50e-9).abs() < 1e-15);
        assert!((p.rms_delay_spread() - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn k_factor_orders_los_vs_nlos() {
        let los = DelayProfile::from_cir(&[Complex::new(3.0, 0.0), Complex::new(0.5, 0.0)], 50e-9);
        let nlos = DelayProfile::from_cir(
            &[
                Complex::new(1.0, 0.0),
                Complex::new(0.9, 0.0),
                Complex::new(0.8, 0.0),
            ],
            50e-9,
        );
        assert!(los.k_factor() > nlos.k_factor());
        let pure = DelayProfile::from_cir(&[Complex::ONE], 50e-9);
        assert!(pure.k_factor().is_infinite());
    }
}
