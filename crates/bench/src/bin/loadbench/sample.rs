//! Seeded arrival schedules and the order statistics every metric is
//! reported with. The random stream is the workspace's seedable
//! `StdRng`, so one `--seed` always yields one schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives an independent stream seed for one phase of a run, so the
/// low and high phases of one seed do not replay the same gaps.
pub fn phase_seed(seed: u64, phase: u64) -> u64 {
    StdRng::seed_from_u64(seed ^ phase.wrapping_mul(0xA076_1D64_78BD_642F)).gen()
}

/// Poisson arrivals at `rate` per second over `seconds`: the send offsets
/// in nanoseconds from the phase start, ascending. Independent phones
/// make independent requests, so the gaps are exponential.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q·n` samples at or below it. `None` when empty.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank - 1])
}

/// Samples left beyond the `q` quantile — a percentile is reported only
/// with at least ten samples past it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Median of unordered values (mean of the middle two for even counts);
/// NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    nomloc_dsp::stats::median(values).unwrap_or(f64::NAN)
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so spreads printed here match the ones
/// recomputed from the result files with Python.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(500.0, 2.0, 7);
        let b = poisson_schedule(500.0, 2.0, 7);
        let c = poisson_schedule(500.0, 2.0, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 2_000_000_000);
        // ~1000 arrivals expected; a Poisson count stays well inside ±15%.
        assert!((850..1150).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn phase_seeds_differ_per_phase() {
        assert_ne!(phase_seed(2014, 1), phase_seed(2014, 2));
        assert_eq!(phase_seed(2014, 1), phase_seed(2014, 1));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5), Some(500));
        assert_eq!(quantile(&v, 0.99), Some(990));
        assert_eq!(quantile(&v, 1.0), Some(1000));
        assert_eq!(quantile(&v, 0.0), Some(1));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[42], 0.99), Some(42));
    }

    #[test]
    fn sample_counts_beyond_a_percentile() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(4000, 0.99), 40);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
