//! Shared harness utilities for the figure-reproduction binaries.
//!
//! Each `repro_*` binary regenerates one figure of the NomLoc paper as a
//! plain-text table/series on stdout; this module holds the formatting and
//! the campaign presets shared across them so every figure is produced from
//! the same parameterization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nomloc_core::experiment::{Campaign, Deployment};
use nomloc_core::scenario::Venue;
use nomloc_dsp::stats::Ecdf;

/// Packets per AP site used by all figure campaigns (the paper collects
/// "thousands of packages at each site"; 60 medians out the same).
pub const PACKETS: usize = 60;

/// Independent trials per test site.
pub const TRIALS: usize = 8;

/// Markov-chain steps per nomadic round (enough to visit all four sites
/// with high probability).
pub const NOMADIC_STEPS: usize = 8;

/// Base RNG seed for all figures (override with the `NOMLOC_SEED`
/// environment variable to check seed-robustness of the trends).
pub const SEED: u64 = 2014;

/// The seed in effect: `NOMLOC_SEED` if set and parseable, else [`SEED`].
pub fn seed() -> u64 {
    std::env::var("NOMLOC_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SEED)
}

/// The standard campaign used in the figures, before per-figure tweaks.
pub fn standard_campaign(venue: Venue, deployment: Deployment) -> Campaign {
    Campaign::new(venue, deployment)
        .packets_per_site(PACKETS)
        .trials_per_site(TRIALS)
        .seed(seed())
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Prints an `(x, y)` series as two aligned columns.
pub fn print_series(x_label: &str, y_label: &str, series: &[(f64, f64)]) {
    println!("{x_label:>12}  {y_label:>12}");
    for (x, y) in series {
        println!("{x:>12.4}  {y:>12.4}");
    }
}

/// Prints a CDF as the `(error, probability)` staircase the paper plots.
pub fn print_cdf(label: &str, cdf: &Ecdf) {
    println!("--- CDF: {label} (n = {}) ---", cdf.len());
    print_series("error_m", "cdf", &cdf.series());
    println!(
        "mean = {:.2} m, median = {:.2} m, 90th = {:.2} m",
        cdf.mean(),
        cdf.quantile(0.5),
        cdf.quantile(0.9)
    );
}

/// Prints a labelled scalar row.
pub fn print_row(label: &str, value: f64) {
    println!("{label:<40} {value:>10.4}");
}

/// Whether quick-bench mode is on (`NOMLOC_BENCH_QUICK` set): the
/// criterion shim clamps its sampling budget and the paired min-of-rounds
/// loops shrink their round counts accordingly.
pub fn quick_mode() -> bool {
    std::env::var_os("NOMLOC_BENCH_QUICK").is_some()
}

/// `rounds` normally, a tenth of it (at least 10) under
/// [`quick_mode`].
pub fn rounds(rounds: usize) -> usize {
    if quick_mode() {
        (rounds / 10).max(10)
    } else {
        rounds
    }
}

/// LP-solver comparison harness shared by the `lp_scaling` bench and the
/// `bench_json` binary: the venue-shaped constraint generator, the
/// retained dense reference path staged the way the pre-workspace hot path
/// staged it, and a paired min-of-rounds timer.
pub mod lpcmp {
    use nomloc_geometry::{HalfPlane, Point, Polygon};
    use nomloc_lp::center::{self, CenterMethod};
    use nomloc_lp::relax::{relax_then_center, RelaxedCenter, WeightedConstraint, KEPT_SLACK_TOL};
    use nomloc_lp::simplex::{Program, SimplexWorkspace, Solution};
    use nomloc_lp::LpError;

    /// Builds the constraint set a venue with `n_sites` AP sites would
    /// generate: all pairwise bisectors around a ring, plus the bounding
    /// box as high-weight constraints. Returns the constraints, the number
    /// of bisector (candidate) constraints, and the bounds.
    pub fn constraint_set(n_sites: usize) -> (Vec<WeightedConstraint>, usize, Polygon) {
        let bounds = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(20.0, 20.0));
        let sites: Vec<Point> = (0..n_sites)
            .map(|i| {
                let a = i as f64 / n_sites as f64 * std::f64::consts::TAU;
                Point::new(10.0 + 8.0 * a.cos(), 10.0 + 8.0 * a.sin())
            })
            .collect();
        let object = Point::new(6.0, 9.0);
        let mut cs = Vec::new();
        for i in 0..sites.len() {
            for j in (i + 1)..sites.len() {
                let (near, far) = if object.distance_sq(sites[i]) <= object.distance_sq(sites[j]) {
                    (sites[i], sites[j])
                } else {
                    (sites[j], sites[i])
                };
                cs.push(WeightedConstraint::new(
                    HalfPlane::closer_to(near, far),
                    0.8,
                ));
            }
        }
        let candidates = cs.len();
        for h in center::polygon_halfplanes(&bounds) {
            cs.push(WeightedConstraint::new(h, 1000.0));
        }
        (cs, candidates, bounds)
    }

    /// The Eq. 19 relaxation LP staged as a [`Program`] and solved by the
    /// retained dense reference path ([`Program::solve_reference`]): the
    /// pre-rewrite hot path — free variables split as `x = x⁺ − x⁻`, a
    /// fresh `Vec<Vec<f64>>` tableau per solve — used as the baseline side
    /// of the speedup measurements.
    ///
    /// # Panics
    ///
    /// Panics when the reference solver fails; the relaxation LP is always
    /// feasible and bounded.
    pub fn relax_reference(cs: &[WeightedConstraint]) -> Solution {
        let n = 2 + cs.len();
        let mut p = Program::new(n);
        for (i, c) in cs.iter().enumerate() {
            p.set_objective(2 + i, c.weight);
            p.set_nonneg(2 + i);
            let mut row = vec![0.0; n];
            row[0] = c.halfplane.a.x;
            row[1] = c.halfplane.a.y;
            row[2 + i] = -1.0;
            p.add_le(row, c.halfplane.b);
        }
        p.solve_reference()
            .expect("relaxation LP is always solvable")
    }

    /// The Chebyshev-center LP over `halfplanes ∪ edges` solved cold by
    /// the reference path — the second LP of the pre-rewrite pipeline.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`] when the region is empty.
    pub fn chebyshev_reference(
        halfplanes: &[HalfPlane],
        edges: &[HalfPlane],
    ) -> Result<Point, LpError> {
        let mut p = Program::new(3);
        p.set_objective(2, -1.0);
        p.set_nonneg(2);
        for h in halfplanes.iter().chain(edges) {
            let norm = h.a.norm();
            if norm < 1e-12 {
                if h.b < -1e-9 {
                    return Err(LpError::Infeasible);
                }
                continue;
            }
            p.add_le(vec![h.a.x, h.a.y, norm], h.b);
        }
        let s = p.solve_reference()?;
        if s.x[2] < -1e-9 {
            return Err(LpError::Infeasible);
        }
        Ok(Point::new(s.x[0], s.x[1]))
    }

    /// The full pre-rewrite relax→center pipeline on the reference solver:
    /// relaxation, keep-filtering at [`KEPT_SLACK_TOL`], then a cold
    /// Chebyshev solve. Mirrors what [`relax_then_center`] does through
    /// the workspace.
    pub fn relax_then_center_reference(
        cs: &[WeightedConstraint],
        candidates: usize,
        edges: &[HalfPlane],
    ) -> Option<Point> {
        let s = relax_reference(cs);
        let kept: Vec<HalfPlane> = cs[..candidates.min(cs.len())]
            .iter()
            .enumerate()
            .filter(|&(i, _)| s.x[2 + i].max(0.0) <= KEPT_SLACK_TOL)
            .map(|(_, c)| c.halfplane)
            .collect();
        chebyshev_reference(&kept, edges).ok()
    }

    /// The workspace-path counterpart of
    /// [`relax_then_center_reference`].
    ///
    /// # Panics
    ///
    /// Panics when the relaxation fails (it cannot for well-formed input).
    pub fn relax_then_center_workspace(
        ws: &mut SimplexWorkspace,
        cs: &[WeightedConstraint],
        candidates: usize,
        bounds: &Polygon,
        edges: &[HalfPlane],
    ) -> RelaxedCenter {
        relax_then_center(ws, cs, candidates, bounds, edges, CenterMethod::Chebyshev)
            .expect("relaxation LP is always solvable")
    }

    /// Paired min-of-rounds timing: alternates one pass of `a` and one of
    /// `b` per round so slow drift (thermal, scheduler) hits both sides
    /// equally, then returns `(min_a_ns, min_b_ns)` over all rounds. Each
    /// pass runs `iters` iterations and is normalized to ns per iteration.
    pub fn paired_min_ns(
        rounds: usize,
        iters: usize,
        a: impl FnMut(),
        b: impl FnMut(),
    ) -> (f64, f64) {
        let (best_a, best_b, _) = paired_ns(rounds, iters, a, b);
        (best_a, best_b)
    }

    /// [`paired_min_ns`], plus the median over rounds of `a`'s pass time
    /// over `b`'s: each such ratio compares two passes run back to back,
    /// so a slow spell of the host lifts both of its sides, and the median
    /// drops the rounds a stall split. Returns `(min_a_ns, min_b_ns,
    /// median_ratio)`.
    pub fn paired_ns(
        rounds: usize,
        iters: usize,
        mut a: impl FnMut(),
        mut b: impl FnMut(),
    ) -> (f64, f64, f64) {
        let iters = iters.max(1);
        let mut best_a = f64::INFINITY;
        let mut best_b = f64::INFINITY;
        let mut ratios = Vec::with_capacity(rounds.max(1));
        for _ in 0..rounds.max(1) {
            let t = std::time::Instant::now();
            for _ in 0..iters {
                a();
            }
            let a_ns = t.elapsed().as_nanos() as f64 / iters as f64;

            let t = std::time::Instant::now();
            for _ in 0..iters {
                b();
            }
            let b_ns = t.elapsed().as_nanos() as f64 / iters as f64;
            best_a = best_a.min(a_ns);
            best_b = best_b.min(b_ns);
            ratios.push(a_ns / b_ns);
        }
        let ratio = nomloc_dsp::stats::median_in_place(&mut ratios).expect("at least one round");
        (best_a, best_b, ratio)
    }
}

/// Synthetic serving workloads shared by the `serving_throughput` bench
/// and the `bench_json` binary.
pub mod serving {
    use nomloc_core::proximity::{ApSite, PdpReading};
    use nomloc_core::scenario::Venue;

    /// Deterministic synthetic PDP requests over the venue's static APs:
    /// the reading magnitudes vary per request via a splitmix stream, so
    /// every request solves a slightly different LP.
    pub fn requests_for(venue: &Venue, n: usize) -> Vec<Vec<PdpReading>> {
        let aps = venue.static_deployment();
        let mut z = 0x2014_u64;
        (0..n)
            .map(|_| {
                aps.iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                        let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
                        PdpReading::new(ApSite::fixed(i + 1, p), 1e-7 + 1e-5 * frac)
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomloc_core::experiment::Deployment;

    #[test]
    fn standard_campaign_constructs() {
        let c = standard_campaign(Venue::lab(), Deployment::Static);
        assert_eq!(c.venue().name, "Lab");
    }

    #[test]
    fn printers_do_not_panic() {
        header("test");
        print_series("x", "y", &[(1.0, 2.0)]);
        print_row("row", 1.0);
        let cdf = Ecdf::new(vec![1.0, 2.0]).unwrap();
        print_cdf("test", &cdf);
    }
}
