//! The NomLoc localization server (Fig. 2).
//!
//! The server is the third tier of the architecture: APs (static and
//! nomadic) forward CSI bursts for the object's probe packets together with
//! their own reported coordinates; the server extracts per-link PDPs, forms
//! pairwise proximity judgements, and runs the SP estimator.
//!
//! Serving-scale features on top of the paper pipeline:
//!
//! * the venue geometry (convex decomposition + boundary constraints) is
//!   precomputed once into a [`VenueCache`] at construction, so per-query
//!   work touches only the reading-dependent constraints;
//! * [`LocalizationServer::localize_batch`] / `process_batch` solve a
//!   batch on the calling thread, in index order, and count it once in
//!   the batch statistics — serving parallelism comes from the daemon's
//!   event loops and batchers, each of which solves whole batches;
//! * a [`PipelineStats`] layer counts stage work and latency, exposed via
//!   [`LocalizationServer::stats_snapshot`].

use crate::cache::VenueCache;
use crate::confidence::{Confidence, PaperExp};
use crate::estimator::{
    EstimateError, EstimateQuality, FailureCause, LocationEstimate, SpEstimator,
};
use crate::pdp::{PdpEstimator, PdpScratch};
use crate::proximity::{judge_all_pairs, ApSite, PdpReading, ProximityJudgement};
use crate::stats::{PipelineStats, StatsSnapshot};
use nomloc_geometry::{Point, Polygon};
use nomloc_lp::center::CenterMethod;
use nomloc_rfsim::CsiSnapshot;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// A CSI report from one AP site: the burst of snapshots it captured for
/// the object's probe packets, tagged with the site's reported coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct CsiReport {
    /// The reporting AP site (reported position, not necessarily truth).
    pub site: ApSite,
    /// CSI snapshots, one per captured packet.
    pub burst: Vec<CsiSnapshot>,
}

/// The NomLoc localization server.
///
/// # Example
///
/// ```
/// use nomloc_core::{ApSite, LocalizationServer, PdpReading};
/// use nomloc_geometry::{Point, Polygon};
///
/// let area = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
/// let server = LocalizationServer::new(area);
/// let readings = vec![
///     PdpReading::new(ApSite::fixed(1, Point::new(1.0, 1.0)), 1.0e-6),
///     PdpReading::new(ApSite::fixed(2, Point::new(9.0, 1.0)), 2.0e-7),
///     PdpReading::new(ApSite::fixed(3, Point::new(5.0, 9.0)), 4.0e-7),
/// ];
/// let estimate = server.localize(&readings)?;
/// // Strongest PDP at AP 1 pulls the estimate into its corner.
/// assert!(estimate.position.x < 5.0 && estimate.position.y < 6.0);
/// # Ok::<(), nomloc_core::estimator::EstimateError>(())
/// ```
pub struct LocalizationServer {
    cache: VenueCache,
    pdp: PdpEstimator,
    confidence: Box<dyn Confidence + Send + Sync>,
    estimator: SpEstimator,
    degrade: bool,
    stats: Arc<PipelineStats>,
}

impl std::fmt::Debug for LocalizationServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalizationServer")
            .field("area", self.cache.area())
            .field("pdp", &self.pdp)
            .field("estimator", &self.estimator)
            .finish_non_exhaustive()
    }
}

impl LocalizationServer {
    /// Creates a server for the given area of interest with default
    /// components (paper confidence function, Chebyshev center).
    ///
    /// The venue geometry is decomposed and its boundary constraints
    /// precomputed here, once.
    pub fn new(area: Polygon) -> Self {
        LocalizationServer {
            cache: VenueCache::new(area),
            pdp: PdpEstimator::default(),
            confidence: Box::new(PaperExp),
            estimator: SpEstimator::default(),
            degrade: true,
            stats: Arc::new(PipelineStats::new()),
        }
    }

    /// Shares a [`PipelineStats`] instance with this server. The
    /// multi-venue registry hands every venue server the same instance so
    /// aggregate serving counters (batches, queue depth, reply encoding)
    /// stay global while per-venue breakdowns live in the registry.
    pub fn with_stats(mut self, stats: Arc<PipelineStats>) -> Self {
        self.stats = stats;
        self
    }

    /// Replaces the confidence function.
    pub fn with_confidence<C>(mut self, confidence: C) -> Self
    where
        C: Confidence + Send + Sync + 'static,
    {
        self.confidence = Box::new(confidence);
        self
    }

    /// Sets the center method of the SP estimator.
    pub fn with_center_method(mut self, method: CenterMethod) -> Self {
        self.estimator = self.estimator.with_center_method(method);
        self
    }

    /// Replaces the PDP estimator configuration.
    pub fn with_pdp_estimator(mut self, pdp: PdpEstimator) -> Self {
        self.pdp = pdp;
        self
    }

    // No-op kept for loadbench's `workload.rs`; goes with the benchmark's next change.
    #[doc(hidden)]
    pub fn with_workers(self, _: usize) -> Self {
        self
    }

    /// Enables or disables the graceful-degradation ladder (on by
    /// default). With degradation off the server is *strict*: requests the
    /// full pipeline cannot answer return a typed [`EstimateError`] instead
    /// of a lower-[`EstimateQuality`] estimate.
    pub fn with_degradation(mut self, degrade: bool) -> Self {
        self.degrade = degrade;
        self
    }

    /// The area of interest.
    pub fn area(&self) -> &Polygon {
        self.cache.area()
    }

    /// The precomputed venue geometry.
    pub fn venue_cache(&self) -> &VenueCache {
        &self.cache
    }

    /// The live pipeline counters.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// A shared handle to the live pipeline counters — clone this into
    /// [`LocalizationServer::with_stats`] to make several servers record
    /// into one aggregate instance.
    pub fn stats_arc(&self) -> Arc<PipelineStats> {
        Arc::clone(&self.stats)
    }

    /// Plain-data copy of the current pipeline counters and latency
    /// histograms.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Zeroes the pipeline counters and histograms.
    pub fn reset_stats(&self) {
        self.stats.reset()
    }

    /// Extracts PDP readings from raw CSI reports, skipping empty bursts.
    ///
    /// PDP extraction runs against a thread-local [`PdpScratch`], so a
    /// long-lived serving thread (a daemon event loop or batcher, or any
    /// caller of the batch entry points) processes request after
    /// request with zero steady-state allocation in the DSP front-end.
    /// All bursts of a request are handed to the estimator together
    /// ([`PdpEstimator::pdp_of_bursts_with`]) so their snapshots share
    /// lockstep batched IFFT dispatches across report boundaries.
    pub fn extract_readings(&self, reports: &[CsiReport]) -> Vec<PdpReading> {
        thread_local! {
            static PDP_SCRATCH: RefCell<PdpScratch> = RefCell::new(PdpScratch::new());
            static BURST_REFS: RefCell<Vec<Option<f64>>> = const { RefCell::new(Vec::new()) };
        }
        let start = Instant::now();
        let readings: Vec<PdpReading> = PDP_SCRATCH.with(|scratch| {
            BURST_REFS.with(|pdps| {
                let scratch = &mut *scratch.borrow_mut();
                let pdps = &mut *pdps.borrow_mut();
                let bursts: Vec<&[CsiSnapshot]> =
                    reports.iter().map(|r| r.burst.as_slice()).collect();
                self.pdp.pdp_of_bursts_with(&bursts, scratch, pdps);
                reports
                    .iter()
                    .zip(pdps.iter())
                    .filter_map(|(r, pdp)| {
                        // try_new (not new): a non-finite PDP or site
                        // position from a hostile report must drop the
                        // reading, never panic.
                        PdpReading::try_new(r.site, (*pdp)?).ok()
                    })
                    .collect()
            })
        });
        self.stats
            .record_extract(reports.len() as u64, readings.len() as u64, start.elapsed());
        readings
    }

    /// Forms all pairwise proximity judgements from readings.
    pub fn judge(&self, readings: &[PdpReading]) -> Vec<ProximityJudgement> {
        let start = Instant::now();
        let judgements = judge_all_pairs(readings, &JudgeAdapter(self.confidence.as_ref()));
        self.stats
            .record_judge(judgements.len() as u64, start.elapsed());
        judgements
    }

    /// Localizes the object from PDP readings.
    ///
    /// Non-finite readings (NaN/Inf PDP or site position — possible when
    /// callers build [`PdpReading`] structs directly from untrusted input)
    /// are filtered out and counted, never solved. When the remaining
    /// pipeline cannot produce a full SP estimate the degradation ladder
    /// steps down — full estimate → site-constraints-only region →
    /// weighted centroid of visited sites — and the rung is reported in
    /// [`LocationEstimate::quality`]. Strict servers
    /// ([`LocalizationServer::with_degradation`]`(false)`) return the
    /// typed error instead.
    ///
    /// # Errors
    ///
    /// Forwards [`EstimateError`] from the SP estimator.
    pub fn localize(&self, readings: &[PdpReading]) -> Result<LocationEstimate, EstimateError> {
        let filtered: Vec<PdpReading>;
        let valid: &[PdpReading] = if readings.iter().all(reading_is_valid) {
            readings
        } else {
            filtered = readings.iter().copied().filter(reading_is_valid).collect();
            self.stats
                .record_invalid_readings((readings.len() - filtered.len()) as u64);
            self.stats.record_cause(FailureCause::InvalidInput);
            &filtered
        };
        let judgements = self.judge(valid);
        let start = Instant::now();
        let result = if valid.len() == 1 {
            // One reading forms no pairwise judgement: the full pipeline
            // has nothing to solve. Degrade straight to the centroid rung
            // (here, the single visited site) or refuse in strict mode.
            if self.degrade {
                self.stats
                    .record_cause(FailureCause::InsufficientJudgements);
                Ok(self.centroid_estimate(valid))
            } else {
                Err(EstimateError::InsufficientJudgements)
            }
        } else {
            match self.estimator.estimate_cached(&judgements, &self.cache) {
                Ok(est) => Ok(est),
                Err(err) if self.degrade => {
                    self.stats.record_cause(err.cause());
                    self.degrade_after_estimate_failure(valid, err)
                }
                Err(err) => Err(err),
            }
        };
        match &result {
            Ok(est) => {
                // LP rows built for this query: per convex piece, every
                // judgement constraint plus the piece's cached boundary.
                let constraints = self.cache.pieces().len() as u64 * judgements.len() as u64
                    + self.cache.n_boundary_constraints() as u64;
                self.stats.record_solve(
                    constraints,
                    est.lp_iterations,
                    est.warm_start_hits,
                    est.phase1_pivots_saved,
                    est.relaxation_cost > 1e-9,
                    est.quality,
                    start.elapsed(),
                );
            }
            Err(err) => self.stats.record_failure(err.cause(), start.elapsed()),
        }
        result
    }

    /// The ladder below a failed full-quality solve: re-solve with the
    /// venue boundary constraints only (the [`EstimateQuality::Region`]
    /// rung), and if even that fails fall to the weighted centroid of the
    /// visited sites. The original error is returned only when no rung is
    /// usable.
    fn degrade_after_estimate_failure(
        &self,
        valid: &[PdpReading],
        err: EstimateError,
    ) -> Result<LocationEstimate, EstimateError> {
        if let Ok(region) = self.estimator.estimate_cached(&[], &self.cache) {
            return Ok(region);
        }
        if !valid.is_empty() {
            return Ok(self.centroid_estimate(valid));
        }
        Err(err)
    }

    /// The last rung: PDP-weighted centroid of the visited AP sites,
    /// clamped into the area. Well-defined for any non-empty set of valid
    /// readings (PDPs are strictly positive) and LP-free, so it cannot
    /// fail.
    fn centroid_estimate(&self, valid: &[PdpReading]) -> LocationEstimate {
        let total: f64 = valid.iter().map(|r| r.pdp).sum();
        let mut x = 0.0;
        let mut y = 0.0;
        for r in valid {
            x += r.site.position.x * r.pdp;
            y += r.site.position.y * r.pdp;
        }
        let position = self
            .cache
            .area()
            .clamp_point(Point::new(x / total, y / total));
        LocationEstimate {
            position,
            relaxation_cost: 0.0,
            region_area: 0.0,
            n_constraints: 0,
            n_winning_pieces: 0,
            lp_iterations: 0,
            warm_start_hits: 0,
            phase1_pivots_saved: 0,
            quality: EstimateQuality::Centroid,
        }
    }

    /// Full pipeline: CSI reports → PDPs → judgements → estimate.
    ///
    /// # Errors
    ///
    /// Forwards [`EstimateError`] from the SP estimator.
    pub fn process(&self, reports: &[CsiReport]) -> Result<LocationEstimate, EstimateError> {
        let readings = self.extract_readings(reports);
        self.localize(&readings)
    }

    /// Localizes a batch of independent requests on the calling thread:
    /// request `i` produces `results[i]`, bit-identical to a lone
    /// [`LocalizationServer::localize`] call (the pipeline is RNG-free).
    pub fn localize_batch(
        &self,
        requests: &[Vec<PdpReading>],
    ) -> Vec<Result<LocationEstimate, EstimateError>> {
        self.run_batch(requests.len(), |i| self.localize(&requests[i]))
    }

    /// Runs the full pipeline over a batch of raw CSI report sets, like
    /// [`LocalizationServer::localize_batch`] does for readings.
    pub fn process_batch(
        &self,
        requests: &[Vec<CsiReport>],
    ) -> Vec<Result<LocationEstimate, EstimateError>> {
        self.run_batch(requests.len(), |i| self.process(&requests[i]))
    }

    /// Counts one batch of `n` requests, then runs `job` over `0..n` in
    /// index order.
    fn run_batch<T>(&self, n: usize, job: impl FnMut(usize) -> T) -> Vec<T> {
        if n > 0 {
            self.stats.record_batch(n as u64);
        }
        (0..n).map(job).collect()
    }
}

/// A reading the pipeline can safely solve: finite positive PDP at a
/// finite site position.
fn reading_is_valid(r: &PdpReading) -> bool {
    r.pdp > 0.0
        && r.pdp.is_finite()
        && r.site.position.x.is_finite()
        && r.site.position.y.is_finite()
}

/// Adapter so a `&dyn Confidence` can be passed where `impl Confidence` is
/// expected.
struct JudgeAdapter<'a>(&'a (dyn Confidence + Send + Sync));

impl Confidence for JudgeAdapter<'_> {
    fn confidence(&self, x: f64) -> f64 {
        self.0.confidence(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::HardDecision;
    use nomloc_geometry::Point;
    use nomloc_rfsim::{Environment, FloorPlan, RadioConfig, SubcarrierGrid};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn square() -> Polygon {
        Polygon::rectangle(Point::new(0.0, 0.0), Point::new(12.0, 12.0))
    }

    fn reading(ap: usize, x: f64, y: f64, pdp: f64) -> PdpReading {
        PdpReading::new(ApSite::fixed(ap, Point::new(x, y)), pdp)
    }

    #[test]
    fn localize_pulls_toward_strong_pdp() {
        let server = LocalizationServer::new(square());
        let readings = vec![
            reading(1, 1.0, 1.0, 1e-5),
            reading(2, 11.0, 1.0, 1e-7),
            reading(3, 11.0, 11.0, 1e-7),
            reading(4, 1.0, 11.0, 1e-6),
        ];
        let est = server.localize(&readings).unwrap();
        // AP1's corner.
        assert!(
            est.position.x < 6.0 && est.position.y < 6.0,
            "{}",
            est.position
        );
    }

    #[test]
    fn judgement_count() {
        let server = LocalizationServer::new(square());
        let readings: Vec<PdpReading> = (0..4)
            .map(|i| reading(i, i as f64, 0.0, 1e-6 * (i + 1) as f64))
            .collect();
        assert_eq!(server.judge(&readings).len(), 6);
    }

    #[test]
    fn empty_readings_give_area_center() {
        let server = LocalizationServer::new(square());
        let est = server.localize(&[]).unwrap();
        assert!(est.position.distance(Point::new(6.0, 6.0)) < 1e-3);
    }

    #[test]
    fn confidence_swap_changes_weights() {
        let soft = LocalizationServer::new(square());
        let hard = LocalizationServer::new(square()).with_confidence(HardDecision);
        let readings = vec![reading(0, 1.0, 1.0, 2e-6), reading(1, 11.0, 11.0, 1e-6)];
        let js_soft = soft.judge(&readings);
        let js_hard = hard.judge(&readings);
        assert!(js_soft[0].weight < 1.0);
        assert_eq!(js_hard[0].weight, 1.0);
    }

    #[test]
    fn process_end_to_end_with_simulated_csi() {
        let plan = FloorPlan::builder(square()).build();
        let env = Environment::new(plan, RadioConfig::default());
        let server = LocalizationServer::new(square());
        let grid = SubcarrierGrid::intel5300();
        let mut rng = StdRng::seed_from_u64(17);

        let aps = [
            Point::new(1.0, 1.0),
            Point::new(11.0, 1.0),
            Point::new(11.0, 11.0),
            Point::new(1.0, 11.0),
        ];
        let object = Point::new(3.5, 4.0);
        let reports: Vec<CsiReport> = aps
            .iter()
            .enumerate()
            .map(|(i, &ap)| CsiReport {
                site: ApSite::fixed(i + 1, ap),
                burst: env.sample_csi_burst(object, ap, &grid, 30, &mut rng),
            })
            .collect();
        let est = server.process(&reports).unwrap();
        assert!(
            est.position.distance(object) < 4.0,
            "open-room estimate {} vs truth {object}",
            est.position
        );
    }

    #[test]
    fn empty_bursts_are_skipped() {
        let server = LocalizationServer::new(square());
        let reports = vec![CsiReport {
            site: ApSite::fixed(1, Point::new(1.0, 1.0)),
            burst: vec![],
        }];
        assert!(server.extract_readings(&reports).is_empty());
        // Degenerates to the area center rather than failing.
        assert!(server.process(&reports).is_ok());
    }

    #[test]
    fn debug_is_nonempty() {
        let server = LocalizationServer::new(square());
        assert!(format!("{server:?}").contains("LocalizationServer"));
    }

    fn request(seed: u64) -> Vec<PdpReading> {
        // Deterministic pseudo-PDPs spread over four corner APs.
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..4)
            .map(|i| {
                x ^= x >> 27;
                x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
                let frac = (x >> 11) as f64 / (1u64 << 53) as f64;
                let corner = [(1.0, 1.0), (11.0, 1.0), (11.0, 11.0), (1.0, 11.0)][i];
                reading(i, corner.0, corner.1, 1e-7 + 1e-5 * frac)
            })
            .collect()
    }

    #[test]
    fn batch_matches_serial_loop() {
        let requests: Vec<Vec<PdpReading>> = (0..17).map(request).collect();
        let server = LocalizationServer::new(square());
        let batch = server.localize_batch(&requests);
        let serial: Vec<_> = requests.iter().map(|r| server.localize(r)).collect();
        assert_eq!(batch, serial);
    }

    #[test]
    fn empty_batch_is_fine() {
        let server = LocalizationServer::new(square());
        assert!(server.localize_batch(&[]).is_empty());
        assert!(server.process_batch(&[]).is_empty());
    }

    #[test]
    fn stats_count_requests_and_stages() {
        let server = LocalizationServer::new(square());
        let requests: Vec<Vec<PdpReading>> = (0..6).map(request).collect();
        let results = server.localize_batch(&requests);
        assert!(results.iter().all(|r| r.is_ok()));
        let c = server.stats_snapshot().counters;
        assert_eq!(c.requests, 6);
        assert_eq!(c.judgements_formed, 6 * 6); // C(4,2) judgements each
        assert!(c.simplex_iterations > 0);
        assert!(
            c.warm_start_hits > 0,
            "center LPs should warm-start from the relaxation witness"
        );
        assert_eq!(c.estimate_failures, 0);
        server.reset_stats();
        assert_eq!(server.stats_snapshot().counters.requests, 0);
    }

    #[test]
    fn full_quality_on_the_happy_path() {
        let server = LocalizationServer::new(square());
        let est = server.localize(&request(3)).unwrap();
        assert_eq!(est.quality, EstimateQuality::Full);
        let c = server.stats_snapshot().counters;
        assert_eq!(c.quality_full, 1);
        assert_eq!(c.quality_region + c.quality_centroid, 0);
    }

    #[test]
    fn empty_request_serves_the_region_rung() {
        let server = LocalizationServer::new(square());
        let est = server.localize(&[]).unwrap();
        assert_eq!(est.quality, EstimateQuality::Region);
        assert_eq!(server.stats_snapshot().counters.quality_region, 1);
    }

    #[test]
    fn single_reading_degrades_to_centroid() {
        let server = LocalizationServer::new(square());
        let est = server.localize(&[reading(1, 3.0, 4.0, 1e-6)]).unwrap();
        assert_eq!(est.quality, EstimateQuality::Centroid);
        // One site: the centroid is that site's position.
        assert!(est.position.distance(Point::new(3.0, 4.0)) < 1e-9);
        let c = server.stats_snapshot().counters;
        assert_eq!(c.quality_centroid, 1);
        assert_eq!(c.cause_insufficient_judgements, 1);
        assert_eq!(c.estimate_failures, 0, "degraded, not failed");
    }

    #[test]
    fn centroid_is_clamped_into_the_area() {
        // A nomadic site reporting coordinates outside the venue cannot
        // drag the centroid rung out of the area polygon.
        let server = LocalizationServer::new(square());
        let est = server.localize(&[reading(1, 40.0, -5.0, 1e-6)]).unwrap();
        assert_eq!(est.quality, EstimateQuality::Centroid);
        let area = square();
        assert!(
            area.contains(est.position) || area.distance_to_boundary(est.position) < 1e-6,
            "{} escaped",
            est.position
        );
    }

    #[test]
    fn strict_mode_returns_typed_errors() {
        let server = LocalizationServer::new(square()).with_degradation(false);
        let err = server.localize(&[reading(1, 3.0, 4.0, 1e-6)]).unwrap_err();
        assert_eq!(err, EstimateError::InsufficientJudgements);
        let c = server.stats_snapshot().counters;
        assert_eq!(c.estimate_failures, 1);
        assert_eq!(c.cause_insufficient_judgements, 1);
    }

    #[test]
    fn invalid_readings_are_filtered_not_panicked() {
        let server = LocalizationServer::new(square());
        // Struct-literal readings bypass try_new — exactly what hostile
        // in-process callers could do. The server must filter, count, and
        // still answer from the valid remainder.
        let mut readings = request(5);
        readings.push(PdpReading {
            site: ApSite::fixed(9, Point::new(f64::NAN, 2.0)),
            pdp: 1e-6,
        });
        readings.push(PdpReading {
            site: ApSite::fixed(10, Point::new(1.0, 2.0)),
            pdp: f64::INFINITY,
        });
        let est = server.localize(&readings).unwrap();
        assert_eq!(est.quality, EstimateQuality::Full);
        let c = server.stats_snapshot().counters;
        assert_eq!(c.invalid_readings, 2);
        assert_eq!(c.cause_invalid_input, 1);
        // The valid four readings alone decide the estimate.
        let clean = server.localize(&request(5)).unwrap();
        assert_eq!(est, clean);
    }

    #[test]
    fn all_invalid_readings_degrade_to_region() {
        let server = LocalizationServer::new(square());
        let readings = vec![PdpReading {
            site: ApSite::fixed(1, Point::new(2.0, 2.0)),
            pdp: f64::NAN,
        }];
        let est = server.localize(&readings).unwrap();
        // Nothing valid survives: boundary-only region estimate.
        assert_eq!(est.quality, EstimateQuality::Region);
        assert!(est.position.distance(Point::new(6.0, 6.0)) < 1e-3);
    }

    #[test]
    fn servers_can_share_one_stats_instance() {
        let a = LocalizationServer::new(square());
        let b = LocalizationServer::new(square()).with_stats(a.stats_arc());
        a.localize(&request(1)).unwrap();
        b.localize(&request(2)).unwrap();
        // Both servers recorded into the same counters.
        assert_eq!(a.stats_snapshot().counters.requests, 2);
        assert_eq!(b.stats_snapshot().counters.requests, 2);
    }

    #[test]
    fn venue_cache_is_exposed() {
        let server = LocalizationServer::new(square());
        assert_eq!(server.venue_cache().pieces().len(), 1);
        assert_eq!(server.venue_cache().n_boundary_constraints(), 4);
    }
}
