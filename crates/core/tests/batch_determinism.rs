//! The batch entry points against lone requests.
//!
//! `LocalizationServer::process_batch` solves its requests on the calling
//! thread in index order. The pipeline is RNG-free, so a batch must return
//! exactly what one `process` call per request returns — to the last bit
//! of every coordinate — and must count as one batch in the
//! `PipelineStats` counters.

use nomloc_core::estimator::{EstimateError, LocationEstimate};
use nomloc_core::proximity::{ApSite, PdpReading};
use nomloc_core::scenario::Venue;
use nomloc_core::server::CsiReport;
use nomloc_core::LocalizationServer;
use nomloc_rfsim::{Environment, RadioConfig, SubcarrierGrid};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Splitmix finalizer: a reproducible per-(request, AP) draw.
fn mix(req: u64, i: u64) -> u64 {
    let mut z = (req + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic pseudo-random readings over the venue's static APs.
fn readings_for(venue: &Venue, n: usize) -> Vec<Vec<PdpReading>> {
    let aps = venue.static_deployment();
    (0..n as u64)
        .map(|req| {
            aps.iter()
                .enumerate()
                .map(|(i, &p)| {
                    let frac = (mix(req, i as u64) >> 11) as f64 / (1u64 << 53) as f64;
                    PdpReading::new(ApSite::fixed(i + 1, p), 1e-8 + 1e-5 * frac)
                })
                .collect()
        })
        .collect()
}

/// Simulated CSI bursts from the venue's test sites; every fifth request
/// carries empty bursts, which takes the boundary-only rung.
fn reports_for(venue: &Venue, n: usize) -> Vec<Vec<CsiReport>> {
    let env = Environment::new(venue.plan.clone(), RadioConfig::default());
    let grid = SubcarrierGrid::intel5300();
    let aps = venue.static_deployment();
    (0..n)
        .map(|r| {
            let mut rng = StdRng::seed_from_u64(mix(r as u64, 0));
            let object = venue.test_sites[r % venue.test_sites.len()];
            aps.iter()
                .enumerate()
                .map(|(i, &ap)| CsiReport {
                    site: ApSite::fixed(i + 1, ap),
                    burst: if r % 5 == 4 {
                        Vec::new()
                    } else {
                        env.sample_csi_burst(object, ap, &grid, 4, &mut rng)
                    },
                })
                .collect()
        })
        .collect()
}

/// Every float of an estimate as raw bits (stricter than `PartialEq`,
/// which lets `-0.0 == 0.0` slide), plus the rest of the struct.
fn bits(result: &Result<LocationEstimate, EstimateError>) -> Result<[u64; 4], EstimateError> {
    result.as_ref().map_err(Clone::clone).map(|e| {
        [
            e.position.x.to_bits(),
            e.position.y.to_bits(),
            e.relaxation_cost.to_bits(),
            e.region_area.to_bits(),
        ]
    })
}

#[test]
fn process_batch_equals_per_request_process_bit_for_bit() {
    for venue in [Venue::lab(), Venue::lobby()] {
        let server = LocalizationServer::new(venue.plan.boundary().clone());
        let requests = reports_for(&venue, 10);

        let batch = server.process_batch(&requests);
        assert_eq!(
            server.stats_snapshot().counters.batches_dispatched,
            1,
            "{}: one process_batch call is one batch",
            venue.name
        );
        let lone: Vec<_> = requests.iter().map(|r| server.process(r)).collect();
        assert_eq!(
            server.stats_snapshot().counters.batches_dispatched,
            1,
            "{}: lone requests form no batch",
            venue.name
        );

        assert_eq!(batch.len(), requests.len());
        assert!(batch.iter().all(|r| r.is_ok()), "{}", venue.name);
        for (i, (b, l)) in batch.iter().zip(&lone).enumerate() {
            assert_eq!(b, l, "{}: request {i}", venue.name);
            assert_eq!(bits(b), bits(l), "{}: request {i} bits", venue.name);
        }
    }
}

#[test]
fn repeated_batches_accumulate_counters_exactly() {
    let venue = Venue::lab();
    let server = LocalizationServer::new(venue.plan.boundary().clone());
    let requests = readings_for(&venue, 9);

    server.localize_batch(&requests);
    let once = server.stats_snapshot().counters;
    server.localize_batch(&requests);
    let twice = server.stats_snapshot().counters;

    assert_eq!(twice.requests, 2 * once.requests);
    assert_eq!(twice.judgements_formed, 2 * once.judgements_formed);
    assert_eq!(twice.constraints_generated, 2 * once.constraints_generated);
    assert_eq!(twice.simplex_iterations, 2 * once.simplex_iterations);
    assert_eq!(twice.batches_dispatched, 2 * once.batches_dispatched);

    server.reset_stats();
    assert_eq!(server.stats_snapshot().counters.requests, 0);
}
