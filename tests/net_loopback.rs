//! End-to-end loopback test: a real daemon on `127.0.0.1:0`, the load
//! generator driving it over 4 parallel connections with ≥1k pipelined
//! requests, and a bit-exact comparison of every networked estimate
//! against an in-process `process_batch` run over the same workload.
//!
//! This is the protocol's determinism contract: `f64`s cross the wire as
//! raw bits and the pipeline is RNG-free, so serving over TCP must change
//! nothing — not even the low bit of a coordinate. This is the oracle
//! for the daemon's socket layer and dispatch plane.

use nomloc_core::scenario::Venue;
use nomloc_core::server::CsiReport;
use nomloc_core::{ApSite, LocalizationServer};
use nomloc_net::wire::WireEstimate;
use nomloc_net::{loadgen, spawn, DaemonConfig, ErrorCode, LoadgenConfig};
use nomloc_rfsim::{Environment, RadioConfig, SubcarrierGrid};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const REQUESTS: usize = 1000;
const CONNECTIONS: usize = 4;

/// Splitmix-derived per-request RNG (same discipline the CLI workload
/// generator uses), so the workload is reproducible request by request.
fn request_rng(seed: u64, request: usize) -> StdRng {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(request as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// A mixed workload: every 8th request carries real simulated CSI (the
/// expensive full pipeline); the rest carry empty bursts (the cheap
/// boundary-only solve). Mixing keeps a 1k-request debug run fast while
/// still exercising real estimates through the wire.
fn workload(venue: &Venue) -> Vec<Vec<CsiReport>> {
    let env = Environment::new(venue.plan.clone(), RadioConfig::default());
    let grid = SubcarrierGrid::intel5300();
    let aps = venue.static_deployment();
    (0..REQUESTS)
        .map(|r| {
            let mut rng = request_rng(2014, r);
            let object = venue.test_sites[r % venue.test_sites.len()];
            aps.iter()
                .enumerate()
                .map(|(i, &ap)| CsiReport {
                    site: ApSite::fixed(i + 1, ap),
                    burst: if r % 8 == 0 {
                        env.sample_csi_burst(object, ap, &grid, 1, &mut rng)
                    } else {
                        Vec::new()
                    },
                })
                .collect()
        })
        .collect()
}

/// The bit pattern of a wire estimate: equality here is *stronger* than
/// `PartialEq` (which would let `-0.0 == 0.0` slide).
fn estimate_bits(e: &WireEstimate) -> [u64; 9] {
    [
        e.x.to_bits(),
        e.y.to_bits(),
        e.relaxation_cost.to_bits(),
        e.region_area.to_bits(),
        e.n_constraints,
        e.n_winning_pieces,
        e.lp_iterations,
        e.warm_start_hits,
        e.phase1_pivots_saved,
    ]
}

mod loopback_loadgen_matches_in_process_bit_for_bit {
    /// The daemon's socket layer is the readiness-driven event loop.
    #[test]
    fn event_loop() {
        super::loopback_loadgen_matches_in_process_bit_for_bit();
    }
}

fn loopback_loadgen_matches_in_process_bit_for_bit() {
    let venue = Venue::lab();
    let batch = workload(&venue);

    // The reference run: a second server instance, same venue geometry,
    // solving the identical batch in this process.
    let reference = LocalizationServer::new(venue.plan.boundary().clone());
    let expected = reference.process_batch(&batch);

    let daemon_server = LocalizationServer::new(venue.plan.boundary().clone());
    let handle = spawn(daemon_server, DaemonConfig::default(), "127.0.0.1:0")
        .expect("spawn loopback daemon");

    let report = loadgen::run(
        handle.local_addr(),
        &LoadgenConfig {
            connections: CONNECTIONS,
            ..LoadgenConfig::default()
        },
        &batch,
    )
    .expect("loadgen run");

    assert_eq!(report.outcomes.len(), REQUESTS);
    // No admission pressure at these settings: nothing may be rejected.
    assert_eq!(report.error_count(ErrorCode::Overloaded), 0);
    assert_eq!(report.error_count(ErrorCode::Malformed), 0);
    assert_eq!(report.error_count(ErrorCode::DeadlineExceeded), 0);

    // Every networked outcome equals the in-process one — bit for bit for
    // estimates, error-code-for-error for failures.
    let mut compared_ok = 0usize;
    for (i, (outcome, expect)) in report.outcomes.iter().zip(&expected).enumerate() {
        match (&outcome.reply, expect) {
            (Ok(wire_est), Ok(core_est)) => {
                assert_eq!(
                    estimate_bits(wire_est),
                    estimate_bits(&WireEstimate::from_core(core_est)),
                    "request {i}: networked estimate differs from in-process"
                );
                compared_ok += 1;
            }
            (Err(reply), Err(_)) => {
                assert_eq!(
                    reply.code,
                    ErrorCode::EstimateFailed,
                    "request {i}: unexpected error code"
                );
            }
            (got, want) => {
                panic!("request {i}: networked {got:?} vs in-process {want:?}");
            }
        }
    }
    assert!(
        compared_ok > REQUESTS / 2,
        "too few successful estimates to be meaningful: {compared_ok}"
    );

    // Latency quantiles are reported and ordered.
    let p50 = report.latency_quantile(0.50);
    let p95 = report.latency_quantile(0.95);
    let p99 = report.latency_quantile(0.99);
    assert!(p50 > Duration::ZERO, "p50 must be positive");
    assert!(p50 <= p95 && p95 <= p99, "quantiles out of order");
    assert!(report.throughput_rps() > 0.0);

    // Clean drain: zero protocol errors, every request answered exactly
    // once, queue depth bounded by the configured capacity.
    let health = handle.shutdown();
    assert_eq!(health.protocol_errors, 0, "protocol errors: {health}");
    assert_eq!(
        health.requests_enqueued, REQUESTS as u64,
        "admission mismatch: {health}"
    );
    assert_eq!(
        health.requests_ok, compared_ok as u64,
        "ok-count mismatch: {health}"
    );
    assert!(health.queue_depth_peak <= 1024);
    assert!(health.batches_formed > 0);
    // Cross-connection coalescing actually happened: fewer batches than
    // requests means at least some micro-batch held more than one request.
    assert!(
        health.batches_formed < REQUESTS as u64,
        "no coalescing at all: {health}"
    );
}
