//! Multi-venue serving tests: the registry lifecycle over real sockets.
//!
//! Three contracts from the venue-registry design are pinned here:
//!
//! 1. **Onboarding is exact.** A venue onboarded over the wire-v3 admin
//!    plane answers every locate request bit-identically to a daemon whose
//!    *resident* venue it is — and retiring then re-onboarding it rebuilds
//!    the same bits. The registry's cache construction from a `WireVenue`
//!    spec must therefore match in-process construction exactly.
//! 2. **Venues are isolated.** A chaos driver hammering one venue with
//!    the full fault zoo never degrades — or cross-wires — another
//!    venue's replies: the clean venue stays bit-identical to an
//!    in-process baseline throughout.
//! 3. **Eviction is invisible.** Under a memory budget too tight to keep
//!    every venue resident, LRU eviction and rebuild-on-next-request lose
//!    no requests and answer with the same bits a never-evicted daemon
//!    produces.

use nomloc_core::scenario::{fleet_venue, synthetic_workload, Venue};
use nomloc_core::server::CsiReport;
use nomloc_core::{ApSite, LocalizationServer};
use nomloc_faults::{FaultClass, FaultPlan};
use nomloc_net::wire::{
    read_frame, write_frame, ErrorReply, LocateRequest, LocateResponse, WireEstimate, WireReport,
    WireVenue,
};
use nomloc_net::{admin, chaos, spawn, ChaosConfig, DaemonConfig, ErrorCode, Frame};
use proptest::prelude::*;
use std::net::TcpStream;

fn resident_server(venue: &Venue) -> LocalizationServer {
    LocalizationServer::new(venue.plan.boundary().clone())
}

/// Sends one locate request for `venue_id` and reads its reply.
fn locate(
    stream: &mut TcpStream,
    request_id: u64,
    venue_id: u64,
    reports: &[CsiReport],
) -> LocateResponse {
    write_frame(
        stream,
        &Frame::LocateRequest(LocateRequest {
            request_id,
            deadline_us: 0,
            venue_id,
            session_id: 0,
            reports: reports.iter().map(WireReport::from_core).collect(),
        }),
    )
    .expect("send request");
    match read_frame(stream).expect("read reply") {
        Some(Frame::LocateResponse(resp)) => resp,
        other => panic!("expected LocateResponse, got {other:?}"),
    }
}

/// Canonical bytes of a reply's outcome — the bit-identity yardstick
/// (encoded, so NaN payload patterns are compared exactly too).
fn outcome_bytes(resp: &LocateResponse) -> Vec<u8> {
    nomloc_net::wire::frame_to_vec(&Frame::LocateResponse(resp.clone()))
}

proptest! {
    // Each case spawns two daemons and speaks to both over TCP, so a
    // handful of cases is plenty — the venue id and seed still vary the
    // geometry (all three plans, several scales) and the workload.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Contract 1: onboard → locate → retire → re-onboard → locate. Both
    /// locate passes must be bit-identical to a daemon born resident in
    /// that venue, and the retired window answers `UnknownVenue`.
    #[test]
    fn onboarded_venue_is_bit_identical_to_a_resident_daemon(
        seed in 0u64..1_000,
        venue_id in 1u64..7,
    ) {
        let venue = fleet_venue(venue_id);
        let (_, batch) = synthetic_workload(&venue, 2, 2, seed);

        // Reference: this venue as the resident venue (id 0).
        let reference = spawn(resident_server(&venue), DaemonConfig::default(), "127.0.0.1:0")
            .expect("spawn reference daemon");
        let mut ref_conn = TcpStream::connect(reference.local_addr()).expect("connect");
        let want: Vec<(u64, Vec<u8>)> = batch
            .iter()
            .enumerate()
            .map(|(i, reports)| {
                let resp = locate(&mut ref_conn, i as u64, 0, reports);
                (resp.request_id, outcome_bytes(&resp))
            })
            .collect();
        drop(ref_conn);
        reference.shutdown();

        // Subject: a lab-resident daemon that learns the venue over the
        // admin plane.
        let subject = spawn(resident_server(&Venue::lab()), DaemonConfig::default(), "127.0.0.1:0")
            .expect("spawn subject daemon");
        let addr = subject.local_addr();
        admin::onboard(addr, &WireVenue::from_venue(venue_id, &venue)).expect("onboard");
        let mut conn = TcpStream::connect(addr).expect("connect");
        for (i, reports) in batch.iter().enumerate() {
            let resp = locate(&mut conn, i as u64, venue_id, reports);
            prop_assert_eq!(
                (resp.request_id, outcome_bytes(&resp)),
                want[i].clone(),
                "request {} diverged after onboarding", i
            );
        }

        // The retired window: a typed UnknownVenue error, not silence.
        admin::retire(addr, venue_id).expect("retire");
        let resp = locate(&mut conn, 99, venue_id, &batch[0]);
        prop_assert!(
            matches!(&resp.outcome, Err(e) if e.code == ErrorCode::UnknownVenue),
            "retired venue answered {:?}", resp.outcome
        );

        // Re-onboarding rebuilds the exact same venue.
        admin::onboard(addr, &WireVenue::from_venue(venue_id, &venue)).expect("re-onboard");
        for (i, reports) in batch.iter().enumerate() {
            let resp = locate(&mut conn, i as u64, venue_id, reports);
            prop_assert_eq!(
                (resp.request_id, outcome_bytes(&resp)),
                want[i].clone(),
                "request {} diverged after re-onboarding", i
            );
        }
        drop(conn);
        subject.shutdown();
    }
}

/// Contract 2: a chaos driver running the full fault zoo against venue 1
/// never perturbs venue 2 — every concurrent clean-venue reply stays
/// bit-identical to an in-process fault-free baseline.
#[test]
fn faults_on_one_venue_never_degrade_another() {
    let plan = FaultPlan::uniform(7, 0.05);
    plan.validate().expect("valid plan");
    let chaos_venue = fleet_venue(1);
    let clean_venue = fleet_venue(2);

    let handle = spawn(
        resident_server(&Venue::lab()),
        DaemonConfig {
            fault_plan: Some(plan),
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");
    let addr = handle.local_addr();
    admin::onboard(addr, &WireVenue::from_venue(1, &chaos_venue)).expect("onboard chaos venue");
    admin::onboard(addr, &WireVenue::from_venue(2, &clean_venue)).expect("onboard clean venue");

    let (_, chaos_batch) = synthetic_workload(&chaos_venue, 60, 2, 7);
    let (_, clean_batch) = synthetic_workload(&clean_venue, 16, 2, 11);

    // The daemon-side fault plan keys on request ids, so the clean
    // driver picks ids the plan leaves untouched — any fault observed on
    // them would be leakage from the chaos venue.
    let clean_ids: Vec<u64> = (1_000u64..)
        .filter(|&id| plan.classify(id) == FaultClass::None)
        .take(clean_batch.len())
        .collect();

    // In-process fault-free baseline for the clean venue, built exactly
    // like the registry builds it.
    let baseline_server = resident_server(&clean_venue);
    let want: Vec<Vec<u8>> = clean_batch
        .iter()
        .zip(&clean_ids)
        .map(|(reports, &id)| {
            let outcome = match baseline_server.process(reports) {
                Ok(est) => Ok(WireEstimate::from_core(&est)),
                Err(e) => Err(ErrorReply {
                    code: ErrorCode::from_estimate_error(&e),
                    message: e.to_string(),
                }),
            };
            outcome_bytes(&LocateResponse {
                request_id: id,
                outcome,
            })
        })
        .collect();

    // Chaos hammers venue 1 on its own connections while the clean
    // driver interleaves venue-2 requests.
    let chaos_thread = std::thread::spawn(move || {
        let config = ChaosConfig {
            venue_id: 1,
            ..ChaosConfig::new(plan)
        };
        chaos::run(addr, &config, &chaos_batch).expect("chaos run completes")
    });
    let mut conn = TcpStream::connect(addr).expect("connect clean driver");
    for (reports, (&id, want_bytes)) in clean_batch.iter().zip(clean_ids.iter().zip(&want)) {
        let resp = locate(&mut conn, id, 2, reports);
        assert_eq!(resp.request_id, id, "reply cross-wired between venues");
        assert_eq!(
            outcome_bytes(&resp),
            *want_bytes,
            "clean venue degraded while venue 1 was under chaos"
        );
    }
    let report = chaos_thread.join().expect("chaos driver panicked");
    assert_eq!(report.outcomes.len(), 60, "chaos run lost requests");
    drop(conn);

    // The per-venue counters kept the two tenants apart.
    let health = handle.shutdown();
    let requests_of = |id: u64| {
        health
            .venues
            .iter()
            .find(|v| v.venue_id == id)
            .map(|v| v.requests)
            .unwrap_or(0)
    };
    assert_eq!(requests_of(2), 16, "clean venue request count");
    assert!(requests_of(1) > 0, "chaos venue never resolved");
}

/// Contract 3: with a budget that fits only one fleet venue at a time,
/// round-robin traffic forces constant evict/rebuild churn — yet every
/// request is answered and attributed to its venue.
#[test]
fn lru_eviction_under_tight_budget_loses_no_requests() {
    let resident = resident_server(&Venue::lab());
    let fleet_bytes = |id: u64| {
        LocalizationServer::new(fleet_venue(id).plan.boundary().clone())
            .venue_cache()
            .approx_bytes()
    };
    // Resident (never evicted) + the largest fleet cache + slack: at most
    // one of the three fleet venues can be resident at any moment.
    let budget =
        resident.venue_cache().approx_bytes() + (1..=3).map(fleet_bytes).max().unwrap() + 64;

    let handle = spawn(
        resident,
        DaemonConfig {
            venue_budget_bytes: budget,
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");
    let addr = handle.local_addr();
    for id in 1..=3u64 {
        admin::onboard(addr, &WireVenue::from_venue(id, &fleet_venue(id))).expect("onboard");
    }

    // Cheapest admissible request per venue: one empty-burst report, so
    // the solve is boundary-only and the test exercises churn, not DSP.
    let cheap = |id: u64| {
        let ap = fleet_venue(id).static_deployment()[0];
        vec![CsiReport {
            site: ApSite::fixed(1, ap),
            burst: Vec::new(),
        }]
    };

    const ROUNDS: u64 = 10;
    let mut conn = TcpStream::connect(addr).expect("connect");
    for round in 0..ROUNDS {
        for id in 1..=3u64 {
            let request_id = round * 3 + id;
            let resp = locate(&mut conn, request_id, id, &cheap(id));
            assert_eq!(resp.request_id, request_id);
            assert!(
                resp.outcome.is_ok(),
                "request {request_id} to venue {id} failed under eviction churn: {:?}",
                resp.outcome
            );
        }
    }
    drop(conn);

    let health = handle.shutdown();
    let venue = |id: u64| {
        health
            .venues
            .iter()
            .find(|v| v.venue_id == id)
            .unwrap_or_else(|| panic!("venue {id} missing from health"))
    };
    let total: u64 = (1..=3).map(|id| venue(id).requests).sum();
    assert_eq!(total, 3 * ROUNDS, "per-venue counters must sum to total");
    let evictions: u64 = (1..=3).map(|id| venue(id).cache_evictions).sum();
    let rebuilds: u64 = (1..=3).map(|id| venue(id).cache_rebuilds).sum();
    assert!(
        evictions > 0,
        "budget {budget} never forced an eviction: {:?}",
        health.venues
    );
    assert!(rebuilds > 0, "no rebuild ever served a request");
}
