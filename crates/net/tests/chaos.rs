//! Chaos tests: the daemon keeps serving under every fault class, answers
//! every non-faulted request bit-identically to a fault-free in-process
//! run, answers every faulted request with the typed error or degraded
//! tier its class demands, and never permanently loses a batcher thread.
//!
//! All tests speak the real wire protocol against a real daemon on
//! `127.0.0.1:0`, with the same seeded [`FaultPlan`] held by the client,
//! the daemon, and the verifier.

use nomloc_core::localizability;
use nomloc_core::scenario::Venue;
use nomloc_core::server::CsiReport;
use nomloc_core::{ApSite, LocalizationServer};
use nomloc_faults::{FaultClass, FaultPlan};
use nomloc_geometry::Point;
use nomloc_net::chaos::{self, ChaosConfig};
use nomloc_net::sessions::{session_tracker, PREDICTED_ERROR_WIDENING, SESSION_TICK_SECONDS};
use nomloc_net::wire::{
    decode_frame, frame_to_vec, ErrorReply, LocateRequest, WireEstimate, WireReport, WireSnapshot,
};
use nomloc_net::{spawn, DaemonConfig, DaemonHandle, ErrorCode, Frame};
use nomloc_rfsim::{Environment, RadioConfig, SubcarrierGrid};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

fn lab_server() -> LocalizationServer {
    LocalizationServer::new(Venue::lab().plan.boundary().clone())
}

/// A realistic workload: each request carries one CSI report per static
/// AP, for a different test site per request.
fn workload(n: usize) -> Vec<Vec<CsiReport>> {
    let venue = Venue::lab();
    let env = Environment::new(venue.plan.clone(), RadioConfig::default());
    let grid = SubcarrierGrid::intel5300();
    (0..n)
        .map(|r| {
            let object = venue.test_sites[r % venue.test_sites.len()];
            let mut rng = StdRng::seed_from_u64(r as u64);
            venue
                .static_deployment()
                .iter()
                .enumerate()
                .map(|(i, &ap)| CsiReport {
                    site: ApSite::fixed(i + 1, ap),
                    burst: env.sample_csi_burst(object, ap, &grid, 2, &mut rng),
                })
                .collect()
        })
        .collect()
}

/// The fault-free replies an identically configured in-process server
/// gives — the bit-identity reference.
fn baseline(requests: &[Vec<CsiReport>]) -> Vec<Result<WireEstimate, ErrorReply>> {
    let server = lab_server();
    requests
        .iter()
        .map(|r| match server.process(r) {
            Ok(est) => Ok(WireEstimate::from_core(&est)),
            Err(e) => Err(ErrorReply {
                code: ErrorCode::from_estimate_error(&e),
                message: e.to_string(),
            }),
        })
        .collect()
}

fn spawn_daemon(plan: Option<FaultPlan>, kill_batcher_every: u64) -> DaemonHandle {
    spawn(
        lab_server(),
        DaemonConfig {
            batchers: 2,
            fault_plan: plan,
            kill_batcher_every,
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon")
}

/// A plan that assigns `class` to every request (rate 1 on that class).
fn single_class_plan(seed: u64, class: FaultClass) -> FaultPlan {
    let mut plan = FaultPlan::disabled(seed);
    match class {
        FaultClass::CorruptCsi => plan.corrupt_csi = 1.0,
        FaultClass::DropReadings => plan.drop_readings = 1.0,
        FaultClass::TruncateFrame => plan.truncate_frame = 1.0,
        FaultClass::CorruptFrame => plan.corrupt_frame = 1.0,
        FaultClass::DuplicateFrame => plan.duplicate_frame = 1.0,
        FaultClass::DelayFrame => plan.delay_frame = 1.0,
        FaultClass::KillConnection => plan.kill_connection = 1.0,
        FaultClass::InjectPanic => plan.inject_panic = 1.0,
        FaultClass::None => {}
    }
    plan
}

/// Every fault class, injected at rate 1 so each request in the run hits
/// it: the daemon must uphold that class's contract on all of them.
#[test]
fn every_fault_class_upholds_its_contract() {
    const N: usize = 8;
    let requests = workload(N);
    let reference = baseline(&requests);
    for class in nomloc_faults::FAULT_CLASSES {
        let plan = single_class_plan(42, class);
        let handle = spawn_daemon(Some(plan), 0);
        let config = ChaosConfig::new(plan);
        let report = chaos::run(handle.local_addr(), &config, &requests)
            .unwrap_or_else(|e| panic!("chaos run failed under {class}: {e}"));
        let health = handle.shutdown();
        let summary = report
            .verify(&config, &reference)
            .unwrap_or_else(|v| panic!("contract violated under {class}: {v:?}"));
        assert_eq!(summary.total, N);
        assert_eq!(summary.faulted, N, "rate-1 plan must fault everything");
        assert_eq!(
            health.batchers_respawned, 0,
            "no batcher may die under {class} (panics are caught in place)"
        );
        if class == FaultClass::InjectPanic {
            assert!(health.batch_panics >= N as u64, "panic guard never fired");
            assert_eq!(health.requests_internal, N as u64);
        }
    }
}

/// A mixed-rate plan over a bigger run: every request is answered, the
/// non-faulted majority bit-identically, and the summary accounts for
/// every request.
#[test]
fn mixed_chaos_run_answers_every_request() {
    const N: usize = 64;
    let requests = workload(N);
    let reference = baseline(&requests);
    let plan = FaultPlan::uniform(7, 0.04);
    let handle = spawn_daemon(Some(plan), 0);
    let config = ChaosConfig::new(plan);
    let report = chaos::run(handle.local_addr(), &config, &requests).expect("chaos run completes");
    let health = handle.shutdown();
    assert_eq!(report.outcomes.len(), N, "every request got a reply");
    let summary = report
        .verify(&config, &reference)
        .unwrap_or_else(|v| panic!("contract violated: {v:?}"));
    assert!(summary.faulted > 0, "seed 7 at 4 %/class faults something");
    assert_eq!(
        summary.bit_identical + summary.typed_errors + summary.degraded,
        N,
        "every request is accounted for exactly once"
    );
    assert_eq!(health.batchers_respawned, 0);
}

/// The kill knob murders batchers mid-run; the watchdog respawns every
/// one of them, the dying batcher's requeued requests are still answered,
/// and all replies stay bit-identical to the fault-free baseline.
#[test]
fn killed_batchers_are_respawned_without_losing_requests() {
    const N: usize = 24;
    let requests = workload(N);
    let reference = baseline(&requests);
    let plan = FaultPlan::disabled(3);
    let handle = spawn_daemon(None, 3);
    let config = ChaosConfig::new(plan);
    let report = chaos::run(handle.local_addr(), &config, &requests)
        .expect("every request answered despite batcher deaths");
    let health = handle.shutdown();
    let summary = report
        .verify(&config, &reference)
        .unwrap_or_else(|v| panic!("kill knob broke replies: {v:?}"));
    assert_eq!(summary.bit_identical, N, "all replies bit-identical");
    assert!(
        health.batchers_respawned > 0,
        "kill-every-3 over {N} batches must kill at least one batcher"
    );
}

/// A plan whose `InjectPanic` class fires for request `target` and for no
/// other id in `0..n`: the first seed whose classification draw for
/// `target` falls below every other id's, with the panic rate set just
/// above that draw.
fn panic_only_plan(target: u64, n: u64) -> FaultPlan {
    const STEPS: u32 = 4096;
    (0..1000u64)
        .flat_map(|seed| (1..STEPS).map(move |k| (seed, f64::from(k) / f64::from(STEPS))))
        .map(|(seed, rate)| {
            let mut plan = FaultPlan::disabled(seed);
            plan.inject_panic = rate;
            plan
        })
        .find(|plan| {
            (0..n).all(|id| (plan.classify(id) == FaultClass::InjectPanic) == (id == target))
        })
        .expect("some seed singles out the target request")
}

/// Reads one `LocateResponse` off `stream`.
fn read_one_reply(stream: &mut TcpStream) -> nomloc_net::wire::LocateResponse {
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 16 * 1024];
    loop {
        match decode_frame(&buf) {
            Ok((Frame::LocateResponse(resp), _)) => return resp,
            Ok((other, _)) => panic!("unexpected frame: {other:?}"),
            Err(nomloc_net::WireError::Incomplete { .. }) => {}
            Err(e) => panic!("malformed reply: {e}"),
        }
        let got = stream.read(&mut tmp).expect("read reply (daemon alive?)");
        assert!(got > 0, "daemon closed the connection without replying");
        buf.extend_from_slice(&tmp[..got]);
    }
}

/// A panic in a solve run on the event loop (a lone request at an idle
/// daemon) is contained like one on a batcher: the poison request gets
/// `Internal`, the loop — and the connection it owns — keeps serving,
/// and no batcher is involved, let alone respawned.
#[test]
fn a_panic_on_the_event_loop_is_contained() {
    const N: u64 = 8;
    const POISON: u64 = 3;
    let requests = workload(N as usize);
    let reference = baseline(&requests);
    let handle = spawn_daemon(Some(panic_only_plan(POISON, N)), 0);
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set read timeout");
    for (id, reports) in (0..N).zip(&requests) {
        // Awaited one by one with a pause, so each arrives alone.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let frame = Frame::LocateRequest(LocateRequest {
            request_id: id,
            deadline_us: 0,
            venue_id: 0,
            session_id: 0,
            reports: reports.iter().map(WireReport::from_core).collect(),
        });
        stream.write_all(&frame_to_vec(&frame)).expect("send");
        let reply = read_one_reply(&mut stream);
        assert_eq!(reply.request_id, id);
        if id == POISON {
            match &reply.outcome {
                Err(e) if e.code == ErrorCode::Internal => {}
                other => panic!("request {id}: expected Internal, got {other:?}"),
            }
        } else {
            assert_eq!(
                reply.outcome, reference[id as usize],
                "request {id} differs from the fault-free answer"
            );
        }
    }
    let health = handle.shutdown();
    assert_eq!(health.batch_panics, 1, "{health}");
    assert_eq!(health.requests_internal, 1, "{health}");
    assert_eq!(health.batchers_respawned, 0, "{health}");
    assert_eq!(
        health.queue_depth_peak, 0,
        "a request reached the plane: {health}"
    );
}

// ---------------------------------------------------------------------
// Hostile-CSI property tests: no request payload — however malformed or
// numerically pathological — may crash the daemon or go unanswered.
// ---------------------------------------------------------------------

/// One long-lived daemon, shared by all proptest cases and never shut
/// down (the process exits at test end). Reusing one address also proves
/// the daemon survived every previous hostile case.
fn hostile_daemon_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let handle = spawn_daemon(None, 0);
        let addr = handle.local_addr();
        std::mem::forget(handle);
        addr
    })
}

fn next_request_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Interprets raw bits as an `f64` — covers NaNs, infinities, subnormals.
fn bits(v: u64) -> f64 {
    f64::from_bits(v)
}

/// A report whose every float is a raw bit pattern — mostly rejected at
/// the wire layer as `Malformed`.
fn raw_report(seed: u64, subcarriers: usize) -> WireReport {
    let mix = |i: u64| nomloc_faults::mix64(seed, i);
    WireReport {
        ap: seed,
        visit: seed >> 9,
        x: bits(mix(1)),
        y: bits(mix(2)),
        burst: vec![WireSnapshot {
            offsets_hz: (0..subcarriers).map(|i| bits(mix(10 + i as u64))).collect(),
            h: (0..subcarriers)
                .map(|i| (bits(mix(100 + i as u64)), bits(mix(200 + i as u64))))
                .collect(),
        }],
    }
}

/// A report that *passes* wire validation (finite position, strictly
/// ascending finite offsets, matching `h` length) but carries raw-bit
/// channel coefficients — NaN/∞/subnormal values that flow all the way
/// into the PDP and estimator stages.
fn shaped_hostile_report(seed: u64, subcarriers: usize) -> WireReport {
    let mix = |i: u64| nomloc_faults::mix64(seed, i);
    let magnitudes = [0.0, 1.0e-308, 1.0, 1.0e300, -1.0e300, 5.5];
    WireReport {
        ap: seed % 7,
        visit: 0,
        x: magnitudes[(mix(1) % 6) as usize],
        y: magnitudes[(mix(2) % 6) as usize],
        burst: vec![WireSnapshot {
            offsets_hz: (0..subcarriers).map(|i| i as f64 * 312_500.0).collect(),
            h: (0..subcarriers)
                .map(|i| (bits(mix(100 + i as u64)), bits(mix(200 + i as u64))))
                .collect(),
        }],
    }
}

/// Sends one request and insists on exactly one well-formed reply with
/// the matching id. Any hang, crash, or mismatched reply fails the test.
fn expect_reply(addr: SocketAddr, reports: Vec<WireReport>) -> Result<(), TestCaseError> {
    let request_id = next_request_id();
    let frame = Frame::LocateRequest(LocateRequest {
        request_id,
        deadline_us: 0,
        venue_id: 0,
        session_id: 0,
        reports,
    });
    let mut stream = TcpStream::connect(addr).expect("connect to hostile daemon");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set read timeout");
    stream
        .write_all(&frame_to_vec(&frame))
        .expect("send request");
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 16 * 1024];
    loop {
        match decode_frame(&buf) {
            Ok((Frame::LocateResponse(resp), _)) => {
                prop_assert_eq!(resp.request_id, request_id, "reply for the wrong request");
                return Ok(());
            }
            Ok((other, _)) => {
                return Err(TestCaseError::Fail(format!("unexpected frame: {other:?}")))
            }
            Err(nomloc_net::WireError::Incomplete { .. }) => {}
            Err(e) => return Err(TestCaseError::Fail(format!("malformed reply: {e}"))),
        }
        let got = stream.read(&mut tmp).expect("read reply (daemon alive?)");
        prop_assert!(got > 0, "daemon closed the connection without replying");
        buf.extend_from_slice(&tmp[..got]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Raw-bit reports — NaN positions, descending offsets, the lot —
    /// always draw a reply (typically a typed `Malformed` error) and
    /// never take the daemon down.
    #[test]
    fn hostile_raw_reports_are_always_answered(
        seeds in prop::collection::vec(0u64..u64::MAX, 0..4),
        subcarriers in 0usize..5,
    ) {
        let reports: Vec<_> = seeds.iter().map(|&s| raw_report(s, subcarriers)).collect();
        expect_reply(hostile_daemon_addr(), reports)?;
    }

    /// Wire-valid reports with pathological channel coefficients reach
    /// the DSP and estimator stages; the daemon still answers every one
    /// (degraded estimate or typed error) and never panics.
    #[test]
    fn hostile_but_wire_valid_reports_are_always_answered(
        seeds in prop::collection::vec(0u64..u64::MAX, 1..5),
        subcarriers in 1usize..6,
    ) {
        let reports: Vec<_> =
            seeds.iter().map(|&s| shaped_hostile_report(s, subcarriers)).collect();
        expect_reply(hostile_daemon_addr(), reports)?;
    }
}

/// Reused reply buffers must never leak stale bytes across requests:
/// every replying thread encodes into one buffer of its own, so serve a
/// varied-size workload — full estimates and typed errors with different
/// message lengths encode to different lengths — and insist every reply
/// is bit-identical to the in-process baseline. Two pipelined passes over
/// a single connection reuse the batchers' buffers across micro-batches;
/// a third pass awaits each reply before sending the next request, so
/// lone requests are solved on the event loop and its buffer is reused
/// across sizes too.
#[test]
fn reused_reply_buffers_never_leak_stale_bytes() {
    const N: usize = 24;
    let full = workload(N);
    // Vary the request shape so consecutive replies differ in size: a
    // request with one report draws a typed error, fuller ones draw
    // estimates.
    let requests: Vec<Vec<CsiReport>> = full
        .iter()
        .enumerate()
        .map(|(i, r)| r[..(i % r.len()) + 1].to_vec())
        .collect();
    let reference = baseline(&requests);
    let handle = spawn_daemon(None, 0);
    let pipelined = nomloc_net::LoadgenConfig {
        connections: 1,
        ..Default::default()
    };
    let awaited = nomloc_net::LoadgenConfig {
        concurrency: 1,
        ..pipelined.clone()
    };
    for (pass, config) in [&pipelined, &pipelined, &awaited].into_iter().enumerate() {
        let report = nomloc_net::loadgen::run(handle.local_addr(), config, &requests)
            .expect("loadgen run completes");
        for (i, (outcome, expected)) in report.outcomes.iter().zip(&reference).enumerate() {
            match (&outcome.reply, expected) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got.x.to_bits(), want.x.to_bits(), "pass {pass} req {i}: x");
                    assert_eq!(got.y.to_bits(), want.y.to_bits(), "pass {pass} req {i}: y");
                    assert_eq!(got, want, "pass {pass} request {i}: estimate diverged");
                }
                (Err(got), Err(want)) => {
                    assert_eq!(got, want, "pass {pass} request {i}: error diverged");
                }
                (got, want) => panic!("pass {pass} request {i}: {got:?} vs {want:?}"),
            }
        }
    }
    let health = handle.shutdown();
    assert!(health.reply_bytes_encoded > 0);
}

// ---------------------------------------------------------------------
// Sessioned chaos: the session plane under every fault class. The
// verifier replays each session's tracker, so these runs prove faults
// never corrupt, cross-wire, or leak sessions.
// ---------------------------------------------------------------------

/// A chaos config interleaving `sessions` concurrent sessions.
fn sessioned_config(plan: FaultPlan, sessions: u64) -> ChaosConfig {
    let mut config = ChaosConfig::new(plan);
    config.sessions = sessions;
    config
}

/// Warm sessions answer rate-1 corrupt-CSI traffic from the motion model:
/// a clean sessioned pass warms two sessions, then **every** request's
/// payload is corrupted — and instead of the cold-path `Malformed`, each
/// reply must be `Predicted` at the (independently replayed) extrapolated
/// position with the venue's localizability bound widened exactly
/// [`PREDICTED_ERROR_WIDENING`]-fold.
#[test]
fn warm_sessions_survive_payload_corruption() {
    const N: usize = 12;
    const SESSIONS: u64 = 2;
    let requests = workload(N);
    let reference = baseline(&requests);
    let handle = spawn_daemon(None, 0);
    let addr = handle.local_addr();

    // Phase 1 — clean sessioned traffic; the standard verifier pins every
    // session block to the replay.
    let clean = sessioned_config(FaultPlan::disabled(5), SESSIONS);
    let warmup = chaos::run(addr, &clean, &requests).expect("warmup run completes");
    warmup
        .verify(&clean, &reference)
        .unwrap_or_else(|v| panic!("warmup violated the session contract: {v:?}"));

    // Replicate the daemon's trackers from the observed warmup replies.
    let mut trackers = HashMap::new();
    for (i, outcome) in warmup.outcomes.iter().enumerate() {
        let sid = clean.session_id_for(i as u64);
        if let Ok(est) = &outcome.reply {
            if est.quality <= 1 {
                trackers
                    .entry(sid)
                    .or_insert_with(session_tracker)
                    .push(Point::new(est.x, est.y), SESSION_TICK_SECONDS);
            }
        }
    }

    // Phase 2 — same sessions, every payload corrupted.
    let corrupt = sessioned_config(single_class_plan(5, FaultClass::CorruptCsi), SESSIONS);
    let report = chaos::run(addr, &corrupt, &requests).expect("corrupt run completes");
    // The registry's venue-0 map, rebuilt identically (analyze is pure).
    let map = localizability::analyze(
        lab_server().area(),
        &[],
        nomloc_net::registry::LOCALIZABILITY_PITCH_M,
    );
    let mut predicted = 0u64;
    for (i, outcome) in report.outcomes.iter().enumerate() {
        let sid = corrupt.session_id_for(i as u64);
        let expected = trackers
            .get(&sid)
            .and_then(|t| t.predict(SESSION_TICK_SECONDS));
        match (expected, &outcome.reply) {
            (Some(pred), Ok(est)) => {
                assert_eq!(
                    est.quality, 3,
                    "request {i}: warm session must answer Predicted"
                );
                assert_eq!(est.x.to_bits(), pred.x.to_bits(), "request {i}: x");
                assert_eq!(est.y.to_bits(), pred.y.to_bits(), "request {i}: y");
                let block = est
                    .session
                    .as_ref()
                    .expect("Predicted reply carries a block");
                let want_bound = map
                    .predicted_error_at(pred)
                    .map_or(f64::NAN, |e| e * PREDICTED_ERROR_WIDENING);
                assert_eq!(
                    block.error_bound.to_bits(),
                    want_bound.to_bits(),
                    "request {i}: bound must be the localizability map's, widened ×{PREDICTED_ERROR_WIDENING}"
                );
                predicted += 1;
            }
            (None, Err(e)) => assert_eq!(e.code, ErrorCode::Malformed, "request {i}"),
            (want, got) => panic!("request {i}: expected {want:?}-shaped reply, got {got:?}"),
        }
    }
    assert!(
        predicted as usize == N,
        "both sessions warmed in phase 1, so all {N} corrupt requests must be \
         answered Predicted; got {predicted}"
    );
    let health = handle.shutdown();
    assert!(
        health.quality_predicted >= predicted,
        "stats must count the intercepts"
    );
    assert_eq!(
        health.sessions_created, SESSIONS,
        "no session forked or leaked"
    );
}

/// Rate-1 drop-readings with sessions: `DropAll` requests (region tier)
/// feed the sessions, so later `KeepOne` requests — a centroid answer
/// stateless — are promoted to `Predicted`. The verifier's replay checks
/// each promotion exactly; nothing is ever *worse* than the stateless
/// tier.
#[test]
fn rate_one_drop_readings_never_degrades_a_warm_session() {
    const N: usize = 24;
    let requests = workload(N);
    let reference = baseline(&requests);
    let plan = single_class_plan(11, FaultClass::DropReadings);
    let handle = spawn_daemon(Some(plan), 0);
    let config = sessioned_config(plan, 2);
    let report = chaos::run(handle.local_addr(), &config, &requests).expect("chaos run completes");
    let health = handle.shutdown();
    let summary = report
        .verify(&config, &reference)
        .unwrap_or_else(|v| panic!("session degradation contract violated: {v:?}"));
    assert_eq!(summary.faulted, N);
    assert_eq!(
        summary.degraded + summary.predicted,
        N,
        "every faulted request answers degraded-or-better"
    );
    assert!(
        summary.predicted > 0,
        "seed 11 interleaves DropAll warmups with KeepOne requests, so some \
         centroid answers must be promoted"
    );
    assert!(health.sessions_active <= 2);
}

/// Rate-1 kill-connection: every request's connection dies before the
/// reply and is resent on a fresh one — and every resend must resume the
/// *same* session (the verifier replays each tracker straight through the
/// kills; a session restarted or forked by the reconnect would diverge).
#[test]
fn killed_connections_resume_their_session() {
    const N: usize = 16;
    let requests = workload(N);
    let reference = baseline(&requests);
    let plan = single_class_plan(21, FaultClass::KillConnection);
    let handle = spawn_daemon(None, 0);
    let config = sessioned_config(plan, 2);
    let report = chaos::run(handle.local_addr(), &config, &requests).expect("chaos run completes");
    let health = handle.shutdown();
    let summary = report
        .verify(&config, &reference)
        .unwrap_or_else(|v| panic!("kill+reconnect broke a session: {v:?}"));
    assert_eq!(
        report.reconnects, N as u64,
        "every request burned a connection"
    );
    assert_eq!(summary.bit_identical + summary.predicted, N);
    assert_eq!(
        health.sessions_created, 2,
        "reconnects must resume sessions, never fork fresh ones"
    );
}

/// The batcher kill knob murders solver threads mid-run while sessioned
/// traffic flows: the watchdog respawns them and — because the session
/// table lives outside the batchers — the verifier's uninterrupted replay
/// still matches every reply. Zero sessions lost, zero state diverged.
#[test]
fn batcher_respawns_lose_no_sessions() {
    const N: usize = 24;
    let requests = workload(N);
    let reference = baseline(&requests);
    let plan = FaultPlan::disabled(3);
    let handle = spawn_daemon(None, 3);
    let config = sessioned_config(plan, 2);
    let report = chaos::run(handle.local_addr(), &config, &requests)
        .expect("every request answered despite batcher deaths");
    let health = handle.shutdown();
    let summary = report
        .verify(&config, &reference)
        .unwrap_or_else(|v| panic!("a batcher respawn corrupted session state: {v:?}"));
    assert_eq!(summary.bit_identical + summary.predicted, N);
    assert!(
        health.batchers_respawned > 0,
        "kill-every-3 over {N} batches must kill at least one batcher"
    );
    assert_eq!(
        health.sessions_created, 2,
        "respawns must not lose or fork sessions"
    );
}

/// Mixed chaos over three interleaved sessions with the stale-session
/// fault armed: every fault class fires somewhere, the server's sessions
/// are force-expired mid-run, and the per-session replay still matches
/// every reply — proving no fault class ever returns another session's
/// position (a cross-wired answer cannot match its own session's replay)
/// and that forced expiry degrades cleanly instead of corrupting.
#[test]
fn sessioned_chaos_crosses_no_wires() {
    const N: usize = 64;
    let requests = workload(N);
    let reference = baseline(&requests);
    let plan = FaultPlan::uniform(7, 0.04);
    let handle = spawn_daemon(Some(plan), 0);
    let mut config = sessioned_config(plan, 3);
    config.session_table = Some(handle.sessions());
    let report = chaos::run(handle.local_addr(), &config, &requests).expect("chaos run completes");
    let health = handle.shutdown();
    let summary = report
        .verify(&config, &reference)
        .unwrap_or_else(|v| panic!("sessioned chaos contract violated: {v:?}"));
    assert_eq!(
        summary.bit_identical + summary.typed_errors + summary.degraded + summary.predicted,
        N,
        "every request is accounted for exactly once"
    );
    assert!(summary.faulted > 0, "seed 7 at 4 %/class faults something");
    assert!(
        report.stale_expiries > 0,
        "seed 7 at 4 % must fire the stale-session fault at least once over {N} requests"
    );
    assert!(
        health.sessions_created > 3,
        "forced expiries must have recreated sessions ({} created)",
        health.sessions_created
    );
}

/// Same seed ⇒ the same requests are faulted the same way and every reply
/// is identical across two independent daemon instances — the property
/// that makes chaos failures reproducible from a seed alone.
#[test]
fn chaos_runs_are_deterministic_in_the_seed() {
    const N: usize = 32;
    let requests = workload(N);
    let plan = FaultPlan::uniform(99, 0.05);
    let run = || {
        let handle = spawn_daemon(Some(plan), 0);
        let report = chaos::run(handle.local_addr(), &ChaosConfig::new(plan), &requests)
            .expect("chaos run completes");
        handle.shutdown();
        report
    };
    let a = run();
    let b = run();
    for (i, (x, y)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
        assert_eq!(x.class, y.class, "request {i} classified differently");
        match (&x.reply, &y.reply) {
            (Ok(p), Ok(q)) => {
                assert_eq!(p.x.to_bits(), q.x.to_bits(), "request {i} x diverged");
                assert_eq!(p.y.to_bits(), q.y.to_bits(), "request {i} y diverged");
                assert_eq!(p.quality, q.quality, "request {i} quality diverged");
            }
            (Err(p), Err(q)) => assert_eq!(p.code, q.code, "request {i} error diverged"),
            (p, q) => panic!("request {i}: {p:?} vs {q:?}"),
        }
    }
}

/// A sessioned run under the batcher kill knob replays bit-identically:
/// a killed batcher requeues its batch at the front of the batch venue's
/// own shard, so every session-smoothed coordinate matches the
/// verifier's per-session tracker replay. A lost, duplicated, or
/// reordered requeue would diverge the session state and fail the
/// replay.
#[test]
fn sessioned_batcher_kills_replay_bit_identically() {
    const N: usize = 24;
    let requests = workload(N);
    let reference = baseline(&requests);
    let handle = spawn_daemon(None, 3);
    let config = sessioned_config(FaultPlan::disabled(3), 2);
    let report = chaos::run(handle.local_addr(), &config, &requests)
        .expect("every sessioned request answered despite batcher deaths");
    let health = handle.shutdown();
    let summary = report
        .verify(&config, &reference)
        .unwrap_or_else(|v| panic!("sessioned kill run diverged from replay: {v:?}"));
    assert_eq!(summary.bit_identical + summary.predicted, N);
    assert!(health.batchers_respawned > 0, "kill knob never fired");
    assert_eq!(health.sessions_created, 2, "no session lost or forked");
}
