//! Behavioral tests for the serving daemon: admission control under
//! overload, queued-deadline expiry, per-request error isolation inside a
//! micro-batch, protocol-error handling, stats frames, and graceful drain.
//!
//! All tests run against a real daemon on `127.0.0.1:0` and speak the wire
//! protocol over actual sockets. Overload/deadline tests use
//! `DaemonConfig::batch_pause` as a deterministic throttle so they don't
//! depend on machine speed.

use nomloc_core::scenario::Venue;
use nomloc_core::server::CsiReport;
use nomloc_core::{ApSite, LocalizationServer};
use nomloc_net::wire::{
    decode_frame, frame_to_vec, LocateRequest, LocateResponse, WireEstimate, WireReport,
    WireSnapshot,
};
use nomloc_net::{admin, spawn, DaemonConfig, ErrorCode, Frame, LoadgenConfig, WireVenue};
use nomloc_rfsim::{Environment, RadioConfig, SubcarrierGrid};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn lab_server() -> LocalizationServer {
    LocalizationServer::new(Venue::lab().plan.boundary().clone())
}

/// A structurally and semantically valid request whose reports carry empty
/// bursts: the pipeline skips them and solves a boundary-only region, so
/// it is the cheapest possible admissible request — ideal for flooding.
fn cheap_request(request_id: u64, deadline_us: u32) -> Vec<u8> {
    cheap_request_for(request_id, 0, deadline_us)
}

/// [`cheap_request`] aimed at a specific venue.
fn cheap_request_for(request_id: u64, venue_id: u64, deadline_us: u32) -> Vec<u8> {
    let venue = Venue::lab();
    let ap = venue.static_deployment()[0];
    frame_to_vec(&Frame::LocateRequest(LocateRequest {
        request_id,
        deadline_us,
        venue_id,
        session_id: 0,
        reports: vec![WireReport {
            ap: 1,
            visit: 0,
            x: ap.x,
            y: ap.y,
            burst: Vec::new(),
        }],
    }))
}

/// A realistic request: one CSI report per static AP in the lab venue.
fn real_reports(venue: &Venue, seed: u64) -> Vec<CsiReport> {
    let env = Environment::new(venue.plan.clone(), RadioConfig::default());
    let grid = SubcarrierGrid::intel5300();
    let object = venue.test_sites[seed as usize % venue.test_sites.len()];
    let mut rng = StdRng::seed_from_u64(seed);
    venue
        .static_deployment()
        .iter()
        .enumerate()
        .map(|(i, &ap)| CsiReport {
            site: ApSite::fixed(i + 1, ap),
            burst: env.sample_csi_burst(object, ap, &grid, 2, &mut rng),
        })
        .collect()
}

/// Reads `LocateResponse` frames off `stream` until `n` have arrived.
fn read_responses(stream: &mut TcpStream, n: usize) -> Vec<LocateResponse> {
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 64 * 1024];
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        match decode_frame(&buf) {
            Ok((Frame::LocateResponse(resp), consumed)) => {
                buf.drain(..consumed);
                out.push(resp);
                continue;
            }
            Ok((other, _)) => panic!("unexpected frame from daemon: {other:?}"),
            Err(nomloc_net::WireError::Incomplete { .. }) => {}
            Err(e) => panic!("daemon sent a malformed frame: {e}"),
        }
        let got = stream.read(&mut tmp).expect("read from daemon");
        assert!(got > 0, "daemon closed with {} of {n} responses", out.len());
        buf.extend_from_slice(&tmp[..got]);
    }
    out
}

/// Flooding a throttled daemon past its queue capacity yields explicit
/// `Overloaded` replies — every request is answered, nothing buffers
/// without bound, and the recorded queue depth respects the cap.
#[test]
fn overload_answers_with_bounded_queue() {
    let handle = spawn(
        lab_server(),
        DaemonConfig {
            batchers: 1,
            max_batch: 1,
            queue_capacity: 4,
            batch_pause: Duration::from_millis(25),
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");

    const FLOOD: usize = 48;
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut blob = Vec::new();
    for id in 0..FLOOD as u64 {
        blob.extend_from_slice(&cheap_request(id, 0));
    }
    stream.write_all(&blob).expect("flood the daemon");

    let responses = read_responses(&mut stream, FLOOD);
    let overloaded = responses
        .iter()
        .filter(|r| matches!(&r.outcome, Err(e) if e.code == ErrorCode::Overloaded))
        .count();
    let solved = responses.iter().filter(|r| r.outcome.is_ok()).count();
    // The throttle guarantees the flood outruns the drain: with a 25 ms
    // pause per single-request batch, at most a handful of the 48 requests
    // can be admitted before the 4-slot queue fills.
    assert!(overloaded > 0, "no Overloaded replies in {responses:?}");
    assert!(solved > 0, "no request was solved at all");
    assert_eq!(overloaded + solved, FLOOD, "every request gets an answer");

    let health = handle.shutdown();
    assert_eq!(health.rejected_overload, overloaded as u64);
    assert!(
        health.queue_depth_peak <= 4,
        "queue depth {} exceeded the capacity of 4",
        health.queue_depth_peak
    );
}

/// A request whose deadline expires while it waits in the queue is
/// answered `DeadlineExceeded` and never solved.
#[test]
fn queued_deadline_expiry_is_reported() {
    let handle = spawn(
        lab_server(),
        DaemonConfig {
            batchers: 1,
            max_batch: 1,
            queue_capacity: 64,
            // Every batch waits 30 ms before solving, so a 1 ms deadline
            // is always stale by solve time.
            batch_pause: Duration::from_millis(30),
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.write_all(&cheap_request(9, 1_000)).unwrap();
    let responses = read_responses(&mut stream, 1);
    match &responses[0].outcome {
        Err(e) if e.code == ErrorCode::DeadlineExceeded => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(responses[0].request_id, 9);

    let health = handle.shutdown();
    assert_eq!(health.deadline_missed, 1);
}

/// A semantically malformed request inside a pipelined burst errors only
/// itself: admission rejects it (`Malformed`) before it can join a
/// micro-batch, its neighbors still get estimates, and the connection
/// stays open.
#[test]
fn malformed_request_does_not_poison_the_batch() {
    let venue = Venue::lab();
    let handle = spawn(
        lab_server(),
        DaemonConfig {
            batchers: 1,
            max_batch: 16,
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");

    let good = |id: u64| {
        frame_to_vec(&Frame::LocateRequest(LocateRequest {
            request_id: id,
            deadline_us: 0,
            venue_id: 0,
            session_id: 0,
            reports: real_reports(&venue, id)
                .iter()
                .map(WireReport::from_core)
                .collect(),
        }))
    };
    // Structurally valid, semantically broken: a NaN AP position.
    let bad = frame_to_vec(&Frame::LocateRequest(LocateRequest {
        request_id: 1,
        deadline_us: 0,
        venue_id: 0,
        session_id: 0,
        reports: vec![WireReport {
            ap: 1,
            visit: 0,
            x: f64::NAN,
            y: 0.0,
            burst: vec![WireSnapshot {
                offsets_hz: vec![0.0],
                h: vec![nomloc_dsp::Complex::ONE],
            }],
        }],
    }));

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut blob = good(0);
    blob.extend_from_slice(&bad);
    blob.extend_from_slice(&good(2));
    stream.write_all(&blob).unwrap();

    let mut responses = read_responses(&mut stream, 3);
    responses.sort_by_key(|r| r.request_id);
    assert!(
        responses[0].outcome.is_ok(),
        "request 0 should localize: {:?}",
        responses[0].outcome
    );
    match &responses[1].outcome {
        Err(e) if e.code == ErrorCode::Malformed => {}
        other => panic!("expected Malformed for request 1, got {other:?}"),
    }
    assert!(
        responses[2].outcome.is_ok(),
        "request 2 should localize: {:?}",
        responses[2].outcome
    );
    handle.shutdown();
}

/// Batching needs no fill timer: with one batcher held busy by a pause,
/// a pipelined burst piles up in the queue and ships in a few large
/// batches on the batcher's next pops, not in one batch per request.
#[test]
fn backlog_batches_without_a_fill_window() {
    let handle = spawn(
        lab_server(),
        DaemonConfig {
            batchers: 1,
            batch_pause: Duration::from_millis(20),
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");

    const N: usize = 40;
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut blob = Vec::new();
    for id in 0..N as u64 {
        blob.extend_from_slice(&cheap_request(id, 0));
    }
    stream.write_all(&blob).expect("send the burst");

    let responses = read_responses(&mut stream, N);
    assert!(
        responses.iter().all(|r| r.outcome.is_ok()),
        "every request localizes: {responses:?}"
    );
    let snap = handle.stats_snapshot();
    assert!(
        snap.counters.batches_dispatched < N as u64,
        "{} batches for {N} requests: the backlog was not batched",
        snap.counters.batches_dispatched
    );
    // Bucket 0 holds single-request batches; any count above it is a
    // batch of two or more.
    assert!(
        snap.batch_sizes.buckets[1..].iter().any(|&c| c > 0),
        "no batch held more than one request: {:?}",
        snap.batch_sizes
    );
    handle.shutdown();
}

/// The bit pattern of a wire estimate: stricter than `PartialEq`, which
/// would let `-0.0 == 0.0` slide.
fn estimate_bits(e: &WireEstimate) -> [u64; 10] {
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
        u64::from(e.quality),
    ]
}

/// Run to completion: a lone request at an idle daemon is solved on the
/// event loop that read it. The dispatch queue is never touched — no
/// queue depth — yet every request still counts as one batch,
/// and every reply is bit-identical to the in-process server's.
#[test]
fn lone_requests_are_solved_on_the_loop_bit_for_bit() {
    const N: u64 = 50;
    let venue = Venue::lab();
    let oracle = lab_server();
    let handle = spawn(lab_server(), DaemonConfig::default(), "127.0.0.1:0").expect("spawn daemon");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    for id in 0..N {
        // Each request is awaited, then the next one waits 2 ms: it
        // arrives alone, at a queue that is empty with its batchers
        // waiting again.
        std::thread::sleep(Duration::from_millis(2));
        let request = LocateRequest {
            request_id: id,
            deadline_us: 0,
            venue_id: 0,
            session_id: 0,
            reports: real_reports(&venue, id)
                .iter()
                .map(WireReport::from_core)
                .collect(),
        };
        let expected = oracle
            .process(&request.clone().to_core_reports().expect("valid reports"))
            .expect("the lab request localizes in process");
        stream
            .write_all(&frame_to_vec(&Frame::LocateRequest(request)))
            .unwrap();
        let reply = read_responses(&mut stream, 1).remove(0);
        assert_eq!(reply.request_id, id);
        let got = reply.outcome.expect("the daemon localizes it too");
        assert_eq!(
            estimate_bits(&got),
            estimate_bits(&WireEstimate::from_core(&expected)),
            "request {id} differs from the in-process answer"
        );
    }
    let health = handle.shutdown();
    assert_eq!(health.queue_depth_peak, 0, "a request was queued: {health}");
    assert_eq!(health.batches_formed, N, "{health}");
    assert_eq!(health.requests_enqueued, N, "{health}");
    assert_eq!(health.requests_ok, N, "{health}");
}

/// The twin of the run-to-completion test: frames pipelined in one write
/// are not lone, so they go through the dispatch queue and batch there,
/// with no batcher pause holding them back.
#[test]
fn pipelined_frames_still_batch_through_the_plane() {
    const N: usize = 40;
    let handle = spawn(
        lab_server(),
        DaemonConfig {
            batchers: 1,
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut blob = Vec::new();
    for id in 0..N as u64 {
        blob.extend_from_slice(&cheap_request(id, 0));
    }
    stream.write_all(&blob).expect("send the burst");
    let responses = read_responses(&mut stream, N);
    assert!(
        responses.iter().all(|r| r.outcome.is_ok()),
        "every request localizes: {responses:?}"
    );
    let health = handle.shutdown();
    assert!(
        health.queue_depth_peak > 0,
        "the plane was bypassed: {health}"
    );
    assert!(
        health.batches_formed < N as u64,
        "{} batches for {N} pipelined requests: nothing was batched",
        health.batches_formed
    );
}

/// The write half owns the socket, so a reply for a connection that has
/// closed can never reach a newer connection that got the same fd
/// number. A queues a request behind a paused batcher and hangs up; B
/// connects (the fd number A had is free for reuse in the kernel's eyes
/// only once A's last reply is dropped) and must see exactly its own
/// reply, none of A's.
#[test]
fn a_closed_connections_reply_never_reaches_its_successor() {
    let handle = spawn(
        lab_server(),
        DaemonConfig {
            batchers: 1,
            batch_pause: Duration::from_millis(30),
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");

    let mut a = TcpStream::connect(handle.local_addr()).expect("connect A");
    a.write_all(&cheap_request(1, 0)).unwrap();
    drop(a);
    // Wait until the daemon admitted A's request, so it is queued behind
    // the pause when A's connection goes away.
    let admitted = Instant::now();
    while handle.health().requests_enqueued < 1 {
        assert!(
            admitted.elapsed() < Duration::from_secs(10),
            "A never admitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut b = TcpStream::connect(handle.local_addr()).expect("connect B");
    b.write_all(&cheap_request(2, 0)).unwrap();
    let replies = read_responses(&mut b, 1);
    assert_eq!(replies[0].request_id, 2, "B got a foreign reply");
    assert!(replies[0].outcome.is_ok(), "{:?}", replies[0].outcome);
    // A's reply was produced (30 ms after it was queued) before B's; give
    // any stray bytes time to arrive, then require silence.
    b.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut stray = [0u8; 256];
    match b.read(&mut stray) {
        Ok(0) => panic!("daemon closed B"),
        Ok(n) => panic!("B received {n} stray bytes after its own reply"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected read error on B: {e}"
        ),
    }

    // The daemon keeps serving, on B and on a fresh connection.
    b.set_read_timeout(None).unwrap();
    b.write_all(&cheap_request(3, 0)).unwrap();
    assert_eq!(read_responses(&mut b, 1)[0].request_id, 3);
    let mut c = TcpStream::connect(handle.local_addr()).expect("connect C");
    c.write_all(&cheap_request(4, 0)).unwrap();
    assert_eq!(read_responses(&mut c, 1)[0].request_id, 4);
    let health = handle.shutdown();
    assert_eq!(health.requests_enqueued, 4, "{health}");
}

/// A frame-level protocol violation (garbage on the socket) is answered
/// with a `Malformed` reply for request id 0 and the connection closes;
/// other connections are untouched.
#[test]
fn protocol_error_closes_only_that_connection() {
    let handle = spawn(lab_server(), DaemonConfig::default(), "127.0.0.1:0").expect("spawn daemon");

    let mut bad = TcpStream::connect(handle.local_addr()).expect("connect");
    bad.write_all(b"this is not a NMLC frame at all............")
        .unwrap();
    let responses = read_responses(&mut bad, 1);
    assert_eq!(responses[0].request_id, 0);
    match &responses[0].outcome {
        Err(e) if e.code == ErrorCode::Malformed => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
    // The daemon closes its side after the error reply.
    let mut tail = Vec::new();
    bad.read_to_end(&mut tail).expect("read until close");
    assert!(tail.is_empty(), "unexpected bytes after protocol error");

    // A healthy connection still works afterwards.
    let mut good = TcpStream::connect(handle.local_addr()).expect("connect");
    good.write_all(&cheap_request(5, 0)).unwrap();
    let ok = read_responses(&mut good, 1);
    assert_eq!(ok[0].request_id, 5);

    let health = handle.shutdown();
    assert_eq!(health.protocol_errors, 1);
}

/// A `StatsRequest` frame answers with the daemon's health snapshot.
#[test]
fn stats_frame_reports_health() {
    let handle = spawn(lab_server(), DaemonConfig::default(), "127.0.0.1:0").expect("spawn daemon");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.write_all(&cheap_request(1, 0)).unwrap();
    let _ = read_responses(&mut stream, 1);

    stream
        .write_all(&frame_to_vec(&Frame::StatsRequest))
        .unwrap();
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    let health = loop {
        match decode_frame(&buf) {
            Ok((Frame::StatsResponse(h), _)) => break h,
            Ok((other, _)) => panic!("unexpected frame: {other:?}"),
            Err(nomloc_net::WireError::Incomplete { .. }) => {
                let n = stream.read(&mut tmp).expect("read");
                assert!(n > 0, "daemon closed before answering StatsRequest");
                buf.extend_from_slice(&tmp[..n]);
            }
            Err(e) => panic!("malformed stats frame: {e}"),
        }
    };
    assert!(health.connections_accepted >= 1);
    assert!(health.requests_enqueued >= 1);
    assert!(health.frames_in >= 2);
    // Every scalar travels on the wire (since v5), including the reply
    // counter that older versions kept daemon-local.
    assert!(health.reply_bytes_encoded > 0);
    handle.shutdown();
}

/// Shutdown drains: every admitted request is answered before the daemon
/// exits, even when a throttle keeps the queue deep at shutdown time.
#[test]
fn shutdown_drains_admitted_requests() {
    let handle = spawn(
        lab_server(),
        DaemonConfig {
            batchers: 1,
            max_batch: 4,
            queue_capacity: 64,
            batch_pause: Duration::from_millis(10),
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");

    // A few sacrificial connections that come and go before the drain.
    for id in 100..105u64 {
        let mut scratch = TcpStream::connect(handle.local_addr()).expect("connect");
        scratch.write_all(&cheap_request(id, 0)).unwrap();
        let _ = read_responses(&mut scratch, 1);
    }

    const N: usize = 20;
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut blob = Vec::new();
    for id in 0..N as u64 {
        blob.extend_from_slice(&cheap_request(id, 0));
    }
    stream.write_all(&blob).unwrap();

    // Wait until the daemon has admitted all N (they queue behind the
    // throttle), then shut down mid-drain.
    while handle.health().requests_enqueued < (N + 5) as u64 {
        std::thread::sleep(Duration::from_millis(2));
    }
    let health = handle.shutdown();
    assert_eq!(
        health.requests_ok + health.requests_failed + health.rejected_overload,
        (N + 5) as u64,
        "shutdown lost admitted requests: {health}"
    );
    // The socket still holds every reply.
    let responses = read_responses(&mut stream, N);
    assert_eq!(responses.len(), N);
}

/// Slow-reader eviction: a connection that floods requests but never
/// drains its socket is evicted once its bounded outbound buffer fills —
/// while a well-behaved connection **on the same single event loop**
/// keeps getting answers throughout. Unbounded reply buffering would
/// OOM; blocking writes on a shared loop would stall every batch-mate.
#[test]
fn slow_reader_is_evicted_without_stalling_loop_mates() {
    let handle = spawn(
        lab_server(),
        DaemonConfig {
            batchers: 1,
            max_batch: 8,
            queue_capacity: 8192,
            event_loops: 1, // both connections share one loop
            write_buffer_cap: 16 * 1024,
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");

    let slow = TcpStream::connect(handle.local_addr()).expect("connect slow");
    slow.set_nodelay(true).unwrap();
    let mut good = TcpStream::connect(handle.local_addr()).expect("connect good");
    good.set_nodelay(true).unwrap();
    good.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Flood the slow connection in chunks without ever reading it. Its
    // replies pile up: first in the kernel's socket buffers, then in the
    // daemon's bounded write buffer — until the cap trips and the daemon
    // evicts it. Interleave one request on the good connection per chunk
    // and require its reply promptly: the loop must never block on the
    // stuffed socket. Bounded: kernel buffering is finite, so eviction
    // must fire within a bounded number of chunks.
    const CHUNK: usize = 500;
    const MAX_CHUNKS: usize = 200; // ≥ 100k replies ≈ 10 MB ≫ any sndbuf+rcvbuf
    let mut next_id = 0u64;
    let mut good_id = 1_000_000u64;
    let mut chunks = 0usize;
    while handle.slow_readers_evicted() == 0 {
        assert!(
            chunks < MAX_CHUNKS,
            "no eviction after {} pipelined requests",
            chunks * CHUNK
        );
        let mut blob = Vec::with_capacity(CHUNK * 80);
        for _ in 0..CHUNK {
            blob.extend_from_slice(&cheap_request(next_id, 0));
            next_id += 1;
        }
        // Writes may start failing once the daemon closes the evicted
        // socket — that's the expected end state, not a test failure.
        let _ = (&slow).write_all(&blob);
        chunks += 1;

        (&good).write_all(&cheap_request(good_id, 0)).unwrap();
        let replies = read_responses(&mut good, 1);
        assert_eq!(replies[0].request_id, good_id, "good conn got wrong reply");
        assert!(
            replies[0].outcome.is_ok(),
            "good conn failed mid-flood: {:?}",
            replies[0].outcome
        );
        good_id += 1;
    }
    assert_eq!(handle.slow_readers_evicted(), 1, "exactly one eviction");

    // The good connection still works after the eviction.
    (&good).write_all(&cheap_request(good_id, 0)).unwrap();
    let replies = read_responses(&mut good, 1);
    assert_eq!(replies[0].request_id, good_id);

    let health = handle.shutdown();
    assert_eq!(health.slow_readers_evicted, 1, "health mirrors: {health}");
}

/// Fairness: while one venue floods the queue with a sustained hot
/// backlog, a single request for a cold venue is still answered within a
/// bounded number of batches. The per-venue round robin guarantees the
/// cold venue's turn comes after at most a few batches; a plain FIFO
/// queue would drain the entire hot backlog first. The throttle makes the
/// two outcomes cleanly separable: draining 160 hot requests at 8 per
/// 25 ms-paused batch takes ≥ 500 ms, while a fair queue answers the cold
/// request in a handful of batch pauses.
#[test]
fn cold_venue_is_answered_under_hot_flood() {
    const HOT: usize = 160;
    const COLD_VENUE: u64 = 7;
    let handle = spawn(
        lab_server(),
        DaemonConfig {
            batchers: 1,
            max_batch: 8,
            queue_capacity: 4096,
            batch_pause: Duration::from_millis(25),
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");
    admin::onboard(
        handle.local_addr(),
        &WireVenue::from_venue(COLD_VENUE, &Venue::lab()),
    )
    .expect("onboard cold venue");

    // Conn A floods the hot venue in one pipelined blob.
    let mut hot = TcpStream::connect(handle.local_addr()).expect("connect hot");
    hot.set_nodelay(true).unwrap();
    hot.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut blob = Vec::new();
    for id in 0..HOT as u64 {
        blob.extend_from_slice(&cheap_request(id, 0));
    }
    hot.write_all(&blob).expect("flood hot venue");

    // Wait until the backlog is actually admitted — the fairness claim
    // is about a cold request *behind* a standing hot queue.
    let admitted = Instant::now();
    while (handle.health().requests_enqueued as usize) < HOT {
        assert!(
            admitted.elapsed() < Duration::from_secs(10),
            "hot flood was never admitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Conn B sends one cold-venue request and times the answer.
    let mut cold = TcpStream::connect(handle.local_addr()).expect("connect cold");
    cold.set_nodelay(true).unwrap();
    cold.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let sent = Instant::now();
    cold.write_all(&cheap_request_for(9_999, COLD_VENUE, 0))
        .unwrap();
    let replies = read_responses(&mut cold, 1);
    let waited = sent.elapsed();
    assert_eq!(replies[0].request_id, 9_999);
    assert!(
        replies[0].outcome.is_ok(),
        "cold venue request failed: {:?}",
        replies[0].outcome
    );
    assert!(
        waited < Duration::from_millis(300),
        "cold venue starved behind the hot flood: answered after {waited:?} \
         (full hot drain takes ≥ 500 ms)"
    );

    // The hot flood still completes in full.
    let responses = read_responses(&mut hot, HOT);
    assert_eq!(responses.len(), HOT);
    let health = handle.shutdown();
    assert_eq!(health.rejected_overload, 0, "{health}");
    assert_eq!(
        health.requests_ok + health.requests_failed,
        (HOT + 1) as u64,
        "every admitted request is answered: {health}"
    );
}

/// Closed-loop loadgen smoke: `concurrency: N` drives N synchronous
/// workers (send-one-wait-one, each on its own connection) against the
/// dispatch queue, every request is answered with a strict reply-id
/// match, and the report carries per-worker latency quantiles.
#[test]
fn closed_loop_loadgen_measures_contended_dispatch() {
    let venue = Venue::lab();
    let handle = spawn(
        lab_server(),
        DaemonConfig {
            batchers: 2,
            max_batch: 8,
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");

    const N: usize = 12;
    let requests: Vec<_> = (0..N as u64).map(|i| real_reports(&venue, i)).collect();
    let report = nomloc_net::loadgen::run(
        handle.local_addr(),
        &LoadgenConfig {
            concurrency: 4,
            ..LoadgenConfig::default()
        },
        &requests,
    )
    .expect("closed-loop run");

    assert_eq!(report.ok_count(), N, "every request answered ok");
    assert_eq!(report.concurrency, 4);
    assert_eq!(report.connections, 4, "one connection per worker");
    let per_worker = report.per_worker_quantile(0.99);
    assert_eq!(per_worker.len(), 4, "one p99 per worker");
    assert!(per_worker.iter().all(|d| *d > Duration::ZERO));

    let counters = handle.stats_snapshot().counters;
    assert_eq!(
        counters.batches_mixed, 0,
        "venue-homogeneous by construction"
    );
    let health = handle.shutdown();
    assert_eq!(health.requests_ok, N as u64, "{health}");
}
