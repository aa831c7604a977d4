//! Machine-readable end-to-end serving benchmark: stage-attributed
//! ns-per-request through the full daemon pipeline (decode → PDP →
//! constraints → LP → encode), plus paired comparisons of the planned FFT
//! against the retained iterative kernel, a reused against a fresh encode
//! buffer, and the zero-allocation pipeline against a faithful replica
//! of the pre-plan allocating path. Written as `BENCH_serving.json` (in
//! the current directory, or `$NOMLOC_BENCH_SERVING_JSON`).
//!
//! Every comparison is a min-of-rounds over alternating passes — see
//! `nomloc_bench::lpcmp::paired_min_ns` — so slow drift (thermal,
//! scheduler) hits both sides equally and the minimum approximates the
//! noise-free cost. The "naive" side reconstructs the pre-optimization
//! hot path exactly: the iterative twiddle-accumulating FFT kernel
//! (`fft_radix2_unplanned`), a fresh allocation for every windowed CSI
//! vector, IFFT output, per-packet PDP list, and reply frame.

use nomloc_bench::{lpcmp, quick_mode, rounds};
use nomloc_core::scenario::{synthetic_workload, Venue};
use nomloc_core::server::CsiReport;
use nomloc_core::{ApSite, LocalizationServer, PdpEstimator, PdpScratch, SpEstimator};
use nomloc_dsp::{fft, Complex};
use nomloc_net::wire::{
    self, ErrorCode, ErrorReply, Frame, LocateRequest, LocateResponse, WireEstimate, WireReport,
    WireVenue,
};
use nomloc_rfsim::CsiSnapshot;
use std::hint::black_box;
use std::io::BufRead;

/// Results of the idle-connection soak (see [`run_soak`]).
struct SoakResult {
    idle_target: usize,
    connections_held: usize,
    active_requests: usize,
    active_ns_per_request: f64,
    active_p99_ns_base: f64,
    active_p99_ns_idle: f64,
    daemon_rss_delta_bytes: i64,
    rss_bytes_per_connection: f64,
}

/// Resident set size of `pid` in bytes (Linux `/proc`; `None` elsewhere).
fn rss_of(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    Some(line.split_whitespace().nth(1)?.parse::<u64>().ok()? * 1024)
}

/// The mostly-idle scaling soak: a daemon in its own subprocess (the fd rlimit is per process, so splitting the
/// 2 × 10k socket endpoints across two processes is what lets a 10k run
/// fit), 10k connections opened and held idle, and the same small active
/// workload driven with and without the idle crowd. Records how many
/// connections were concurrently held, the daemon's RSS cost per idle
/// connection, and active-traffic ns/request + p99 under both conditions.
///
/// Needs `target/…/nomloc` next to this benchmark binary (the tier-1
/// `cargo build --release` in `scripts/check.sh` provides it); returns
/// `None` with a warning when it is missing rather than failing the
/// whole benchmark.
fn run_soak(idle_target: usize, active_requests: usize) -> Option<SoakResult> {
    let nomloc = std::env::current_exe().ok()?.with_file_name("nomloc");
    if !nomloc.exists() {
        eprintln!(
            "soak: skipped — {} not built (run `cargo build --release -p nomloc-cli` first)",
            nomloc.display()
        );
        return None;
    }
    let mut child = std::process::Command::new(&nomloc)
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .ok()?;
    let addr = {
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = std::io::BufReader::new(stdout).read_line(&mut line);
        if !matches!(read, Ok(n) if n > 0) {
            let status = child
                .wait()
                .map_or_else(|e| e.to_string(), |s| s.to_string());
            eprintln!("soak: skipped — the daemon exited before announcing its address ({status})");
            return None;
        }
        line.rsplit(' ')
            .next()
            .and_then(|a| a.trim().parse::<std::net::SocketAddr>().ok())
            .unwrap_or_else(|| panic!("unparseable daemon banner: {line:?}"))
    };

    // Cheap empty-burst requests: the soak measures the socket layer,
    // not the estimator.
    let venue = Venue::lab();
    let ap = venue.static_deployment()[0];
    let batch: Vec<Vec<CsiReport>> = (0..active_requests)
        .map(|_| {
            vec![CsiReport {
                site: ApSite::fixed(1, ap),
                burst: Vec::new(),
            }]
        })
        .collect();

    let baseline_config = nomloc_net::LoadgenConfig {
        connections: 4,
        ..nomloc_net::LoadgenConfig::default()
    };
    let base = nomloc_net::loadgen::run(addr, &baseline_config, &batch).expect("baseline run");

    let rss_before = rss_of(child.id());
    let soak_config = nomloc_net::LoadgenConfig {
        connections: 4,
        idle_connections: idle_target,
        ..nomloc_net::LoadgenConfig::default()
    };
    let soak = nomloc_net::loadgen::run(addr, &soak_config, &batch).expect("soak run");
    // RSS is sampled after the run; the daemon keeps the write buffers
    // and slab slots the crowd forced to exist, which is precisely the
    // steady-state cost the soak wants to price.
    let rss_after = rss_of(child.id());
    let _ = child.kill();
    let _ = child.wait();

    let delta = match (rss_before, rss_after) {
        (Some(b), Some(a)) => a as i64 - b as i64,
        _ => 0,
    };
    let held = soak.idle_held;
    Some(SoakResult {
        idle_target,
        connections_held: held,
        active_requests,
        active_ns_per_request: 1.0e9 / soak.throughput_rps(),
        active_p99_ns_base: base.latency_quantile(0.99).as_nanos() as f64,
        active_p99_ns_idle: soak.latency_quantile(0.99).as_nanos() as f64,
        daemon_rss_delta_bytes: delta,
        rss_bytes_per_connection: if held > 0 {
            delta.max(0) as f64 / held as f64
        } else {
            0.0
        },
    })
}

/// Dispatch-plane cost at one venue count (see [`run_dispatch`]).
struct DispatchScale {
    live_venues: usize,
    connections: usize,
    requests: usize,
    queue_shards: u64,
    ns_per_request: f64,
    closed_rps: f64,
    worst_worker_p99_ns: f64,
    queue_steals: u64,
    enqueue_contention: u64,
    depth_peak: u64,
}

/// Prices the admission/dispatch plane itself, per venue count, in
/// min-of-rounds passes.
///
/// Two traffic shapes per scale:
///
/// - **Pipelined** (8 connections, every request in flight at once): the
///   plane runs deep and batchers pop already-homogeneous venue FIFOs.
///   This is the headline `ns_per_request` and the regression-gated
///   number.
/// - **Closed-loop** (8 synchronous workers via
///   `LoadgenConfig::concurrency`): aggregate RPS plus the worst
///   per-worker p99, the fairness-sensitive view where one stalled
///   worker can't hide behind its siblings' throughput.
///
/// Requests are the soak's empty-burst cheapest-possible shape so
/// dispatch cost dominates solve cost, and `queue_capacity` is raised so
/// the pipelined flood is admitted in full (an `Overloaded` reply would
/// skip the work being priced). The daemon must answer every request and
/// keep every micro-batch venue-homogeneous.
fn run_dispatch(counts: &[usize], requests_per_pass: usize) -> Vec<DispatchScale> {
    let venue = Venue::lab();
    let ap = venue.static_deployment()[0];
    let batch: Vec<Vec<CsiReport>> = (0..requests_per_pass)
        .map(|_| {
            vec![CsiReport {
                site: ApSite::fixed(1, ap),
                burst: Vec::new(),
            }]
        })
        .collect();

    counts
        .iter()
        .map(|&live| {
            let server = LocalizationServer::new(venue.plan.boundary().clone());
            let config = nomloc_net::DaemonConfig {
                queue_capacity: requests_per_pass.max(1024) * 2,
                batchers: 2,
                max_batch: 64,
                ..nomloc_net::DaemonConfig::default()
            };
            let handle = nomloc_net::spawn(server, config, "127.0.0.1:0")
                .expect("spawn dispatch-bench daemon");
            for id in 1..live as u64 {
                nomloc_net::admin::onboard(handle.local_addr(), &WireVenue::from_venue(id, &venue))
                    .expect("onboard dispatch-bench venue");
            }
            let venues: Vec<u64> = (0..live as u64).collect();
            let pipelined = nomloc_net::LoadgenConfig {
                connections: 8,
                venues: venues.clone(),
                zipf_s: 1.0,
                zipf_seed: 7,
                ..nomloc_net::LoadgenConfig::default()
            };
            let closed = nomloc_net::LoadgenConfig {
                concurrency: 8,
                venues,
                zipf_s: 1.0,
                zipf_seed: 7,
                ..nomloc_net::LoadgenConfig::default()
            };

            let mut best_ns = f64::INFINITY;
            let mut best_rps = 0.0f64;
            let mut best_p99 = f64::INFINITY;
            for _ in 0..5 {
                let report = nomloc_net::loadgen::run(handle.local_addr(), &pipelined, &batch)
                    .expect("pipelined dispatch pass");
                assert_eq!(
                    report.ok_count(),
                    batch.len(),
                    "pipelined dispatch pass must answer every request"
                );
                best_ns = best_ns.min(1.0e9 / report.throughput_rps());
                let report = nomloc_net::loadgen::run(handle.local_addr(), &closed, &batch)
                    .expect("closed-loop dispatch pass");
                assert_eq!(
                    report.ok_count(),
                    batch.len(),
                    "closed-loop dispatch pass must answer every request"
                );
                if report.throughput_rps() > best_rps {
                    best_rps = report.throughput_rps();
                    best_p99 = report
                        .per_worker_quantile(0.99)
                        .iter()
                        .map(|d| d.as_nanos() as f64)
                        .fold(0.0, f64::max);
                }
            }

            let counters = handle.stats_snapshot().counters;
            assert_eq!(
                counters.batches_mixed, 0,
                "dispatch bench formed a mixed batch"
            );
            let health = handle.shutdown();
            DispatchScale {
                live_venues: live,
                connections: 8,
                requests: batch.len(),
                queue_shards: health.queue_shards,
                ns_per_request: best_ns,
                closed_rps: best_rps,
                worst_worker_p99_ns: best_p99,
                queue_steals: counters.queue_steals,
                enqueue_contention: counters.enqueue_contention,
                depth_peak: health.queue_depth_peak,
            }
        })
        .collect()
}

/// Sessioned vs stateless serving cost (see [`run_sessions`]).
struct SessionCost {
    requests: usize,
    stateless_ns_per_request: f64,
    sessioned_ns_per_request: f64,
    ratio: f64,
    smoothed_replies: usize,
}

/// Prices the session plane: the same workload driven stateless and with
/// one session per connection, in alternating passes against a single
/// daemon ([`lpcmp::paired_ns`]). The sessioned side pays the tracker
/// push, the localizability bound lookup, and the larger reply frame on
/// every request. The headline number is the median over rounds of the
/// sessioned pass's time over the stateless pass's in the same round,
/// which a slow spell of the host lifts on both sides alike.
fn run_sessions(batch: &[Vec<CsiReport>]) -> SessionCost {
    let venue = Venue::lab();
    let server = LocalizationServer::new(venue.plan.boundary().clone());
    let config = nomloc_net::DaemonConfig::default();
    let handle = nomloc_net::spawn(server, config, "127.0.0.1:0").expect("spawn session daemon");
    let addr = handle.local_addr();
    let stateless = nomloc_net::LoadgenConfig {
        connections: 8,
        ..nomloc_net::LoadgenConfig::default()
    };
    let sessioned = nomloc_net::LoadgenConfig {
        connections: 8,
        sessions: true,
        ..nomloc_net::LoadgenConfig::default()
    };
    let mut smoothed_replies = 0usize;
    let (sessioned_ns, stateless_ns, ratio) = lpcmp::paired_ns(
        rounds(150),
        1,
        || {
            let tracked =
                nomloc_net::loadgen::run(addr, &sessioned, batch).expect("sessioned pass");
            assert_eq!(
                tracked.ok_count(),
                batch.len(),
                "sessioned pass answers everything"
            );
            smoothed_replies = tracked.session_deviations().iter().map(|(_, n, _)| n).sum();
        },
        || {
            let base = nomloc_net::loadgen::run(addr, &stateless, batch).expect("stateless pass");
            assert_eq!(
                base.ok_count(),
                batch.len(),
                "stateless pass answers everything"
            );
        },
    );
    handle.shutdown();
    let n = batch.len() as f64;
    SessionCost {
        requests: batch.len(),
        stateless_ns_per_request: stateless_ns / n,
        sessioned_ns_per_request: sessioned_ns / n,
        ratio,
        smoothed_replies,
    }
}

/// The loadgen-shaped loopback workload: each request carries one CSI
/// report per static AP of the Lab venue, for a different test site.
/// Drawn from the shared [`synthetic_workload`] builder in
/// `nomloc_core::scenario` — the same traffic the CLI's loopback commands
/// generate, so numbers here describe the same bytes users replay.
fn workload(n: usize, packets: usize) -> Vec<Vec<CsiReport>> {
    synthetic_workload(&Venue::lab(), n, packets, 0).1
}

/// Minimum wall-clock ns of `f` over `rounds` passes.
fn min_ns(rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds.max(1) {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// The pre-optimization burst PDP, replicated stage for stage: a fresh
/// windowed-CSI vector per packet, the iterative (unplanned) IFFT kernel
/// into a per-burst scratch, a materialized per-packet tap-power vector
/// (the old path built a full `DelayProfile` and then asked for its
/// peak), a fresh per-packet list, and a median over a sorted copy.
fn pdp_burst_naive(est: &PdpEstimator, burst: &[CsiSnapshot]) -> Option<f64> {
    let mut scratch: Vec<Complex> = Vec::new();
    let per_packet: Vec<f64> = burst
        .iter()
        .map(|s| {
            let n = s.h.len();
            let tapered = est.window.apply(&s.h);
            fft::ifft_padded_into_unplanned(&tapered, est.min_taps, &mut scratch);
            let gain = scratch.len() as f64 / n as f64;
            let powers: Vec<f64> = scratch.iter().map(|h| (*h * gain).norm_sq()).collect();
            // `DelayProfile::peak`'s scan: max_by over total_cmp.
            powers
                .iter()
                .copied()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(_, p)| p)
                .expect("padded IFFT output is never empty")
        })
        .collect();
    nomloc_dsp::stats::median(&per_packet)
}

/// Builds the reply frame a request's solve outcome encodes to.
fn response_of(
    request_id: u64,
    result: Result<nomloc_core::LocationEstimate, nomloc_core::EstimateError>,
) -> LocateResponse {
    match result {
        Ok(est) => LocateResponse {
            request_id,
            outcome: Ok(WireEstimate::from_core(&est)),
        },
        Err(e) => LocateResponse {
            request_id,
            outcome: Err(ErrorReply {
                code: ErrorCode::from_estimate_error(&e),
                message: e.to_string(),
            }),
        },
    }
}

fn main() {
    let n_requests = if quick_mode() { 32 } else { 64 };
    let requests = workload(n_requests, 2);
    let n = requests.len() as f64;

    let venue = Venue::lab();
    let area = venue.plan.boundary().clone();
    let server = LocalizationServer::new(area.clone());
    let estimator = SpEstimator::new();
    let pdp = PdpEstimator::new();

    // Pre-encoded request frames: the bytes a loadgen connection writes.
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .enumerate()
        .map(|(i, reports)| {
            wire::frame_to_vec(&Frame::LocateRequest(LocateRequest {
                request_id: i as u64,
                deadline_us: 0,
                venue_id: 0,
                session_id: 0,
                reports: reports.iter().map(WireReport::from_core).collect(),
            }))
        })
        .collect();

    // Intermediate products for the per-stage rows, computed once.
    let readings_all: Vec<_> = requests
        .iter()
        .map(|r| server.extract_readings(r))
        .collect();
    let judgements_all: Vec<_> = readings_all.iter().map(|r| server.judge(r)).collect();
    let response_frames: Vec<Frame> = judgements_all
        .iter()
        .enumerate()
        .map(|(i, j)| Frame::LocateResponse(response_of(i as u64, estimator.estimate(j, &area))))
        .collect();

    // --- Stage attribution: ns per request through each pipeline stage.
    let stage_rounds = rounds(100);
    let decode_ns = min_ns(stage_rounds, || {
        for bytes in &frames {
            let (frame, _) = wire::decode_frame(bytes).expect("benchmark frame decodes");
            if let Frame::LocateRequest(req) = frame {
                black_box(req.to_core_reports().expect("benchmark reports are valid"));
            }
        }
    }) / n;
    let constraints_ns = min_ns(stage_rounds, || {
        for readings in &readings_all {
            black_box(server.judge(readings));
        }
    }) / n;
    let lp_ns = min_ns(stage_rounds, || {
        for judgements in &judgements_all {
            black_box(estimator.estimate(judgements, &area).ok());
        }
    }) / n;
    // Each daemon thread encodes its replies into one reused buffer.
    let mut reply_buf = Vec::new();
    let mut encode_reused = |frame: &Frame| {
        reply_buf.clear();
        wire::encode_frame(frame, &mut reply_buf);
        black_box(reply_buf.len());
    };
    let encode_ns = min_ns(stage_rounds, || {
        response_frames.iter().for_each(&mut encode_reused)
    }) / n;

    // --- Planned vs iterative FFT kernel, 256-point (the default
    // serving transform size for Intel 5300 CSI padded to 256 taps).
    let template: Vec<Complex> = (0..256)
        .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.113).cos()))
        .collect();
    let mut planned_buf = template.clone();
    let mut naive_buf = template.clone();
    let (fft_planned_ns, fft_naive_ns) = lpcmp::paired_min_ns(
        rounds(300),
        128,
        || {
            planned_buf.copy_from_slice(&template);
            fft::fft_radix2(black_box(&mut planned_buf), false);
        },
        || {
            naive_buf.copy_from_slice(&template);
            fft::fft_radix2_unplanned(black_box(&mut naive_buf), false);
        },
    );

    // --- PDP extraction at 64-point transforms: planned + scratch
    // against the pre-plan allocating path, per burst.
    let est64 = PdpEstimator {
        min_taps: 64,
        ..PdpEstimator::default()
    };
    let all_reports: Vec<&CsiReport> = requests.iter().flatten().collect();
    let mut scratch = PdpScratch::new();
    let (pdp64_planned_ns, pdp64_naive_ns) = lpcmp::paired_min_ns(
        rounds(200),
        1,
        || {
            for r in &all_reports {
                black_box(est64.pdp_of_burst_with(&r.burst, &mut scratch));
            }
        },
        || {
            for r in &all_reports {
                black_box(pdp_burst_naive(&est64, &r.burst));
            }
        },
    );
    let bursts = all_reports.len() as f64;
    let (pdp64_planned_ns, pdp64_naive_ns) = (pdp64_planned_ns / bursts, pdp64_naive_ns / bursts);

    // --- The PDP stage (`extract_readings`, the batched SoA path) against
    // the per-packet planned kernel, at the serving shape: each request's
    // reports extracted together (4 APs × 2 packets = 8 lockstep lanes
    // per dispatch) versus the pre-batching hot path replicated exactly —
    // the planned scalar kernel per snapshot with reused scratch, median
    // per burst. The stage's time here is also its `stages` row, and the
    // median per-round ratio of the two is what check.sh gates: it holds
    // still where the stage's time alone swings by ±25% between runs.
    let mut scalar_scratch = PdpScratch::new();
    let mut scalar_peaks: Vec<f64> = Vec::new();
    let (pdp_batched_ns, pdp_per_packet_ns, pdp_batched_ratio) = lpcmp::paired_ns(
        rounds(500),
        1,
        || {
            for reports in &requests {
                black_box(server.extract_readings(reports));
            }
        },
        || {
            for reports in &requests {
                for r in reports {
                    scalar_peaks.clear();
                    scalar_peaks.extend(
                        r.burst
                            .iter()
                            .map(|s| pdp.pdp_of_snapshot_with(s, &mut scalar_scratch)),
                    );
                    black_box(nomloc_dsp::stats::median_in_place(&mut scalar_peaks));
                }
            }
        },
    );
    let (pdp_batched_ns, pdp_per_packet_ns) = (pdp_batched_ns / n, pdp_per_packet_ns / n);
    let pdp_ns = pdp_batched_ns;

    // --- Reused vs fresh reply encode buffer, per frame.
    let (encode_reused_ns, encode_fresh_ns) = lpcmp::paired_min_ns(
        rounds(300),
        1,
        || response_frames.iter().for_each(&mut encode_reused),
        || {
            for frame in &response_frames {
                black_box(wire::frame_to_vec(frame));
            }
        },
    );
    let (encode_reused_ns, encode_fresh_ns) = (encode_reused_ns / n, encode_fresh_ns / n);

    // --- End to end: decode → PDP → constraints → LP → encode, the
    // optimized pipeline against the pre-optimization replica.
    let e2e_rounds = rounds(100);
    let (e2e_optimized_ns, e2e_naive_ns) = lpcmp::paired_min_ns(
        e2e_rounds,
        1,
        || {
            for bytes in &frames {
                let (frame, _) = wire::decode_frame(bytes).expect("benchmark frame decodes");
                let Frame::LocateRequest(req) = frame else {
                    unreachable!("workload frames are requests");
                };
                let reports = req.to_core_reports().expect("benchmark reports are valid");
                let readings = server.extract_readings(&reports);
                let judgements = server.judge(&readings);
                let response = response_of(req.request_id, estimator.estimate(&judgements, &area));
                encode_reused(&Frame::LocateResponse(response));
            }
        },
        || {
            for bytes in &frames {
                let (frame, _) = wire::decode_frame(bytes).expect("benchmark frame decodes");
                let Frame::LocateRequest(req) = frame else {
                    unreachable!("workload frames are requests");
                };
                let reports = req.to_core_reports().expect("benchmark reports are valid");
                let readings: Vec<_> = reports
                    .iter()
                    .filter_map(|r| {
                        let value = pdp_burst_naive(&pdp, &r.burst)?;
                        nomloc_core::PdpReading::try_new(r.site, value).ok()
                    })
                    .collect();
                let judgements = server.judge(&readings);
                let response = response_of(req.request_id, estimator.estimate(&judgements, &area));
                black_box(wire::frame_to_vec(&Frame::LocateResponse(response)));
            }
        },
    );
    let (e2e_optimized_ns, e2e_naive_ns) = (e2e_optimized_ns / n, e2e_naive_ns / n);

    let fft_speedup = fft_naive_ns / fft_planned_ns;
    let pdp_batched_speedup = pdp_per_packet_ns / pdp_batched_ns;
    let pdp64_speedup = pdp64_naive_ns / pdp64_planned_ns;
    let encode_speedup = encode_fresh_ns / encode_reused_ns;
    let e2e_speedup = e2e_naive_ns / e2e_optimized_ns;

    // --- Mostly-idle connection scaling.
    let (idle_target, soak_requests) = if quick_mode() {
        (2_000, 200)
    } else {
        (10_000, 400)
    };
    let soak = run_soak(idle_target, soak_requests);

    // --- Dispatch plane at 1 and 100 live venues.
    let dispatch_requests = if quick_mode() { 12_000 } else { 16_000 };
    let dispatch_scales = run_dispatch(&[1, 100], dispatch_requests);

    // --- Session plane: per-request cost of stateful tracking.
    let session_batch = workload(if quick_mode() { 240 } else { 480 }, 2);
    let sessions = run_sessions(&session_batch);
    let sessions_json = format!(
        "{{\"requests\": {}, \"stateless_ns_per_request\": {:.1}, \"sessioned_ns_per_request\": {:.1}, \"ratio\": {:.4}, \"smoothed_replies\": {}}}",
        sessions.requests,
        sessions.stateless_ns_per_request,
        sessions.sessioned_ns_per_request,
        sessions.ratio,
        sessions.smoothed_replies,
    );
    let dispatch_json: Vec<String> = dispatch_scales
        .iter()
        .map(|d| {
            format!(
                "{{\"live_venues\": {}, \"connections\": {}, \"requests\": {}, \"queue_shards\": {}, \"ns_per_request\": {:.1}, \"closed_rps\": {:.0}, \"worst_worker_p99_ns\": {:.0}, \"queue_steals\": {}, \"enqueue_contention\": {}, \"depth_peak\": {}}}",
                d.live_venues,
                d.connections,
                d.requests,
                d.queue_shards,
                d.ns_per_request,
                d.closed_rps,
                d.worst_worker_p99_ns,
                d.queue_steals,
                d.enqueue_contention,
                d.depth_peak,
            )
        })
        .collect();
    let dispatch_json = format!("[{}]", dispatch_json.join(", "));
    let soak_json = match &soak {
        Some(s) => format!(
            "{{\"idle_target\": {}, \"connections_held\": {}, \"active_requests\": {}, \"active_ns_per_request\": {:.1}, \"active_p99_ns_base\": {:.0}, \"active_p99_ns_idle\": {:.0}, \"idle_p99_ratio\": {:.3}, \"daemon_rss_delta_bytes\": {}, \"rss_bytes_per_connection\": {:.1}}}",
            s.idle_target,
            s.connections_held,
            s.active_requests,
            s.active_ns_per_request,
            s.active_p99_ns_base,
            s.active_p99_ns_idle,
            s.active_p99_ns_idle / s.active_p99_ns_base.max(1.0),
            s.daemon_rss_delta_bytes,
            s.rss_bytes_per_connection,
        ),
        None => "null".to_string(),
    };

    let json = format!(
        "{{\n  \"requests\": {n_requests},\n  \"stages\": {{\"decode_ns_per_request\": {decode_ns:.1}, \"pdp_ns_per_request\": {pdp_ns:.1}, \"constraints_ns_per_request\": {constraints_ns:.1}, \"lp_ns_per_request\": {lp_ns:.1}, \"encode_ns_per_request\": {encode_ns:.1}}},\n  \"fft\": {{\"points\": 256, \"planned_ns\": {fft_planned_ns:.1}, \"naive_ns\": {fft_naive_ns:.1}, \"speedup\": {fft_speedup:.4}}},\n  \"pdp_batched\": {{\"batched_ns_per_request\": {pdp_batched_ns:.1}, \"per_packet_ns_per_request\": {pdp_per_packet_ns:.1}, \"speedup\": {pdp_batched_speedup:.4}, \"ratio\": {pdp_batched_ratio:.4}}},\n  \"pdp_64\": {{\"planned_ns_per_burst\": {pdp64_planned_ns:.1}, \"unplanned_ns_per_burst\": {pdp64_naive_ns:.1}, \"speedup\": {pdp64_speedup:.4}}},\n  \"encode\": {{\"reused_ns_per_reply\": {encode_reused_ns:.1}, \"fresh_ns_per_reply\": {encode_fresh_ns:.1}, \"speedup\": {encode_speedup:.4}}},\n  \"end_to_end\": {{\"optimized_ns_per_request\": {e2e_optimized_ns:.1}, \"naive_ns_per_request\": {e2e_naive_ns:.1}, \"speedup\": {e2e_speedup:.4}}},\n  \"soak\": {soak_json},\n  \"dispatch\": {dispatch_json},\n  \"sessions\": {sessions_json}\n}}\n"
    );

    println!(
        "serving stages (ns/request): decode {decode_ns:.0} | pdp {pdp_ns:.0} | \
         constraints {constraints_ns:.0} | lp {lp_ns:.0} | encode {encode_ns:.0}"
    );
    println!(
        "fft 256-pt: planned {fft_planned_ns:.1} ns, naive {fft_naive_ns:.1} ns — \
         speedup {fft_speedup:.3}x"
    );
    println!(
        "pdp batched: {pdp_batched_ns:.0} ns/req stage (batched SoA), {pdp_per_packet_ns:.0} ns/req \
         per-packet planned — speedup {pdp_batched_speedup:.3}x, median round ratio \
         {pdp_batched_ratio:.3}"
    );
    println!(
        "pdp 64-pt: planned {pdp64_planned_ns:.0} ns/burst, unplanned {pdp64_naive_ns:.0} \
         ns/burst — speedup {pdp64_speedup:.3}x"
    );
    println!(
        "encode: reused {encode_reused_ns:.0} ns/reply, fresh {encode_fresh_ns:.0} ns/reply — \
         speedup {encode_speedup:.3}x"
    );
    println!(
        "end-to-end: optimized {e2e_optimized_ns:.0} ns/req, naive {e2e_naive_ns:.0} ns/req — \
         speedup {e2e_speedup:.3}x"
    );
    if let Some(s) = &soak {
        println!(
            "soak: {} idle connections held — active {:.0} ns/req, \
             p99 {:.2} ms idle vs {:.2} ms base ({:.2}x), daemon RSS {:+} KiB ({:.0} B/conn)",
            s.connections_held,
            s.active_ns_per_request,
            s.active_p99_ns_idle / 1e6,
            s.active_p99_ns_base / 1e6,
            s.active_p99_ns_idle / s.active_p99_ns_base.max(1.0),
            s.daemon_rss_delta_bytes / 1024,
            s.rss_bytes_per_connection,
        );
    }

    for d in &dispatch_scales {
        println!(
            "dispatch: {} venues, {} conns — {:.0} ns/req, closed-loop {:.0} rps, worst worker \
             p99 {:.2} ms, {} steals, {} contended enqueues, depth peak {}",
            d.live_venues,
            d.connections,
            d.ns_per_request,
            d.closed_rps,
            d.worst_worker_p99_ns / 1e6,
            d.queue_steals,
            d.enqueue_contention,
            d.depth_peak,
        );
    }

    println!(
        "sessions: sessioned {:.0} ns/req vs stateless {:.0} ns/req — median round ratio \
         {:.3} ({} smoothed replies)",
        sessions.sessioned_ns_per_request,
        sessions.stateless_ns_per_request,
        sessions.ratio,
        sessions.smoothed_replies,
    );

    let path = std::env::var("NOMLOC_BENCH_SERVING_JSON")
        .unwrap_or_else(|_| "BENCH_serving.json".to_string());
    std::fs::write(&path, &json).expect("write BENCH_serving.json");
    println!("wrote {path}");
}
