//! Machine-readable serving benchmark: the rows `bench_gate` holds
//! `scripts/check.sh` to, written as `BENCH_serving.json` (in the current
//! directory, or `$NOMLOC_BENCH_SERVING_JSON`).
//!
//! - `crc`: the frame CRC over one dense request payload, ns per KiB.
//! - `pdp_batched`: the PDP stage (`extract_readings`) against the
//!   per-packet planned kernel, paired round by round; `ratio` is the
//!   median per-round ratio.
//! - `soak`: active traffic with and without an idle crowd held open,
//!   paired round by round against one daemon; `idle_p99_ratio` is the
//!   median per-round p99 ratio.
//! - `dispatch`: the admission/dispatch queue's pipelined ns/request at 1
//!   and 100 live venues.
//! - `sessions`: sessioned over stateless serving, paired round by round.
//!
//! Per-layer costs of a request over a real socket (decode, PDP, judge,
//! localize, encode) are loadbench's traced rows, not this file's.
//! `NOMLOC_BENCH_QUICK` selects the quick sizes check.sh gates in.

use nomloc_bench::{lpcmp, quick_mode, rounds};
use nomloc_core::scenario::{synthetic_workload, Venue};
use nomloc_core::server::CsiReport;
use nomloc_core::{ApSite, LocalizationServer, PdpEstimator, PdpScratch};
use nomloc_dsp::stats::median_in_place;
use nomloc_net::crc32::crc32;
use nomloc_net::wire::{self, Frame, LocateRequest, WireReport, WireVenue};
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
    idle_p99_ratio: f64,
    daemon_rss_delta_bytes: i64,
    rss_bytes_per_connection: f64,
}

/// Resident set size of `pid` in bytes (Linux `/proc`; `None` elsewhere).
fn rss_of(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    Some(line.split_whitespace().nth(1)?.parse::<u64>().ok()? * 1024)
}

/// Open file descriptors of `pid` (Linux `/proc`; `None` elsewhere).
fn fds_of(pid: u32) -> Option<usize> {
    Some(std::fs::read_dir(format!("/proc/{pid}/fd")).ok()?.count())
}

/// Waits (up to 5 s) until `pid` holds no more than `fds` descriptors,
/// i.e. until the daemon has closed the crowd a soak pass dropped.
fn settle_fds(pid: u32, fds: Option<usize>) {
    let Some(fds) = fds else { return };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while fds_of(pid).is_some_and(|n| n > fds) && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// `n` requests of one empty-burst report each: the cheapest request
/// shape, so socket and queue costs dominate the solve.
fn empty_burst_batch(n: usize) -> Vec<Vec<CsiReport>> {
    let ap = Venue::lab().static_deployment()[0];
    (0..n)
        .map(|_| {
            vec![CsiReport {
                site: ApSite::fixed(1, ap),
                burst: Vec::new(),
            }]
        })
        .collect()
}

/// The mostly-idle scaling soak: a daemon in its own subprocess (the fd
/// rlimit is per process, so splitting the 2 × 10k socket endpoints
/// across two processes is what lets a 10k run fit), and the same small
/// active workload driven without and then with `idle_target` idle
/// connections held open, back to back in each of `rounds` rounds. The
/// gated `idle_p99_ratio` is the median over rounds of the idle pass's
/// p99 over the base pass's: a slow spell of the host lifts both passes
/// of a round, and the median drops the rounds a stall split (a single
/// pair of 200-request p99s read 0.21x–18.97x on clean runs). The two
/// p99 rows are the medians of each side's per-round p99s. Also records
/// how many connections every round held and the daemon's RSS cost per
/// idle connection (sampled before the first crowd and after the last).
///
/// The active workload is closed-loop: 4 workers, one request in flight
/// each, so every request waits on its own daemon wake-up and a cost
/// the crowd adds per wake-up shows in its latency. (With every request
/// pipelined at once, the p99 is the pass's makespan, which a handful
/// of wake-ups cover.)
///
/// Needs `target/…/nomloc` next to this benchmark binary (the tier-1
/// `cargo build --release` in `scripts/check.sh` provides it); returns
/// `None` with a warning when it is missing rather than failing the
/// whole benchmark.
fn run_soak(idle_target: usize, active_requests: usize, rounds: usize) -> Option<SoakResult> {
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

    let batch = empty_burst_batch(active_requests);
    let base_config = nomloc_net::LoadgenConfig {
        concurrency: 4,
        ..nomloc_net::LoadgenConfig::default()
    };
    let soak_config = nomloc_net::LoadgenConfig {
        idle_connections: idle_target,
        ..base_config.clone()
    };
    let p99_ns = |r: &nomloc_net::LoadgenReport| r.latency_quantile(0.99).as_nanos() as f64;
    let (mut base_p99, mut idle_p99, mut ratios, mut idle_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rss_before = None;
    let mut held = usize::MAX;
    // The daemon closes the last crowd before each base pass, so no base
    // pass shares the host with a crowd's teardown. It may keep a few
    // sockets of answered requests open until its next batch, so the
    // wait ends once 99% of the crowd is closed.
    let settled_fds = fds_of(child.id()).map(|n| n + idle_target / 100);
    for round in 0..rounds.max(1) {
        settle_fds(child.id(), settled_fds);
        // Wake the daemon after the wait, so the base pass does not
        // alone pay for the idle spell.
        nomloc_net::loadgen::run(addr, &base_config, &batch[..batch.len().min(20)])
            .expect("warm-up pass");
        let base = nomloc_net::loadgen::run(addr, &base_config, &batch).expect("baseline pass");
        if round == 0 {
            rss_before = rss_of(child.id());
        }
        let soak = nomloc_net::loadgen::run(addr, &soak_config, &batch).expect("soak pass");
        held = held.min(soak.idle_held);
        base_p99.push(p99_ns(&base));
        idle_p99.push(p99_ns(&soak));
        ratios.push(p99_ns(&soak) / p99_ns(&base).max(1.0));
        idle_ns.push(1.0e9 / soak.throughput_rps());
    }
    // RSS is sampled after the last crowd; the daemon keeps the write
    // buffers and slab slots the crowd forced to exist, which is
    // precisely the steady-state cost the soak wants to price.
    let rss_after = rss_of(child.id());
    let _ = child.kill();
    let _ = child.wait();

    let delta = match (rss_before, rss_after) {
        (Some(b), Some(a)) => a as i64 - b as i64,
        _ => 0,
    };
    let median = |v: &mut Vec<f64>| median_in_place(v).expect("at least one round");
    Some(SoakResult {
        idle_target,
        connections_held: held,
        active_requests,
        active_ns_per_request: median(&mut idle_ns),
        active_p99_ns_base: median(&mut base_p99),
        active_p99_ns_idle: median(&mut idle_p99),
        idle_p99_ratio: median(&mut ratios),
        daemon_rss_delta_bytes: delta,
        rss_bytes_per_connection: if held > 0 {
            delta.max(0) as f64 / held as f64
        } else {
            0.0
        },
    })
}

/// Dispatch-queue cost at one venue count (see [`run_dispatch`]).
struct DispatchScale {
    live_venues: usize,
    connections: usize,
    requests: usize,
    ns_per_request: f64,
    closed_rps: f64,
    worst_worker_p99_ns: f64,
    depth_peak: u64,
}

/// Prices the admission/dispatch queue itself, per venue count, in
/// min-of-rounds passes.
///
/// Two traffic shapes per scale:
///
/// - **Pipelined** (8 connections, every request in flight at once): the
///   queue runs deep and batchers pop already-homogeneous venue FIFOs.
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
    let batch = empty_burst_batch(requests_per_pass);

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
                ns_per_request: best_ns,
                closed_rps: best_rps,
                worst_worker_p99_ns: best_p99,
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
/// which a slow spell of the host lifts on both sides alike. Quick mode
/// keeps 60 rounds, not a tenth of the full count: with 15, one clean
/// run in about 20 read over check.sh's 1.15 limit.
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
        if quick_mode() { 60 } else { 150 },
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

fn main() {
    let n_requests = if quick_mode() { 32 } else { 64 };
    let requests = workload(n_requests, 2);
    let n = requests.len() as f64;
    let server = LocalizationServer::new(Venue::lab().plan.boundary().clone());
    let pdp = PdpEstimator::new();

    // --- Frame CRC over one dense request's payload (4 APs × 16 packets,
    // the `lab-dense` loadbench shape): the checksum both decode and
    // encode pay per frame, in ns per KiB. Gated against the committed
    // figure, so a host that silently falls back from the
    // carry-less-multiply kernel to slicing-by-8 (about 15× slower)
    // fails the run.
    let dense_frame = wire::frame_to_vec(&Frame::LocateRequest(LocateRequest {
        request_id: 0,
        deadline_us: 0,
        venue_id: 0,
        session_id: 0,
        reports: workload(1, 16)[0]
            .iter()
            .map(WireReport::from_core)
            .collect(),
    }));
    let crc_payload = &dense_frame[wire::HEADER_LEN..];
    let crc_ns = min_ns(rounds(300), || {
        for _ in 0..16 {
            black_box(crc32(black_box(crc_payload)));
        }
    }) / 16.0;
    let crc_payload_bytes = crc_payload.len();
    let crc_ns_per_kib = crc_ns * 1024.0 / crc_payload_bytes as f64;

    // --- The PDP stage (`extract_readings`, the batched SoA path) against
    // the per-packet planned kernel, at the serving shape: each request's
    // reports extracted together (4 APs × 2 packets = 8 lockstep lanes
    // per dispatch) versus the planned scalar kernel per snapshot with
    // reused scratch, median per burst. The median per-round ratio of the
    // two is the gated row: it holds still where the stage's time alone
    // swings by ±25% between runs.
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
                    black_box(median_in_place(&mut scalar_peaks));
                }
            }
        },
    );
    let (pdp_batched_ns, pdp_per_packet_ns) = (pdp_batched_ns / n, pdp_per_packet_ns / n);
    let pdp_batched_speedup = pdp_per_packet_ns / pdp_batched_ns;

    // --- Mostly-idle connection scaling.
    let (idle_target, soak_requests, soak_rounds) = if quick_mode() {
        (2_000, 200, 15)
    } else {
        (10_000, 400, 30)
    };
    let soak = run_soak(idle_target, soak_requests, soak_rounds);

    // --- Dispatch queue at 1 and 100 live venues.
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
                "{{\"live_venues\": {}, \"connections\": {}, \"requests\": {}, \"ns_per_request\": {:.1}, \"closed_rps\": {:.0}, \"worst_worker_p99_ns\": {:.0}, \"depth_peak\": {}}}",
                d.live_venues,
                d.connections,
                d.requests,
                d.ns_per_request,
                d.closed_rps,
                d.worst_worker_p99_ns,
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
            s.idle_p99_ratio,
            s.daemon_rss_delta_bytes,
            s.rss_bytes_per_connection,
        ),
        None => "null".to_string(),
    };

    let json = format!(
        "{{\n  \"requests\": {n_requests},\n  \"crc\": {{\"payload_bytes\": {crc_payload_bytes}, \"ns_per_kib\": {crc_ns_per_kib:.2}}},\n  \"pdp_batched\": {{\"batched_ns_per_request\": {pdp_batched_ns:.1}, \"per_packet_ns_per_request\": {pdp_per_packet_ns:.1}, \"speedup\": {pdp_batched_speedup:.4}, \"ratio\": {pdp_batched_ratio:.4}}},\n  \"soak\": {soak_json},\n  \"dispatch\": {dispatch_json},\n  \"sessions\": {sessions_json}\n}}\n"
    );

    println!(
        "crc32: {crc_ns:.0} ns per {crc_payload_bytes}-byte dense request payload \
         ({crc_ns_per_kib:.2} ns/KiB)"
    );
    println!(
        "pdp batched: {pdp_batched_ns:.0} ns/req stage (batched SoA), {pdp_per_packet_ns:.0} ns/req \
         per-packet planned — speedup {pdp_batched_speedup:.3}x, median round ratio \
         {pdp_batched_ratio:.3}"
    );
    if let Some(s) = &soak {
        println!(
            "soak: {} idle connections held — active {:.0} ns/req, \
             p99 {:.2} ms idle vs {:.2} ms base (median round ratio {:.2}x over {soak_rounds}), \
             daemon RSS {:+} KiB ({:.0} B/conn)",
            s.connections_held,
            s.active_ns_per_request,
            s.active_p99_ns_idle / 1e6,
            s.active_p99_ns_base / 1e6,
            s.idle_p99_ratio,
            s.daemon_rss_delta_bytes / 1024,
            s.rss_bytes_per_connection,
        );
    }

    for d in &dispatch_scales {
        println!(
            "dispatch: {} venues, {} conns — {:.0} ns/req, closed-loop {:.0} rps, worst worker \
             p99 {:.2} ms, depth peak {}",
            d.live_venues,
            d.connections,
            d.ns_per_request,
            d.closed_rps,
            d.worst_worker_p99_ns / 1e6,
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
