//! A multi-connection load generator for the `nomloc-net` daemon.
//!
//! Drives a pre-generated request workload over `connections` parallel
//! TCP connections with full pipelining (every request is written without
//! waiting for its response), which is exactly the traffic shape the
//! daemon's cross-connection micro-batcher is built for. Per-request
//! latency is measured from the moment the frame is written to the moment
//! its response frame is decoded; quantiles are exact (computed from the
//! sorted sample set, not a histogram).

use crate::wire::{self, ErrorCode, ErrorReply, Frame, LocateRequest, WireEstimate, WireReport};
use nomloc_core::server::CsiReport;
use nomloc_faults::mix64;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Parallel TCP connections (requests are strided across them).
    pub connections: usize,
    /// Per-request deadline forwarded to the server, µs (0 = none).
    pub deadline_us: u32,
    /// Client-side read timeout per connection — a stuck server surfaces
    /// as an I/O error instead of a hang.
    pub read_timeout: Duration,
    /// How many times each connection may reconnect after a transport
    /// failure (reset, EOF, refused…) before giving up. Only requests
    /// still unanswered are resent on the fresh connection.
    pub max_reconnects: usize,
    /// Base delay of the capped exponential reconnect backoff; attempt
    /// `k` sleeps `base · 2^min(k-1, 5)` plus a deterministic jitter in
    /// `[0, base)` keyed on the connection index and attempt number.
    pub reconnect_backoff: Duration,
    /// Extra connections opened before the workload starts and held idle
    /// (no frames ever written) until every response is in — the
    /// mostly-idle soak shape of crowdsourced CSI traffic. Opened
    /// best-effort: the run proceeds with however many the OS allows,
    /// and [`LoadgenReport::idle_held`] reports the count actually held.
    pub idle_connections: usize,
    /// Venue ids traffic is spread over, rank-ordered hottest first (the
    /// zipf head is `venues[0]`). Empty sends everything to venue 0, the
    /// daemon's resident venue.
    pub venues: Vec<u64>,
    /// Zipf exponent `s` for the over-venues traffic skew: rank `k`
    /// (1-based) receives weight `1/k^s`. `0.0` is uniform; real fleet
    /// traffic is closer to `1.0`.
    pub zipf_s: f64,
    /// Seed for the deterministic request → venue assignment.
    pub zipf_seed: u64,
    /// Sessioned traffic: each connection becomes one long-lived session
    /// (`session_id = 1 + connection index`), carried across
    /// reconnect-and-resend so a session survives its transport dying.
    /// Replies then smooth through the daemon's session plane and the
    /// report breaks out the per-session smoothed-vs-raw deviation.
    pub sessions: bool,
    /// Closed-loop worker count. `0` (the default) keeps the open-loop
    /// fully pipelined shape. `N > 0` drives the workload with `N`
    /// synchronous workers instead — each on its own connection, sending
    /// one request and waiting for its reply before the next — the shape
    /// that measures contended dispatch throughput (aggregate RPS and
    /// per-worker p99) rather than pipelined batching latency. Overrides
    /// `connections`.
    pub concurrency: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            connections: 4,
            deadline_us: 0,
            read_timeout: Duration::from_secs(30),
            max_reconnects: 5,
            reconnect_backoff: Duration::from_millis(10),
            idle_connections: 0,
            venues: Vec::new(),
            zipf_s: 1.0,
            zipf_seed: 0,
            sessions: false,
            concurrency: 0,
        }
    }
}

/// Deterministic zipf-over-venues traffic assignment.
///
/// Request `i` hashes (via [`mix64`]) to a uniform sample that is pushed
/// through the zipf(`s`) CDF over the venue list, so the same
/// `(venues, s, seed)` triple always yields the same assignment — the
/// loadgen stamps it into the frame, and verifiers (the CLI's per-venue
/// breakdown, the bench bins, tests) recompute it independently.
#[derive(Debug, Clone)]
pub struct VenuePicker {
    venues: Vec<u64>,
    cdf: Vec<f64>,
    seed: u64,
}

impl VenuePicker {
    /// Builds the CDF once; `venues` is hottest-first rank order.
    pub fn new(venues: &[u64], s: f64, seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(venues.len());
        let mut total = 0.0f64;
        for k in 0..venues.len() {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        VenuePicker {
            venues: venues.to_vec(),
            cdf,
            seed,
        }
    }

    /// The picker a config describes.
    pub fn from_config(config: &LoadgenConfig) -> Self {
        VenuePicker::new(&config.venues, config.zipf_s, config.zipf_seed)
    }

    /// The venue request `request_id` travels to (venue 0 when the venue
    /// list is empty).
    pub fn pick(&self, request_id: u64) -> u64 {
        if self.venues.is_empty() {
            return 0;
        }
        // 53 mantissa-exact bits of the hash → uniform in [0, 1).
        let u = (mix64(self.seed, request_id) >> 11) as f64 / (1u64 << 53) as f64;
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.venues.len() - 1);
        self.venues[rank]
    }
}

/// Transport failures worth a reconnect; anything else (a protocol
/// violation, an unexpected frame) stays fatal so bugs are not retried
/// into silence.
fn is_reconnectable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}

/// The backoff before reconnect `attempt` (1-based) on connection `conn`:
/// capped exponential growth plus a deterministic sub-`base` jitter so
/// many clients reconnecting at once do not stampede in lockstep.
fn reconnect_delay(base: Duration, conn: u64, attempt: u64) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.saturating_sub(1).min(5) as u32);
    let base_ns = base.as_nanos().min(u128::from(u64::MAX)) as u64;
    let jitter_ns = if base_ns == 0 {
        0
    } else {
        mix64(conn, attempt) % base_ns
    };
    exp + Duration::from_nanos(jitter_ns)
}

/// The reply to one request, with its measured round-trip latency.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Round-trip latency (write of the request → decode of the reply).
    pub latency: Duration,
    /// The estimate, or the per-request error the server returned.
    pub reply: Result<WireEstimate, ErrorReply>,
}

/// The result of one load-generator run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// One outcome per request, indexed like the input slice.
    pub outcomes: Vec<RequestOutcome>,
    /// Wall-clock time from first connect to last response.
    pub elapsed: Duration,
    /// Reconnects performed across all connections.
    pub reconnects: u64,
    /// Idle connections actually held open for the whole run (see
    /// [`LoadgenConfig::idle_connections`]).
    pub idle_held: usize,
    /// Connections actually driven (the request → session mapping key).
    pub connections: usize,
    /// Whether the run carried session ids (see
    /// [`LoadgenConfig::sessions`]).
    pub sessions_enabled: bool,
    /// Closed-loop worker count the run was driven with (0 = open-loop
    /// pipelined; see [`LoadgenConfig::concurrency`]).
    pub concurrency: usize,
}

impl LoadgenReport {
    /// Requests answered with an estimate.
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.reply.is_ok()).count()
    }

    /// Requests answered with the given error code.
    pub fn error_count(&self, code: ErrorCode) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(&o.reply, Err(e) if e.code == code))
            .count()
    }

    /// Requests answered with an estimate of the given quality tier
    /// (the wire encoding of [`nomloc_core::EstimateQuality`]).
    pub fn quality_count(&self, tier: u8) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(&o.reply, Ok(e) if e.quality == tier))
            .count()
    }

    /// Goodput: requests answered with an estimate, per second of
    /// wall-clock time. Error replies (an `Overloaded` refusal above all)
    /// are not completions and do not count.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.ok_count() as f64 / self.elapsed.as_secs_f64()
    }

    /// Exact latency quantile `q ∈ [0, 1]` over all responses.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        Self::quantile_of(self.outcomes.iter().map(|o| o.latency).collect(), q)
    }

    fn quantile_of(mut lat: Vec<Duration>, q: f64) -> Duration {
        if lat.is_empty() {
            return Duration::ZERO;
        }
        lat.sort_unstable();
        let rank = ((q.clamp(0.0, 1.0) * lat.len() as f64).ceil() as usize).max(1);
        lat[rank - 1]
    }

    /// Per-worker exact latency quantiles for a closed-loop run: worker
    /// `w` owns requests `i % concurrency == w`. Empty for open-loop
    /// runs.
    pub fn per_worker_quantile(&self, q: f64) -> Vec<Duration> {
        (0..self.concurrency)
            .map(|w| {
                Self::quantile_of(
                    self.outcomes
                        .iter()
                        .skip(w)
                        .step_by(self.concurrency)
                        .map(|o| o.latency)
                        .collect(),
                    q,
                )
            })
            .collect()
    }

    /// Per-session smoothed-vs-raw deviation: for every Full/Region reply
    /// that carried a session block, the distance between the raw estimate
    /// and the session's smoothed position. Returns
    /// `(session_id, samples, mean deviation in metres)` per session,
    /// ascending by id; empty for stateless runs. A wildly large mean
    /// would indicate the session plane smoothing against the wrong
    /// track (cross-wiring) — the chaos verifier checks that exactly,
    /// this is the fleet-facing summary of the same signal.
    pub fn session_deviations(&self) -> Vec<(u64, usize, f64)> {
        if !self.sessions_enabled || self.connections == 0 {
            return Vec::new();
        }
        let mut acc: std::collections::BTreeMap<u64, (usize, f64)> =
            std::collections::BTreeMap::new();
        for (i, o) in self.outcomes.iter().enumerate() {
            let session_id = 1 + (i % self.connections) as u64;
            if let Ok(est) = &o.reply {
                if est.quality <= 1 {
                    if let Some(block) = &est.session {
                        let d = ((est.x - block.smoothed_x).powi(2)
                            + (est.y - block.smoothed_y).powi(2))
                        .sqrt();
                        if d.is_finite() {
                            let e = acc.entry(session_id).or_insert((0, 0.0));
                            e.0 += 1;
                            e.1 += d;
                        }
                    }
                }
            }
        }
        acc.into_iter()
            .map(|(sid, (n, sum))| (sid, n, sum / n.max(1) as f64))
            .collect()
    }

    /// Renders throughput plus p50/p95/p99 latency and outcome counts.
    pub fn render(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let typed_failures = self.error_count(ErrorCode::EstimateFailed)
            + self.error_count(ErrorCode::InsufficientJudgements)
            + self.error_count(ErrorCode::LpInfeasible)
            + self.error_count(ErrorCode::LpNumerical);
        let idle = if self.idle_held > 0 {
            format!(" with {} idle connections held", self.idle_held)
        } else {
            String::new()
        };
        let mut out = format!(
            "loadgen: {} requests in {:.1} ms — {:.0} ok req/s ({} reconnects){idle}\n\
             latency p50 {:.3} ms | p95 {:.3} ms | p99 {:.3} ms\n\
             ok {} | estimate-failed {} | malformed {} | overloaded {} | deadline {} | internal {}\n\
             quality full {} | region {} | centroid {} | predicted {}\n",
            self.outcomes.len(),
            ms(self.elapsed),
            self.throughput_rps(),
            self.reconnects,
            ms(self.latency_quantile(0.50)),
            ms(self.latency_quantile(0.95)),
            ms(self.latency_quantile(0.99)),
            self.ok_count(),
            typed_failures,
            self.error_count(ErrorCode::Malformed),
            self.error_count(ErrorCode::Overloaded),
            self.error_count(ErrorCode::DeadlineExceeded),
            self.error_count(ErrorCode::Internal),
            self.quality_count(0),
            self.quality_count(1),
            self.quality_count(2),
            self.quality_count(3),
        );
        if self.concurrency > 0 {
            let p99s = self.per_worker_quantile(0.99);
            let worst = p99s.iter().copied().max().unwrap_or(Duration::ZERO);
            out.push_str(&format!(
                "  closed-loop: {} workers | worst per-worker p99 {:.3} ms\n",
                self.concurrency,
                ms(worst),
            ));
        }
        for (sid, n, mean) in self.session_deviations() {
            out.push_str(&format!(
                "  session {sid}: {n} smoothed replies, raw-vs-smoothed mean {mean:.3} m\n"
            ));
        }
        out
    }
}

/// Runs the workload against a daemon at `addr`.
///
/// Request `i` travels on connection `i % connections` with
/// `request_id = i`; the returned outcomes are indexed the same way, so
/// `outcomes[i]` answers `requests[i]` and can be compared directly
/// against an in-process `process_batch` run over the same slice.
///
/// # Errors
///
/// Forwards connect/read/write errors and surfaces protocol violations
/// from the server as [`io::ErrorKind::InvalidData`].
pub fn run(
    addr: SocketAddr,
    config: &LoadgenConfig,
    requests: &[Vec<CsiReport>],
) -> io::Result<LoadgenReport> {
    let n = requests.len();
    let closed_loop = config.concurrency > 0;
    let connections = if closed_loop {
        config.concurrency.clamp(1, n.max(1))
    } else {
        config.connections.clamp(1, n.max(1))
    };
    let outcomes: Vec<Mutex<Option<RequestOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let reconnects = AtomicU64::new(0);
    // The idle herd connects before the clock starts (it models
    // *pre-existing* mostly-idle clients, not connection-setup load) and
    // is held until every response is in. Best-effort: stop at the first
    // failure (e.g. fd exhaustion) and report what was actually held.
    let mut idle: Vec<TcpStream> = Vec::with_capacity(config.idle_connections);
    for _ in 0..config.idle_connections {
        match TcpStream::connect(addr) {
            Ok(stream) => idle.push(stream),
            Err(_) => break,
        }
    }
    let idle_held = idle.len();
    let start = Instant::now();
    let errors: Mutex<Vec<io::Error>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for c in 0..connections {
            let outcomes = &outcomes;
            let errors = &errors;
            let reconnects = &reconnects;
            scope.spawn(move || {
                if let Err(e) = drive_connection(
                    addr,
                    config,
                    requests,
                    c,
                    connections,
                    outcomes,
                    reconnects,
                    closed_loop,
                ) {
                    errors.lock().unwrap().push(e);
                }
            });
        }
    });
    if let Some(e) = errors.into_inner().unwrap().into_iter().next() {
        return Err(e);
    }
    let elapsed = start.elapsed();
    drop(idle); // held across the whole active workload
    let outcomes = outcomes
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every request received a response")
        })
        .collect();
    Ok(LoadgenReport {
        outcomes,
        elapsed,
        reconnects: reconnects.into_inner(),
        idle_held,
        connections,
        sessions_enabled: config.sessions,
        concurrency: if closed_loop { connections } else { 0 },
    })
}

/// Drives the requests with `index % connections == conn`, reconnecting
/// (with capped exponential backoff) after transport failures and
/// resending only the requests still unanswered.
#[allow(clippy::too_many_arguments)]
fn drive_connection(
    addr: SocketAddr,
    config: &LoadgenConfig,
    requests: &[Vec<CsiReport>],
    conn: usize,
    connections: usize,
    outcomes: &[Mutex<Option<RequestOutcome>>],
    reconnects: &AtomicU64,
    closed_loop: bool,
) -> io::Result<()> {
    let all: Vec<usize> = (conn..requests.len()).step_by(connections).collect();
    if all.is_empty() {
        return Ok(());
    }
    let mut attempt = 0u64;
    loop {
        // `all` is ascending, so the filtered view stays sorted and the
        // reader's binary search keeps working across attempts.
        let unanswered: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| outcomes[i].lock().unwrap().is_none())
            .collect();
        if unanswered.is_empty() {
            return Ok(());
        }
        let pass = if closed_loop {
            drive_once_closed(addr, config, requests, &unanswered, outcomes, conn)
        } else {
            drive_once(addr, config, requests, &unanswered, outcomes, conn)
        };
        match pass {
            Ok(()) => return Ok(()),
            Err(e) if is_reconnectable(&e) && (attempt as usize) < config.max_reconnects => {
                attempt += 1;
                reconnects.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(reconnect_delay(
                    config.reconnect_backoff,
                    conn as u64,
                    attempt,
                ));
            }
            Err(e) => return Err(e),
        }
    }
}

/// One pipelined pass over `indices` on a fresh connection: a sender
/// thread writes every frame while this thread decodes responses until
/// all are in.
fn drive_once(
    addr: SocketAddr,
    config: &LoadgenConfig,
    requests: &[Vec<CsiReport>],
    indices: &[usize],
    outcomes: &[Mutex<Option<RequestOutcome>>],
    conn: usize,
) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    let mut write_half = stream.try_clone()?;
    let picker = VenuePicker::from_config(config);
    // The session follows the *connection index*, not the TCP connection:
    // a reconnect-and-resend keeps the same id, so the daemon resumes the
    // session instead of opening a fresh one.
    let session_id = if config.sessions { 1 + conn as u64 } else { 0 };

    // Send stamps, indexed by position in `indices`; stamped just before
    // the frame bytes hit the socket.
    let sent_at: Vec<Mutex<Option<Instant>>> =
        (0..indices.len()).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| -> io::Result<()> {
        let sender_indices = &indices;
        let sender_stamps = &sent_at;
        let picker = &picker;
        let sender: std::thread::ScopedJoinHandle<'_, io::Result<()>> = scope.spawn(move || {
            // One encode buffer for the whole pass: frames are encoded
            // into the reused backing store instead of allocating per
            // request (as each daemon thread encodes its replies).
            let mut bytes = Vec::new();
            for (slot, &i) in sender_indices.iter().enumerate() {
                let frame = Frame::LocateRequest(LocateRequest {
                    request_id: i as u64,
                    deadline_us: config.deadline_us,
                    venue_id: picker.pick(i as u64),
                    session_id,
                    reports: requests[i].iter().map(WireReport::from_core).collect(),
                });
                bytes.clear();
                wire::encode_frame(&frame, &mut bytes);
                *sender_stamps[slot].lock().unwrap() = Some(Instant::now());
                write_half.write_all(&bytes)?;
            }
            Ok(())
        });

        let mut reader = ResponseReader::new(stream);
        let mut received = 0usize;
        while received < indices.len() {
            let response = reader.next_response()?;
            let now = Instant::now();
            let id = response.request_id as usize;
            let slot = indices.binary_search(&id).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response for unknown request id {id}"),
                )
            })?;
            let sent = sent_at[slot].lock().unwrap().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response for request {id} before it was sent"),
                )
            })?;
            let previous = outcomes[id].lock().unwrap().replace(RequestOutcome {
                latency: now.duration_since(sent),
                reply: response.outcome,
            });
            if previous.is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("duplicate response for request id {id}"),
                ));
            }
            received += 1;
        }
        sender.join().expect("loadgen sender thread panicked")
    })
}

/// One closed-loop pass over `indices` on a fresh connection: send one
/// request, wait for its reply, send the next — the synchronous-worker
/// shape of [`LoadgenConfig::concurrency`]. Exactly one request is in
/// flight per connection, so each reply must answer the request just
/// sent.
fn drive_once_closed(
    addr: SocketAddr,
    config: &LoadgenConfig,
    requests: &[Vec<CsiReport>],
    indices: &[usize],
    outcomes: &[Mutex<Option<RequestOutcome>>],
    conn: usize,
) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    let mut write_half = stream.try_clone()?;
    let picker = VenuePicker::from_config(config);
    let session_id = if config.sessions { 1 + conn as u64 } else { 0 };
    let mut reader = ResponseReader::new(stream);
    let mut bytes = Vec::new();
    for &i in indices {
        let frame = Frame::LocateRequest(LocateRequest {
            request_id: i as u64,
            deadline_us: config.deadline_us,
            venue_id: picker.pick(i as u64),
            session_id,
            reports: requests[i].iter().map(WireReport::from_core).collect(),
        });
        bytes.clear();
        wire::encode_frame(&frame, &mut bytes);
        let sent = Instant::now();
        write_half.write_all(&bytes)?;
        let response = reader.next_response()?;
        let id = response.request_id as usize;
        if id != i {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("closed-loop reply mismatch: sent request {i}, got reply for {id}"),
            ));
        }
        let previous = outcomes[i].lock().unwrap().replace(RequestOutcome {
            latency: sent.elapsed(),
            reply: response.outcome,
        });
        if previous.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("duplicate response for request id {id}"),
            ));
        }
    }
    Ok(())
}

/// Incremental frame reader over the connection's read half (shared with
/// the chaos driver in [`crate::chaos`]).
pub(crate) struct ResponseReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ResponseReader {
    pub(crate) fn new(stream: TcpStream) -> Self {
        ResponseReader {
            stream,
            buf: Vec::new(),
        }
    }

    /// Adjusts the read timeout on the underlying stream.
    pub(crate) fn set_read_timeout(&self, timeout: Duration) -> io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))
    }

    pub(crate) fn next_response(&mut self) -> io::Result<wire::LocateResponse> {
        use std::io::Read;
        let mut tmp = [0u8; 64 * 1024];
        loop {
            match wire::decode_frame(&self.buf) {
                Ok((Frame::LocateResponse(resp), consumed)) => {
                    self.buf.drain(..consumed);
                    return Ok(resp);
                }
                Ok((other, _)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected frame from server: {other:?}"),
                    ));
                }
                Err(wire::WireError::Incomplete { .. }) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }
            let n = self.stream.read(&mut tmp)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-run",
                ));
            }
            self.buf.extend_from_slice(&tmp[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(reply: Result<WireEstimate, ErrorReply>) -> RequestOutcome {
        RequestOutcome {
            latency: Duration::from_millis(1),
            reply,
        }
    }

    #[test]
    fn throughput_counts_ok_replies_only() {
        let estimate = WireEstimate {
            x: 1.0,
            y: 2.0,
            relaxation_cost: 0.0,
            region_area: 0.0,
            n_constraints: 0,
            n_winning_pieces: 0,
            lp_iterations: 0,
            warm_start_hits: 0,
            phase1_pivots_saved: 0,
            quality: 0,
            session: None,
        };
        let refusal = ErrorReply {
            code: ErrorCode::Overloaded,
            message: "admission queue full".into(),
        };
        let mut outcomes = vec![outcome(Ok(estimate)); 3];
        outcomes.extend(vec![outcome(Err(refusal)); 7]);
        let report = LoadgenReport {
            outcomes,
            elapsed: Duration::from_secs(2),
            reconnects: 0,
            idle_held: 0,
            connections: 1,
            sessions_enabled: false,
            concurrency: 0,
        };
        assert_eq!(report.ok_count(), 3);
        assert_eq!(report.error_count(ErrorCode::Overloaded), 7);
        // 3 estimates over 2 s; the 7 refusals are not throughput.
        assert_eq!(report.throughput_rps(), 1.5);
    }
}
