//! The chaos driver: replays a workload against a live daemon while
//! injecting every [`FaultClass`] from a shared [`FaultPlan`], then
//! verifies the per-class serving contract against a fault-free baseline.
//!
//! The client, the daemon, and the verifier all hold the *same* plan, and
//! every fault decision is a pure function of `(seed, request_id)` — so
//! the client knows which frame to mangle, the daemon knows which solve
//! to panic, and the verifier independently predicts the expected outcome
//! of every request:
//!
//! | class | injected by | expected reply |
//! |---|---|---|
//! | `None` | — | `Ok`, bit-identical to the baseline |
//! | `CorruptCsi` | client (payload) | typed `Malformed` error |
//! | `DropReadings` | client (payload) | `Ok`, degraded quality tier |
//! | `TruncateFrame` | client (transport) | baseline `Ok` after clean retry |
//! | `CorruptFrame` | client (transport) | baseline `Ok` after clean retry |
//! | `DuplicateFrame` | client (transport) | baseline `Ok`, twice, identical |
//! | `DelayFrame` | client (transport) | baseline `Ok` (split write) |
//! | `KillConnection` | client (transport) | baseline `Ok` after resend |
//! | `InjectPanic` | daemon (compute) | typed `Internal` error |
//!
//! Requests are driven sequentially over one connection (reconnecting as
//! the faults demand), so each reply is unambiguously paired with its
//! request and the daemon's determinism makes the bit-identity assertion
//! meaningful.
//!
//! # Sessioned chaos
//!
//! With [`ChaosConfig::sessions`] > 0, requests round-robin across that
//! many concurrent session ids and the contract table shifts: the
//! verifier replays every session's tracker (the same deterministic
//! [`session_tracker`] the daemon runs, advanced one logical tick per
//! accepted estimate) and demands each reply's session block match the
//! replayed state **bit-identically**. Because ≥2 sessions interleave
//! over one venue, this doubles as a cross-wire detector: an answer
//! smoothed by the *wrong* session's tracker cannot match its own
//! session's replay. Warm sessions also upgrade the degraded rows —
//! a `CorruptCsi` request answers `Predicted` from the motion model
//! instead of `Malformed`, and a centroid-tier answer is promoted to
//! `Predicted` at the extrapolated position — and the verifier demands
//! exactly that upgrade, never anything worse than the stateless tier.
//! The orthogonal stale-session fault ([`FaultPlan::stale_session`])
//! force-expires every server-side session mid-run; the verifier models
//! it by resetting its replay state at the same (plan-deterministic)
//! requests.

use crate::loadgen::ResponseReader;
use crate::sessions::{session_tracker, SessionTable, SESSION_TICK_SECONDS};
use crate::wire::{
    self, ErrorCode, ErrorReply, Frame, LocateRequest, LocateResponse, WireEstimate, WireReport,
    WireSession,
};
use nomloc_core::server::CsiReport;
use nomloc_core::tracking::Tracker;
use nomloc_dsp::Complex;
use nomloc_faults::{CsiCorruption, DropMode, FaultClass, FaultPlan, FAULT_CLASSES};
use nomloc_geometry::{Point, Vec2};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Chaos-driver configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The shared fault plan (also hand it to the daemon via
    /// [`crate::DaemonConfig::fault_plan`] so `InjectPanic` fires).
    pub plan: FaultPlan,
    /// Read timeout for normal replies.
    pub read_timeout: Duration,
    /// How long to wait for the server's `Malformed` rejection of a
    /// corrupted frame before giving up on observing it (a flip that hits
    /// the length field leaves the server waiting for bytes instead).
    pub reject_probe: Duration,
    /// The venue every request in this run targets (0 = the daemon's
    /// resident venue). One chaos run exercises one venue; venue-isolation
    /// tests run two drivers against different venues concurrently.
    pub venue_id: u64,
    /// How many concurrent sessions the run interleaves (0 = stateless:
    /// every request carries `session_id = 0`). With `n > 0`, request `i`
    /// joins session `1 + i % n`, so consecutive requests alternate
    /// sessions and the verifier's per-session replay doubles as a
    /// cross-wire detector.
    pub sessions: u64,
    /// The daemon's live session table (from
    /// [`crate::DaemonHandle::sessions`]). Required for the plan's
    /// stale-session fault to fire: when set and
    /// [`FaultPlan::stale_session`] samples true for a request, the
    /// driver force-expires every session before sending it.
    pub session_table: Option<Arc<SessionTable>>,
}

impl ChaosConfig {
    /// Default timeouts around `plan`; stateless (no sessions).
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        ChaosConfig {
            plan,
            read_timeout: Duration::from_secs(10),
            reject_probe: Duration::from_millis(250),
            venue_id: 0,
            sessions: 0,
            session_table: None,
        }
    }

    /// The session id request `i` carries (0 when the run is stateless).
    #[must_use]
    pub fn session_id_for(&self, request_id: u64) -> u64 {
        if self.sessions == 0 {
            0
        } else {
            1 + request_id % self.sessions
        }
    }

    /// Whether the stale-session fault is live for this run (sessions on
    /// *and* the driver holds the daemon's table to expire).
    #[must_use]
    pub fn stale_sessions_live(&self) -> bool {
        self.sessions > 0 && self.session_table.is_some()
    }
}

/// The reply one chaos-driven request ended up with.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The fault class the plan assigned to this request.
    pub class: FaultClass,
    /// The final reply (after any clean retry the class calls for).
    pub reply: Result<WireEstimate, ErrorReply>,
}

/// The result of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// One outcome per request, indexed like the input workload.
    pub outcomes: Vec<ChaosOutcome>,
    /// Fresh connections opened after a transport fault burned one.
    pub reconnects: u64,
    /// Corrupted frames the server was *observed* rejecting with a
    /// protocol-level `Malformed` before the clean retry.
    pub rejections_observed: u64,
    /// Times the stale-session fault force-expired the server's sessions.
    pub stale_expiries: u64,
}

/// Aggregate counts from a verified chaos run.
#[derive(Debug, Clone)]
pub struct ChaosSummary {
    /// Requests driven.
    pub total: usize,
    /// Requests the plan faulted (class != `None`).
    pub faulted: usize,
    /// Replies required — and verified — to be bit-identical to the
    /// fault-free baseline.
    pub bit_identical: usize,
    /// Requests answered with the typed error their fault class demands.
    pub typed_errors: usize,
    /// Requests answered with a degraded-quality estimate as demanded.
    pub degraded: usize,
    /// Requests a warm session upgraded to the `Predicted` tier (and
    /// verified against the replayed motion model).
    pub predicted: usize,
    /// Request count per fault class, in [`FAULT_CLASSES`] order with
    /// `None` appended last.
    pub per_class: Vec<(FaultClass, usize)>,
}

impl ChaosSummary {
    /// Renders the summary for terminal output.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "chaos: {} requests, {} faulted — bit-identical {} | typed errors {} | \
             degraded {} | predicted {}\n",
            self.total,
            self.faulted,
            self.bit_identical,
            self.typed_errors,
            self.degraded,
            self.predicted
        );
        out.push_str("  per class:");
        for (class, n) in &self.per_class {
            out.push_str(&format!(" {class} {n}"));
        }
        out.push('\n');
        out
    }
}

/// What one sessioned check concluded (feeds the summary counters).
enum SessionVerdict {
    /// The reply matched the stateless baseline (plus, for estimate
    /// replies, the replayed session block).
    Identical,
    /// A warm session upgraded the reply to the `Predicted` tier, and the
    /// position matched the replayed motion model bit-exactly.
    Predicted,
}

impl ChaosReport {
    /// Checks every outcome against the per-class contract (table in the
    /// module docs), using `baseline[i]` as the **stateless** fault-free
    /// reply to request `i` (drive the baseline with `sessions = 0` —
    /// the verifier itself replays what sessions must add on top).
    ///
    /// With sessions enabled the verifier maintains one replayed
    /// [`session_tracker`] per session id, fed exactly as the daemon
    /// feeds its own (accepted estimates only, one logical tick each),
    /// and requires every session block — and every `Predicted` upgrade
    /// — to match the replay bit-identically.
    ///
    /// # Errors
    ///
    /// Returns one message per violated request.
    pub fn verify(
        &self,
        config: &ChaosConfig,
        baseline: &[Result<WireEstimate, ErrorReply>],
    ) -> Result<ChaosSummary, Vec<String>> {
        let plan = &config.plan;
        let mut violations = Vec::new();
        let mut summary = ChaosSummary {
            total: self.outcomes.len(),
            faulted: 0,
            bit_identical: 0,
            typed_errors: 0,
            degraded: 0,
            predicted: 0,
            per_class: FAULT_CLASSES
                .iter()
                .copied()
                .chain(std::iter::once(FaultClass::None))
                .map(|c| (c, 0))
                .collect(),
        };
        // The per-session replay state. A stale-session firing wipes it,
        // mirroring the force-expiry the driver inflicted on the daemon.
        let mut trackers: HashMap<u64, Tracker> = HashMap::new();
        for (i, outcome) in self.outcomes.iter().enumerate() {
            let id = i as u64;
            let class = outcome.class;
            if let Some(slot) = summary.per_class.iter_mut().find(|(c, _)| *c == class) {
                slot.1 += 1;
            }
            if class != FaultClass::None {
                summary.faulted += 1;
            }
            if config.stale_sessions_live() && plan.stale_session_fires(id) {
                trackers.clear();
            }
            let session_id = config.session_id_for(id);
            match class {
                FaultClass::None
                | FaultClass::TruncateFrame
                | FaultClass::CorruptFrame
                | FaultClass::DuplicateFrame
                | FaultClass::DelayFrame
                | FaultClass::KillConnection => {
                    let verdict = if session_id == 0 {
                        check_bit_identical(&outcome.reply, &baseline[i])
                            .map(|()| SessionVerdict::Identical)
                    } else {
                        // A killed or duplicated frame reaches the daemon
                        // twice; the observed reply may reflect either
                        // push, but the daemon's tracker always ends two
                        // pushes ahead (both copies carry the same raw).
                        let pushes = match class {
                            FaultClass::DuplicateFrame | FaultClass::KillConnection => 2,
                            _ => 1,
                        };
                        let tracker = trackers.entry(session_id).or_insert_with(session_tracker);
                        check_sessioned(tracker, &outcome.reply, &baseline[i], pushes)
                    };
                    match verdict {
                        Ok(SessionVerdict::Identical) => summary.bit_identical += 1,
                        Ok(SessionVerdict::Predicted) => summary.predicted += 1,
                        Err(why) => violations.push(format!("request {i} ({class}): {why}")),
                    }
                }
                FaultClass::CorruptCsi => {
                    // A warm session answers the corrupt request from the
                    // motion model (reader-side intercept); cold or
                    // stateless, the typed Malformed stands.
                    let warm = (session_id != 0)
                        .then(|| trackers.get(&session_id))
                        .flatten()
                        .and_then(|t| t.predict(SESSION_TICK_SECONDS).map(|p| (p, t.velocity())));
                    match (warm, &outcome.reply) {
                        (Some((pred, vel)), Ok(est)) => {
                            match check_predicted(est, pred, vel, DiagCheck::Zeroed) {
                                Ok(()) => summary.predicted += 1,
                                Err(why) => violations
                                    .push(format!("request {i} (corrupt-csi, warm): {why}")),
                            }
                        }
                        (Some(_), other) => violations.push(format!(
                            "request {i} (corrupt-csi): session is warm, expected a Predicted \
                             estimate, got {other:?}"
                        )),
                        (None, Err(e)) if e.code == ErrorCode::Malformed => {
                            summary.typed_errors += 1;
                        }
                        (None, other) => violations.push(format!(
                            "request {i} (corrupt-csi): expected a Malformed error, got {other:?}"
                        )),
                    }
                }
                FaultClass::InjectPanic => match &outcome.reply {
                    Err(e) if e.code == ErrorCode::Internal => summary.typed_errors += 1,
                    other => violations.push(format!(
                        "request {i} (inject-panic): expected an Internal error, got {other:?}"
                    )),
                },
                FaultClass::DropReadings => {
                    let want = match plan.drop_mode(id) {
                        DropMode::KeepOne => 2, // weighted-centroid tier
                        DropMode::DropAll => 1, // area-region tier
                    };
                    let warm = (session_id != 0 && want == 2)
                        .then(|| trackers.get(&session_id))
                        .flatten()
                        .and_then(|t| t.predict(SESSION_TICK_SECONDS).map(|p| (p, t.velocity())));
                    match (warm, &outcome.reply) {
                        // Centroid tier + warm session: promoted to
                        // Predicted at the extrapolated position.
                        (Some((pred, vel)), Ok(est)) => {
                            match check_predicted(est, pred, vel, DiagCheck::Any) {
                                Ok(()) => summary.predicted += 1,
                                Err(why) => violations
                                    .push(format!("request {i} (drop-readings, warm): {why}")),
                            }
                        }
                        (None, Ok(est)) if est.quality == want => {
                            if session_id != 0 && want == 1 {
                                // Region tier still feeds the session; the
                                // reply must carry the replayed block.
                                let tracker =
                                    trackers.entry(session_id).or_insert_with(session_tracker);
                                let raw = Point::new(est.x, est.y);
                                let smoothed = tracker.push(raw, SESSION_TICK_SECONDS);
                                match expect_block(est, &[(smoothed, tracker.velocity())]) {
                                    Ok(()) => summary.degraded += 1,
                                    Err(why) => violations
                                        .push(format!("request {i} (drop-readings): {why}")),
                                }
                            } else if est.session.is_some() {
                                violations.push(format!(
                                    "request {i} (drop-readings): cold centroid reply must not \
                                     carry a session block"
                                ));
                            } else {
                                summary.degraded += 1;
                            }
                        }
                        (_, other) => violations.push(format!(
                            "request {i} (drop-readings): expected quality tier {want}, \
                             got {other:?}"
                        )),
                    }
                }
            }
        }
        if violations.is_empty() {
            Ok(summary)
        } else {
            Err(violations)
        }
    }
}

fn check_bit_identical(
    got: &Result<WireEstimate, ErrorReply>,
    want: &Result<WireEstimate, ErrorReply>,
) -> Result<(), String> {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            if estimates_bit_identical(g, w) {
                Ok(())
            } else {
                Err(format!("estimate diverged from baseline: {g:?} vs {w:?}"))
            }
        }
        (Err(g), Err(w)) if g.code == w.code => Ok(()),
        (g, w) => Err(format!("reply {g:?} does not match baseline {w:?}")),
    }
}

/// Checks a sessioned reply for a class whose stateless contract is
/// "bit-identical to baseline": the estimator's fields must still match
/// the stateless baseline exactly, while the session machinery adds (or,
/// for a warm centroid, *upgrades*) on top — verified against `tracker`,
/// the caller's replay of this session. `pushes` is how many copies of
/// the frame reached the daemon (2 for duplicated/killed frames).
fn check_sessioned(
    tracker: &mut Tracker,
    got: &Result<WireEstimate, ErrorReply>,
    want: &Result<WireEstimate, ErrorReply>,
    pushes: usize,
) -> Result<SessionVerdict, String> {
    match (got, want) {
        (Err(g), Err(w)) if g.code == w.code => Ok(SessionVerdict::Identical),
        (Ok(g), Ok(w)) => match w.quality {
            // Full/Region: the raw answer is unchanged and also feeds the
            // tracker; the reply must carry the replayed smoothed view.
            0 | 1 => {
                if !nonsession_bit_identical(g, w) {
                    return Err(format!("estimate diverged from baseline: {g:?} vs {w:?}"));
                }
                let raw = Point::new(g.x, g.y);
                let mut views = Vec::with_capacity(pushes);
                for _ in 0..pushes {
                    let smoothed = tracker.push(raw, SESSION_TICK_SECONDS);
                    views.push((smoothed, tracker.velocity()));
                }
                expect_block(g, &views)?;
                Ok(SessionVerdict::Identical)
            }
            // Centroid: a warm session is promoted to Predicted at the
            // extrapolated position (the centroid never feeds the
            // tracker); a cold one passes the baseline through untouched.
            2 => match tracker.predict(SESSION_TICK_SECONDS) {
                Some(pred) => {
                    check_predicted(g, pred, tracker.velocity(), DiagCheck::Matches(w))?;
                    Ok(SessionVerdict::Predicted)
                }
                None => {
                    if !nonsession_bit_identical(g, w) {
                        return Err(format!("estimate diverged from baseline: {g:?} vs {w:?}"));
                    }
                    if g.session.is_some() {
                        return Err("cold centroid reply must not carry a session block".into());
                    }
                    Ok(SessionVerdict::Identical)
                }
            },
            q => Err(format!(
                "stateless baseline has impossible quality tier {q}"
            )),
        },
        (g, w) => Err(format!("reply {g:?} does not match baseline {w:?}")),
    }
}

/// What a `Predicted` reply's diagnostic (LP) fields must look like.
enum DiagCheck<'a> {
    /// The reader-side intercept never ran the estimator: all zeros.
    Zeroed,
    /// The batcher upgrade preserves the underlying solve's diagnostics:
    /// they must match this baseline estimate.
    Matches(&'a WireEstimate),
    /// The underlying solve saw a faulted payload — its diagnostics are
    /// not reproducible from the baseline, so they go unchecked.
    Any,
}

/// Checks a `Predicted`-tier reply against the replayed motion model:
/// quality 3, position bit-equal to the extrapolation, and a session
/// block carrying the same view.
fn check_predicted(
    est: &WireEstimate,
    pred: Point,
    vel: Vec2,
    diag: DiagCheck<'_>,
) -> Result<(), String> {
    if est.quality != 3 {
        return Err(format!(
            "expected the Predicted tier (3), got quality {}",
            est.quality
        ));
    }
    if est.x.to_bits() != pred.x.to_bits() || est.y.to_bits() != pred.y.to_bits() {
        return Err(format!(
            "position ({}, {}) is not the replayed extrapolation ({}, {})",
            est.x, est.y, pred.x, pred.y
        ));
    }
    match diag {
        DiagCheck::Zeroed => {
            if est.relaxation_cost != 0.0
                || est.region_area != 0.0
                || est.n_constraints != 0
                || est.n_winning_pieces != 0
                || est.lp_iterations != 0
                || est.warm_start_hits != 0
                || est.phase1_pivots_saved != 0
            {
                return Err(format!(
                    "reader-side Predicted reply leaked solver diagnostics: {est:?}"
                ));
            }
        }
        DiagCheck::Matches(w) => {
            if !diagnostics_bit_identical(est, w) {
                return Err(format!(
                    "Predicted upgrade changed solver diagnostics: {est:?} vs baseline {w:?}"
                ));
            }
        }
        DiagCheck::Any => {}
    }
    expect_block(est, &[(pred, vel)])
}

/// Asserts the reply carries a session block matching one of the
/// candidate replayed views (two candidates when the daemon processed the
/// frame twice and the observed reply may reflect either push).
fn expect_block(est: &WireEstimate, views: &[(Point, Vec2)]) -> Result<(), String> {
    let Some(block) = &est.session else {
        return Err("sessioned reply is missing its session block".into());
    };
    if block.error_bound < 0.0 {
        return Err(format!("negative error bound {}", block.error_bound));
    }
    if views.iter().any(|(s, v)| {
        block.smoothed_x.to_bits() == s.x.to_bits()
            && block.smoothed_y.to_bits() == s.y.to_bits()
            && block.velocity_x.to_bits() == v.x.to_bits()
            && block.velocity_y.to_bits() == v.y.to_bits()
    }) {
        Ok(())
    } else {
        Err(format!(
            "session block {block:?} does not match the replayed tracker view(s) {views:?} — \
             smoothed by the wrong session's state (cross-wired) or by a diverged tracker"
        ))
    }
}

/// Field-by-field bit equality (`to_bits` on floats, so `-0.0 != 0.0` and
/// NaN payloads would be caught — stronger than `PartialEq`), including
/// the session block.
fn estimates_bit_identical(a: &WireEstimate, b: &WireEstimate) -> bool {
    nonsession_bit_identical(a, b) && session_blocks_bit_identical(&a.session, &b.session)
}

/// Bit equality over everything but the session block.
fn nonsession_bit_identical(a: &WireEstimate, b: &WireEstimate) -> bool {
    a.x.to_bits() == b.x.to_bits()
        && a.y.to_bits() == b.y.to_bits()
        && a.quality == b.quality
        && diagnostics_bit_identical(a, b)
}

/// Bit equality over the diagnostic (LP) fields only.
fn diagnostics_bit_identical(a: &WireEstimate, b: &WireEstimate) -> bool {
    a.relaxation_cost.to_bits() == b.relaxation_cost.to_bits()
        && a.region_area.to_bits() == b.region_area.to_bits()
        && a.n_constraints == b.n_constraints
        && a.n_winning_pieces == b.n_winning_pieces
        && a.lp_iterations == b.lp_iterations
        && a.warm_start_hits == b.warm_start_hits
        && a.phase1_pivots_saved == b.phase1_pivots_saved
}

fn session_blocks_bit_identical(a: &Option<WireSession>, b: &Option<WireSession>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            x.smoothed_x.to_bits() == y.smoothed_x.to_bits()
                && x.smoothed_y.to_bits() == y.smoothed_y.to_bits()
                && x.velocity_x.to_bits() == y.velocity_x.to_bits()
                && x.velocity_y.to_bits() == y.velocity_y.to_bits()
                && x.error_bound.to_bits() == y.error_bound.to_bits()
        }
        _ => false,
    }
}

/// Drives `requests` against the daemon at `addr`, injecting the faults
/// `config.plan` assigns (request `i` gets `request_id = i`).
///
/// # Errors
///
/// Forwards connect/read/write errors that are not part of an injected
/// fault, and surfaces protocol violations (a reply for the wrong
/// request, diverging duplicate replies) as
/// [`io::ErrorKind::InvalidData`].
pub fn run(
    addr: SocketAddr,
    config: &ChaosConfig,
    requests: &[Vec<CsiReport>],
) -> io::Result<ChaosReport> {
    let plan = &config.plan;
    let mut conn: Option<Conn> = None;
    let mut outcomes = Vec::with_capacity(requests.len());
    let mut reconnects = 0u64;
    let mut rejections_observed = 0u64;
    let mut stale_expiries = 0u64;
    for (i, reports) in requests.iter().enumerate() {
        let id = i as u64;
        let class = plan.classify(id);
        let session_id = config.session_id_for(id);
        if config.stale_sessions_live() && plan.stale_session_fires(id) {
            if let Some(table) = &config.session_table {
                // Let any straggling in-flight copy (a killed connection's
                // first send racing its resend) land before wiping state,
                // so the verifier's replayed expectation stays exact.
                std::thread::sleep(Duration::from_millis(10));
                table.expire_all();
                stale_expiries += 1;
            }
        }
        let mut wire_reports: Vec<WireReport> = reports.iter().map(WireReport::from_core).collect();
        match class {
            FaultClass::CorruptCsi => corrupt_csi(&mut wire_reports, plan, id),
            FaultClass::DropReadings => match plan.drop_mode(id) {
                DropMode::KeepOne => {
                    let keep = plan.target_report(id, wire_reports.len());
                    if !wire_reports.is_empty() {
                        let kept = wire_reports.swap_remove(keep);
                        wire_reports = vec![kept];
                    }
                }
                DropMode::DropAll => wire_reports.clear(),
            },
            _ => {}
        }
        let frame = Frame::LocateRequest(LocateRequest {
            request_id: id,
            deadline_us: 0,
            venue_id: config.venue_id,
            session_id,
            reports: wire_reports,
        });
        let bytes = wire::frame_to_vec(&frame);

        let response = match class {
            FaultClass::TruncateFrame => {
                // Cut the frame short and close mid-frame; the server
                // must discard the partial frame without replying.
                let cut = plan.truncate_len(id, bytes.len());
                let c = ensure(&mut conn, addr, config)?;
                let _ = c.write.write_all(&bytes[..cut]);
                conn = None;
                reconnects += 1;
                send_and_read(&mut conn, addr, config, &bytes, id)?
            }
            FaultClass::KillConnection => {
                // Full frame, then the connection dies before the reply
                // can land; resend on a fresh connection.
                let c = ensure(&mut conn, addr, config)?;
                let _ = c.write.write_all(&bytes);
                conn = None;
                reconnects += 1;
                send_and_read(&mut conn, addr, config, &bytes, id)?
            }
            FaultClass::CorruptFrame => {
                let (idx, mask) = plan.corrupt_byte(id, bytes.len());
                let mut corrupted = bytes.clone();
                corrupted[idx] ^= mask;
                let c = ensure(&mut conn, addr, config)?;
                let _ = c.write.write_all(&corrupted);
                // Most flips draw an immediate `Malformed` for id 0 and a
                // close; a flip in the length field instead leaves the
                // server waiting for more bytes. Probe briefly, then burn
                // the connection either way.
                c.reader.set_read_timeout(config.reject_probe)?;
                if let Ok(resp) = c.reader.next_response() {
                    if resp.request_id == 0
                        && matches!(&resp.outcome, Err(e) if e.code == ErrorCode::Malformed)
                    {
                        rejections_observed += 1;
                    }
                }
                conn = None;
                reconnects += 1;
                send_and_read(&mut conn, addr, config, &bytes, id)?
            }
            FaultClass::DelayFrame => {
                let (split, pause) = plan.delay_split(id, bytes.len());
                let c = ensure(&mut conn, addr, config)?;
                c.write.write_all(&bytes[..split])?;
                c.write.flush()?;
                std::thread::sleep(pause);
                c.write.write_all(&bytes[split..])?;
                read_reply(c, id)?
            }
            FaultClass::DuplicateFrame => {
                let c = ensure(&mut conn, addr, config)?;
                c.write.write_all(&bytes)?;
                c.write.write_all(&bytes)?;
                let first = read_reply(c, id)?;
                let second = read_reply(c, id)?;
                if !replies_agree(&first, &second) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("duplicate replies for request {id} diverged"),
                    ));
                }
                first
            }
            // Payload-level or server-side faults travel on a clean frame.
            FaultClass::None
            | FaultClass::CorruptCsi
            | FaultClass::DropReadings
            | FaultClass::InjectPanic => send_and_read(&mut conn, addr, config, &bytes, id)?,
        };
        outcomes.push(ChaosOutcome {
            class,
            reply: response,
        });
    }
    Ok(ChaosReport {
        outcomes,
        reconnects,
        rejections_observed,
        stale_expiries,
    })
}

/// One sequential connection: a write half plus an incremental reader.
struct Conn {
    write: TcpStream,
    reader: ResponseReader,
}

impl Conn {
    fn connect(addr: SocketAddr, config: &ChaosConfig) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(config.read_timeout))?;
        let write = stream.try_clone()?;
        Ok(Conn {
            write,
            reader: ResponseReader::new(stream),
        })
    }
}

fn ensure<'a>(
    conn: &'a mut Option<Conn>,
    addr: SocketAddr,
    config: &ChaosConfig,
) -> io::Result<&'a mut Conn> {
    if conn.is_none() {
        *conn = Some(Conn::connect(addr, config)?);
    }
    Ok(conn.as_mut().expect("just connected"))
}

/// Sends the intact frame (connecting first if needed) and reads its reply.
fn send_and_read(
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    config: &ChaosConfig,
    bytes: &[u8],
    id: u64,
) -> io::Result<Result<WireEstimate, ErrorReply>> {
    let c = ensure(conn, addr, config)?;
    c.reader.set_read_timeout(config.read_timeout)?;
    c.write.write_all(bytes)?;
    read_reply(c, id)
}

fn read_reply(c: &mut Conn, id: u64) -> io::Result<Result<WireEstimate, ErrorReply>> {
    let resp: LocateResponse = c.reader.next_response()?;
    if resp.request_id != id {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "reply for request {} while waiting on {id}",
                resp.request_id
            ),
        ));
    }
    Ok(resp.outcome)
}

/// Duplicate replies must agree on everything the estimator produced; the
/// session block is exempt — the second copy of a Full/Region frame
/// legitimately advances the tracker one more tick, and a warm-centroid
/// upgrade moves both copies off the baseline identically anyway.
fn replies_agree(
    a: &Result<WireEstimate, ErrorReply>,
    b: &Result<WireEstimate, ErrorReply>,
) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => nonsession_bit_identical(x, y),
        (Err(x), Err(y)) => x.code == y.code,
        _ => false,
    }
}

/// Applies the plan's [`CsiCorruption`] to the targeted report. Every
/// mode yields a request the wire layer's semantic validation rejects;
/// modes that would be a no-op on degenerate shapes (a single-subcarrier
/// grid cannot "descend") fall back to the NaN-position corruption so the
/// contract stays unambiguous.
fn corrupt_csi(reports: &mut [WireReport], plan: &FaultPlan, id: u64) {
    if reports.is_empty() {
        return;
    }
    let t = plan.target_report(id, reports.len());
    let r = &mut reports[t];
    let mode = plan.csi_corruption(id);
    let nan_position = |r: &mut WireReport| r.x = f64::NAN;
    match mode {
        CsiCorruption::NanPosition => nan_position(r),
        CsiCorruption::InfOffset => match r.burst.first_mut() {
            Some(s) if !s.offsets_hz.is_empty() => {
                *s.offsets_hz.last_mut().expect("non-empty") = f64::INFINITY;
            }
            _ => nan_position(r),
        },
        CsiCorruption::DescendingOffsets => match r.burst.first_mut() {
            Some(s) if s.offsets_hz.len() >= 2 => s.offsets_hz.reverse(),
            _ => nan_position(r),
        },
        CsiCorruption::EmptyH => match r.burst.first_mut() {
            Some(s) => s.h.clear(),
            None => nan_position(r),
        },
        CsiCorruption::MismatchedH => match r.burst.first_mut() {
            Some(s) if !s.h.is_empty() => {
                s.h.pop();
            }
            _ => nan_position(r),
        },
        CsiCorruption::ZeroedSubcarriers => {
            if r.burst.is_empty() {
                nan_position(r);
            }
            for s in &mut r.burst {
                for c in &mut s.h {
                    *c = Complex::ZERO;
                }
                if let Some(o) = s.offsets_hz.first_mut() {
                    *o = f64::NAN;
                }
            }
        }
    }
}
