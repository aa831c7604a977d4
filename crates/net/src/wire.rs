//! The NomLoc wire protocol: versioned, length-prefixed, CRC-protected
//! binary frames.
//!
//! Every frame is a fixed 16-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "NMLC"
//!      4     1  protocol version (currently 5; see `VERSION` for what
//!                                 each version added — older decoders
//!                                 reject newer frames cleanly with
//!                                 `BadVersion`)
//!      5     1  frame type (1 = LocateRequest, 2 = LocateResponse,
//!                           3 = StatsRequest,  4 = StatsResponse,
//!                           5 = VenueOnboard,  6 = VenueRetire,
//!                           7 = VenueList,     8 = VenueAdminResponse)
//!      6     2  reserved, must be zero
//!      8     4  payload length, little-endian
//!     12     4  CRC-32 (IEEE) over the payload, little-endian
//!     16     …  payload
//! ```
//!
//! All integers are little-endian; `f64`s travel as their IEEE-754 bit
//! patterns (`to_bits`/`from_bits`), so a round trip is *bit-exact* — the
//! loopback test relies on a decoded [`crate::wire::WireReport`] feeding
//! `LocalizationServer::process_batch` with inputs identical to the
//! in-process path.
//!
//! Decoding is split in two layers:
//!
//! * **structural** ([`decode_frame`]): header validation, CRC check,
//!   field-by-field parsing with allocation guards. Any corruption —
//!   truncated frame, flipped bit, bad version, trailing bytes — yields a
//!   [`WireError`], never a panic and never an absurd allocation;
//! * **semantic** ([`WireReport::to_core`]): values that parsed but cannot
//!   enter the pipeline (non-finite AP position, a subcarrier grid that is
//!   empty or not strictly ascending) are rejected per *request*, so one
//!   malformed report in a batch never poisons its micro-batch.

use crate::crc32::crc32;
pub use crate::registry::VenueHealth;
use nomloc_core::estimator::{EstimateError, EstimateQuality, FailureCause, LocationEstimate};
use nomloc_core::scenario::Venue;
use nomloc_core::server::CsiReport;
use nomloc_core::ApSite;
use nomloc_dsp::Complex;
use nomloc_geometry::{Point, Polygon};
use nomloc_rfsim::{CsiSnapshot, SubcarrierGrid};
use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every NomLoc frame.
pub const MAGIC: [u8; 4] = *b"NMLC";
/// Current protocol version. v2 extended [`WireEstimate`] with the
/// [`EstimateQuality`] tier and [`ServerHealth`] with fault-tolerance
/// counters. v3 added the venue id to [`LocateRequest`], the venue admin
/// frames (tags 5–8), and per-venue [`VenueHealth`] records on
/// [`ServerHealth`]. v4 adds the session plane: a `session_id` on
/// [`LocateRequest`] (0 = stateless), an optional [`WireSession`] block
/// (smoothed position, velocity, localizability error bound) on
/// [`WireEstimate`], the `Predicted` quality tier (byte 3), and session
/// counters on [`ServerHealth`]/[`VenueHealth`]. v5 serializes every
/// [`ServerHealth`] scalar: the reply-pool and dispatch-plane counters
/// follow the v4 ones. Older decoders reject newer frames with
/// [`WireError::BadVersion`], and the daemon answers a down-version
/// request with a [`ErrorCode::UnsupportedVersion`] reply encoded at the
/// *client's* version (see [`unsupported_version_reply`]) so old
/// structural decoders never see a CRC or framing failure.
pub const VERSION: u8 = 5;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Maximum accepted payload length (guards allocation on hostile input).
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Frame type tags (byte 5 of the header).
mod tag {
    pub const LOCATE_REQUEST: u8 = 1;
    pub const LOCATE_RESPONSE: u8 = 2;
    pub const STATS_REQUEST: u8 = 3;
    pub const STATS_RESPONSE: u8 = 4;
    pub const VENUE_ONBOARD: u8 = 5;
    pub const VENUE_RETIRE: u8 = 6;
    pub const VENUE_LIST: u8 = 7;
    pub const VENUE_ADMIN_RESPONSE: u8 = 8;
}

/// A structural decoding failure. Every variant is a clean error — the
/// decoder never panics on corrupt input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// More bytes are needed before the frame can be decoded (streaming).
    Incomplete {
        /// Additional bytes required for the next decode attempt.
        needed: usize,
    },
    /// The first four bytes were not [`MAGIC`].
    BadMagic {
        /// The bytes actually read.
        got: [u8; 4],
    },
    /// Unsupported protocol version.
    BadVersion {
        /// The version byte actually read.
        got: u8,
    },
    /// The reserved header field was non-zero.
    BadReserved {
        /// The reserved value actually read.
        got: u16,
    },
    /// Payload length exceeds [`MAX_PAYLOAD`].
    Oversize {
        /// The declared payload length.
        len: u32,
    },
    /// CRC-32 over the payload did not match the header.
    BadCrc {
        /// CRC declared in the header.
        expected: u32,
        /// CRC computed over the received payload.
        got: u32,
    },
    /// Unknown frame type tag.
    UnknownFrameType {
        /// The tag byte actually read.
        got: u8,
    },
    /// The payload ended in the middle of a field.
    Truncated,
    /// The payload had bytes left over after the last field.
    TrailingBytes {
        /// Number of unconsumed payload bytes.
        extra: usize,
    },
    /// A field held a value the schema forbids (bad enum tag, bad UTF-8).
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Incomplete { needed } => write!(f, "incomplete frame: {needed} more bytes"),
            WireError::BadMagic { got } => write!(f, "bad magic {got:02X?}"),
            WireError::BadVersion { got } => write!(f, "unsupported protocol version {got}"),
            WireError::BadReserved { got } => write!(f, "reserved header field non-zero ({got})"),
            WireError::Oversize { len } => write!(f, "payload length {len} exceeds {MAX_PAYLOAD}"),
            WireError::BadCrc { expected, got } => {
                write!(
                    f,
                    "payload CRC mismatch: header {expected:#010X}, computed {got:#010X}"
                )
            }
            WireError::UnknownFrameType { got } => write!(f, "unknown frame type {got}"),
            WireError::Truncated => write!(f, "payload truncated mid-field"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing payload bytes after last field")
            }
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Per-request error codes carried by [`LocateResponse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The estimator failed for an unclassified reason (legacy v1 code —
    /// v2 servers send the per-cause codes below instead).
    EstimateFailed = 1,
    /// The request parsed structurally but held unusable values.
    Malformed = 2,
    /// The admission queue was full; retry later.
    Overloaded = 3,
    /// The request aged past its deadline before being solved.
    DeadlineExceeded = 4,
    /// The server hit an internal fault (e.g. a panic isolated to this
    /// request); the request itself may be fine — retrying is reasonable.
    Internal = 5,
    /// Too few usable readings to form any proximity judgement (strict
    /// servers only; degrading servers answer with a centroid estimate).
    InsufficientJudgements = 6,
    /// The relaxed LP was infeasible or unbounded on every venue piece.
    LpInfeasible = 7,
    /// The LP solver failed numerically on every venue piece.
    LpNumerical = 8,
    /// The client spoke a protocol version the server does not serve.
    /// New in v3: a v3 daemon answers a down-version request with this
    /// code encoded at the client's version. Decoders older than v3 do
    /// not know the code and surface it as a clean
    /// `Malformed("unknown error code 9")` — still a structured reject,
    /// never a CRC or framing failure.
    UnsupportedVersion = 9,
    /// The request named a venue the registry has never onboarded
    /// (new in v3).
    UnknownVenue = 10,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            1 => Ok(ErrorCode::EstimateFailed),
            2 => Ok(ErrorCode::Malformed),
            3 => Ok(ErrorCode::Overloaded),
            4 => Ok(ErrorCode::DeadlineExceeded),
            5 => Ok(ErrorCode::Internal),
            6 => Ok(ErrorCode::InsufficientJudgements),
            7 => Ok(ErrorCode::LpInfeasible),
            8 => Ok(ErrorCode::LpNumerical),
            9 => Ok(ErrorCode::UnsupportedVersion),
            10 => Ok(ErrorCode::UnknownVenue),
            other => Err(WireError::Malformed(format!("unknown error code {other}"))),
        }
    }

    /// The 1:1 mapping from the core failure taxonomy onto wire codes —
    /// every [`FailureCause`] has exactly one code, so clients can count
    /// causes without parsing error messages.
    pub fn from_estimate_error(e: &EstimateError) -> Self {
        match e.cause() {
            FailureCause::InsufficientJudgements => ErrorCode::InsufficientJudgements,
            FailureCause::LpInfeasible => ErrorCode::LpInfeasible,
            FailureCause::LpNumerical => ErrorCode::LpNumerical,
            FailureCause::InvalidInput => ErrorCode::Malformed,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCode::EstimateFailed => write!(f, "estimate-failed"),
            ErrorCode::Malformed => write!(f, "malformed"),
            ErrorCode::Overloaded => write!(f, "overloaded"),
            ErrorCode::DeadlineExceeded => write!(f, "deadline-exceeded"),
            ErrorCode::Internal => write!(f, "internal"),
            ErrorCode::InsufficientJudgements => write!(f, "insufficient-judgements"),
            ErrorCode::LpInfeasible => write!(f, "lp-infeasible"),
            ErrorCode::LpNumerical => write!(f, "lp-numerical"),
            ErrorCode::UnsupportedVersion => write!(f, "unsupported-version"),
            ErrorCode::UnknownVenue => write!(f, "unknown-venue"),
        }
    }
}

/// One CSI snapshot on the wire: the subcarrier grid offsets plus one
/// complex channel coefficient per subcarrier.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSnapshot {
    /// Subcarrier frequency offsets, Hz.
    pub offsets_hz: Vec<f64>,
    /// Channel coefficients as `(re, im)` pairs.
    pub h: Vec<(f64, f64)>,
}

/// One AP's CSI report on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireReport {
    /// AP identifier.
    pub ap: u64,
    /// Visit index of a nomadic AP's site (0 for static APs).
    pub visit: u64,
    /// Reported site x-coordinate, metres.
    pub x: f64,
    /// Reported site y-coordinate, metres.
    pub y: f64,
    /// CSI snapshots, one per captured probe packet.
    pub burst: Vec<WireSnapshot>,
}

impl WireReport {
    /// Converts a core report for transmission (bit-exact).
    pub fn from_core(report: &CsiReport) -> Self {
        WireReport {
            ap: report.site.ap as u64,
            visit: report.site.visit as u64,
            x: report.site.position.x,
            y: report.site.position.y,
            burst: report
                .burst
                .iter()
                .map(|s| WireSnapshot {
                    offsets_hz: s.grid.offsets_hz().to_vec(),
                    h: s.h.iter().map(|z| (z.re, z.im)).collect(),
                })
                .collect(),
        }
    }

    /// Semantic validation + conversion into the pipeline's type.
    ///
    /// # Errors
    ///
    /// Returns a message when the report cannot enter the pipeline: a
    /// non-finite position, a snapshot grid that is empty, non-finite, or
    /// not strictly ascending (`SubcarrierGrid`'s construction invariants),
    /// or a channel vector that is empty or disagrees with the grid length
    /// (which would panic the PDP IFFT). Checked here so corrupt input can
    /// never panic the server.
    pub fn to_core(&self) -> Result<CsiReport, String> {
        if !(self.x.is_finite() && self.y.is_finite()) {
            return Err(format!("AP {} position is not finite", self.ap));
        }
        let mut burst = Vec::with_capacity(self.burst.len());
        for (i, snap) in self.burst.iter().enumerate() {
            if snap.offsets_hz.is_empty() {
                return Err(format!(
                    "AP {} snapshot {i}: empty subcarrier grid",
                    self.ap
                ));
            }
            if snap.h.is_empty() {
                return Err(format!("AP {} snapshot {i}: empty channel vector", self.ap));
            }
            if snap.h.len() != snap.offsets_hz.len() {
                return Err(format!(
                    "AP {} snapshot {i}: {} channel coefficients for {} subcarriers",
                    self.ap,
                    snap.h.len(),
                    snap.offsets_hz.len()
                ));
            }
            if !all_finite(&snap.offsets_hz) {
                return Err(format!(
                    "AP {} snapshot {i}: non-finite subcarrier offset",
                    self.ap
                ));
            }
            if !snap.offsets_hz.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!(
                    "AP {} snapshot {i}: subcarrier offsets not strictly ascending",
                    self.ap
                ));
            }
            burst.push(CsiSnapshot {
                h: snap
                    .h
                    .iter()
                    .map(|&(re, im)| Complex::new(re, im))
                    .collect(),
                grid: SubcarrierGrid::new(snap.offsets_hz.clone()),
            });
        }
        Ok(CsiReport {
            site: ApSite {
                ap: self.ap as usize,
                visit: self.visit as usize,
                position: Point::new(self.x, self.y),
            },
            burst,
        })
    }
}

/// Finiteness sweep over a decoded `f64` array in one vectorizable pass.
///
/// An IEEE-754 double is non-finite (±Inf or any NaN) exactly when its
/// eleven exponent bits are all ones, so each element reduces to one mask
/// compare. Counting matches instead of short-circuiting gives the loop a
/// branch-free sum shape the compiler autovectorizes; equivalence with
/// `iter().all(is_finite)` is locked by a regression test. (Note the
/// comparison must be per-element — OR-folding masked exponents would let
/// two partial exponents combine into a false positive.)
fn all_finite(xs: &[f64]) -> bool {
    const EXP_MASK: u64 = 0x7FF0_0000_0000_0000;
    let non_finite: u32 = xs
        .iter()
        .map(|f| u32::from(f.to_bits() & EXP_MASK == EXP_MASK))
        .sum();
    non_finite == 0
}

/// A localization request: one object's CSI reports from every AP site.
#[derive(Debug, Clone, PartialEq)]
pub struct LocateRequest {
    /// Client-chosen identifier echoed in the response.
    pub request_id: u64,
    /// Deadline in microseconds from server admission; 0 means none.
    pub deadline_us: u32,
    /// The venue this request belongs to (new in v3). Venue 0 is the
    /// daemon's resident default venue, so single-venue clients can keep
    /// sending 0 forever; any other id must have been onboarded.
    pub venue_id: u64,
    /// Tracking-session identifier (new in v4). 0 means stateless — the
    /// request is answered exactly as in v3. Any other id routes the
    /// estimate through the daemon's per-(venue, session) `Tracker`, and
    /// the reply carries a [`WireSession`] block.
    pub session_id: u64,
    /// The CSI reports for this request.
    pub reports: Vec<WireReport>,
}

impl LocateRequest {
    /// Validates and converts every report ([`WireReport::to_core`]).
    ///
    /// # Errors
    ///
    /// Returns the first per-report validation message.
    pub fn to_core_reports(&self) -> Result<Vec<CsiReport>, String> {
        self.reports.iter().map(WireReport::to_core).collect()
    }
}

/// Session-plane state attached to a [`WireEstimate`] when the request
/// carried a non-zero session id (new in v4).
///
/// All f64s travel bit-exact (`to_bits` little-endian), so replays and
/// bit-identity checks compare these fields the same way they compare the
/// estimate itself. `error_bound` is the localizability-predicted error of
/// the estimate's grid cell — widened when the tier is `Predicted`, since
/// the position came from extrapolation rather than a same-request solve —
/// and `NaN` when the venue has no localizability map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireSession {
    /// Smoothed x after the session tracker, metres.
    pub smoothed_x: f64,
    /// Smoothed y after the session tracker, metres.
    pub smoothed_y: f64,
    /// Tracked velocity x, m/s.
    pub velocity_x: f64,
    /// Tracked velocity y, m/s.
    pub velocity_y: f64,
    /// Localizability-derived error bound for the estimate's cell, metres.
    pub error_bound: f64,
}

/// A location estimate on the wire — mirrors
/// [`nomloc_core::estimator::LocationEstimate`] field for field.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEstimate {
    /// Estimated x, metres.
    pub x: f64,
    /// Estimated y, metres.
    pub y: f64,
    /// Total relaxation cost of the winning piece.
    pub relaxation_cost: f64,
    /// Relaxed feasible-region area, m².
    pub region_area: f64,
    /// Constraints in the LP.
    pub n_constraints: u64,
    /// Convex pieces tied for minimal relaxation cost.
    pub n_winning_pieces: u64,
    /// Simplex iterations spent on this query.
    pub lp_iterations: u64,
    /// Warm-started center solves.
    pub warm_start_hits: u64,
    /// Phase-1 pivots those warm starts avoided.
    pub phase1_pivots_saved: u64,
    /// Degradation-ladder tier ([`EstimateQuality::as_u8`] encoding).
    /// New in protocol v2; the decoder rejects values above 3 (v4 added
    /// tier 3, `Predicted`).
    pub quality: u8,
    /// Session-plane block (new in v4); `None` for stateless requests,
    /// which keeps v3-era bit-identity expectations intact.
    pub session: Option<WireSession>,
}

impl WireEstimate {
    /// Converts a core estimate for transmission (bit-exact).
    pub fn from_core(est: &LocationEstimate) -> Self {
        WireEstimate {
            x: est.position.x,
            y: est.position.y,
            relaxation_cost: est.relaxation_cost,
            region_area: est.region_area,
            n_constraints: est.n_constraints as u64,
            n_winning_pieces: est.n_winning_pieces as u64,
            lp_iterations: est.lp_iterations,
            warm_start_hits: est.warm_start_hits,
            phase1_pivots_saved: est.phase1_pivots_saved,
            quality: est.quality.as_u8(),
            session: None,
        }
    }

    /// Reconstructs the core estimate (bit-exact inverse of `from_core`).
    ///
    /// An out-of-range `quality` byte (impossible via [`decode_frame`],
    /// which validates it) falls back to [`EstimateQuality::Full`].
    pub fn to_core(&self) -> LocationEstimate {
        LocationEstimate {
            position: Point::new(self.x, self.y),
            relaxation_cost: self.relaxation_cost,
            region_area: self.region_area,
            n_constraints: self.n_constraints as usize,
            n_winning_pieces: self.n_winning_pieces as usize,
            lp_iterations: self.lp_iterations,
            warm_start_hits: self.warm_start_hits,
            phase1_pivots_saved: self.phase1_pivots_saved,
            quality: EstimateQuality::from_u8(self.quality).unwrap_or(EstimateQuality::Full),
        }
    }
}

/// A per-request error reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// Machine-readable error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// The response to one [`LocateRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct LocateResponse {
    /// Echo of the request's identifier.
    pub request_id: u64,
    /// The estimate, or a per-request error.
    pub outcome: Result<WireEstimate, ErrorReply>,
}

/// A venue description on the wire — the geometric inputs the
/// `scenario.rs` builders consume, so an onboarding payload and an
/// in-process scenario come from the same data (new in v3).
///
/// Only geometry travels: the daemon's locate path needs the boundary
/// polygon (for [`nomloc_core::cache::VenueCache`]); the AP/site lists
/// ride along so `VenueList` stays a useful fleet inventory. Radio and
/// clutter parameters are simulation-side and never cross the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireVenue {
    /// Registry identifier; 0 is reserved for the daemon's resident venue.
    pub venue_id: u64,
    /// Human-readable venue name.
    pub name: String,
    /// Area-of-interest boundary vertices as `(x, y)` metres.
    pub boundary: Vec<(f64, f64)>,
    /// Static AP positions.
    pub static_aps: Vec<(f64, f64)>,
    /// The nomadic AP's home position.
    pub nomadic_home: (f64, f64),
    /// The nomadic AP's walk sites.
    pub nomadic_sites: Vec<(f64, f64)>,
    /// Ground-truth test sites.
    pub test_sites: Vec<(f64, f64)>,
}

impl WireVenue {
    /// Builds the onboarding payload from a scenario venue (bit-exact:
    /// coordinates travel as their IEEE-754 bit patterns).
    pub fn from_venue(venue_id: u64, v: &Venue) -> Self {
        let pt = |p: &Point| (p.x, p.y);
        WireVenue {
            venue_id,
            name: v.name.to_owned(),
            boundary: v.plan.boundary().vertices().iter().map(pt).collect(),
            static_aps: v.static_aps.iter().map(pt).collect(),
            nomadic_home: pt(&v.nomadic_home),
            nomadic_sites: v.nomadic_sites.iter().map(pt).collect(),
            test_sites: v.test_sites.iter().map(pt).collect(),
        }
    }

    /// Reconstructs the boundary polygon the registry builds its
    /// [`nomloc_core::cache::VenueCache`] from.
    ///
    /// # Errors
    ///
    /// Returns a message when the vertices do not form a valid simple
    /// polygon (too few, non-finite, degenerate area).
    pub fn boundary_polygon(&self) -> Result<Polygon, String> {
        Polygon::new(
            self.boundary
                .iter()
                .map(|&(x, y)| Point::new(x, y))
                .collect(),
        )
        .map_err(|e| format!("venue {} boundary: {e:?}", self.venue_id))
    }
}

/// One registry entry in a `VenueAdminResponse` listing (new in v3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VenueSummary {
    /// Registry identifier.
    pub venue_id: u64,
    /// Human-readable venue name.
    pub name: String,
    /// Whether the venue's cache is currently resident (not evicted).
    pub resident: bool,
    /// Locate requests answered for this venue since onboarding.
    pub requests: u64,
}

/// The single response frame for every admin request (onboard, retire,
/// list): either the current venue listing or a structured error.
#[derive(Debug, Clone, PartialEq)]
pub struct VenueAdminResponse {
    /// The registry listing after the operation, or the failure.
    pub outcome: Result<Vec<VenueSummary>, ErrorReply>,
}

nomloc_core::counter_set! {
    /// A stats/health snapshot frame: serving counters plus latency and
    /// batch-size quantiles, all `u64` and serialized in declaration order
    /// (every one since v5), plus per-venue records (v3).
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct ServerHealth {
        /// TCP connections accepted since start.
        connections_accepted,
        /// Frames received from clients.
        frames_in,
        /// Frames written to clients.
        frames_out,
        /// Connections dropped for protocol violations.
        protocol_errors,
        /// Requests admitted into the micro-batch queue.
        requests_enqueued,
        /// Requests rejected with `Overloaded` (queue full).
        rejected_overload,
        /// Requests expired past their deadline before solving.
        deadline_missed,
        /// Micro-batches formed.
        batches_formed,
        /// High-water mark of the admission queue depth.
        queue_depth_peak,
        /// Batch-size p50 upper bound (requests).
        batch_size_p50,
        /// Batch-size max upper bound (requests).
        batch_size_max,
        /// Requests answered with an estimate.
        requests_ok,
        /// Requests answered with `EstimateFailed`.
        requests_failed,
        /// Solve-stage latency p50 upper bound, ns.
        solve_p50_ns,
        /// Solve-stage latency p95 upper bound, ns.
        solve_p95_ns,
        /// Solve-stage latency p99 upper bound, ns.
        solve_p99_ns,
        /// Requests answered with `Internal` after an isolated batch panic.
        requests_internal,
        /// Micro-batches whose processing panicked (isolated, then bisected).
        batch_panics,
        /// Dead batcher threads detected and respawned by the watchdog.
        batchers_respawned,
        /// Estimates served at full quality.
        quality_full,
        /// Estimates degraded to the site-constraints-only region.
        quality_region,
        /// Estimates degraded to the weighted site centroid.
        quality_centroid,
        /// Estimates answered from a session's motion model
        /// ([`EstimateQuality::Predicted`]; new in v4).
        quality_predicted,
        /// Tracking sessions currently live in the session table (v4).
        sessions_active,
        /// Tracking sessions created since start (v4).
        sessions_created,
        /// Tracking sessions evicted by the TTL sweeper (v4).
        sessions_evicted,
        /// Estimates the session trackers rejected at the input guard
        /// (non-finite position or invalid time step; v4).
        tracker_rejections,
        /// Reply-frame bytes encoded by the daemon (v5).
        reply_bytes_encoded,
        /// Reply-frame bytes encoded into a pooled (reused) buffer (v5).
        reply_bytes_pooled,
        /// Encode-buffer pool checkouts that reused a backing store (v5).
        pool_hits,
        /// Encode-buffer pool checkouts that allocated fresh (v5).
        pool_misses,
        /// Connections evicted because their bounded outbound write buffer
        /// overflowed (a slow reader; v5).
        slow_readers_evicted,
        /// Admissions that found their dispatch-shard lock held (v5).
        enqueue_contention,
        /// Micro-batches stolen from a sibling dispatch shard (v5).
        queue_steals,
        /// High-water mark of any single dispatch shard's queue depth (v5).
        shard_depth_peak,
        /// Dispatch shards of the daemon's plane (v5).
        queue_shards,
    }
    extra {
        /// Per-venue serving counters, one record per onboarded venue
        /// (serialized after the scalar fields; new in v3).
        pub venues: Vec<VenueHealth>,
    }
}

impl fmt::Display for ServerHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "nomloc-net health")?;
        writeln!(f, "  connections accepted  {}", self.connections_accepted)?;
        writeln!(
            f,
            "  frames in / out       {} / {}",
            self.frames_in, self.frames_out
        )?;
        writeln!(f, "  protocol errors       {}", self.protocol_errors)?;
        writeln!(f, "  requests enqueued     {}", self.requests_enqueued)?;
        writeln!(
            f,
            "  ok / failed           {} / {}",
            self.requests_ok, self.requests_failed
        )?;
        writeln!(f, "  overload rejections   {}", self.rejected_overload)?;
        writeln!(f, "  deadline misses       {}", self.deadline_missed)?;
        writeln!(
            f,
            "  batches formed        {} (size p50 ≤ {}, max ≤ {})",
            self.batches_formed, self.batch_size_p50, self.batch_size_max
        )?;
        writeln!(f, "  queue depth peak      {}", self.queue_depth_peak)?;
        if self.queue_shards > 1 {
            writeln!(
                f,
                "  dispatch shards       {} (shard depth peak {}, steals {}, enqueue contention {})",
                self.queue_shards,
                self.shard_depth_peak,
                self.queue_steals,
                self.enqueue_contention
            )?;
        }
        if self.pool_hits > 0 || self.pool_misses > 0 {
            let checkouts = self.pool_hits + self.pool_misses;
            writeln!(
                f,
                "  reply bytes encoded   {} ({} pooled, pool hit-rate {:.1}%)",
                self.reply_bytes_encoded,
                self.reply_bytes_pooled,
                100.0 * self.pool_hits as f64 / checkouts as f64,
            )?;
        }
        writeln!(
            f,
            "  quality tiers         full {} / region {} / predicted {} / centroid {}",
            self.quality_full, self.quality_region, self.quality_predicted, self.quality_centroid
        )?;
        if self.sessions_created > 0 {
            writeln!(
                f,
                "  sessions              {} active / {} created / {} evicted ({} tracker rejections)",
                self.sessions_active,
                self.sessions_created,
                self.sessions_evicted,
                self.tracker_rejections
            )?;
        }
        writeln!(
            f,
            "  batch panics          {} ({} internal replies)",
            self.batch_panics, self.requests_internal
        )?;
        writeln!(f, "  batchers respawned    {}", self.batchers_respawned)?;
        if self.slow_readers_evicted > 0 {
            writeln!(f, "  slow readers evicted  {}", self.slow_readers_evicted)?;
        }
        writeln!(
            f,
            "  solve latency         p50 ≤ {} ns, p95 ≤ {} ns, p99 ≤ {} ns",
            self.solve_p50_ns, self.solve_p95_ns, self.solve_p99_ns
        )?;
        if !self.venues.is_empty() {
            writeln!(f, "  venues                {}", self.venues.len())?;
            for v in &self.venues {
                writeln!(
                    f,
                    "    venue {:<6} req {} (full {} / region {} / predicted {} / centroid {}) cache hit {} rebuild {} evict {}{}",
                    v.venue_id,
                    v.requests,
                    v.quality_full,
                    v.quality_region,
                    v.quality_predicted,
                    v.quality_centroid,
                    v.cache_hits,
                    v.cache_rebuilds,
                    v.cache_evictions,
                    if v.resident { "" } else { " [evicted]" },
                )?;
            }
        }
        Ok(())
    }
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A localization request.
    LocateRequest(LocateRequest),
    /// A localization response.
    LocateResponse(LocateResponse),
    /// A request for the server's health snapshot (empty payload).
    StatsRequest,
    /// The server's health snapshot.
    StatsResponse(ServerHealth),
    /// Onboard (or replace) a venue in the registry (v3 admin plane).
    VenueOnboard(WireVenue),
    /// Retire a venue by id (v3 admin plane).
    VenueRetire(u64),
    /// List the registry (empty payload, v3 admin plane).
    VenueList,
    /// The response to any admin frame (v3 admin plane).
    VenueAdminResponse(VenueAdminResponse),
}

impl Frame {
    fn type_tag(&self) -> u8 {
        match self {
            Frame::LocateRequest(_) => tag::LOCATE_REQUEST,
            Frame::LocateResponse(_) => tag::LOCATE_RESPONSE,
            Frame::StatsRequest => tag::STATS_REQUEST,
            Frame::StatsResponse(_) => tag::STATS_RESPONSE,
            Frame::VenueOnboard(_) => tag::VENUE_ONBOARD,
            Frame::VenueRetire(_) => tag::VENUE_RETIRE,
            Frame::VenueList => tag::VENUE_LIST,
            Frame::VenueAdminResponse(_) => tag::VENUE_ADMIN_RESPONSE,
        }
    }
}

// ---------------------------------------------------------------------------
// Payload primitives.

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len().min(u32::MAX as usize) as u32);
    out.extend_from_slice(&s.as_bytes()[..s.len().min(u32::MAX as usize)]);
}

/// Bounds-checked payload reader.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Appends `n` consecutive little-endian `f64`s to `out` with a single
    /// bounds check up front: the element loop is a straight run of 8-byte
    /// loads over one slice (`chunks_exact` + `from_le_bytes`), which the
    /// compiler turns into bulk copies instead of per-sample cursor
    /// arithmetic. Bit-exact — no finiteness or range interpretation here.
    ///
    /// Callers obtain `n` from [`Cursor::len`]`(8)`, whose guard bounds
    /// `n * 8` by the remaining payload, so the multiply cannot overflow.
    fn f64_array_into(&mut self, n: usize, out: &mut Vec<f64>) -> Result<(), WireError> {
        let raw = self.bytes(n * 8)?;
        out.reserve(n);
        out.extend(
            raw.chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().unwrap())),
        );
        Ok(())
    }

    /// [`Cursor::f64_array_into`] for `(re, im)` pairs: `n` 16-byte records
    /// decoded off one bounds-checked slice.
    fn f64_pairs_into(&mut self, n: usize, out: &mut Vec<(f64, f64)>) -> Result<(), WireError> {
        let raw = self.bytes(n * 16)?;
        out.reserve(n);
        out.extend(raw.chunks_exact(16).map(|b| {
            (
                f64::from_le_bytes(b[..8].try_into().unwrap()),
                f64::from_le_bytes(b[8..].try_into().unwrap()),
            )
        }));
        Ok(())
    }

    /// Reads a length-prefixed UTF-8 string.
    fn str(&mut self) -> Result<String, WireError> {
        let n = self.len(1)?;
        Ok(std::str::from_utf8(self.bytes(n)?)
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))?
            .to_owned())
    }

    /// Reads a length-prefixed list of `(x, y)` coordinate pairs.
    fn points(&mut self) -> Result<Vec<(f64, f64)>, WireError> {
        let n = self.len(16)?;
        let mut out = Vec::new();
        self.f64_pairs_into(n, &mut out)?;
        Ok(out)
    }

    /// Reads a `u32` element count and rejects counts whose minimal
    /// encoding could not fit in the remaining payload — corrupt lengths
    /// fail *before* any allocation happens.
    fn len(&mut self, min_elem_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_size) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Per-frame payload encode/decode.

fn encode_locate_request(req: &LocateRequest, out: &mut Vec<u8>) {
    put_u64(out, req.request_id);
    put_u32(out, req.deadline_us);
    put_u64(out, req.venue_id);
    put_u64(out, req.session_id);
    put_u32(out, req.reports.len() as u32);
    for r in &req.reports {
        put_u64(out, r.ap);
        put_u64(out, r.visit);
        put_f64(out, r.x);
        put_f64(out, r.y);
        put_u32(out, r.burst.len() as u32);
        for s in &r.burst {
            put_u32(out, s.offsets_hz.len() as u32);
            for &f in &s.offsets_hz {
                put_f64(out, f);
            }
            put_u32(out, s.h.len() as u32);
            for &(re, im) in &s.h {
                put_f64(out, re);
                put_f64(out, im);
            }
        }
    }
}

fn decode_locate_request(c: &mut Cursor<'_>) -> Result<LocateRequest, WireError> {
    let request_id = c.u64()?;
    let deadline_us = c.u32()?;
    let venue_id = c.u64()?;
    let session_id = c.u64()?;
    let n_reports = c.len(32)?; // ap + visit + x + y at minimum
    let mut reports = Vec::with_capacity(n_reports);
    for _ in 0..n_reports {
        let ap = c.u64()?;
        let visit = c.u64()?;
        let x = c.f64()?;
        let y = c.f64()?;
        let n_snaps = c.len(8)?; // two u32 length prefixes at minimum
        let mut burst = Vec::with_capacity(n_snaps);
        for _ in 0..n_snaps {
            let n_sub = c.len(8)?;
            let mut offsets_hz = Vec::new();
            c.f64_array_into(n_sub, &mut offsets_hz)?;
            let n_h = c.len(16)?;
            let mut h = Vec::new();
            c.f64_pairs_into(n_h, &mut h)?;
            burst.push(WireSnapshot { offsets_hz, h });
        }
        reports.push(WireReport {
            ap,
            visit,
            x,
            y,
            burst,
        });
    }
    Ok(LocateRequest {
        request_id,
        deadline_us,
        venue_id,
        session_id,
        reports,
    })
}

fn put_points(out: &mut Vec<u8>, pts: &[(f64, f64)]) {
    put_u32(out, pts.len() as u32);
    for &(x, y) in pts {
        put_f64(out, x);
        put_f64(out, y);
    }
}

fn encode_venue(v: &WireVenue, out: &mut Vec<u8>) {
    put_u64(out, v.venue_id);
    put_str(out, &v.name);
    put_points(out, &v.boundary);
    put_points(out, &v.static_aps);
    put_f64(out, v.nomadic_home.0);
    put_f64(out, v.nomadic_home.1);
    put_points(out, &v.nomadic_sites);
    put_points(out, &v.test_sites);
}

fn decode_venue(c: &mut Cursor<'_>) -> Result<WireVenue, WireError> {
    Ok(WireVenue {
        venue_id: c.u64()?,
        name: c.str()?,
        boundary: c.points()?,
        static_aps: c.points()?,
        nomadic_home: (c.f64()?, c.f64()?),
        nomadic_sites: c.points()?,
        test_sites: c.points()?,
    })
}

fn encode_admin_response(resp: &VenueAdminResponse, out: &mut Vec<u8>) {
    match &resp.outcome {
        Ok(summaries) => {
            out.push(0);
            put_u32(out, summaries.len() as u32);
            for s in summaries {
                put_u64(out, s.venue_id);
                put_str(out, &s.name);
                out.push(u8::from(s.resident));
                put_u64(out, s.requests);
            }
        }
        Err(e) => {
            out.push(e.code as u8);
            put_str(out, &e.message);
        }
    }
}

fn decode_admin_response(c: &mut Cursor<'_>) -> Result<VenueAdminResponse, WireError> {
    let status = c.u8()?;
    let outcome = if status == 0 {
        // venue_id + name length + resident + requests at minimum.
        let n = c.len(21)?;
        let mut summaries = Vec::with_capacity(n);
        for _ in 0..n {
            let venue_id = c.u64()?;
            let name = c.str()?;
            let resident = match c.u8()? {
                0 => false,
                1 => true,
                other => return Err(WireError::Malformed(format!("bad resident flag {other}"))),
            };
            let requests = c.u64()?;
            summaries.push(VenueSummary {
                venue_id,
                name,
                resident,
                requests,
            });
        }
        Ok(summaries)
    } else {
        let code = ErrorCode::from_u8(status)?;
        let message = c.str()?;
        Err(ErrorReply { code, message })
    };
    Ok(VenueAdminResponse { outcome })
}

fn encode_locate_response(resp: &LocateResponse, out: &mut Vec<u8>) {
    put_u64(out, resp.request_id);
    match &resp.outcome {
        Ok(est) => {
            out.push(0);
            put_f64(out, est.x);
            put_f64(out, est.y);
            put_f64(out, est.relaxation_cost);
            put_f64(out, est.region_area);
            put_u64(out, est.n_constraints);
            put_u64(out, est.n_winning_pieces);
            put_u64(out, est.lp_iterations);
            put_u64(out, est.warm_start_hits);
            put_u64(out, est.phase1_pivots_saved);
            // The session block precedes the quality byte so that the
            // quality tier stays the last payload byte in every layout —
            // the property the tamper tests poke at.
            match &est.session {
                Some(s) => {
                    out.push(1);
                    put_f64(out, s.smoothed_x);
                    put_f64(out, s.smoothed_y);
                    put_f64(out, s.velocity_x);
                    put_f64(out, s.velocity_y);
                    put_f64(out, s.error_bound);
                }
                None => out.push(0),
            }
            out.push(est.quality);
        }
        Err(e) => {
            out.push(e.code as u8);
            put_str(out, &e.message);
        }
    }
}

fn decode_locate_response(c: &mut Cursor<'_>) -> Result<LocateResponse, WireError> {
    let request_id = c.u64()?;
    let status = c.u8()?;
    let outcome = if status == 0 {
        let mut est = WireEstimate {
            x: c.f64()?,
            y: c.f64()?,
            relaxation_cost: c.f64()?,
            region_area: c.f64()?,
            n_constraints: c.u64()?,
            n_winning_pieces: c.u64()?,
            lp_iterations: c.u64()?,
            warm_start_hits: c.u64()?,
            phase1_pivots_saved: c.u64()?,
            quality: 0,
            session: None,
        };
        est.session = match c.u8()? {
            0 => None,
            1 => Some(WireSession {
                smoothed_x: c.f64()?,
                smoothed_y: c.f64()?,
                velocity_x: c.f64()?,
                velocity_y: c.f64()?,
                error_bound: c.f64()?,
            }),
            other => {
                return Err(WireError::Malformed(format!(
                    "bad session-block flag {other}"
                )))
            }
        };
        est.quality = c.u8()?;
        if EstimateQuality::from_u8(est.quality).is_none() {
            return Err(WireError::Malformed(format!(
                "unknown estimate quality tier {}",
                est.quality
            )));
        }
        Ok(est)
    } else {
        let code = ErrorCode::from_u8(status)?;
        let n = c.len(1)?;
        let message = std::str::from_utf8(c.bytes(n)?)
            .map_err(|_| WireError::Malformed("error message is not UTF-8".into()))?
            .to_owned();
        Err(ErrorReply { code, message })
    };
    Ok(LocateResponse {
        request_id,
        outcome,
    })
}

fn encode_health(h: &ServerHealth, out: &mut Vec<u8>) {
    for v in h.values() {
        put_u64(out, v);
    }
    put_u32(out, h.venues.len() as u32);
    for v in &h.venues {
        put_u64(out, v.venue_id);
        for n in v.values() {
            put_u64(out, n);
        }
        out.push(u8::from(v.resident));
    }
}

fn decode_health(c: &mut Cursor<'_>) -> Result<ServerHealth, WireError> {
    let mut h = ServerHealth::default();
    for slot in h.values_mut() {
        *slot = c.u64()?;
    }
    // The venue id and counters, all u64, plus the resident flag per record.
    let n = c.len(8 * (VenueHealth::LEN + 1) + 1)?;
    h.venues.reserve(n);
    for _ in 0..n {
        let mut v = VenueHealth {
            venue_id: c.u64()?,
            ..VenueHealth::default()
        };
        for slot in v.values_mut() {
            *slot = c.u64()?;
        }
        v.resident = match c.u8()? {
            0 => false,
            1 => true,
            other => return Err(WireError::Malformed(format!("bad resident flag {other}"))),
        };
        h.venues.push(v);
    }
    Ok(h)
}

// ---------------------------------------------------------------------------
// Frame-level encode/decode.

/// Encodes `frame` (header + payload) onto the end of `out`.
///
/// The payload is encoded directly into `out` after a reserved header slot
/// and the length/CRC fields are backpatched, so encoding never allocates a
/// staging buffer of its own — callers that reuse `out` encode with zero
/// allocation in steady state. The byte image is identical to encoding the
/// payload separately and appending it.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    encode_frame_with_version(frame, VERSION, out);
}

/// [`encode_frame`] with an explicit version byte in the header.
///
/// Payload schemas are always the *current* version's — this exists so the
/// daemon can stamp a version-stable frame (a [`LocateResponse`] error,
/// whose layout has not changed since v2) with a down-level client's
/// version byte, letting that client's structural decoder accept the
/// [`ErrorCode::UnsupportedVersion`] reply instead of tripping on
/// `BadVersion`.
pub fn encode_frame_with_version(frame: &Frame, version: u8, out: &mut Vec<u8>) {
    let header_at = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(version);
    out.push(frame.type_tag());
    put_u16(out, 0); // reserved
    put_u32(out, 0); // payload length, backpatched below
    put_u32(out, 0); // payload crc32, backpatched below
    let payload_at = out.len();
    match frame {
        Frame::LocateRequest(req) => encode_locate_request(req, out),
        Frame::LocateResponse(resp) => encode_locate_response(resp, out),
        Frame::StatsRequest => {}
        Frame::StatsResponse(h) => encode_health(h, out),
        Frame::VenueOnboard(v) => encode_venue(v, out),
        Frame::VenueRetire(id) => put_u64(out, *id),
        Frame::VenueList => {}
        Frame::VenueAdminResponse(resp) => encode_admin_response(resp, out),
    }
    let payload_len = (out.len() - payload_at) as u32;
    let crc = crc32(&out[payload_at..]);
    out[header_at + 8..header_at + 12].copy_from_slice(&payload_len.to_le_bytes());
    out[header_at + 12..header_at + 16].copy_from_slice(&crc.to_le_bytes());
}

/// The daemon's reply to a request whose version byte it cannot serve: a
/// [`LocateResponse`] carrying [`ErrorCode::UnsupportedVersion`], encoded
/// at the *client's* version when the client is older than us (so its
/// structural decoder accepts the frame — the error-response layout has
/// not changed since v2) and at our version otherwise.
///
/// A client on any older version therefore sees a clean structured error
/// on its own wire dialect, never a CRC or framing failure.
pub fn unsupported_version_reply(got: u8) -> Vec<u8> {
    let reply_version = if (1..VERSION).contains(&got) {
        got
    } else {
        VERSION
    };
    let frame = Frame::LocateResponse(LocateResponse {
        request_id: 0,
        outcome: Err(ErrorReply {
            code: ErrorCode::UnsupportedVersion,
            message: format!("server speaks protocol v{VERSION}, got v{got}"),
        }),
    });
    let mut out = Vec::new();
    encode_frame_with_version(&frame, reply_version, &mut out);
    out
}

/// Encodes `frame` into a fresh buffer.
pub fn frame_to_vec(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(frame, &mut out);
    out
}

/// Decodes one frame from the front of `buf`.
///
/// Returns the frame and the number of bytes it consumed, so a streaming
/// caller can `drain(..n)` and try again.
///
/// # Errors
///
/// [`WireError::Incomplete`] when `buf` holds a valid prefix that needs
/// more bytes; any other variant is a protocol violation.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    decode_frame_with_version(buf, VERSION)
}

/// [`decode_frame`] with an explicit accepted version byte.
///
/// Payload schemas are always the *current* version's, so this is only
/// meaningful for version-stable frames ([`LocateResponse`] errors,
/// [`Frame::StatsRequest`]) — the negotiation tests use it to act as an
/// older client verifying that [`unsupported_version_reply`] decodes
/// cleanly on its own dialect.
pub fn decode_frame_with_version(buf: &[u8], version: u8) -> Result<(Frame, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Incomplete {
            needed: HEADER_LEN - buf.len(),
        });
    }
    let magic: [u8; 4] = buf[0..4].try_into().unwrap();
    if magic != MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    if buf[4] != version {
        return Err(WireError::BadVersion { got: buf[4] });
    }
    let frame_type = buf[5];
    if !(tag::LOCATE_REQUEST..=tag::VENUE_ADMIN_RESPONSE).contains(&frame_type) {
        return Err(WireError::UnknownFrameType { got: frame_type });
    }
    let reserved = u16::from_le_bytes(buf[6..8].try_into().unwrap());
    if reserved != 0 {
        return Err(WireError::BadReserved { got: reserved });
    }
    let payload_len = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::Oversize { len: payload_len });
    }
    let total = HEADER_LEN + payload_len as usize;
    if buf.len() < total {
        return Err(WireError::Incomplete {
            needed: total - buf.len(),
        });
    }
    let declared_crc = u32::from_le_bytes(buf[12..16].try_into().unwrap());
    let payload = &buf[HEADER_LEN..total];
    let got_crc = crc32(payload);
    if got_crc != declared_crc {
        return Err(WireError::BadCrc {
            expected: declared_crc,
            got: got_crc,
        });
    }
    let mut c = Cursor::new(payload);
    let frame = match frame_type {
        tag::LOCATE_REQUEST => Frame::LocateRequest(decode_locate_request(&mut c)?),
        tag::LOCATE_RESPONSE => Frame::LocateResponse(decode_locate_response(&mut c)?),
        tag::STATS_REQUEST => Frame::StatsRequest,
        tag::STATS_RESPONSE => Frame::StatsResponse(decode_health(&mut c)?),
        tag::VENUE_ONBOARD => Frame::VenueOnboard(decode_venue(&mut c)?),
        tag::VENUE_RETIRE => Frame::VenueRetire(c.u64()?),
        tag::VENUE_LIST => Frame::VenueList,
        tag::VENUE_ADMIN_RESPONSE => Frame::VenueAdminResponse(decode_admin_response(&mut c)?),
        _ => unreachable!("tag range checked above"),
    };
    c.done()?;
    Ok((frame, total))
}

/// Incremental frame decoder for a byte stream delivered in arbitrary
/// chunks (one byte at a time, split mid-header, coalesced across
/// frames — TCP guarantees none of the framing).
///
/// Feed bytes with [`StreamDecoder::extend`], then pull frames with
/// [`StreamDecoder::next_frame`] until it returns `Ok(None)`. Decoding is
/// equivalent to [`decode_frame`] over the concatenation of everything
/// fed so far — the property test in `crates/net/tests/decoder.rs` pins
/// this for every split position.
///
/// Consumed bytes are reclaimed by shifting the buffer only when the
/// consumed prefix is large or the buffer is fully drained, so a
/// pipelined burst of small frames costs O(bytes) total, not O(bytes ×
/// frames) as a naive `drain(..consumed)` per frame would.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    start: usize,
}

/// Compact once the dead prefix crosses this many bytes (or the buffer
/// empties, which is free).
const DECODER_COMPACT_THRESHOLD: usize = 64 * 1024;

impl StreamDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        StreamDecoder::default()
    }

    /// Appends freshly-read bytes to the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Decodes the next complete frame, or `Ok(None)` if the buffered
    /// bytes end mid-frame.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] other than `Incomplete` — a protocol violation
    /// by the peer. The decoder is not recoverable afterwards (framing is
    /// lost); the caller should close the connection.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        match decode_frame(&self.buf[self.start..]) {
            Ok((frame, consumed)) => {
                self.start += consumed;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                }
                Ok(Some(frame))
            }
            Err(WireError::Incomplete { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Capacity of the internal buffer (bounds a connection's read-side
    /// memory footprint in the soak test).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    fn compact(&mut self) {
        if self.start == 0 {
            return;
        }
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= DECODER_COMPACT_THRESHOLD {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Writes one frame to `w` (single `write_all`, so concurrent writers
/// serialised by a lock interleave whole frames, never fragments).
///
/// # Errors
///
/// Forwards the underlying I/O error.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame_to_vec(frame))
}

/// Reads exactly one frame from `r`, blocking as needed.
///
/// Returns `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// I/O errors are forwarded; protocol violations surface as
/// [`io::ErrorKind::InvalidData`] wrapping the [`WireError`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF mid-header",
            ));
        }
        filled += n;
    }
    // Validate the header alone first, then read the payload.
    let mut buf = header.to_vec();
    match decode_frame(&buf) {
        Ok((frame, _)) => return Ok(Some(frame)),
        Err(WireError::Incomplete { needed }) => {
            let start = buf.len();
            buf.resize(start + needed, 0);
            r.read_exact(&mut buf[start..])?;
        }
        Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
    }
    match decode_frame(&buf) {
        Ok((frame, _)) => Ok(Some(frame)),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Frame {
        Frame::LocateRequest(LocateRequest {
            request_id: 42,
            deadline_us: 1500,
            venue_id: 3,
            session_id: 0,
            reports: vec![WireReport {
                ap: 7,
                visit: 2,
                x: 3.25,
                y: -1.5,
                burst: vec![WireSnapshot {
                    offsets_hz: vec![-312_500.0, 0.0, 312_500.0],
                    h: vec![(1.0, 0.5), (0.0, -0.25), (2.0, 2.0)],
                }],
            }],
        })
    }

    #[test]
    fn round_trip_request() {
        let frame = sample_request();
        let bytes = frame_to_vec(&frame);
        let (decoded, n) = decode_frame(&bytes).unwrap();
        assert_eq!(n, bytes.len());
        assert_eq!(decoded, frame);
    }

    #[test]
    fn round_trip_response_ok_and_err() {
        for frame in [
            Frame::LocateResponse(LocateResponse {
                request_id: 9,
                outcome: Ok(WireEstimate {
                    x: 1.0,
                    y: 2.0,
                    relaxation_cost: 0.5,
                    region_area: 3.75,
                    n_constraints: 12,
                    n_winning_pieces: 1,
                    lp_iterations: 40,
                    warm_start_hits: 2,
                    phase1_pivots_saved: 8,
                    quality: 1,
                    session: None,
                }),
            }),
            Frame::LocateResponse(LocateResponse {
                request_id: 11,
                outcome: Ok(WireEstimate {
                    x: 4.0,
                    y: 5.0,
                    relaxation_cost: 0.0,
                    region_area: 2.0,
                    n_constraints: 6,
                    n_winning_pieces: 1,
                    lp_iterations: 12,
                    warm_start_hits: 0,
                    phase1_pivots_saved: 0,
                    quality: 3,
                    session: Some(WireSession {
                        smoothed_x: 4.25,
                        smoothed_y: 4.75,
                        velocity_x: 0.5,
                        velocity_y: -0.25,
                        error_bound: 1.5,
                    }),
                }),
            }),
            Frame::LocateResponse(LocateResponse {
                request_id: 10,
                outcome: Err(ErrorReply {
                    code: ErrorCode::Overloaded,
                    message: "queue full".into(),
                }),
            }),
        ] {
            let bytes = frame_to_vec(&frame);
            assert_eq!(decode_frame(&bytes).unwrap().0, frame);
        }
    }

    #[test]
    fn every_error_code_round_trips() {
        for code in [
            ErrorCode::EstimateFailed,
            ErrorCode::Malformed,
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Internal,
            ErrorCode::InsufficientJudgements,
            ErrorCode::LpInfeasible,
            ErrorCode::LpNumerical,
            ErrorCode::UnsupportedVersion,
            ErrorCode::UnknownVenue,
        ] {
            let frame = Frame::LocateResponse(LocateResponse {
                request_id: 1,
                outcome: Err(ErrorReply {
                    code,
                    message: code.to_string(),
                }),
            });
            let bytes = frame_to_vec(&frame);
            assert_eq!(decode_frame(&bytes).unwrap().0, frame);
        }
        // Unknown status bytes are rejected, not misread as some code.
        let frame = Frame::LocateResponse(LocateResponse {
            request_id: 1,
            outcome: Err(ErrorReply {
                code: ErrorCode::Internal,
                message: String::new(),
            }),
        });
        let mut bytes = frame_to_vec(&frame);
        let status_at = HEADER_LEN + 8;
        bytes[status_at] = 11;
        let payload = bytes[HEADER_LEN..].to_vec();
        bytes[12..16].copy_from_slice(&crc32(&payload).to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn unknown_quality_tier_is_rejected() {
        let frame = Frame::LocateResponse(LocateResponse {
            request_id: 1,
            outcome: Ok(WireEstimate {
                x: 1.0,
                y: 2.0,
                relaxation_cost: 0.0,
                region_area: 1.0,
                n_constraints: 4,
                n_winning_pieces: 1,
                lp_iterations: 7,
                warm_start_hits: 1,
                phase1_pivots_saved: 0,
                quality: 0,
                session: None,
            }),
        });
        let mut bytes = frame_to_vec(&frame);
        // The quality byte is the last payload byte of an Ok response
        // (the session block, present or not, encodes before it).
        *bytes.last_mut().unwrap() = 4;
        let payload = bytes[HEADER_LEN..].to_vec();
        bytes[12..16].copy_from_slice(&crc32(&payload).to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn old_decoders_reject_current_frames_cleanly() {
        // A v4 decoder checked `buf[4] != 4`; our v5 frames carry 5 there,
        // so the old check fires BadVersion before any payload is touched.
        // Symmetrically, a down-version frame presented to this decoder is
        // rejected the same way.
        let mut bytes = frame_to_vec(&Frame::StatsRequest);
        assert_eq!(bytes[4], 5, "frames are emitted at protocol v5");
        for old in 1..VERSION {
            bytes[4] = old;
            assert!(matches!(
                decode_frame(&bytes),
                Err(WireError::BadVersion { got }) if got == old
            ));
        }
    }

    #[test]
    fn down_version_requests_get_a_decodable_unsupported_version_reply() {
        // An older client (v2 through v4) sends a request with its own
        // version byte (the CRC covers only the payload, so the daemon
        // rejects on the version byte alone) and must be able to decode the
        // reply on its own dialect — acting that client via
        // decode_frame_with_version.
        for old in 2..VERSION {
            let mut req = frame_to_vec(&sample_request());
            req[4] = old;
            let Err(WireError::BadVersion { got }) = decode_frame(&req) else {
                panic!("v{old} request must be rejected on the version byte");
            };
            let reply = unsupported_version_reply(got);
            assert_eq!(reply[4], old, "reply is stamped with the client's version");
            let (frame, n) = decode_frame_with_version(&reply, old).unwrap();
            assert_eq!(n, reply.len());
            let Frame::LocateResponse(resp) = frame else {
                panic!("reply must be a LocateResponse, got {frame:?}");
            };
            assert_eq!(
                resp.outcome.unwrap_err().code,
                ErrorCode::UnsupportedVersion
            );
        }
        // A *newer* client (hypothetical v6) gets the reply on our dialect.
        let reply = unsupported_version_reply(VERSION + 1);
        assert_eq!(reply[4], VERSION);
        assert!(decode_frame(&reply).is_ok());
    }

    #[test]
    fn venue_admin_frames_round_trip() {
        let venue = WireVenue::from_venue(7, &Venue::lab());
        assert_eq!(venue.name, "Lab");
        assert_eq!(venue.static_aps.len(), 3);
        assert!(venue.boundary_polygon().is_ok());
        for frame in [
            Frame::VenueOnboard(venue.clone()),
            Frame::VenueRetire(7),
            Frame::VenueList,
            Frame::VenueAdminResponse(VenueAdminResponse {
                outcome: Ok(vec![
                    VenueSummary {
                        venue_id: 0,
                        name: "Lab".into(),
                        resident: true,
                        requests: 12,
                    },
                    VenueSummary {
                        venue_id: 7,
                        name: "Mall".into(),
                        resident: false,
                        requests: 0,
                    },
                ]),
            }),
            Frame::VenueAdminResponse(VenueAdminResponse {
                outcome: Err(ErrorReply {
                    code: ErrorCode::UnknownVenue,
                    message: "venue 9 was never onboarded".into(),
                }),
            }),
        ] {
            let bytes = frame_to_vec(&frame);
            let (decoded, n) = decode_frame(&bytes).unwrap();
            assert_eq!(n, bytes.len());
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn wire_venue_coordinates_are_bit_exact() {
        let mut venue = WireVenue::from_venue(1, &Venue::lobby());
        venue.boundary[0].0 = f64::from_bits(0.1f64.to_bits() + 1);
        let bytes = frame_to_vec(&Frame::VenueOnboard(venue.clone()));
        let (Frame::VenueOnboard(got), _) = decode_frame(&bytes).unwrap() else {
            panic!("wrong frame");
        };
        assert_eq!(got.boundary[0].0.to_bits(), venue.boundary[0].0.to_bits());
        assert_eq!(got, venue);
    }

    #[test]
    fn quality_survives_the_core_round_trip() {
        use nomloc_core::EstimateQuality;
        for (tier, byte) in [
            (EstimateQuality::Full, 0u8),
            (EstimateQuality::Region, 1),
            (EstimateQuality::Centroid, 2),
            (EstimateQuality::Predicted, 3),
        ] {
            let est = LocationEstimate {
                position: Point::new(1.0, 2.0),
                relaxation_cost: 0.0,
                region_area: 5.0,
                n_constraints: 4,
                n_winning_pieces: 1,
                lp_iterations: 3,
                warm_start_hits: 1,
                phase1_pivots_saved: 0,
                quality: tier,
            };
            let wire = WireEstimate::from_core(&est);
            assert_eq!(wire.quality, byte);
            assert_eq!(wire.to_core(), est);
        }
    }

    #[test]
    fn round_trip_stats_frames() {
        let bytes = frame_to_vec(&Frame::StatsRequest);
        assert_eq!(decode_frame(&bytes).unwrap().0, Frame::StatsRequest);

        let health = ServerHealth {
            connections_accepted: 4,
            frames_in: 100,
            frames_out: 99,
            requests_ok: 90,
            solve_p99_ns: 1 << 20,
            requests_internal: 2,
            batch_panics: 1,
            batchers_respawned: 1,
            quality_full: 80,
            quality_region: 7,
            quality_predicted: 2,
            quality_centroid: 3,
            sessions_active: 3,
            sessions_created: 5,
            sessions_evicted: 2,
            tracker_rejections: 1,
            venues: vec![
                VenueHealth {
                    venue_id: 0,
                    requests: 60,
                    quality_full: 55,
                    quality_region: 4,
                    quality_predicted: 1,
                    quality_centroid: 1,
                    cache_hits: 60,
                    cache_rebuilds: 0,
                    cache_evictions: 0,
                    resident: true,
                },
                VenueHealth {
                    venue_id: 17,
                    requests: 30,
                    quality_full: 25,
                    quality_region: 3,
                    quality_predicted: 0,
                    quality_centroid: 2,
                    cache_hits: 28,
                    cache_rebuilds: 2,
                    cache_evictions: 2,
                    resident: false,
                },
            ],
            ..ServerHealth::default()
        };
        let bytes = frame_to_vec(&Frame::StatsResponse(health.clone()));
        assert_eq!(
            decode_frame(&bytes).unwrap().0,
            Frame::StatsResponse(health)
        );
    }

    #[test]
    fn v5_health_appends_the_formerly_local_counters() {
        // v5 keeps the 27 v4 scalars in place and appends the nine reply-pool
        // and dispatch-plane counters after them, in declaration order; the
        // venue-record count follows the last scalar.
        let mut health = ServerHealth::default();
        for (i, slot) in health.values_mut().into_iter().enumerate() {
            *slot = i as u64 + 1;
        }
        assert_eq!(ServerHealth::LEN, 36);
        let bytes = frame_to_vec(&Frame::StatsResponse(health.clone()));
        let word = |i: usize| {
            let at = HEADER_LEN + 8 * i;
            u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
        };
        assert_eq!(word(26), health.tracker_rejections);
        assert_eq!(word(27), health.reply_bytes_encoded);
        assert_eq!(word(30), health.pool_misses);
        assert_eq!(word(35), health.queue_shards);
        assert_eq!(bytes.len(), HEADER_LEN + 8 * 36 + 4);
        assert_eq!(
            decode_frame(&bytes).unwrap().0,
            Frame::StatsResponse(health)
        );
    }

    #[test]
    fn encode_frame_appends_after_existing_content() {
        // In-place encoding with backpatched length/CRC must compose when
        // several frames share one output buffer (the coalesced reply path).
        let frames = [Frame::StatsRequest, sample_request()];
        let mut joined = Vec::new();
        let mut separate = Vec::new();
        for frame in &frames {
            encode_frame(frame, &mut joined);
            separate.extend_from_slice(&frame_to_vec(frame));
        }
        assert_eq!(joined, separate);
        let (first, n) = decode_frame(&joined).unwrap();
        assert_eq!(first, Frame::StatsRequest);
        assert_eq!(decode_frame(&joined[n..]).unwrap().0, frames[1].clone());
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = frame_to_vec(&sample_request());
        for k in 0..bytes.len() {
            match decode_frame(&bytes[..k]) {
                Err(WireError::Incomplete { needed }) => assert!(needed > 0),
                other => panic!("prefix of {k} bytes decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_version_reserved_type_crc() {
        let bytes = frame_to_vec(&sample_request());
        let mut m = bytes.clone();
        m[0] = b'X';
        assert!(matches!(decode_frame(&m), Err(WireError::BadMagic { .. })));
        let mut v = bytes.clone();
        v[4] = 9;
        assert!(matches!(
            decode_frame(&v),
            Err(WireError::BadVersion { got: 9 })
        ));
        let mut t = bytes.clone();
        t[5] = 200;
        assert!(matches!(
            decode_frame(&t),
            Err(WireError::UnknownFrameType { got: 200 })
        ));
        let mut r = bytes.clone();
        r[6] = 1;
        assert!(matches!(
            decode_frame(&r),
            Err(WireError::BadReserved { got: 1 })
        ));
        let mut c = bytes.clone();
        *c.last_mut().unwrap() ^= 0x40;
        assert!(matches!(decode_frame(&c), Err(WireError::BadCrc { .. })));
    }

    #[test]
    fn oversize_payload_rejected_before_allocation() {
        let mut bytes = frame_to_vec(&Frame::StatsRequest);
        bytes[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::Oversize { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        // A StatsRequest with a non-empty (CRC-correct) payload.
        let payload = [1u8, 2, 3];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(tag::STATS_REQUEST);
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::TrailingBytes { extra: 3 })
        ));
    }

    #[test]
    fn read_frame_round_trips_over_a_stream() {
        let frame = sample_request();
        let mut stream = Vec::new();
        write_frame(&mut stream, &frame).unwrap();
        write_frame(&mut stream, &Frame::StatsRequest).unwrap();
        let mut r = &stream[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(frame));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Frame::StatsRequest));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn semantic_validation_rejects_bad_reports() {
        let good = WireReport {
            ap: 1,
            visit: 0,
            x: 1.0,
            y: 2.0,
            burst: vec![WireSnapshot {
                offsets_hz: vec![0.0, 1.0],
                h: vec![(1.0, 0.0), (0.5, 0.5)],
            }],
        };
        assert!(good.to_core().is_ok());

        let mut nan_pos = good.clone();
        nan_pos.x = f64::NAN;
        assert!(nan_pos.to_core().is_err());

        let mut empty_grid = good.clone();
        empty_grid.burst[0].offsets_hz.clear();
        assert!(empty_grid.to_core().is_err());

        let mut descending = good.clone();
        descending.burst[0].offsets_hz = vec![1.0, 0.0];
        assert!(descending.to_core().is_err());

        let mut inf_grid = good.clone();
        inf_grid.burst[0].offsets_hz = vec![0.0, f64::INFINITY];
        assert!(inf_grid.to_core().is_err());

        // v2 hardening: the channel vector itself is validated — an empty
        // or length-mismatched `h` used to sail through to a dsp assert.
        let mut empty_h = good.clone();
        empty_h.burst[0].h.clear();
        assert!(empty_h.to_core().is_err());

        let mut short_h = good.clone();
        short_h.burst[0].h.truncate(1);
        assert!(short_h.to_core().is_err());
    }

    #[test]
    fn all_finite_matches_is_finite_oracle() {
        // The branch-free mask sweep must classify exactly like the
        // short-circuiting is_finite() fold for every special encoding:
        // quiet/signaling NaNs (any sign, any payload), ±Inf, subnormals,
        // zeros, and boundary exponents.
        let specials = [
            0.0f64,
            -0.0,
            1.0,
            -1.0,
            f64::MIN,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,               // subnormal
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x7FEF_FFFF_FFFF_FFFF), // largest finite
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001), // signaling NaN
            f64::from_bits(0xFFF8_0000_0000_0000), // negative quiet NaN
            f64::from_bits(0x7FF7_FFFF_FFFF_FFFF),
        ];
        for &a in &specials {
            assert_eq!(all_finite(&[a]), a.is_finite(), "{:#x}", a.to_bits());
            for &b in &specials {
                let xs = [a, b];
                assert_eq!(
                    all_finite(&xs),
                    xs.iter().all(|f| f.is_finite()),
                    "{:#x} {:#x}",
                    a.to_bits(),
                    b.to_bits()
                );
            }
        }
        assert!(all_finite(&[]));
        // Two values whose masked exponents would OR together to the full
        // mask despite both being finite — the case a bitwise OR-fold gets
        // wrong and a per-element compare must get right.
        let half_a = f64::from_bits(0x3FF0_0000_0000_0000); // exponent 0x3FF
        let half_b = f64::from_bits(0x4000_0000_0000_0000); // exponent 0x400
        assert!(all_finite(&[half_a, half_b]));
    }

    #[test]
    fn bulk_decode_preserves_f64_bits_exactly() {
        // The bulk array decode must stay a bit-level transport: NaN
        // payloads, signed zeros, and subnormals survive the round trip
        // unchanged (finiteness policy lives in to_core, not the decoder).
        let snap = WireSnapshot {
            offsets_hz: vec![-0.0, f64::MIN_POSITIVE / 2.0, f64::NAN, f64::INFINITY],
            h: vec![
                (f64::from_bits(0x7FF0_0000_0000_0001), -0.0),
                (f64::NEG_INFINITY, f64::from_bits(1)),
            ],
        };
        let req = Frame::LocateRequest(LocateRequest {
            request_id: 7,
            deadline_us: 0,
            venue_id: 0,
            session_id: 0,
            reports: vec![WireReport {
                ap: 1,
                visit: 2,
                x: 3.0,
                y: 4.0,
                burst: vec![snap.clone()],
            }],
        });
        let mut bytes = Vec::new();
        encode_frame(&req, &mut bytes);
        let (Frame::LocateRequest(got), _) = decode_frame(&bytes).unwrap() else {
            panic!("wrong frame");
        };
        let round = &got.reports[0].burst[0];
        for (a, b) in round.offsets_hz.iter().zip(&snap.offsets_hz) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for ((ar, ai), (br, bi)) in round.h.iter().zip(&snap.h) {
            assert_eq!(ar.to_bits(), br.to_bits());
            assert_eq!(ai.to_bits(), bi.to_bits());
        }
    }

    #[test]
    fn non_finite_classification_unchanged_by_bulk_path() {
        // Regression for the vectorized finiteness pass: a non-finite
        // subcarrier offset is still rejected by to_core with the same
        // message (→ Malformed at the daemon), for every non-finite kind
        // and position; non-finite *channel* values still pass to_core
        // (they are dropped later by PdpReading::try_new, not Malformed).
        let good = WireReport {
            ap: 9,
            visit: 0,
            x: 1.0,
            y: 2.0,
            burst: vec![WireSnapshot {
                offsets_hz: vec![0.0, 1.0, 2.0, 3.0],
                h: vec![(1.0, 0.0); 4],
            }],
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN] {
            for pos in 0..4 {
                let mut r = good.clone();
                r.burst[0].offsets_hz[pos] = bad;
                let err = r.to_core().unwrap_err();
                assert_eq!(err, "AP 9 snapshot 0: non-finite subcarrier offset");
            }
        }
        let mut nan_h = good.clone();
        nan_h.burst[0].h[2] = (f64::NAN, f64::INFINITY);
        assert!(nan_h.to_core().is_ok());
    }

    #[test]
    fn core_report_round_trip_is_bit_exact() {
        let report = CsiReport {
            site: ApSite::nomadic(3, 5, Point::new(0.1 + 0.2, -7.5)),
            burst: vec![CsiSnapshot {
                h: vec![Complex::new(1.0e-3, -2.0e-9), Complex::new(-0.25, 0.75)],
                grid: SubcarrierGrid::new(vec![-1.0, 312_500.0]),
            }],
        };
        let round = WireReport::from_core(&report).to_core().unwrap();
        assert_eq!(round, report);
        assert_eq!(
            round.site.position.x.to_bits(),
            report.site.position.x.to_bits()
        );
    }
}
