//! The traced run's in-process half: spans kept in memory and written
//! as JSON lines at the end, and a replay of the pool through each
//! layer's public functions with a span around every call.
//!
//! Layers under 1 µs (reply encode, session observe) are timed per pool
//! pass and divided by the pool size; registry resolves are timed per
//! call with the cost of reading the clock subtracted, because hits and
//! rebuilds interleave.

use crate::drive::{ns, Interval};
use crate::json::quote;
use crate::sample::median;
use crate::workload::{venue_area, Pool, FLEET_VENUES, POOL};
use nomloc_core::scenario::fleet_venue;
use nomloc_core::{EstimateQuality, LocalizationServer};
use nomloc_geometry::Point;
use nomloc_net::crc32::crc32;
use nomloc_net::registry::{RegistryReader, VenueRegistry};
use nomloc_net::sessions::{SessionConfig, SessionTable};
use nomloc_net::wire::{self, Frame, LocateResponse, WireVenue, HEADER_LEN};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One timed interval: name, start, end, the span that caused it, and
/// the pool request it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
}

#[derive(Debug, Default)]
pub struct Spans(Vec<Span>);

impl Spans {
    pub fn push(
        &mut self,
        name: &'static str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<u64>,
        request: Option<u64>,
    ) -> u64 {
        let id = self.0.len() as u64;
        self.0.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        id
    }

    /// Adds the client's spans from a traced open-loop phase: one
    /// `client.rtt` per request (write start → reply decoded), with the
    /// `client.send` write as its child.
    pub fn add_client(&mut self, rtts: &[Interval], sends: &[Interval]) {
        let mut by_write: HashMap<(u64, u64), u64> = HashMap::new();
        for r in rtts {
            let id = self.push("client.rtt", (r.start_ns, r.end_ns), None, Some(r.request));
            by_write.insert((r.request, r.start_ns), id);
        }
        for s in sends {
            let parent = by_write.get(&(s.request, s.start_ns)).copied();
            self.push(
                "client.send",
                (s.start_ns, s.end_ns),
                parent,
                Some(s.request),
            );
        }
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for s in &self.0 {
            writeln!(
                out,
                "{{\"id\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id,
                quote(s.name),
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            )?;
        }
        out.flush()
    }
}

/// Per-layer numbers from the in-process replay. Times are µs per
/// request: medians for per-call layers, pass means for the others.
#[derive(Debug, Default)]
pub struct Layers {
    pub decode_us: f64,
    pub crc_us: f64,
    pub encode_us: f64,
    pub extract_us: f64,
    pub judge_us: f64,
    pub localize_us: f64,
    pub observe_us: f64,
    pub resolve_hit_us: f64,
    pub resolve_miss_us: f64,
    pub request_kib: f64,
    pub snapshots: f64,
    pub judgements: f64,
    pub lp_iterations: f64,
    pub warm_start_hits: f64,
    pub phase1_pivots_saved: f64,
    pub full_ratio: f64,
}

impl Layers {
    /// The in-process share of one request's round trip: everything the
    /// replay can attribute to a layer.
    pub fn in_process_us(&self) -> f64 {
        self.decode_us
            + self.crc_us
            + self.extract_us
            + self.judge_us
            + self.localize_us
            + self.encode_us
            + self.observe_us
            + self.resolve_hit_us
    }
}

/// Replays the pool through each layer in process.
pub fn replay(pool: &Pool, spans: &mut Spans, epoch: Instant) -> Result<Layers, String> {
    let n = POOL as f64;
    let mut decode = Vec::with_capacity(POOL);
    let mut crc = Vec::with_capacity(POOL);
    let mut extract = Vec::with_capacity(POOL);
    let mut judge = Vec::with_capacity(POOL);
    let mut localize = Vec::with_capacity(POOL);
    let mut layers = Layers::default();
    for i in 0..POOL {
        let frame = &pool.frames[i];
        let server = &pool.servers[&pool.venue[i]];
        let start = ns(epoch);
        let reports = crate::workload::decode_request(frame)?;
        let decoded = ns(epoch);
        black_box(crc32(&frame[HEADER_LEN..]));
        let crc_end = ns(epoch);
        let readings = server.extract_readings(&reports);
        let extracted = ns(epoch);
        let judgements = server.judge(&readings);
        let judged = ns(epoch);
        let est = server
            .localize(&readings)
            .map_err(|e| format!("replay of request {i} failed: {e}"))?;
        let localized = ns(epoch);

        let root = spans.push("replay.request", (start, localized), None, Some(i as u64));
        let mut child = |name, span| spans.push(name, span, Some(root), Some(i as u64));
        child("wire.decode", (start, decoded));
        child("wire.crc", (decoded, crc_end));
        child("pdp.extract", (crc_end, extracted));
        child("proximity.judge", (extracted, judged));
        child("estimator.localize", (judged, localized));

        let (crc_ns, judge_ns) = (crc_end - decoded, judged - extracted);
        crc.push(crc_ns as f64 / 1e3);
        // `decode_frame` checks the CRC itself: its self time leaves it out.
        decode.push((decoded - start).saturating_sub(crc_ns) as f64 / 1e3);
        extract.push((extracted - crc_end) as f64 / 1e3);
        judge.push(judge_ns as f64 / 1e3);
        // `localize` forms the judgements again before its LP.
        localize.push((localized - judged).saturating_sub(judge_ns) as f64 / 1e3);

        layers.request_kib += frame.len() as f64 / 1024.0 / n;
        layers.snapshots += reports.iter().map(|r| r.burst.len()).sum::<usize>() as f64 / n;
        layers.judgements += judgements.len() as f64 / n;
        layers.lp_iterations += est.lp_iterations as f64 / n;
        layers.warm_start_hits += est.warm_start_hits as f64 / n;
        layers.phase1_pivots_saved += est.phase1_pivots_saved as f64 / n;
        if est.quality == EstimateQuality::Full {
            layers.full_ratio += 1.0 / n;
        }
    }
    layers.decode_us = median(&decode);
    layers.crc_us = median(&crc);
    layers.extract_us = median(&extract);
    layers.judge_us = median(&judge);
    layers.localize_us = median(&localize);

    // Reply encode, per pass.
    let replies: Vec<Frame> = (0..POOL)
        .map(|i| {
            Frame::LocateResponse(LocateResponse {
                request_id: i as u64,
                outcome: Ok(pool.expected[i].clone()),
            })
        })
        .collect();
    let mut buf = Vec::new();
    let start = ns(epoch);
    for reply in &replies {
        buf.clear();
        wire::encode_frame(reply, &mut buf);
        black_box(&buf);
    }
    let end = ns(epoch);
    spans.push("wire.encode.pass", (start, end), None, None);
    layers.encode_us = (end - start) as f64 / 1e3 / n;

    // Session-table writes, per pass, in send order (stateless workloads
    // never touch the table).
    if pool.workload.sessions {
        let table = SessionTable::new(SessionConfig::default());
        let now = Instant::now();
        let start = ns(epoch);
        for &i in &pool.order {
            let raw = Point::new(pool.expected[i].x, pool.expected[i].y);
            black_box(table.observe(pool.venue[i], pool.session[i], raw, now));
        }
        let end = ns(epoch);
        spans.push("sessions.observe.pass", (start, end), None, None);
        layers.observe_us = (end - start) as f64 / 1e3 / n;
    }

    let (hits, misses) = resolve_replay(pool, spans, epoch)?;
    layers.resolve_hit_us = if hits.is_empty() { 0.0 } else { median(&hits) };
    layers.resolve_miss_us = if misses.is_empty() {
        0.0
    } else {
        median(&misses)
    };
    Ok(layers)
}

/// Resolves every pool request's venue, in send order, against a
/// registry set up as the daemon's is. Returns per-call hit and rebuild
/// times, µs.
fn resolve_replay(
    pool: &Pool,
    spans: &mut Spans,
    epoch: Instant,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let resident = Arc::new(LocalizationServer::new(venue_area(0)));
    let registry = VenueRegistry::new(resident, "resident", 1, pool.workload.venue_budget);
    if pool.workload.fleet {
        for id in 1..=FLEET_VENUES {
            registry.onboard(WireVenue::from_venue(id, &fleet_venue(id)))?;
        }
    }
    let clock_ns = clock_cost_ns();
    let mut reader = RegistryReader::new();
    let mut rebuilds: HashMap<u64, u64> = HashMap::new();
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    let pass_start = ns(epoch);
    for &i in &pool.order {
        let venue = pool.venue[i];
        let start = Instant::now();
        let entry = registry
            .resolve(venue, &mut reader)
            .map_err(|e| format!("resolve of venue {venue} failed: {e:?}"))?;
        let took = (start.elapsed().as_nanos() as u64).saturating_sub(clock_ns) as f64 / 1e3;
        let now = entry.stats.cache_rebuilds.load(Ordering::Relaxed);
        let before = rebuilds.insert(venue, now).unwrap_or(0);
        if now > before {
            misses.push(took);
        } else {
            hits.push(took);
        }
    }
    spans.push("registry.resolve.pass", (pass_start, ns(epoch)), None, None);
    Ok((hits, misses))
}

/// Median cost of reading the clock twice, subtracted from per-call
/// timings of sub-microsecond calls.
fn clock_cost_ns() -> u64 {
    let mut v: Vec<u64> = (0..1001)
        .map(|_| {
            let s = Instant::now();
            s.elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2]
}
