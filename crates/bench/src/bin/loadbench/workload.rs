//! The four frozen serving workloads, their request pools and the reply
//! oracle.
//!
//! Each workload builds a pool of [`POOL`] requests before any timing.
//! Frames are pre-encoded with `request_id` equal to the pool index, so
//! sending a request is one `write`, and every reply is checked against
//! the in-process `LocalizationServer::process` answer for its index.

use nomloc_core::scenario::{fleet_venue, Venue, WorkloadBuilder};
use nomloc_core::{EstimateQuality, LocalizationServer};
use nomloc_geometry::{Point, Polygon};
use nomloc_net::wire::{self, ErrorCode, Frame, LocateRequest, LocateResponse, WireEstimate};
use nomloc_net::wire::{WireReport, WireVenue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Requests per pool; the open loop cycles through it.
pub const POOL: usize = 2048;
/// Fleet workloads pre-onboard venues `1..=FLEET_VENUES` beside venue 0.
pub const FLEET_VENUES: u64 = 100;
/// Zipf exponent of fleet traffic over venues `0..=FLEET_VENUES`.
pub const ZIPF_S: f64 = 1.0;
/// Interleaved sessions of `track-sessions`; session `s` owns pool
/// requests `s·SESSION_STEPS .. (s+1)·SESSION_STEPS`.
pub const SESSIONS: usize = 256;
pub const SESSION_STEPS: usize = 8;
/// The quiet-venue open-loop rate, the same for every workload: arrivals
/// ~2 ms apart, four times the daemon's 500 µs batch-fill window.
pub const LOW_RPS: f64 = 500.0;
/// Requests each capacity-phase connection keeps in flight (2 × 64 = 128,
/// well under the daemon's default `queue_cap` of 1024, so no refusals).
pub const WINDOW: usize = 64;
/// Requests each connection keeps in flight in the warm-up: enough to
/// answer the whole pool several times over, few enough that the daemon's
/// memory high-water mark (`rss_mb`) shows its caches and set-up. With
/// [`WINDOW`] the 128 requests queued in the daemon (frame and decoded
/// reports, ~60 KiB each on `lab-dense`) doubled the mark there, to
/// ~13.4 MiB against ~6.4 MiB.
pub const WARMUP_WINDOW: usize = 8;

/// Resident-cache budget of `fleet-churn`, frozen at seed: the summed
/// `VenueCache::approx_bytes` of venues 0..=50, so about the 50 hottest
/// fleet caches stay resident and the zipf tail is evicted and rebuilt.
pub const CHURN_BUDGET_BYTES: usize = 53_720;

/// One frozen traffic mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Probe packets per AP per request.
    pub packets: usize,
    /// Traffic spread zipf(`ZIPF_S`) over venues `0..=FLEET_VENUES`.
    pub fleet: bool,
    /// Requests carry session ids (see [`SESSIONS`]).
    pub sessions: bool,
    /// `serve --venue-budget`, bytes; 0 = unlimited.
    pub venue_budget: usize,
    /// The high open-loop rate (traced runs): 60% of the median
    /// `capacity_rps` of three seed-2014 runs, rounded to 100 and frozen
    /// here so later changes are measured at the same load. A round whose
    /// own capacity is lower runs at 60% of that instead.
    pub high_rps: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    // Wire decode/CRC and PDP extraction dominate; the LP is small and the
    // registry and sessions idle.
    Workload {
        name: "lab-dense",
        packets: 16,
        fleet: false,
        sessions: false,
        venue_budget: 0,
        high_rps: 4300.0,
    },
    // LP on the larger geometries, registry resolve hits and small
    // per-venue batches dominate; the control for lab-dense.
    Workload {
        name: "fleet-sparse",
        packets: 1,
        fleet: true,
        sessions: false,
        venue_budget: 0,
        high_rps: 5500.0,
    },
    // Every request also writes the session table; the stateless
    // workloads bypass it.
    Workload {
        name: "track-sessions",
        packets: 2,
        fleet: false,
        sessions: true,
        venue_budget: 0,
        high_rps: 22100.0,
    },
    // fleet-sparse traffic under a venue-cache budget: resolves also
    // rebuild and republish evicted venues.
    Workload {
        name: "fleet-churn",
        packets: 1,
        fleet: true,
        sessions: false,
        venue_budget: CHURN_BUDGET_BYTES,
        high_rps: 3500.0,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Arguments after `nomloc`; the daemon sees only these and the frames.
    pub fn daemon_args(&self) -> Vec<String> {
        let mut args: Vec<String> = ["serve", "--listen", "127.0.0.1:0"]
            .map(String::from)
            .to_vec();
        if self.fleet {
            args.extend(["--venues".into(), FLEET_VENUES.to_string()]);
        }
        if self.venue_budget > 0 {
            args.extend(["--venue-budget".into(), self.venue_budget.to_string()]);
        }
        args
    }

    /// The venue of every pool request: zipf(`ZIPF_S`) over venues
    /// `0..=FLEET_VENUES`, hottest first. The pool holds each venue's
    /// share exactly (the inverse zipf CDF at evenly spaced points) and the
    /// seed shuffles the order, so every seed sends the same mix and a
    /// fleet metric does not move with how many cold venues a seed drew.
    pub fn venues(&self, seed: u64) -> Vec<u64> {
        if !self.fleet {
            return vec![0; POOL];
        }
        let weight = |k: u64| ((k + 1) as f64).powf(-ZIPF_S);
        let total: f64 = (0..=FLEET_VENUES).map(weight).sum();
        let (mut venue, mut below) = (0, weight(0));
        let mut out: Vec<u64> = (0..POOL)
            .map(|i| {
                let u = (i as f64 + 0.5) / POOL as f64 * total;
                while u >= below && venue < FLEET_VENUES {
                    venue += 1;
                    below += weight(venue);
                }
                venue
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..POOL).rev() {
            out.swap(i, rng.gen_range(0..=i));
        }
        out
    }

    /// Session id of pool request `i` (0 = stateless).
    pub fn session_of(&self, i: usize) -> u64 {
        if self.sessions {
            1 + (i / SESSION_STEPS) as u64
        } else {
            0
        }
    }

    /// The order requests are sent in. Sessioned traffic interleaves the
    /// sessions: step `k` of every session before step `k + 1` of any,
    /// so each session walks consecutive test sites.
    pub fn send_order(&self) -> Vec<usize> {
        if !self.sessions {
            return (0..POOL).collect();
        }
        (0..SESSION_STEPS)
            .flat_map(|k| (0..SESSIONS).map(move |s| s * SESSION_STEPS + k))
            .collect()
    }
}

/// The boundary a venue is served with: venue 0 is the daemon's resident
/// Lab (`serve`'s default venue), fleet venues travel through the same
/// `WireVenue` onboarding payload the daemon builds them from.
pub fn venue_area(id: u64) -> Polygon {
    if id == 0 {
        Venue::lab().plan.boundary().clone()
    } else {
        WireVenue::from_venue(id, &fleet_venue(id))
            .boundary_polygon()
            .expect("fleet venues have valid boundaries")
    }
}

/// How a reply compares with the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Error(ErrorCode),
    Mismatch,
}

/// Pre-encoded requests with their ground truth and oracle answers.
pub struct Pool {
    pub workload: Workload,
    pub frames: Vec<Vec<u8>>,
    pub venue: Vec<u64>,
    pub session: Vec<u64>,
    pub truth: Vec<Point>,
    pub expected: Vec<WireEstimate>,
    pub order: Vec<usize>,
    /// Oracle servers by venue id, reused by the traced replay.
    pub servers: BTreeMap<u64, LocalizationServer>,
}

impl Pool {
    /// Builds the pool and runs the oracle over it.
    ///
    /// # Errors
    ///
    /// A pool request the in-process server cannot answer: the workloads
    /// are chosen so that no request fails.
    pub fn build(workload: Workload, seed: u64) -> Result<Pool, String> {
        let venue = workload.venues(seed);
        let session: Vec<u64> = (0..POOL).map(|i| workload.session_of(i)).collect();
        let ids: BTreeSet<u64> = venue.iter().copied().collect();
        let builders: BTreeMap<u64, WorkloadBuilder> = ids
            .iter()
            .map(|&v| (v, WorkloadBuilder::new(&fleet_venue(v))))
            .collect();
        let servers: BTreeMap<u64, LocalizationServer> = ids
            .iter()
            .map(|&v| (v, LocalizationServer::new(venue_area(v)).with_workers(1)))
            .collect();
        let one = |i: usize| -> Result<(Vec<u8>, Point, WireEstimate), String> {
            let v = venue[i];
            let (truth, reports) = builders[&v].request(i, workload.packets, seed);
            let frame = wire::frame_to_vec(&Frame::LocateRequest(LocateRequest {
                request_id: i as u64,
                deadline_us: 0,
                venue_id: v,
                session_id: session[i],
                reports: reports.iter().map(WireReport::from_core).collect(),
            }));
            // The oracle sees exactly what the daemon sees: the decoded
            // frame, not the pre-encoding reports.
            let est = servers[&v]
                .process(&decode_request(&frame)?)
                .map_err(|e| format!("pool request {i} (venue {v}) fails in-process: {e}"))?;
            Ok((frame, truth, WireEstimate::from_core(&est)))
        };
        // Synthesizing CSI dominates set-up; requests are index-keyed, so
        // two threads build contiguous halves with identical results.
        let halves: Vec<Vec<_>> = std::thread::scope(|scope| {
            let handles: Vec<_> = [0..POOL / 2, POOL / 2..POOL]
                .into_iter()
                .map(|range| scope.spawn(|| range.map(one).collect::<Result<Vec<_>, _>>()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool builder panicked"))
                .collect::<Result<_, _>>()
        })?;
        let mut pool = Pool {
            workload,
            frames: Vec::with_capacity(POOL),
            venue,
            session,
            truth: Vec::with_capacity(POOL),
            expected: Vec::with_capacity(POOL),
            order: workload.send_order(),
            servers,
        };
        for (frame, truth, expected) in halves.into_iter().flatten() {
            pool.frames.push(frame);
            pool.truth.push(truth);
            pool.expected.push(expected);
        }
        Ok(pool)
    }

    /// Checks one reply against the oracle, bit for bit. Sessioned
    /// replies compare the raw estimate only (the session block depends
    /// on arrival order). Where the oracle fell to `Centroid`, the daemon
    /// answers by the state of the session: a warm one upgrades it to
    /// `Predicted` with a session block, a cold one sends the plain
    /// `Centroid` without a block.
    pub fn check(&self, reply: &LocateResponse) -> Verdict {
        let Some(expected) = self.expected.get(reply.request_id as usize) else {
            return Verdict::Mismatch;
        };
        let got = match &reply.outcome {
            Ok(est) => est,
            Err(e) => return Verdict::Error(e.code),
        };
        let ok = if !self.workload.sessions {
            same_raw(got, expected) && got.session.is_none()
        } else if expected.quality == EstimateQuality::Centroid.as_u8() {
            let predicted = got.quality == EstimateQuality::Predicted.as_u8();
            (predicted && got.session.is_some())
                || (same_raw(got, expected) && got.session.is_none())
        } else {
            same_raw(got, expected) && got.session.is_some()
        };
        if ok {
            Verdict::Ok
        } else {
            Verdict::Mismatch
        }
    }

    /// Mean distance from the ground-truth test site of the raw estimates
    /// of the slots marked in `ok_slots`, and how many there are. The raw
    /// estimate is the oracle's, which every OK reply matched bit for bit
    /// (a `Predicted` reply stands in for the oracle's `Centroid`). Each
    /// slot counts once, so the value depends on the seed and the code,
    /// not on how often the phases happened to send each slot.
    pub fn mean_error_m(&self, ok_slots: &[bool]) -> (f64, u64) {
        let (sum, n) = ok_slots
            .iter()
            .zip(self.expected.iter().zip(&self.truth))
            .filter(|(&a, _)| a)
            .fold((0.0, 0u64), |(sum, n), (_, (est, truth))| {
                (sum + Point::new(est.x, est.y).distance(*truth), n + 1)
            });
        (sum / n.max(1) as f64, n)
    }
}

/// Decodes one pre-encoded request the way the daemon's reader does.
pub fn decode_request(frame: &[u8]) -> Result<Vec<nomloc_core::server::CsiReport>, String> {
    match wire::decode_frame(frame) {
        Ok((Frame::LocateRequest(req), _)) => req.to_core_reports(),
        Ok((other, _)) => Err(format!("pool frame decodes as {other:?}")),
        Err(e) => Err(format!("pool frame does not decode: {e}")),
    }
}

/// Every field of the raw estimate, f64s by bit pattern.
fn same_raw(a: &WireEstimate, b: &WireEstimate) -> bool {
    a.x.to_bits() == b.x.to_bits()
        && a.y.to_bits() == b.y.to_bits()
        && a.relaxation_cost.to_bits() == b.relaxation_cost.to_bits()
        && a.region_area.to_bits() == b.region_area.to_bits()
        && a.n_constraints == b.n_constraints
        && a.n_winning_pieces == b.n_winning_pieces
        && a.lp_iterations == b.lp_iterations
        && a.warm_start_hits == b.warm_start_hits
        && a.phase1_pivots_saved == b.phase1_pivots_saved
        && a.quality == b.quality
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_venues_are_deterministic_per_seed() {
        let w = by_name("fleet-sparse").unwrap();
        let a = w.venues(2014);
        assert_eq!(a, w.venues(2014));
        let b = w.venues(2015);
        assert_ne!(a, b);
        let count = |v: &[u64], id: u64| v.iter().filter(|&&x| x == id).count();
        // Another seed sends the same mix in another order: each venue's
        // zipf share of the pool, to within one request.
        let total: f64 = (1..=FLEET_VENUES + 1).map(|k| 1.0 / k as f64).sum();
        for id in 0..=FLEET_VENUES {
            assert_eq!(count(&a, id), count(&b, id));
            let share = POOL as f64 / (id + 1) as f64 / total;
            assert!((count(&a, id) as f64 - share).abs() <= 1.0, "venue {id}");
        }
        // Hottest first: venue 0 is the most frequent, and even the
        // coldest venue is in the pool.
        assert!(count(&a, 0) > count(&a, 1));
        assert!(count(&a, FLEET_VENUES) > 0);
        assert!(by_name("lab-dense")
            .unwrap()
            .venues(2014)
            .iter()
            .all(|&v| v == 0));
    }

    #[test]
    fn sessions_walk_consecutive_pool_requests() {
        let w = by_name("track-sessions").unwrap();
        let order = w.send_order();
        assert_eq!(order.len(), POOL);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..POOL).collect::<Vec<_>>(), "a permutation");
        // The k-th request of session s is pool request s·8 + k, and the
        // sessions interleave.
        assert_eq!(&order[..3], &[0, 8, 16]);
        assert_eq!(order[SESSIONS], 1);
        for (pos, &i) in order.iter().enumerate() {
            assert_eq!(w.session_of(i), 1 + (pos % SESSIONS) as u64);
        }
        let stateless = by_name("lab-dense").unwrap();
        assert_eq!(stateless.session_of(9), 0);
        assert_eq!(stateless.send_order(), (0..POOL).collect::<Vec<_>>());
    }

    #[test]
    fn oracle_accepts_exact_replies_and_rejects_any_flip() {
        let expected = WireEstimate {
            x: 1.5,
            y: 2.5,
            relaxation_cost: 0.0,
            region_area: 3.0,
            n_constraints: 10,
            n_winning_pieces: 1,
            lp_iterations: 7,
            warm_start_hits: 1,
            phase1_pivots_saved: 2,
            quality: 0,
            session: None,
        };
        let pool = |w: &str| Pool {
            workload: by_name(w).unwrap(),
            frames: Vec::new(),
            venue: vec![0],
            session: vec![0],
            truth: vec![Point::new(1.5, 0.5)],
            expected: vec![expected.clone()],
            order: vec![0],
            servers: BTreeMap::new(),
        };
        let reply = |est: WireEstimate| LocateResponse {
            request_id: 0,
            outcome: Ok(est),
        };
        let stateless = pool("lab-dense");
        assert_eq!(stateless.check(&reply(expected.clone())), Verdict::Ok);
        assert_eq!(stateless.mean_error_m(&[true]), (2.0, 1));
        assert_eq!(stateless.mean_error_m(&[false]), (0.0, 0));
        let mut flipped = expected.clone();
        flipped.x = f64::from_bits(flipped.x.to_bits() ^ 1);
        assert_eq!(stateless.check(&reply(flipped)), Verdict::Mismatch);
        let unknown = LocateResponse {
            request_id: 5,
            outcome: Ok(expected.clone()),
        };
        assert_eq!(stateless.check(&unknown), Verdict::Mismatch);

        let sessioned = pool("track-sessions");
        let mut with_block = expected.clone();
        with_block.session = Some(nomloc_net::wire::WireSession {
            smoothed_x: 0.0,
            smoothed_y: 0.0,
            velocity_x: 0.0,
            velocity_y: 0.0,
            error_bound: 1.0,
        });
        assert_eq!(sessioned.check(&reply(with_block.clone())), Verdict::Ok);
        assert_eq!(sessioned.check(&reply(expected.clone())), Verdict::Mismatch);
        // Predicted is accepted only where the oracle says Centroid, and
        // only with a session block.
        let mut predicted = with_block;
        predicted.quality = EstimateQuality::Predicted.as_u8();
        predicted.x = 9.0;
        assert_eq!(
            sessioned.check(&reply(predicted.clone())),
            Verdict::Mismatch
        );
        let mut centroid_pool = pool("track-sessions");
        centroid_pool.expected[0].quality = EstimateQuality::Centroid.as_u8();
        assert_eq!(centroid_pool.check(&reply(predicted.clone())), Verdict::Ok);
        predicted.session = None;
        assert_eq!(centroid_pool.check(&reply(predicted)), Verdict::Mismatch);
        // A cold session answers the oracle's Centroid as it is, with no
        // session block.
        let cold = centroid_pool.expected[0].clone();
        assert_eq!(centroid_pool.check(&reply(cold.clone())), Verdict::Ok);
        let mut cold_flipped = cold;
        cold_flipped.y = f64::from_bits(cold_flipped.y.to_bits() ^ 1);
        assert_eq!(centroid_pool.check(&reply(cold_flipped)), Verdict::Mismatch);
    }
}
