//! The crash-safe session plane: per-(venue, session) trackers that turn
//! a stream of independent locate answers into a smoothed trajectory.
//!
//! A v4 [`crate::wire::LocateRequest`] may carry a nonzero `session_id`.
//! Consecutive estimates for the same (venue, session) pair flow through
//! one [`Tracker`], and replies grow a [`crate::wire::WireSession`]
//! block: smoothed position, velocity, and a localizability-derived error
//! bound. Sessions also power the `Predicted` degradation
//! tier — a request whose readings fail validation can be answered from
//! the session's motion model instead of falling all the way to the
//! venue centroid.
//!
//! # Crash safety
//!
//! The table is owned by the daemon's `Shared` state, **outside** the
//! batcher threads: a per-batch panic (absorbed by `catch_unwind`) or a
//! watchdog batcher respawn never touches it, so every session resumes
//! bit-identically afterwards. Two deliberate choices back this up:
//!
//! * **Logical time.** Smoothing advances one fixed tick per accepted
//!   estimate ([`SESSION_TICK_SECONDS`]) instead of wall-clock deltas, so
//!   a session's smoothed track is a pure function of its raw-estimate
//!   sequence — reproducible by the chaos verifier and unchanged by
//!   scheduling jitter, batch boundaries, or respawn pauses. Wall-clock
//!   time drives only TTL eviction.
//! * **Poison tolerance.** Shard locks are acquired with
//!   [`Mutex::lock`]'s poison recovered (`into_inner`): even if a thread
//!   died while holding a shard, the sessions in it stay servable — a
//!   tracker is always in a consistent state between `push` calls.
//!
//! # Eviction
//!
//! Idle sessions expire after a TTL, checked lazily on access and
//! eagerly by the watchdog's periodic [`SessionTable::sweep`]. An
//! in-flight request racing its own eviction simply recreates the
//! session fresh — never observes a dangling or cross-wired tracker.

use nomloc_core::tracking::{Smoothing, Tracker};
use nomloc_geometry::{Point, Vec2};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Logical seconds between consecutive accepted estimates of a session.
/// Fixed (rather than wall-clock) so smoothing is deterministic; see the
/// module docs.
pub const SESSION_TICK_SECONDS: f64 = 1.0;

/// The smoothing filter every session runs: an alpha-beta tracker, so
/// replies carry a velocity estimate and `Predicted` answers extrapolate
/// real motion.
pub const SESSION_SMOOTHING: Smoothing = Smoothing::AlphaBeta {
    alpha: 0.85,
    beta: 0.5,
};

/// Speed gate applied to session tracks, metres per logical tick. Brisk
/// indoor motion; a corrupt estimate cannot teleport a session.
pub const SESSION_MAX_SPEED: f64 = 5.0;

/// How much a `Predicted`-tier reply widens the localizability-derived
/// error bound: the answer is an extrapolation, not a measurement, so
/// the bound must say so. Public so the chaos verifier can mirror it.
pub const PREDICTED_ERROR_WIDENING: f64 = 2.0;

/// Newest history entries retained per session tracker; older entries
/// are dropped (the filter state is unaffected) to bound memory.
const HISTORY_KEEP: usize = 32;

/// Builds the tracker every session starts from. Public so the chaos
/// verifier can replay a session's expected track bit-identically.
pub fn session_tracker() -> Tracker {
    Tracker::new(SESSION_SMOOTHING).with_max_speed(SESSION_MAX_SPEED)
}

/// Session-plane tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Idle time after which a session is evicted.
    pub ttl: Duration,
    /// Lock shards (rounded up to at least 1). More shards, less
    /// contention between batchers serving unrelated sessions.
    pub shards: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            ttl: Duration::from_secs(60),
            shards: 16,
        }
    }
}

/// What [`SessionTable::observe`] / [`SessionTable::predict`] hand back
/// for the reply's session block (error bound filled in by the caller,
/// which owns the venue's localizability map).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionView {
    /// Latest smoothed position.
    pub smoothed: Point,
    /// Velocity estimate, metres per logical tick.
    pub velocity: Vec2,
}

struct SessionState {
    tracker: Tracker,
    last_seen: Instant,
}

type Shard = Mutex<HashMap<(u64, u64), SessionState>>;

/// The sharded, TTL-evicted session table. See the module docs.
pub struct SessionTable {
    shards: Vec<Shard>,
    ttl: Duration,
    created: AtomicU64,
    evicted: AtomicU64,
    rejections: AtomicU64,
}

impl SessionTable {
    /// An empty table.
    pub fn new(config: SessionConfig) -> Self {
        let n = config.shards.max(1);
        SessionTable {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            ttl: config.ttl,
            created: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
        }
    }

    /// Locks the shard owning `(venue_id, session_id)`, recovering from
    /// poison: a batcher that died mid-push leaves the tracker consistent
    /// (it is only ever mutated through `&mut` methods that uphold their
    /// own invariants), so the sessions remain servable.
    fn shard(
        &self,
        venue_id: u64,
        session_id: u64,
    ) -> MutexGuard<'_, HashMap<(u64, u64), SessionState>> {
        // Fibonacci hash over both ids; venue and session each perturb
        // the shard choice so a venue's sessions spread across shards.
        let mixed = (venue_id ^ session_id.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let idx = (mixed >> 48) as usize % self.shards.len();
        match self.shards[idx].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Feeds one raw estimate into the session's tracker (creating or
    /// reviving the session as needed) and returns the smoothed view.
    ///
    /// A non-finite `raw` is rejected by the tracker's input guard — the
    /// prior smoothed position is returned unchanged and the rejection
    /// counted — so corrupt estimates never poison a session.
    pub fn observe(&self, venue_id: u64, session_id: u64, raw: Point, now: Instant) -> SessionView {
        let mut shard = self.shard(venue_id, session_id);
        let state = self.fresh_entry(&mut shard, venue_id, session_id, now);
        let before = state.tracker.rejected();
        let smoothed = state.tracker.push(raw, SESSION_TICK_SECONDS);
        state.tracker.shrink_history(HISTORY_KEEP);
        let delta = state.tracker.rejected() - before;
        if delta > 0 {
            self.rejections.fetch_add(delta, Ordering::Relaxed);
        }
        SessionView {
            smoothed,
            velocity: state.tracker.velocity(),
        }
    }

    /// The session's motion-model extrapolation one tick ahead, if the
    /// session is warm (exists, unexpired, and has accepted at least one
    /// estimate). Powers the `Predicted` degradation tier; touches the
    /// TTL so an actively-predicted session stays alive.
    pub fn predict(&self, venue_id: u64, session_id: u64, now: Instant) -> Option<SessionView> {
        let mut shard = self.shard(venue_id, session_id);
        let state = shard.get_mut(&(venue_id, session_id))?;
        if self.expired(state, now) {
            shard.remove(&(venue_id, session_id));
            self.evicted.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let predicted = state.tracker.predict(SESSION_TICK_SECONDS)?;
        state.last_seen = now;
        Some(SessionView {
            smoothed: predicted,
            velocity: state.tracker.velocity(),
        })
    }

    /// Looks up (reviving TTL) or creates the session's entry.
    fn fresh_entry<'a>(
        &self,
        shard: &'a mut HashMap<(u64, u64), SessionState>,
        venue_id: u64,
        session_id: u64,
        now: Instant,
    ) -> &'a mut SessionState {
        let key = (venue_id, session_id);
        // An expired entry is evicted (counted) and replaced fresh: a
        // request racing its own TTL eviction sees a clean restart, never
        // stale state.
        if shard.get(&key).is_some_and(|s| self.expired(s, now)) {
            shard.remove(&key);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        let state = shard.entry(key).or_insert_with(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            SessionState {
                tracker: session_tracker(),
                last_seen: now,
            }
        });
        state.last_seen = now;
        state
    }

    fn expired(&self, state: &SessionState, now: Instant) -> bool {
        now.duration_since(state.last_seen) > self.ttl
    }

    /// Evicts every expired session; returns how many went. The watchdog
    /// calls this periodically so idle sessions don't linger until their
    /// next (never-coming) request.
    pub fn sweep(&self, now: Instant) -> u64 {
        let mut gone = 0;
        for shard in &self.shards {
            let mut shard = match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            let before = shard.len();
            shard.retain(|_, s| !self.expired(s, now));
            gone += (before - shard.len()) as u64;
        }
        if gone > 0 {
            self.evicted.fetch_add(gone, Ordering::Relaxed);
        }
        gone
    }

    /// Force-evicts **all** sessions, as if every TTL fired at once. The
    /// chaos harness uses this to race eviction against in-flight
    /// traffic; retiring the whole table is also the right response to a
    /// venue-fleet reset.
    pub fn expire_all(&self) -> u64 {
        let mut gone = 0;
        for shard in &self.shards {
            let mut shard = match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            gone += shard.len() as u64;
            shard.clear();
        }
        if gone > 0 {
            self.evicted.fetch_add(gone, Ordering::Relaxed);
        }
        gone
    }

    /// Drops every session of one venue (venue retirement).
    pub fn retire_venue(&self, venue_id: u64) -> u64 {
        let mut gone = 0;
        for shard in &self.shards {
            let mut shard = match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            let before = shard.len();
            shard.retain(|&(v, _), _| v != venue_id);
            gone += (before - shard.len()) as u64;
        }
        if gone > 0 {
            self.evicted.fetch_add(gone, Ordering::Relaxed);
        }
        gone
    }

    /// Live session count across all shards.
    pub fn active(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| match s.lock() {
                Ok(g) => g.len() as u64,
                Err(poisoned) => poisoned.into_inner().len() as u64,
            })
            .sum()
    }

    /// Sessions ever created (including TTL-evicted revivals).
    pub fn created(&self) -> u64 {
        self.created.load(Ordering::Relaxed)
    }

    /// Sessions evicted (TTL sweeps, lazy expiry, and force-expiry).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Raw estimates rejected at the tracker input guard.
    pub fn rejections(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for SessionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTable")
            .field("shards", &self.shards.len())
            .field("ttl", &self.ttl)
            .field("active", &self.active())
            .field("created", &self.created())
            .field("evicted", &self.evicted())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(ttl_secs: u64) -> SessionTable {
        SessionTable::new(SessionConfig {
            ttl: Duration::from_secs(ttl_secs),
            shards: 4,
        })
    }

    #[test]
    fn observe_matches_a_replayed_reference_tracker() {
        // The table's smoothing is a pure function of the raw sequence —
        // the exact property the chaos verifier relies on.
        let t = table(60);
        let now = Instant::now();
        let mut reference = session_tracker();
        for i in 0..20 {
            let raw = Point::new(i as f64 * 0.8, (i % 4) as f64 * 0.3);
            let got = t.observe(7, 1, raw, now);
            let want = reference.push(raw, SESSION_TICK_SECONDS);
            assert_eq!(got.smoothed, want, "sample {i}");
            assert_eq!(got.velocity, reference.velocity(), "sample {i}");
        }
        assert_eq!(t.created(), 1);
        assert_eq!(t.active(), 1);
    }

    #[test]
    fn sessions_are_isolated_per_venue_and_id() {
        let t = table(60);
        let now = Instant::now();
        // Same session id in two venues, two ids in one venue: four
        // independent trackers.
        for (venue, session, x) in [
            (1, 9, 0.0),
            (2, 9, 100.0),
            (1, 8, 200.0),
            (1u64, 7u64, 300.0),
        ] {
            t.observe(venue, session, Point::new(x, 0.0), now);
        }
        assert_eq!(t.active(), 4);
        assert_eq!(t.created(), 4);
        let v = t.observe(1, 9, Point::new(1.0, 0.0), now);
        // Speed-gated from (0,0), not from any other session's position.
        assert!(v.smoothed.x <= 1.0 + 1e-9);
        assert!(v.smoothed.x > 0.0);
    }

    #[test]
    fn ttl_sweep_and_lazy_expiry_evict_idle_sessions() {
        let t = table(10);
        let start = Instant::now();
        t.observe(1, 1, Point::new(0.0, 0.0), start);
        t.observe(1, 2, Point::new(5.0, 5.0), start);
        let later = start + Duration::from_secs(11);
        // Session 1 expires lazily on access and restarts fresh: the far
        // jump is accepted as-is (no speed gate against dead state).
        let v = t.observe(1, 1, Point::new(50.0, 50.0), later);
        assert_eq!(v.smoothed, Point::new(50.0, 50.0));
        // Session 2 goes in the sweep.
        assert_eq!(t.sweep(later), 1);
        assert_eq!(t.active(), 1);
        assert_eq!(t.evicted(), 2);
        assert_eq!(t.created(), 3, "revival counts as a new session");
    }

    #[test]
    fn predict_requires_a_warm_session() {
        let t = table(10);
        let now = Instant::now();
        assert!(t.predict(1, 1, now).is_none(), "unknown session");
        t.observe(1, 1, Point::new(2.0, 3.0), now);
        let p = t.predict(1, 1, now).expect("warm session predicts");
        // One sample ⇒ zero velocity ⇒ prediction in place.
        assert_eq!(p.smoothed, Point::new(2.0, 3.0));
        // An expired session refuses to predict (and is evicted).
        let later = now + Duration::from_secs(11);
        assert!(t.predict(1, 1, later).is_none());
        assert_eq!(t.evicted(), 1);
        assert_eq!(t.active(), 0);
    }

    #[test]
    fn predict_extrapolates_motion_and_touches_the_ttl() {
        let t = table(10);
        let mut now = Instant::now();
        for i in 0..20 {
            t.observe(3, 3, Point::new(i as f64, 0.0), now);
        }
        let last = t.observe(3, 3, Point::new(20.0, 0.0), now);
        let p = t.predict(3, 3, now).unwrap();
        assert!(
            p.smoothed.x > last.smoothed.x,
            "prediction continues the motion: {} vs {}",
            p.smoothed.x,
            last.smoothed.x
        );
        // Repeated predictions keep the session alive past its original
        // TTL window.
        for _ in 0..5 {
            now += Duration::from_secs(8);
            assert!(t.predict(3, 3, now).is_some(), "touched TTL keeps it warm");
        }
    }

    #[test]
    fn rejections_are_counted_but_never_poison_a_session() {
        let t = table(60);
        let now = Instant::now();
        t.observe(1, 1, Point::new(1.0, 2.0), now);
        let v = t.observe(1, 1, Point::new(f64::NAN, 0.0), now);
        assert_eq!(v.smoothed, Point::new(1.0, 2.0), "prior answer stands");
        assert_eq!(t.rejections(), 1);
        let v = t.observe(1, 1, Point::new(1.5, 2.0), now);
        assert!(v.smoothed.x.is_finite() && v.smoothed.y.is_finite());
    }

    #[test]
    fn expire_all_and_retire_venue_clear_the_right_sessions() {
        let t = table(60);
        let now = Instant::now();
        for s in 0..4 {
            t.observe(1, s, Point::new(0.0, 0.0), now);
            t.observe(2, s, Point::new(0.0, 0.0), now);
        }
        assert_eq!(t.retire_venue(1), 4);
        assert_eq!(t.active(), 4);
        assert_eq!(t.expire_all(), 4);
        assert_eq!(t.active(), 0);
        assert_eq!(t.evicted(), 8);
    }

    #[test]
    fn long_lived_sessions_keep_bounded_history() {
        // 10k observations; the per-session tracker must not accumulate
        // unbounded history (the table shrinks it after every push).
        let t = table(60);
        let now = Instant::now();
        for i in 0..10_000u32 {
            t.observe(1, 1, Point::new((i % 100) as f64 * 0.05, 0.0), now);
        }
        let shard = t.shard(1, 1);
        let state = shard.get(&(1, 1)).unwrap();
        assert!(state.tracker.raw_history().len() <= HISTORY_KEEP);
        assert!(state.tracker.smooth_history().len() <= HISTORY_KEEP);
    }
}
