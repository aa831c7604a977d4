//! The multi-venue registry: read-mostly venue → server map with LRU
//! eviction under a memory budget.
//!
//! One daemon serves a whole fleet of venues. Onboarding a venue is just
//! data (NomLoc is calibration-free — a floor-plan polygon and AP sites,
//! no site survey), so the registry builds the venue's
//! [`nomloc_core::cache::VenueCache`] once at onboarding and publishes it
//! through a hand-rolled arc-swap:
//!
//! * **Publishers** (onboard / retire / evict / rebuild — all rare) take
//!   the `slot` mutex, clone the map of `Arc` entries, mutate the clone,
//!   store it back, and then bump `gen` with `Release` ordering.
//! * **Readers** ([`RegistryReader`]) keep a private `Arc` of the last
//!   snapshot (until released) plus the generation it was taken at.
//!   [`RegistryReader::snapshot`] is one `Acquire` load of `gen` in
//!   steady state; only when the generation moved (or the snapshot was
//!   released) does it briefly take the mutex to reclone. The locate hot
//!   path therefore never blocks on admin traffic.
//!
//! Entries are immutable once published — mutation replaces the entry in
//! a *new* map. A venue's [`VenueStats`] is a separate `Arc` of atomics
//! shared by every incarnation of the entry, so counters survive
//! eviction and rebuild.
//!
//! **Eviction**: when the summed
//! [`VenueCache::approx_bytes`](nomloc_core::cache::VenueCache::approx_bytes)
//! of resident
//! caches exceeds the configured budget, the least-recently-used venues
//! (by a logical resolve clock) drop their server; the spec is retained,
//! and the next request for the venue rebuilds the cache on demand —
//! bit-identically, since `VenueCache::new` is a pure function of the
//! boundary polygon (`VenueCache::fingerprint` pins this in tests). The
//! resident venue 0 — the server the daemon was spawned with — is never
//! evicted and never retired.

use crate::wire::{VenueSummary, WireVenue};
use nomloc_core::localizability::{self, LocalizabilityMap};
use nomloc_core::server::LocalizationServer;
use nomloc_core::stats::PipelineStats;
use nomloc_geometry::Point;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

nomloc_core::counter_set! {
    /// Per-venue serving counters appended to
    /// [`ServerHealth`](crate::wire::ServerHealth) (new in v3): a plain copy
    /// of a venue's [`VenueStats`] plus its id and residency.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct VenueHealth {
        /// Locate requests resolved against this venue.
        requests,
        /// Estimates served at full quality.
        quality_full,
        /// Estimates degraded to the site-constraints-only region.
        quality_region,
        /// Estimates degraded to the weighted site centroid.
        quality_centroid,
        /// Estimates answered from a session's motion model (v4).
        quality_predicted,
        /// Batch resolutions that found the venue cache resident.
        cache_hits,
        /// Batch resolutions that had to rebuild an evicted cache.
        cache_rebuilds,
        /// Times this venue's cache was evicted under the memory budget.
        cache_evictions,
    }
    extra {
        /// Registry identifier.
        pub venue_id: u64,
        /// Whether the cache is resident right now.
        pub resident: bool,
    }

    /// Per-venue serving counters. Shared (via `Arc`) by every incarnation
    /// of a venue's registry entry, so eviction and rebuild never reset them.
    #[derive(Debug, Default)]
    atomic pub struct VenueStats {
        /// Logical resolve-clock tick of the last use (drives LRU eviction).
        last_used: AtomicU64,
    }
}

impl VenueStats {
    /// Bumps the quality-tier counter for one served estimate.
    pub fn record_quality(&self, quality: nomloc_core::EstimateQuality) {
        use nomloc_core::EstimateQuality::*;
        match quality {
            Full => &self.quality_full,
            Region => &self.quality_region,
            Predicted => &self.quality_predicted,
            Centroid => &self.quality_centroid,
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

/// One immutable registry entry. Replaced wholesale (in a fresh map) on
/// every state change; the `stats` arc is carried across incarnations.
#[derive(Debug)]
pub struct VenueEntry {
    /// Registry identifier (0 = the resident default venue).
    pub venue_id: u64,
    /// Human-readable name.
    pub name: String,
    /// The onboarding spec, retained for rebuild-after-eviction.
    /// `None` for venue 0, whose server was built in-process.
    spec: Option<WireVenue>,
    /// The serving state; `None` while evicted.
    server: Option<Arc<LocalizationServer>>,
    /// The venue's localizability analysis, built at onboard time from
    /// the boundary polygon and static AP sites. Evicted and rebuilt in
    /// lockstep with the venue cache — `analyze` is a pure function of
    /// the spec, so the rebuild is bit-identical.
    localizability: Option<Arc<LocalizabilityMap>>,
    /// Counters shared across evict/rebuild incarnations.
    pub stats: Arc<VenueStats>,
}

impl VenueEntry {
    /// Whether the venue's cache is resident right now.
    pub fn resident(&self) -> bool {
        self.server.is_some()
    }

    /// The venue's server, when resident. Entries returned by
    /// [`VenueRegistry::resolve`] are always resident.
    pub fn server(&self) -> Option<&Arc<LocalizationServer>> {
        self.server.as_ref()
    }

    /// The venue's localizability map, resident exactly when the server
    /// is: both are dropped on eviction and rebuilt together on resolve.
    pub fn localizability(&self) -> Option<&Arc<LocalizabilityMap>> {
        self.localizability.as_ref()
    }
}

/// Grid pitch (metres) for the per-venue localizability analysis. Coarse
/// enough that the map is a few hundred cells for fleet-sized venues,
/// fine enough that the per-cell error bound tracks real blind spots.
/// Grid pitch (metres) of the per-venue localizability maps the registry
/// builds alongside each resident server. Coarser than the analysis
/// default: the session plane only needs a cell-level error bound, and a
/// coarse grid keeps onboarding (and LRU rebuild) cheap. Public so tests
/// and clients can rebuild the identical map.
pub const LOCALIZABILITY_PITCH_M: f64 = 2.0;

type Map = HashMap<u64, Arc<VenueEntry>>;

/// Why [`VenueRegistry::resolve`] could not produce a server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// The venue id was never onboarded (or has been retired).
    Unknown,
    /// Rebuilding the evicted cache failed (should be unreachable —
    /// onboarding validates the boundary polygon).
    Rebuild(String),
}

/// The registry itself. See the module docs for the publication protocol.
#[derive(Debug)]
pub struct VenueRegistry {
    /// Publication generation; bumped (Release) after every map swap.
    gen: AtomicU64,
    /// The current snapshot. Publishers briefly lock; readers clone the
    /// `Arc` only when `gen` moved.
    slot: Mutex<Arc<Map>>,
    /// Logical clock driving LRU eviction: one tick per resolve.
    clock: AtomicU64,
    /// Resident-cache budget in bytes (0 = unlimited).
    budget_bytes: usize,
    /// Worker threads per venue server (mirrors the daemon's setting).
    workers: usize,
    /// The daemon-wide pipeline stats every venue server records into,
    /// so aggregate health counters stay meaningful across venues.
    shared_stats: Arc<PipelineStats>,
}

impl VenueRegistry {
    /// Builds a registry whose venue 0 is the daemon's resident server.
    pub fn new(
        resident: Arc<LocalizationServer>,
        name: impl Into<String>,
        workers: usize,
        budget_bytes: usize,
    ) -> Self {
        let shared_stats = resident.stats_arc();
        // Venue 0 has no onboarding spec (its server was built in-process),
        // so its AP sites are unknown here: analyze the boundary with an
        // empty AP set, which still yields per-cell geometry-driven bounds.
        let localizability = Arc::new(localizability::analyze(
            resident.area(),
            &[],
            LOCALIZABILITY_PITCH_M,
        ));
        let entry = Arc::new(VenueEntry {
            venue_id: 0,
            name: name.into(),
            spec: None,
            server: Some(resident),
            localizability: Some(localizability),
            stats: Arc::new(VenueStats::default()),
        });
        let mut map = Map::new();
        map.insert(0, entry);
        VenueRegistry {
            gen: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(map)),
            clock: AtomicU64::new(0),
            budget_bytes,
            workers,
            shared_stats,
        }
    }

    /// The current publication generation (readers poll this).
    fn generation(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }

    /// Runs `f` on a private clone of the map, publishes the result, and
    /// bumps the generation. All mutation funnels through here, so the
    /// clone-mutate-swap is race-free under the one mutex.
    fn publish<R>(&self, f: impl FnOnce(&mut Map) -> R) -> R {
        let mut slot = self.slot.lock().unwrap();
        let mut map = (**slot).clone();
        let out = f(&mut map);
        self.evict_over_budget(&mut map);
        *slot = Arc::new(map);
        self.gen.fetch_add(1, Ordering::Release);
        out
    }

    /// Evicts least-recently-used resident caches (never venue 0) until
    /// the summed cache footprint fits the budget.
    fn evict_over_budget(&self, map: &mut Map) {
        if self.budget_bytes == 0 {
            return;
        }
        loop {
            let resident_bytes: usize = map
                .values()
                .filter_map(|e| e.server.as_ref())
                .map(|s| s.venue_cache().approx_bytes())
                .sum();
            if resident_bytes <= self.budget_bytes {
                return;
            }
            let Some(victim) = map
                .values()
                .filter(|e| e.venue_id != 0 && e.resident())
                .min_by_key(|e| e.stats.last_used.load(Ordering::Relaxed))
                .map(|e| e.venue_id)
            else {
                return; // only the unevictable resident venue is left
            };
            let old = map.get(&victim).unwrap();
            let evicted = Arc::new(VenueEntry {
                venue_id: old.venue_id,
                name: old.name.clone(),
                spec: old.spec.clone(),
                server: None,
                localizability: None,
                stats: Arc::clone(&old.stats),
            });
            evicted
                .stats
                .cache_evictions
                .fetch_add(1, Ordering::Relaxed);
            map.insert(victim, evicted);
        }
    }

    fn build_server(
        &self,
        spec: &WireVenue,
    ) -> Result<(Arc<LocalizationServer>, Arc<LocalizabilityMap>), String> {
        let area = spec.boundary_polygon()?;
        let aps: Vec<Point> = spec
            .static_aps
            .iter()
            .map(|&(x, y)| Point::new(x, y))
            .collect();
        let localizability = Arc::new(localizability::analyze(&area, &aps, LOCALIZABILITY_PITCH_M));
        Ok((
            Arc::new(
                LocalizationServer::new(area)
                    .with_workers(self.workers)
                    .with_stats(Arc::clone(&self.shared_stats)),
            ),
            localizability,
        ))
    }

    /// Onboards (or replaces) a venue. Builds the cache eagerly so the
    /// first locate request pays nothing.
    ///
    /// # Errors
    ///
    /// Venue id 0 is reserved for the resident venue; an invalid boundary
    /// polygon is rejected before anything is published.
    pub fn onboard(&self, spec: WireVenue) -> Result<(), String> {
        if spec.venue_id == 0 {
            return Err("venue id 0 is reserved for the resident venue".into());
        }
        let (server, localizability) = self.build_server(&spec)?;
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        self.publish(|map| {
            let stats = map
                .get(&spec.venue_id)
                .map(|old| Arc::clone(&old.stats))
                .unwrap_or_default();
            stats.last_used.store(tick, Ordering::Relaxed);
            let entry = Arc::new(VenueEntry {
                venue_id: spec.venue_id,
                name: spec.name.clone(),
                spec: Some(spec),
                server: Some(server),
                localizability: Some(localizability),
                stats,
            });
            map.insert(entry.venue_id, entry);
        });
        Ok(())
    }

    /// Retires a venue: it disappears from the map and its counters stop.
    ///
    /// # Errors
    ///
    /// Venue 0 cannot be retired; retiring an unknown venue reports it.
    pub fn retire(&self, venue_id: u64) -> Result<(), String> {
        if venue_id == 0 {
            return Err("the resident venue 0 cannot be retired".into());
        }
        self.publish(|map| match map.remove(&venue_id) {
            Some(_) => Ok(()),
            None => Err(format!("venue {venue_id} was never onboarded")),
        })
    }

    /// The registry listing, sorted by venue id.
    pub fn list(&self) -> Vec<VenueSummary> {
        let map = Arc::clone(&self.slot.lock().unwrap());
        let mut out: Vec<VenueSummary> = map
            .values()
            .map(|e| VenueSummary {
                venue_id: e.venue_id,
                name: e.name.clone(),
                resident: e.resident(),
                requests: e.stats.requests.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by_key(|s| s.venue_id);
        out
    }

    /// Per-venue health records, sorted by venue id.
    pub fn health(&self) -> Vec<VenueHealth> {
        let map = Arc::clone(&self.slot.lock().unwrap());
        let mut out: Vec<VenueHealth> = map
            .values()
            .map(|e| VenueHealth {
                venue_id: e.venue_id,
                resident: e.resident(),
                ..e.stats.load()
            })
            .collect();
        out.sort_by_key(|h| h.venue_id);
        out
    }

    /// Resolves a venue to its server for one micro-batch, rebuilding the
    /// cache if it was evicted and touching the LRU clock.
    ///
    /// # Errors
    ///
    /// [`ResolveError::Unknown`] for ids never onboarded (mapped to the
    /// wire's `UnknownVenue`); [`ResolveError::Rebuild`] if the retained
    /// spec stopped building (unreachable for specs that onboarded).
    pub fn resolve(
        &self,
        venue_id: u64,
        reader: &mut RegistryReader,
    ) -> Result<Arc<VenueEntry>, ResolveError> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = reader
            .snapshot(self)
            .get(&venue_id)
            .cloned()
            .ok_or(ResolveError::Unknown)?;
        entry.stats.last_used.store(tick, Ordering::Relaxed);
        if entry.resident() {
            entry.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(entry);
        }
        // Evicted: rebuild under the publisher lock. Re-check the *current*
        // map first — another batcher may have rebuilt while we waited.
        let spec = entry.spec.clone().ok_or(ResolveError::Unknown)?;
        let (server, localizability) = self.build_server(&spec).map_err(ResolveError::Rebuild)?;
        self.publish(|map| match map.get(&venue_id) {
            Some(cur) if cur.resident() => Ok(Arc::clone(cur)),
            Some(cur) => {
                let entry = Arc::new(VenueEntry {
                    venue_id,
                    name: cur.name.clone(),
                    spec: cur.spec.clone(),
                    server: Some(server),
                    localizability: Some(localizability),
                    stats: Arc::clone(&cur.stats),
                });
                entry.stats.cache_rebuilds.fetch_add(1, Ordering::Relaxed);
                entry.stats.last_used.store(tick, Ordering::Relaxed);
                map.insert(venue_id, Arc::clone(&entry));
                Ok(entry)
            }
            None => Err(ResolveError::Unknown), // retired while we rebuilt
        })
    }

    /// A snapshot peek at one venue's entry: no LRU touch, no rebuild,
    /// no hit/miss accounting. The reader-side `Predicted` fallback uses
    /// this — it only needs the (possibly evicted) entry's stats and
    /// localizability map, and must stay off the resolve path.
    pub fn peek(&self, venue_id: u64) -> Option<Arc<VenueEntry>> {
        self.slot.lock().unwrap().get(&venue_id).cloned()
    }

    /// Summed
    /// [`VenueCache::approx_bytes`](nomloc_core::cache::VenueCache::approx_bytes)
    /// over resident caches.
    pub fn resident_bytes(&self) -> usize {
        let map = Arc::clone(&self.slot.lock().unwrap());
        map.values()
            .filter_map(|e| e.server.as_ref())
            .map(|s| s.venue_cache().approx_bytes())
            .sum()
    }
}

/// A per-thread read handle: one `Acquire` load per
/// [`RegistryReader::snapshot`] in steady state, a brief mutex clone only
/// when the registry's generation moved.
///
/// Each thread owns its reader (batchers, the watchdog drain) — an
/// explicit handle rather than a thread-local, so multiple registries in
/// one process (tests!) never share stale snapshots.
#[derive(Debug)]
pub struct RegistryReader {
    gen: u64,
    /// The snapshot last taken; `None` before the first and after
    /// [`RegistryReader::release`].
    map: Option<Arc<Map>>,
}

impl Default for RegistryReader {
    fn default() -> Self {
        RegistryReader::new()
    }
}

impl RegistryReader {
    /// A reader that has never observed any snapshot.
    pub fn new() -> Self {
        RegistryReader {
            gen: u64::MAX,
            map: None,
        }
    }

    /// The current venue map, refreshed only when the generation moved.
    pub fn snapshot(&mut self, reg: &VenueRegistry) -> &Map {
        let gen = reg.generation();
        if gen != self.gen {
            self.gen = gen;
            self.map = None;
        }
        self.map
            .get_or_insert_with(|| Arc::clone(&reg.slot.lock().unwrap()))
    }

    /// Lets go of the held snapshot; the next [`RegistryReader::snapshot`]
    /// takes a fresh one. A snapshot keeps every venue it lists alive, so
    /// a reader that may sit unused for long (an event loop between the
    /// requests it solves itself) releases it after each use rather than
    /// pin the caches of venues evicted in the meantime.
    pub fn release(&mut self) {
        self.map = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomloc_core::scenario::Venue;

    fn resident_server() -> Arc<LocalizationServer> {
        Arc::new(LocalizationServer::new(
            Venue::lab().plan.boundary().clone(),
        ))
    }

    fn spec(id: u64) -> WireVenue {
        WireVenue::from_venue(id, &nomloc_core::scenario::fleet_venue(id))
    }

    #[test]
    fn onboard_list_retire_round_trip() {
        let reg = VenueRegistry::new(resident_server(), "Lab", 1, 0);
        assert_eq!(reg.list().len(), 1);
        reg.onboard(spec(1)).unwrap();
        reg.onboard(spec(2)).unwrap();
        let listing = reg.list();
        assert_eq!(
            listing.iter().map(|s| s.venue_id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(listing.iter().all(|s| s.resident));
        reg.retire(1).unwrap();
        assert_eq!(reg.list().len(), 2);
        assert!(reg.retire(1).is_err(), "double retire reports unknown");
        assert!(reg.retire(0).is_err(), "venue 0 is unretirable");
        assert!(reg.onboard(spec(0)).is_err(), "venue 0 is reserved");
    }

    #[test]
    fn resolve_is_lock_free_in_steady_state_and_tracks_hits() {
        let reg = VenueRegistry::new(resident_server(), "Lab", 1, 0);
        reg.onboard(spec(1)).unwrap();
        let mut reader = RegistryReader::new();
        let a = reg.resolve(1, &mut reader).unwrap();
        let b = reg.resolve(1, &mut reader).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "steady-state resolves share a server");
        let health = reg.health();
        let v1 = health.iter().find(|h| h.venue_id == 1).unwrap();
        assert_eq!(v1.cache_hits, 2);
        assert_eq!(v1.cache_rebuilds, 0);
        assert!(matches!(
            reg.resolve(99, &mut reader),
            Err(ResolveError::Unknown)
        ));
    }

    #[test]
    fn readers_see_publications_without_recloning_when_idle() {
        let reg = VenueRegistry::new(resident_server(), "Lab", 1, 0);
        let mut reader = RegistryReader::new();
        assert_eq!(reader.snapshot(&reg).len(), 1);
        let gen_before = reader.gen;
        reader.snapshot(&reg);
        assert_eq!(reader.gen, gen_before, "no republish, no reclone");
        reg.onboard(spec(1)).unwrap();
        assert_eq!(reader.snapshot(&reg).len(), 2, "publication visible");
    }

    #[test]
    fn released_readers_pin_no_snapshot() {
        let reg = VenueRegistry::new(resident_server(), "Lab", 1, 0);
        let holders = || Arc::strong_count(&reg.slot.lock().unwrap());
        let mut reader = RegistryReader::new();
        reader.snapshot(&reg);
        assert_eq!(holders(), 2, "the registry and the reader");
        reader.release();
        assert_eq!(holders(), 1, "a released reader holds no snapshot");
        assert_eq!(reader.snapshot(&reg).len(), 1, "and takes a fresh one");
    }

    #[test]
    fn lru_eviction_rebuilds_bit_identically() {
        // Budget sized so the resident venue plus ONE fleet venue (either
        // of them) fits, but two do not: onboarding the second evicts the
        // colder first.
        let resident = resident_server();
        let fleet = |id: u64| {
            LocalizationServer::new(spec(id).boundary_polygon().unwrap())
                .venue_cache()
                .approx_bytes()
        };
        let budget = resident.venue_cache().approx_bytes() + fleet(1).max(fleet(2)) + 64;
        let reg = VenueRegistry::new(Arc::clone(&resident), "Lab", 1, budget);
        reg.onboard(spec(1)).unwrap();
        let mut reader = RegistryReader::new();
        let fp_before = reg
            .resolve(1, &mut reader)
            .unwrap()
            .server()
            .unwrap()
            .venue_cache()
            .fingerprint();

        reg.onboard(spec(2)).unwrap();
        let listing = reg.list();
        let v1 = listing.iter().find(|s| s.venue_id == 1).unwrap();
        let v2 = listing.iter().find(|s| s.venue_id == 2).unwrap();
        assert!(!v1.resident, "colder venue 1 must be evicted");
        assert!(v2.resident, "freshly onboarded venue 2 stays");
        assert!(reg.resident_bytes() <= budget);

        // Rebuild-on-next-request, bit-identical to the evicted cache.
        let rebuilt = reg.resolve(1, &mut reader).unwrap();
        assert_eq!(
            rebuilt.server().unwrap().venue_cache().fingerprint(),
            fp_before
        );
        let health = reg.health();
        let h1 = health.iter().find(|h| h.venue_id == 1).unwrap();
        assert_eq!(h1.cache_evictions, 1);
        assert_eq!(h1.cache_rebuilds, 1);
        assert!(h1.resident);
    }

    #[test]
    fn venue_zero_is_never_evicted() {
        // A budget too small for anything: every onboard immediately evicts
        // the newcomer's colder siblings, but venue 0 always stays.
        let reg = VenueRegistry::new(resident_server(), "Lab", 1, 1);
        reg.onboard(spec(1)).unwrap();
        reg.onboard(spec(2)).unwrap();
        let listing = reg.list();
        assert!(listing.iter().find(|s| s.venue_id == 0).unwrap().resident);
        assert!(listing
            .iter()
            .filter(|s| s.venue_id != 0)
            .all(|s| !s.resident));
        // Evicted venues still answer via rebuild.
        let mut reader = RegistryReader::new();
        assert!(reg.resolve(1, &mut reader).is_ok());
    }

    #[test]
    fn localizability_map_rides_the_venue_cache_lifecycle() {
        // The map is resident exactly when the server is, and a rebuild
        // after eviction reproduces the analysis bit-identically (it is a
        // pure function of the onboarding spec).
        let reg = VenueRegistry::new(resident_server(), "Lab", 1, 0);
        reg.onboard(spec(1)).unwrap();
        let mut reader = RegistryReader::new();
        let entry = reg.resolve(1, &mut reader).unwrap();
        let map = entry.localizability().expect("resident venue has a map");
        assert!(!map.cells().is_empty(), "fleet venue grid is non-empty");
        let before: Vec<(u64, u64, u64)> = map
            .cells()
            .iter()
            .map(|c| {
                (
                    c.point.x.to_bits(),
                    c.point.y.to_bits(),
                    c.predicted_error.to_bits(),
                )
            })
            .collect();

        // Tiny budget: publishing anything evicts venue 1 (never venue 0).
        let reg2 = VenueRegistry::new(resident_server(), "Lab", 1, 1);
        reg2.onboard(spec(1)).unwrap();
        let snap = Arc::clone(&reg2.slot.lock().unwrap());
        let evicted = snap.get(&1).unwrap();
        assert!(!evicted.resident());
        assert!(
            evicted.localizability().is_none(),
            "eviction drops the map with the cache"
        );
        drop(snap);
        let rebuilt = reg2.resolve(1, &mut reader).unwrap();
        let after: Vec<(u64, u64, u64)> = rebuilt
            .localizability()
            .expect("rebuild restores the map")
            .cells()
            .iter()
            .map(|c| {
                (
                    c.point.x.to_bits(),
                    c.point.y.to_bits(),
                    c.predicted_error.to_bits(),
                )
            })
            .collect();
        assert_eq!(before, after, "rebuilt analysis is bit-identical");

        // Venue 0 (no spec) still carries a boundary-only map.
        let v0 = reg.resolve(0, &mut reader).unwrap();
        assert!(v0.localizability().is_some());
    }

    #[test]
    fn onboard_rejects_degenerate_boundaries() {
        let reg = VenueRegistry::new(resident_server(), "Lab", 1, 0);
        let mut bad = spec(1);
        bad.boundary = vec![(0.0, 0.0), (1.0, 1.0)];
        assert!(reg.onboard(bad).is_err());
    }
}
