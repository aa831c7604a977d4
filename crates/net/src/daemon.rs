//! The `nomloc-net` serving daemon: event-driven TCP socket layer,
//! cross-connection micro-batching over venue-affine dispatch shards,
//! admission control, deadlines, and graceful drain.
//!
//! Threading model (all `std`, no async runtime):
//!
//! ```text
//!             lone request at an idle plane: solved on the loop ─┐
//!  event loop 0 ─ owns conns ┐  ┌ shard 0 ─▶ batcher 0 ┐        ▼
//!  event loop 1 ─ owns conns ┼─▶┤ shard 1 ─▶ batcher 1 ┼─▶ process_batch
//!      …          (epoll)    ┘  │    …    ⤢ steal    … │        └▶ reply, written
//!                               └ shard N-1 ───────────┘  through by the solving
//!                      venue→shard fib hash;              thread; the owning loop
//!                      park/unpark wakeups                flushes what EAGAIN queued
//! ```
//!
//! * **Socket layer** (the `event` module): `event_loops` readiness-driven
//!   threads (see [`crate::poll`]) each own nonblocking connections and
//!   parse frames incrementally with [`crate::wire::StreamDecoder`]. Any
//!   thread that produces a reply writes it straight to the socket; only
//!   what the socket will not take yet goes into a bounded per-connection
//!   buffer that the owning loop flushes. A protocol violation (bad
//!   magic, CRC, version…) answers with a `Malformed` reply for request
//!   id 0 and closes the connection.
//! * **Run to completion**: a loop whose poll pass found one request and
//!   nothing else solves it itself when no admitted request is
//!   unanswered (queued, in a batcher's hands or on the other loop),
//!   through the same `solve_and_reply` a batcher runs. At a quiet venue
//!   a request then pays one wake-up (the loop's, on the socket) instead
//!   of three (loop, batcher, loop again to write).
//! * **Cross-connection micro-batching**: everything else — pipelined
//!   frames, arrivals while a solve runs, busy batchers — goes into the
//!   dispatch plane (the `dispatch` module): `QUEUE_SHARDS` (8)
//!   venue-affine shard queues; `batchers` threads pop venue-homogeneous
//!   batches of up to `max_batch` requests. Batching is work-conserving:
//!   a batcher takes whatever its venue's queue holds and never waits for
//!   more, so batches grow only as requests pile up behind a busy batcher
//!   — requests from *different* connections then land in the same
//!   `LocalizationServer::process_batch` call.
//! * **One level of parallelism**: whoever pops a batch (a batcher, or a
//!   loop running one request to completion) solves all of it on its own
//!   thread, so the loops and batchers are the daemon's only solving
//!   threads and each keeps its warm thread-local PDP scratch and FFT
//!   plans.
//! * **Admission control**: when the plane holds `queue_capacity`
//!   requests (a global bound across all shards), new arrivals are
//!   answered `Overloaded` immediately instead of buffering without
//!   bound.
//! * **Deadlines**: a request carrying `deadline_us > 0` that ages past
//!   it while queued is answered `DeadlineExceeded` and never solved.
//! * **Graceful drain**: [`DaemonHandle::shutdown`] stops the loops
//!   reading, then lets the batchers empty the plane — every admitted
//!   request is answered — and flushes every reply before joining all
//!   threads.
//!
//! The serving contract is checked end to end against the in-process
//! `process_batch` (the loopback suite's bit-identity test) and by the
//! chaos verifier's replay.

use crate::registry::{RegistryReader, ResolveError, VenueEntry, VenueRegistry};
use crate::sessions::{SessionConfig, SessionTable, SessionView, PREDICTED_ERROR_WIDENING};
use crate::wire::{
    self, ErrorCode, ErrorReply, Frame, LocateResponse, ServerHealth, VenueAdminResponse,
    WireEstimate, WireSession,
};
use nomloc_core::server::CsiReport;
use nomloc_core::stats::{PipelineStats, StatsSnapshot};
use nomloc_core::{EstimateQuality, LocalizationServer};
use nomloc_faults::{FaultClass, FaultPlan};
use std::cell::RefCell;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod dispatch;
mod event;

use event::QueuedSink;

/// How long blocking waits (poller, parked batchers, the watchdog) sleep
/// between checks of the shutdown flag — bounds shutdown latency, not
/// throughput.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Shard count of the venue-affine dispatch plane; venues spread over
/// the shards by fibonacci hash. Reported as `queue_shards` in
/// [`ServerHealth`].
const QUEUE_SHARDS: usize = 8;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Batcher threads popping micro-batches off the dispatch plane.
    pub batchers: usize,
    /// Cap on a micro-batch: a batcher takes at most this many queued
    /// requests of one venue per pop.
    pub max_batch: usize,
    /// Admission-queue capacity; arrivals beyond it get `Overloaded`.
    /// A *global* bound: the dispatch plane enforces it with one atomic
    /// gauge across all shards.
    pub queue_capacity: usize,
    /// Artificial pause before each batch solve. Zero in production; the
    /// overload tests use it to throttle the drain rate deterministically.
    pub batch_pause: Duration,
    /// Server-side fault plan. Only the `InjectPanic` class acts here: a
    /// request the plan classifies as `InjectPanic` panics inside the
    /// batch solve, exercising the `catch_unwind` isolation path.
    pub fault_plan: Option<FaultPlan>,
    /// Chaos knob: kill a batcher thread after it pops every Nth batch
    /// (globally counted); 0 = never. The dying batcher requeues its
    /// batch at the queue front, so no admitted request is lost, and the
    /// watchdog respawns a replacement (counted in `batchers_respawned`).
    /// 1 would kill every batcher on every batch and answer nothing, so it
    /// is treated as 0.
    pub kill_batcher_every: u64,
    /// Event-loop threads. Connections are pinned to the loop that
    /// accepted them.
    pub event_loops: usize,
    /// Per-connection outbound buffer cap: a connection whose peer stops
    /// reading is evicted once its unflushed replies exceed this many
    /// bytes (`slow_readers_evicted` in the health snapshot), instead of
    /// buffering without bound.
    pub write_buffer_cap: usize,
    /// Memory budget for resident venue caches
    /// ([`nomloc_core::cache::VenueCache::approx_bytes`] summed over the
    /// registry); 0 = unlimited. Cold venues beyond it are LRU-evicted
    /// and rebuilt bit-identically on their next request.
    pub venue_budget_bytes: usize,
    /// Idle time after which a session (a request stream sharing a v4
    /// `session_id`) is evicted from the session table.
    pub session_ttl: Duration,
    /// Lock shards of the session table.
    pub session_shards: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            batchers: 2,
            max_batch: 32,
            queue_capacity: 1024,
            batch_pause: Duration::ZERO,
            fault_plan: None,
            kill_batcher_every: 0,
            event_loops: 2,
            write_buffer_cap: 1 << 20,
            venue_budget_bytes: 0,
            session_ttl: Duration::from_secs(60),
            session_shards: 16,
        }
    }
}

impl DaemonConfig {
    /// The period of the `kill_batcher_every` chaos knob, `None` when it
    /// is off: at 0, and at 1, which would livelock every batcher (each
    /// would requeue its batch and die on every pop).
    fn batcher_kill_period(&self) -> Option<u64> {
        (self.kill_batcher_every > 1).then_some(self.kill_batcher_every)
    }
}

/// Network-layer counters (the pipeline-layer ones live in
/// `nomloc_core::stats::PipelineStats`, shared via the wrapped server).
#[derive(Debug, Default)]
struct NetCounters {
    connections_accepted: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    protocol_errors: AtomicU64,
    requests_enqueued: AtomicU64,
    requests_ok: AtomicU64,
    requests_failed: AtomicU64,
    /// Every `LocateResponse` sent, regardless of outcome — the daemon's
    /// progress meter for `--max-requests` style run bounds.
    responses_sent: AtomicU64,
    /// Requests answered `Internal` because their solve panicked.
    requests_internal: AtomicU64,
    /// Batch solves that panicked and fell back to per-request isolation.
    batch_panics: AtomicU64,
    /// Batcher threads the watchdog found dead and replaced.
    batchers_respawned: AtomicU64,
    /// Batches popped across all batchers — drives `kill_batcher_every`.
    batches_popped: AtomicU64,
    /// Connections evicted for overflowing their bounded outbound write
    /// buffer (a peer that stopped reading).
    slow_readers_evicted: AtomicU64,
}

/// One admitted request waiting for a batcher.
struct Pending {
    request_id: u64,
    venue: u64,
    /// v4 session id; 0 = stateless.
    session: u64,
    reports: Vec<CsiReport>,
    admitted_at: Instant,
    deadline: Option<Duration>,
    /// The connection's write half: the reply goes straight to its
    /// socket, or into its bounded buffer when the socket is backed up.
    writer: Arc<QueuedSink>,
}

struct Shared {
    /// The venue map; venue 0 is the server `spawn` was given. Batchers
    /// resolve the server per micro-batch through per-thread readers.
    registry: Arc<VenueRegistry>,
    /// The daemon-wide pipeline counters (venue 0's instance, shared by
    /// every per-venue server the registry builds).
    stats: Arc<PipelineStats>,
    config: DaemonConfig,
    /// The admission/dispatch plane: sharded venue-affine queues.
    dispatch: dispatch::Dispatch,
    /// The batching parameters `dispatch` needs, copied out of `config`
    /// once at spawn.
    dispatch_config: dispatch::DispatchConfig,
    shutting_down: AtomicBool,
    /// Second shutdown phase: every batcher is joined and every reply
    /// queued — loops flush their remaining outbound bytes and exit.
    drain_flush: AtomicBool,
    net: NetCounters,
    /// The session plane. Owned here — OUTSIDE the batcher threads — so
    /// per-batch `catch_unwind` panics and watchdog batcher respawn
    /// never lose or corrupt a session: trackers resume bit-identically.
    /// `Arc` so the chaos harness can hold the table across the daemon's
    /// lifetime and force TTL races.
    sessions: Arc<SessionTable>,
}

/// Handle to a running daemon: address, live stats, graceful shutdown.
pub struct DaemonHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    /// The event-loop threads and their cross-thread handles.
    loop_threads: Vec<JoinHandle<()>>,
    loops: Vec<Arc<event::LoopShared>>,
    /// Owns the batcher handles; respawns dead batchers until shutdown,
    /// then drains the queue and joins them.
    watchdog: JoinHandle<()>,
}

impl std::fmt::Debug for DaemonHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonHandle")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

/// Spawns the daemon around `server`, listening on `addr`
/// (e.g. `"127.0.0.1:0"` for an ephemeral port).
///
/// # Errors
///
/// Forwards socket errors from binding or cloning the listener, or from
/// setting up an event loop.
pub fn spawn<A: ToSocketAddrs>(
    server: LocalizationServer,
    config: DaemonConfig,
    addr: A,
) -> io::Result<DaemonHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    if config.fault_plan.is_some() {
        install_quiet_panic_hook();
    }
    let resident = Arc::new(server);
    let stats = resident.stats_arc();
    let registry = Arc::new(VenueRegistry::new(
        resident,
        "resident",
        1,
        config.venue_budget_bytes,
    ));
    let shared = Arc::new(Shared {
        registry,
        stats,
        dispatch: dispatch::Dispatch::new(QUEUE_SHARDS, config.batchers.max(1)),
        dispatch_config: dispatch::DispatchConfig {
            max_batch: config.max_batch,
            queue_capacity: config.queue_capacity,
        },
        config: config.clone(),
        shutting_down: AtomicBool::new(false),
        drain_flush: AtomicBool::new(false),
        net: NetCounters::default(),
        sessions: Arc::new(SessionTable::new(SessionConfig {
            ttl: config.session_ttl,
            shards: config.session_shards,
        })),
    });

    let (loop_threads, loops) = event::spawn_loops(&shared, &listener)?;

    let mut batchers = Vec::with_capacity(config.batchers.max(1));
    for idx in 0..config.batchers.max(1) {
        batchers.push(spawn_batcher(&shared, idx));
    }
    let watchdog = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || watchdog_loop(&shared, batchers))
    };

    Ok(DaemonHandle {
        shared,
        local_addr,
        loop_threads,
        loops,
        watchdog,
    })
}

fn spawn_batcher(shared: &Arc<Shared>, idx: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || batcher_loop(&shared, idx))
}

/// Supervises the batcher pool: any batcher that dies (the
/// `kill_batcher_every` chaos knob, or a panic that escapes the batch
/// guard) is joined and replaced, so the pool never shrinks permanently.
/// At shutdown it joins the pool and then drains whatever a dying batcher
/// requeued, preserving the every-admitted-request-is-answered contract.
fn watchdog_loop(shared: &Arc<Shared>, mut batchers: Vec<JoinHandle<()>>) {
    while !shared.shutting_down.load(Ordering::Acquire) {
        for (idx, slot) in batchers.iter_mut().enumerate() {
            if slot.is_finished() && !shared.shutting_down.load(Ordering::Acquire) {
                // Respawn into the same slot index, so the replacement
                // inherits the dead batcher's shard affinity and parking
                // slot (it re-registers its own thread handle on entry).
                let dead = std::mem::replace(slot, spawn_batcher(shared, idx));
                let _ = dead.join();
                shared
                    .net
                    .batchers_respawned
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        // Eager TTL pass so idle sessions don't linger until their next
        // (never-coming) request. Lazy expiry on access still backstops
        // sessions touched between sweeps.
        shared.sessions.sweep(Instant::now());
        std::thread::sleep(POLL_INTERVAL);
    }
    shared.dispatch.wake_all();
    for h in batchers {
        let _ = h.join();
    }
    // A batcher that killed itself after the shutdown flag was set leaves
    // its requeued batch behind with nobody to respawn for it — answer it
    // here (single-threaded: every batcher is joined, so requeue races
    // are over). `next_batch` returns `false` once the plane is truly
    // empty.
    let mut scratch = BatcherScratch::default();
    while next_batch(shared, 0, &mut scratch) {
        let _answering = shared.dispatch.answering(scratch.batch.len());
        solve_and_reply(shared, &mut scratch);
    }
}

/// Pops the next venue-homogeneous micro-batch into `scratch.batch`
/// through the dispatch plane. Returns `false` when the plane is empty
/// and the daemon is shutting down.
fn next_batch(shared: &Shared, batcher: usize, scratch: &mut BatcherScratch) -> bool {
    shared.dispatch.next_batch(
        batcher,
        &mut scratch.batch,
        &shared.dispatch_config,
        || shared.shutting_down.load(Ordering::Acquire),
        &shared.stats,
    )
}

/// Payload type for deliberately injected panics, so the process-global
/// panic hook can stay silent about them (they are always caught by the
/// batch guard) while real panics keep their usual report.
struct InjectedPanic(#[allow(dead_code)] u64);

fn install_quiet_panic_hook() {
    static QUIET_HOOK: std::sync::Once = std::sync::Once::new();
    QUIET_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<InjectedPanic>() {
                return;
            }
            previous(info);
        }));
    });
}

impl DaemonHandle {
    /// The address the daemon is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Total `LocateResponse` frames sent so far (any outcome).
    pub fn responses_sent(&self) -> u64 {
        self.shared.net.responses_sent.load(Ordering::Relaxed)
    }

    /// Snapshot of the wrapped server's pipeline stats (aggregated across
    /// every venue — the registry's servers share one instance).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The venue registry, for in-process onboarding (the CLI's loopback
    /// modes and the bench bins use the TCP admin plane instead when they
    /// want to exercise the wire).
    pub fn registry(&self) -> &Arc<VenueRegistry> {
        &self.shared.registry
    }

    /// Combined network + pipeline health snapshot (the payload of a
    /// `StatsResponse` frame).
    pub fn health(&self) -> ServerHealth {
        health_of(&self.shared)
    }

    /// The session table, shared with the daemon. The chaos harness
    /// holds this to force-expire sessions (a TTL race you can schedule);
    /// it stays valid across batcher panics and respawns by construction.
    pub fn sessions(&self) -> Arc<SessionTable> {
        Arc::clone(&self.shared.sessions)
    }

    /// Connections evicted so far for overflowing their bounded outbound
    /// write buffer.
    pub fn slow_readers_evicted(&self) -> u64 {
        self.shared.net.slow_readers_evicted.load(Ordering::Relaxed)
    }

    /// Graceful drain: stop accepting and reading, answer every admitted
    /// request, flush every reply, then join all threads. Returns the
    /// final health.
    pub fn shutdown(self) -> ServerHealth {
        let DaemonHandle {
            shared,
            loop_threads,
            loops,
            watchdog,
            ..
        } = self;
        shared.shutting_down.store(true, Ordering::Release);
        // Phase one: wake every loop so it deregisters its listener and
        // stops consuming input; the watchdog joins the batchers, which
        // drain the admitted plane onto the per-connection buffers (the
        // loops keep flushing meanwhile), then drains any kill-requeued
        // tail.
        for l in &loops {
            l.wake();
        }
        shared.dispatch.wake_all();
        let _ = watchdog.join();
        // Phase two: every reply is queued — tell the loops to flush their
        // remaining outbound bytes and exit, so "every admitted request is
        // answered" holds on the wire.
        shared.drain_flush.store(true, Ordering::Release);
        for l in &loops {
            l.wake();
        }
        for h in loop_threads {
            let _ = h.join();
        }
        health_of(&shared)
    }
}

fn health_of(shared: &Shared) -> ServerHealth {
    let net = &shared.net;
    let snap = shared.stats.snapshot();
    ServerHealth {
        connections_accepted: net.connections_accepted.load(Ordering::Relaxed),
        frames_in: net.frames_in.load(Ordering::Relaxed),
        frames_out: net.frames_out.load(Ordering::Relaxed),
        protocol_errors: net.protocol_errors.load(Ordering::Relaxed),
        requests_enqueued: net.requests_enqueued.load(Ordering::Relaxed),
        rejected_overload: snap.counters.queue_rejected,
        deadline_missed: snap.counters.deadline_missed,
        batches_formed: snap.counters.batches_dispatched,
        queue_depth_peak: snap.counters.queue_depth_peak,
        batch_size_p50: snap.batch_sizes.quantile_upper_bound(0.50),
        batch_size_max: snap.batch_sizes.quantile_upper_bound(1.0),
        requests_ok: net.requests_ok.load(Ordering::Relaxed),
        requests_failed: net.requests_failed.load(Ordering::Relaxed),
        solve_p50_ns: snap.solve_latency.quantile_upper_bound_ns(0.50),
        solve_p95_ns: snap.solve_latency.quantile_upper_bound_ns(0.95),
        solve_p99_ns: snap.solve_latency.quantile_upper_bound_ns(0.99),
        requests_internal: net.requests_internal.load(Ordering::Relaxed),
        batch_panics: net.batch_panics.load(Ordering::Relaxed),
        batchers_respawned: net.batchers_respawned.load(Ordering::Relaxed),
        quality_full: snap.counters.quality_full,
        quality_region: snap.counters.quality_region,
        quality_predicted: snap.counters.quality_predicted,
        quality_centroid: snap.counters.quality_centroid,
        sessions_active: shared.sessions.active(),
        sessions_created: shared.sessions.created(),
        sessions_evicted: shared.sessions.evicted(),
        tracker_rejections: shared.sessions.rejections(),
        reply_bytes_encoded: snap.counters.reply_bytes_encoded,
        slow_readers_evicted: net.slow_readers_evicted.load(Ordering::Relaxed),
        enqueue_contention: snap.counters.enqueue_contention,
        queue_steals: snap.counters.queue_steals,
        shard_depth_peak: snap.counters.shard_depth_peak,
        queue_shards: QUEUE_SHARDS as u64,
        venues: shared.registry.health(),
    }
}

thread_local! {
    /// This thread's reply encode buffer. A reply lives in it only for the
    /// one `QueuedSink::send` that writes it through (the sink copies
    /// whatever the socket does not take), so one `Vec` per replying
    /// thread serves every frame with no allocation in steady state.
    static REPLY_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Sends `frames`, encoded at protocol `version`, to one connection with
/// a single write, and counts them: every frame the daemon sends goes
/// out here. Write errors are swallowed: the client hung up, which is its
/// prerogative.
fn send_frames(
    shared: &Shared,
    writer: &QueuedSink,
    version: u8,
    frames: impl IntoIterator<Item = Frame>,
) {
    REPLY_BUF.with_borrow_mut(|bytes| {
        bytes.clear();
        let (mut count, mut responses, mut ok) = (0, 0, 0);
        for frame in frames {
            if let Frame::LocateResponse(response) = &frame {
                responses += 1;
                ok += u64::from(response.outcome.is_ok());
            }
            wire::encode_frame_with_version(&frame, version, bytes);
            count += 1;
        }
        shared.stats.record_reply_encode(bytes.len() as u64);
        let net = &shared.net;
        if writer.send(bytes) {
            net.frames_out.fetch_add(count, Ordering::Relaxed);
        }
        net.responses_sent.fetch_add(responses, Ordering::Relaxed);
        net.requests_ok.fetch_add(ok, Ordering::Relaxed);
    });
}

/// Sends one locate reply.
fn reply(shared: &Shared, writer: &QueuedSink, response: LocateResponse) {
    send_frames(
        shared,
        writer,
        wire::VERSION,
        [Frame::LocateResponse(response)],
    );
}

fn error_reply(request_id: u64, code: ErrorCode, message: impl Into<String>) -> LocateResponse {
    LocateResponse {
        request_id,
        outcome: Err(ErrorReply {
            code,
            message: message.into(),
        }),
    }
}

/// Handles one decoded frame. `Err(())` closes the connection.
///
/// `inline` is the event loop's solve scratch when this frame is the only
/// work in sight (see the `event` module): a locate request is then
/// solved right here if [`solves_inline`] agrees, instead of waking a
/// batcher for it.
fn handle_frame(
    shared: &Arc<Shared>,
    writer: &Arc<QueuedSink>,
    frame: Frame,
    inline: Option<&mut BatcherScratch>,
) -> Result<(), ()> {
    shared.net.frames_in.fetch_add(1, Ordering::Relaxed);
    match frame {
        Frame::LocateRequest(req) => {
            let request_id = req.request_id;
            let reports = match req.to_core_reports() {
                Ok(reports) => reports,
                Err(msg) => {
                    // Validation failure (corrupt CSI, bad payload). A
                    // warm session can still answer: extrapolate from the
                    // motion model at the `Predicted` tier — explicitly
                    // widened error bound — instead of a hard error.
                    if let Some(response) =
                        predicted_fallback(shared, request_id, req.venue_id, req.session_id)
                    {
                        reply(shared, writer, response);
                        return Ok(());
                    }
                    // Semantic failure: an error for THIS request only.
                    reply(
                        shared,
                        writer,
                        error_reply(request_id, ErrorCode::Malformed, msg),
                    );
                    return Ok(());
                }
            };
            let deadline =
                (req.deadline_us > 0).then(|| Duration::from_micros(req.deadline_us as u64));
            // Venue existence is checked at batch-resolution time, not
            // admission: the reader path stays registry-free (no reader
            // handle per connection), and an unknown venue answers
            // `UnknownVenue` from the batcher.
            let pending = Pending {
                request_id,
                venue: req.venue_id,
                session: req.session_id,
                reports,
                admitted_at: Instant::now(),
                deadline,
                writer: Arc::clone(writer),
            };
            if let Some(scratch) = inline {
                if solves_inline(shared, req.venue_id, scratch) {
                    // Counted as an admission, so enqueued ÷ batches keeps
                    // meaning the mean batch size.
                    shared.net.requests_enqueued.fetch_add(1, Ordering::Relaxed);
                    let _answering = shared.dispatch.answering(1);
                    scratch.batch.push(pending);
                    solve_on_loop(shared, scratch);
                    return Ok(());
                }
            }
            match shared.dispatch.admit(
                pending,
                shared.shutting_down.load(Ordering::Acquire),
                &shared.dispatch_config,
                &shared.stats,
            ) {
                Ok(()) => {
                    shared.net.requests_enqueued.fetch_add(1, Ordering::Relaxed);
                }
                Err(rejected) => {
                    shared.stats.record_overload();
                    reply(
                        shared,
                        &rejected.writer,
                        error_reply(
                            rejected.request_id,
                            ErrorCode::Overloaded,
                            "admission queue full",
                        ),
                    );
                }
            }
            Ok(())
        }
        Frame::StatsRequest => {
            let health = health_of(shared);
            send_frames(
                shared,
                writer,
                wire::VERSION,
                [Frame::StatsResponse(health)],
            );
            Ok(())
        }
        // Admin plane: rare, so the registry's publisher lock is fine
        // here. Every admin frame is answered with the listing-or-error
        // response; the connection stays open for more frames.
        Frame::VenueOnboard(venue) => {
            let result = shared
                .registry
                .onboard(venue)
                .map_err(|m| (ErrorCode::Malformed, m));
            send_admin_response(shared, writer, result);
            Ok(())
        }
        Frame::VenueRetire(venue_id) => {
            let code = if venue_id == 0 {
                ErrorCode::Malformed
            } else {
                ErrorCode::UnknownVenue
            };
            let result = shared.registry.retire(venue_id).map_err(|m| (code, m));
            if result.is_ok() {
                // A retired venue's sessions are dead state: drop them so
                // a later venue-id reuse can never resume a stale track.
                shared.sessions.retire_venue(venue_id);
            }
            send_admin_response(shared, writer, result);
            Ok(())
        }
        Frame::VenueList => {
            send_admin_response(shared, writer, Ok(()));
            Ok(())
        }
        // Clients must not send response frames; treat as protocol error.
        Frame::LocateResponse(_) | Frame::StatsResponse(_) | Frame::VenueAdminResponse(_) => {
            shared.net.protocol_errors.fetch_add(1, Ordering::Relaxed);
            reply(
                shared,
                writer,
                error_reply(
                    0,
                    ErrorCode::Malformed,
                    "unexpected response frame from client",
                ),
            );
            Err(())
        }
    }
}

/// Whether the event loop should solve a lone request for `venue` itself
/// with `scratch`, claiming the idle plane if so (the caller ends the
/// claim through `Dispatch::answering`): no admitted request is
/// unanswered, so a hand-off would buy nothing but a batcher's wake-up,
/// and the solve overtakes no earlier request. (A session step resent on
/// a new connection, solved beside its first copy, could be observed
/// first and fork the session's track.) The venue's cache must be
/// resident in the loop's registry snapshot: rebuilding an evicted one
/// takes far longer than a solve and would stall every other connection
/// on the loop, so that request goes to a batcher. Never while draining,
/// and never under `batch_pause` or `kill_batcher_every`, test knobs
/// whose suites need requests to reach the batchers.
fn solves_inline(shared: &Shared, venue: u64, scratch: &mut BatcherScratch) -> bool {
    if !shared.config.batch_pause.is_zero()
        || shared.config.batcher_kill_period().is_some()
        || shared.shutting_down.load(Ordering::Acquire)
    {
        return false;
    }
    let resident = scratch
        .reader
        .snapshot(&shared.registry)
        .get(&venue)
        .is_some_and(|e| e.resident());
    if resident && shared.dispatch.claim_idle() {
        return true; // `solve_on_loop` resolves through this snapshot
    }
    scratch.reader.release();
    false
}

/// Solves `scratch.batch` on the event loop through the batchers' own
/// [`solve_and_reply`], so deadlines, panic isolation, sessions and
/// counters are the same on both paths. A batcher that panics past the
/// batch guard is respawned by the watchdog; the loop owns connections
/// and has no such backstop, so a panic stops at this guard instead.
fn solve_on_loop(shared: &Shared, scratch: &mut BatcherScratch) {
    let solved = std::panic::catch_unwind(AssertUnwindSafe(|| solve_and_reply(shared, scratch)));
    if solved.is_err() {
        scratch.batch.clear();
        scratch.live.clear();
    }
    // The loop may serve only backlog for a long while before its next
    // solve; its snapshot must not keep venues evicted meanwhile alive.
    scratch.reader.release();
}

/// Answers an admin frame: the registry listing on success, the
/// structured error otherwise.
fn send_admin_response(
    shared: &Shared,
    writer: &QueuedSink,
    result: Result<(), (ErrorCode, String)>,
) {
    let outcome = match result {
        Ok(()) => Ok(shared.registry.list()),
        Err((code, message)) => Err(ErrorReply { code, message }),
    };
    let frame = Frame::VenueAdminResponse(VenueAdminResponse { outcome });
    send_frames(shared, writer, wire::VERSION, [frame]);
}

/// Per-thread reusable buffers for request assembly and replies: one per
/// batcher, and one per event loop for its run-to-completion solves.
///
/// Every `Vec` here keeps its capacity across batches, so a long-lived
/// batcher forms, solves, and answers micro-batches with zero steady-state
/// allocation in the assembly layer (the per-request report payloads still
/// arrive owned from the readers).
#[derive(Default)]
struct BatcherScratch {
    /// The batch popped by `next_batch`.
    batch: Vec<Pending>,
    /// Batch minus deadline-expired requests.
    live: Vec<Pending>,
    /// Report payloads taken out of `live`, aligned by index.
    inputs: Vec<Vec<CsiReport>>,
    /// Solved responses awaiting coalesced writes, aligned with `live`.
    responses: Vec<Option<LocateResponse>>,
    /// This thread's venue-registry read handle (one atomic load per batch
    /// in steady state).
    reader: RegistryReader,
}

fn batcher_loop(shared: &Arc<Shared>, idx: usize) {
    shared.dispatch.register_batcher(idx);
    let mut scratch = BatcherScratch::default();
    loop {
        if !next_batch(shared, idx, &mut scratch) {
            return; // drained and shutting down
        }
        let popped = shared.net.batches_popped.fetch_add(1, Ordering::Relaxed) + 1;
        let kill = shared.config.batcher_kill_period();
        if kill.is_some_and(|n| popped.is_multiple_of(n)) {
            // Simulated batcher death: requeue the batch at the front of
            // its queue (its venue's FIFO, in its own shard, on the
            // sharded plane) — no admitted request is lost — and exit the
            // thread. The watchdog notices and respawns within one poll
            // interval.
            shared.dispatch.requeue_front(&mut scratch.batch);
            return;
        }
        if !shared.config.batch_pause.is_zero() {
            std::thread::sleep(shared.config.batch_pause);
        }
        let _answering = shared.dispatch.answering(scratch.batch.len());
        solve_and_reply(shared, &mut scratch);
    }
}

fn solve_and_reply(shared: &Shared, scratch: &mut BatcherScratch) {
    let BatcherScratch {
        batch,
        live,
        inputs,
        responses,
        reader,
    } = scratch;
    live.clear();
    inputs.clear();
    responses.clear();
    // Expire requests that aged past their deadline while queued — they
    // get an error each; the rest of the batch is unaffected.
    for p in batch.drain(..) {
        let expired = p.deadline.is_some_and(|d| p.admitted_at.elapsed() > d);
        if expired {
            shared.stats.record_deadline_miss();
            reply(
                shared,
                &p.writer,
                error_reply(
                    p.request_id,
                    ErrorCode::DeadlineExceeded,
                    "request aged past its deadline in the queue",
                ),
            );
        } else {
            live.push(p);
        }
    }
    if live.is_empty() {
        return;
    }
    // Batches are venue-homogeneous by construction (`next_batch` shards
    // by the head's venue); the composition counter pins that invariant.
    let venue = live[0].venue;
    let mut distinct = 0u64;
    for (i, p) in live.iter().enumerate() {
        if live[..i].iter().all(|q| q.venue != p.venue) {
            distinct += 1;
        }
    }
    shared.stats.record_batch_composition(distinct);
    // One registry resolution per batch. Unknown venue fails the whole
    // (homogeneous) batch with per-request errors; holding the entry `Arc`
    // keeps the server alive even if the venue is evicted or retired
    // mid-solve, so eviction never loses admitted requests.
    let entry = match shared.registry.resolve(venue, reader) {
        Ok(entry) => entry,
        Err(e) => {
            let (code, message) = match e {
                ResolveError::Unknown => (
                    ErrorCode::UnknownVenue,
                    format!("venue {venue} is not onboarded"),
                ),
                ResolveError::Rebuild(m) => (
                    ErrorCode::Internal,
                    format!("venue {venue} cache rebuild failed: {m}"),
                ),
            };
            for p in live.iter() {
                shared.net.requests_failed.fetch_add(1, Ordering::Relaxed);
                reply(
                    shared,
                    &p.writer,
                    error_reply(p.request_id, code, message.clone()),
                );
            }
            return;
        }
    };
    let server = entry.server().expect("resolved entries are resident");
    entry
        .stats
        .requests
        .fetch_add(live.len() as u64, Ordering::Relaxed);
    inputs.extend(live.iter_mut().map(|p| std::mem::take(&mut p.reports)));
    let plan = shared.config.fault_plan.as_ref();
    // Injected panics fire BEFORE the solve touches any core state, so the
    // unwind can never poison a lock inside the server — which is what
    // makes `AssertUnwindSafe` an honest assertion here.
    let batch_result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        panic_if_injected(plan, live.iter().map(|p| p.request_id));
        server.process_batch(inputs)
    }));
    match batch_result {
        Ok(results) => {
            responses.extend(
                live.iter()
                    .zip(results)
                    .map(|(p, result)| Some(response_for(shared, &entry, p, result))),
            );
            // Coalesced writes: every reply destined for the same
            // connection goes out in one write, instead of one per reply.
            for i in 0..live.len() {
                if responses[i].is_none() {
                    continue;
                }
                let writer = &live[i].writer;
                let same_conn = (i..live.len())
                    .filter(|&j| Arc::ptr_eq(&live[j].writer, writer))
                    .filter_map(|j| responses[j].take());
                send_frames(
                    shared,
                    writer,
                    wire::VERSION,
                    same_conn.map(Frame::LocateResponse),
                );
            }
        }
        Err(_) => {
            shared.net.batch_panics.fetch_add(1, Ordering::Relaxed);
            // Per-request isolation: re-solve each request alone, each
            // under its own guard, so only the poison request answers
            // `Internal`. `process` is bit-identical to a single-element
            // `process_batch`, so the batch-mates' replies match the
            // panic-free run exactly.
            for (p, input) in live.iter().zip(inputs.iter()) {
                let one = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    panic_if_injected(plan, std::iter::once(p.request_id));
                    server.process(input)
                }));
                match one {
                    Ok(result) => {
                        let response = response_for(shared, &entry, p, result);
                        reply(shared, &p.writer, response);
                    }
                    Err(_) => {
                        shared.net.requests_internal.fetch_add(1, Ordering::Relaxed);
                        shared.net.requests_failed.fetch_add(1, Ordering::Relaxed);
                        reply(
                            shared,
                            &p.writer,
                            error_reply(
                                p.request_id,
                                ErrorCode::Internal,
                                "request panicked during solve; batch-mates unaffected",
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Panics (with the quiet [`InjectedPanic`] payload) if the fault plan
/// classifies any of `ids` as [`FaultClass::InjectPanic`].
fn panic_if_injected(plan: Option<&FaultPlan>, ids: impl Iterator<Item = u64>) {
    let Some(plan) = plan else { return };
    for id in ids {
        if plan.classify(id) == FaultClass::InjectPanic {
            std::panic::panic_any(InjectedPanic(id));
        }
    }
}

/// Builds the reply for one solved request: session smoothing and the
/// centroid→`Predicted` upgrade on success (recording the *served*
/// quality tier), the mapped wire error code on failure. Used by both
/// the batch path and the per-request panic-isolation path, so a
/// respawned batcher answers bit-identically to the batch it replaced.
fn response_for(
    shared: &Shared,
    entry: &VenueEntry,
    p: &Pending,
    result: Result<nomloc_core::LocationEstimate, nomloc_core::EstimateError>,
) -> LocateResponse {
    match result {
        Ok(est) => {
            let (est, session) = sessionize(shared, entry, p, est);
            entry.stats.record_quality(est.quality);
            let mut wire_est = WireEstimate::from_core(&est);
            wire_est.session = session;
            LocateResponse {
                request_id: p.request_id,
                outcome: Ok(wire_est),
            }
        }
        Err(e) => {
            shared.net.requests_failed.fetch_add(1, Ordering::Relaxed);
            error_reply(
                p.request_id,
                ErrorCode::from_estimate_error(&e),
                e.to_string(),
            )
        }
    }
}

/// Runs one successful estimate through the session plane (no-op for
/// stateless requests):
///
/// * **Full/Region**: the raw position feeds the session's tracker; the
///   reply carries the smoothed view and the localizability bound at the
///   smoothed cell. The served quality tier is unchanged.
/// * **Centroid + warm session**: the estimator only managed the venue
///   centroid, but the motion model knows better — answer the
///   extrapolated position at the `Predicted` tier with the bound
///   widened by [`PREDICTED_ERROR_WIDENING`]. The centroid never feeds
///   the tracker (it would drag the track toward the venue center).
/// * **Centroid + cold session**: plain centroid, no session block —
///   there is no track to smooth against yet.
fn sessionize(
    shared: &Shared,
    entry: &VenueEntry,
    p: &Pending,
    mut est: nomloc_core::LocationEstimate,
) -> (nomloc_core::LocationEstimate, Option<WireSession>) {
    if p.session == 0 {
        return (est, None);
    }
    let now = Instant::now();
    if est.quality == EstimateQuality::Centroid {
        let Some(view) = shared.sessions.predict(p.venue, p.session, now) else {
            return (est, None);
        };
        shared.stats.promote_centroid_to_predicted();
        est.position = view.smoothed;
        est.quality = EstimateQuality::Predicted;
        let session = session_block(entry, &view, PREDICTED_ERROR_WIDENING);
        return (est, Some(session));
    }
    let view = shared
        .sessions
        .observe(p.venue, p.session, est.position, now);
    let session = session_block(entry, &view, 1.0);
    (est, Some(session))
}

/// Assembles the reply's session block: the smoothed view plus the
/// localizability-derived error bound for the smoothed position's cell,
/// scaled by `widening` (NaN when the venue has no resident map — the
/// wire layer documents NaN as "bound unavailable").
fn session_block(entry: &VenueEntry, view: &SessionView, widening: f64) -> WireSession {
    let bound = entry
        .localizability()
        .and_then(|map| map.predicted_error_at(view.smoothed))
        .map(|e| e * widening);
    WireSession {
        smoothed_x: view.smoothed.x,
        smoothed_y: view.smoothed.y,
        velocity_x: view.velocity.x,
        velocity_y: view.velocity.y,
        error_bound: bound.unwrap_or(f64::NAN),
    }
}

/// The reader-side `Predicted` intercept: a request whose payload failed
/// validation, but whose session is warm, is answered from the motion
/// model instead of `Malformed`. Returns `None` (fall through to the
/// error) for stateless requests and cold/expired sessions.
fn predicted_fallback(
    shared: &Shared,
    request_id: u64,
    venue_id: u64,
    session_id: u64,
) -> Option<LocateResponse> {
    if session_id == 0 {
        return None;
    }
    let view = shared
        .sessions
        .predict(venue_id, session_id, Instant::now())?;
    // Snapshot peek only: the reader path must not touch the LRU clock
    // or trigger a rebuild. An evicted venue just means no error bound.
    let entry = shared.registry.peek(venue_id);
    let session = match &entry {
        Some(e) => session_block(e, &view, PREDICTED_ERROR_WIDENING),
        None => WireSession {
            smoothed_x: view.smoothed.x,
            smoothed_y: view.smoothed.y,
            velocity_x: view.velocity.x,
            velocity_y: view.velocity.y,
            error_bound: f64::NAN,
        },
    };
    shared.stats.record_predicted();
    if let Some(e) = &entry {
        e.stats.requests.fetch_add(1, Ordering::Relaxed);
        e.stats.record_quality(EstimateQuality::Predicted);
    }
    Some(LocateResponse {
        request_id,
        outcome: Ok(WireEstimate {
            x: view.smoothed.x,
            y: view.smoothed.y,
            relaxation_cost: 0.0,
            region_area: 0.0,
            n_constraints: 0,
            n_winning_pieces: 0,
            lp_iterations: 0,
            warm_start_hits: 0,
            phase1_pivots_saved: 0,
            quality: EstimateQuality::Predicted.as_u8(),
            session: Some(session),
        }),
    })
}
