//! The admission/dispatch plane between the socket layer and the
//! batcher pool: venue-affine shard queues with owner batchers, work
//! stealing and targeted wakeups.
//!
//! `QUEUE_SHARDS` bounded shard queues, venue→shard
//! by fibonacci hash, so a socket thread enqueues with exactly one
//! shard-local lock (contention is counted, never spun on) and batchers
//! pop *already venue-homogeneous* batches with no scan at all — each
//! shard keeps per-venue FIFOs threaded on a round-robin venue order,
//! so batch formation is pop-front. Shard `s` is *owned* by batcher
//! `s mod B`: each batcher round-robins its disjoint owned set (so
//! every shard has a bounded service interval even with `B < N`), and
//! only when the whole set is dry does it steal from the others, in
//! deterministic order from a per-batcher rotating cursor — a hot venue
//! can neither strand cold batchers nor starve a cold shard. Wakeups
//! are targeted park/unpark: an enqueue unparks the shard's owner
//! (falling back to any parked batcher, which will steal), bounded by
//! the same [`POLL_INTERVAL`] backstop every blocking wait in the
//! daemon uses.
//!
//! Batching is *work-conserving*: a batcher ships whatever its venue's
//! FIFO holds the moment it pops (up to `max_batch`) and never waits for
//! more. Requests that arrive while it solves queue up and form the next
//! batch, so batches grow with load on their own and a lone request at
//! low load is solved as soon as a batcher is free.
//!
//! The plane is the path for backlog only: an event loop that finds a
//! lone request while [`Dispatch::claim_idle`] succeeds (no admitted
//! request is unanswered, wherever it is) solves it itself rather than
//! pay a batcher's wake-up.
//!
//! **Contract**: admission control is a *global* capacity (one atomic
//! depth gauge across all shards), so `queue_depth_peak <=
//! queue_capacity` holds and `Overloaded` is decided in one place;
//! queued-deadline expiry stays per-request at solve time; a dying
//! batcher requeues its (venue-homogeneous) batch at the front of that
//! venue's FIFO in its own shard; and drain-on-shutdown empties every
//! shard before `next_batch` reports dry — every admitted request is
//! answered.

use super::{Pending, POLL_INTERVAL};
use nomloc_core::stats::PipelineStats;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::Duration;

/// Venue→shard by fibonacci hashing — the same multiplicative mix the
/// session table uses, so consecutive venue ids spread evenly.
fn shard_of(venue: u64, shards: usize) -> usize {
    (venue.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize % shards
}

/// Parameters `next_batch` needs from the daemon config, copied once at
/// construction so the plane is self-contained.
#[derive(Clone, Copy)]
pub(super) struct DispatchConfig {
    pub max_batch: usize,
    pub queue_capacity: usize,
}

#[derive(Default)]
struct ShardState {
    /// Round-robin service order over venues with queued requests. A
    /// venue goes to the *back* after each batch, so a cold venue in the
    /// same shard is reached within one pass of the listed venues —
    /// bounded batches, no starvation.
    order: VecDeque<u64>,
    /// Per-venue FIFOs. Kept in lockstep with `order`: a venue has an
    /// entry here exactly when it holds requests, and then it is listed
    /// in `order` exactly once — never twice (which would double-serve
    /// it) and never dropped (which would strand its requests).
    venues: HashMap<u64, VecDeque<Pending>>,
    /// Requests queued in this shard (the global gauge lives in
    /// [`Dispatch::depth`]).
    len: usize,
}

/// One batcher's parking slot: the targeted-wakeup half of the plane.
struct BatcherSlot {
    /// The batcher is parked (or about to park) and wants an unpark.
    /// `swap(false)` on the waker side makes each token single-use.
    parked: AtomicBool,
    /// The thread to unpark, registered by the batcher itself on entry
    /// (and re-registered by a watchdog respawn taking over the slot).
    thread: Mutex<Option<Thread>>,
    /// Round-robin cursor over the batcher's *owned* shards (shard `s`
    /// is owned by batcher `s % B`). Advanced past each batch, so a
    /// persistently hot owned shard cannot shadow a cold sibling in the
    /// same set — the cross-shard half of the no-starvation guarantee
    /// (the per-venue round-robin in [`ShardState::order`] is the
    /// within-shard half).
    own_cursor: AtomicUsize,
    /// Rotating start of the steal scan over *non-owned* shards, used
    /// only when every owned shard is dry. Advanced past each
    /// successful steal for the same fairness reason.
    steal_cursor: AtomicUsize,
}

/// Requests being answered (see [`Dispatch::answering`]). Dropping it
/// ends their flight — also while a panic that escaped the batch guard
/// unwinds its batcher, so a lost batch never leaves the plane looking
/// busy for good.
pub(super) struct Answering<'a>(&'a Dispatch, usize);

impl Drop for Answering<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(self.1, Ordering::AcqRel);
    }
}

/// The dispatch plane (fields private to this module; the daemon drives
/// it through the methods).
pub(super) struct Dispatch {
    shards: Vec<Mutex<ShardState>>,
    /// Global queued-request gauge: admission CAS-reserves a slot here
    /// *before* touching any shard, so two shards can never jointly
    /// overshoot `queue_capacity` and `queue_depth_peak` is exact.
    depth: AtomicUsize,
    batchers: Vec<BatcherSlot>,
    /// Admitted requests not yet answered — queued, in a batcher's hands
    /// or solved outside the plane. Raised by [`Dispatch::admit`] and
    /// [`Dispatch::claim_idle`], lowered when an [`Answering`] drops.
    in_flight: AtomicUsize,
}

impl Dispatch {
    pub(super) fn new(queue_shards: usize, batchers: usize) -> Self {
        Dispatch {
            shards: (0..queue_shards.max(1)).map(|_| Mutex::default()).collect(),
            depth: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            batchers: (0..batchers.max(1))
                .map(|_| BatcherSlot {
                    parked: AtomicBool::new(false),
                    thread: Mutex::new(None),
                    own_cursor: AtomicUsize::new(0),
                    steal_cursor: AtomicUsize::new(0),
                })
                .collect(),
        }
    }

    fn try_unpark(&self, idx: usize) -> bool {
        if self.batchers[idx].parked.swap(false, Ordering::AcqRel) {
            if let Some(t) = &*self.batchers[idx].thread.lock().unwrap() {
                t.unpark();
            }
            true
        } else {
            false
        }
    }

    /// Targeted wakeup for an enqueue into `shard`: first the shard's
    /// owner (`shard % B`), then any parked batcher (which will steal
    /// its way to the work). At most one thread is woken per enqueue.
    fn wake_for_shard(&self, shard: usize) {
        if self.try_unpark(shard % self.batchers.len()) {
            return;
        }
        for b in 0..self.batchers.len() {
            if self.try_unpark(b) {
                return;
            }
        }
    }

    /// Pops one venue-homogeneous batch (≤ `max_batch`) off `shard`'s
    /// round-robin order into the empty `batch`. No scan: the per-venue
    /// FIFO is drained from the front. Returns `false` if the shard has
    /// no queued requests.
    fn pop_batch_from(&self, shard: usize, batch: &mut Vec<Pending>, max_batch: usize) -> bool {
        let mut state = self.shards[shard].lock().unwrap();
        let Some(venue) = state.order.pop_front() else {
            return false;
        };
        let q = state
            .venues
            .get_mut(&venue)
            .expect("listed venues have queued requests");
        let take = q.len().min(max_batch.max(1));
        batch.extend(q.drain(..take));
        if q.is_empty() {
            state.venues.remove(&venue);
        } else {
            // Round-robin: the venue's remainder goes to the back, so
            // shard-mates get served before its next batch.
            state.order.push_back(venue);
        }
        state.len -= take;
        self.depth.fetch_sub(take, Ordering::AcqRel);
        true
    }

    /// Registers the calling thread as batcher `idx` for targeted
    /// unparks. Called on batcher entry; a watchdog respawn re-registers
    /// the slot with the replacement thread.
    pub(super) fn register_batcher(&self, idx: usize) {
        if let Some(slot) = self.batchers.get(idx) {
            *slot.thread.lock().unwrap() = Some(std::thread::current());
        }
    }

    /// Claims the idle plane for one solve outside it, if no admitted
    /// request is unanswered — the state in which admitting a request
    /// would cost a batcher's wake-up and nothing else, and a request
    /// solved outside overtakes no earlier one (say, a session's previous
    /// step). A successful claim counts as one request in flight, ended
    /// by [`Dispatch::answering`]`(1)`.
    pub(super) fn claim_idle(&self) -> bool {
        self.in_flight
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Marks `n` admitted requests (a popped batch, or one claimed solve)
    /// as being answered: they stay in flight until the returned guard
    /// drops, after every reply is sent.
    pub(super) fn answering(&self, n: usize) -> Answering<'_> {
        Answering(self, n)
    }

    /// Admits `p` under the global capacity bound, or hands it back (the
    /// `Err`) for an `Overloaded` reply. `shutting_down` closes admission
    /// entirely. Updates the global and per-shard depth high-water marks,
    /// then wakes exactly one batcher.
    pub(super) fn admit(
        &self,
        p: Pending,
        shutting_down: bool,
        config: &DispatchConfig,
        stats: &PipelineStats,
    ) -> Result<(), Pending> {
        if shutting_down {
            return Err(p);
        }
        // Reserve a global slot first (CAS, so two shards can never
        // jointly overshoot the capacity), then take the one shard-local
        // lock.
        let mut depth = self.depth.load(Ordering::Acquire);
        loop {
            if depth >= config.queue_capacity {
                return Err(p);
            }
            match self.depth.compare_exchange_weak(
                depth,
                depth + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(now) => depth = now,
            }
        }
        stats.note_queue_depth(depth as u64 + 1);
        // Raised before the request is visible, so its `answered` can
        // never run first.
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        let shard = shard_of(p.venue, self.shards.len());
        let venue = p.venue;
        let mut state = match self.shards[shard].try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => {
                stats.record_enqueue_contention();
                self.shards[shard].lock().unwrap()
            }
            Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        };
        let q = state.venues.entry(venue).or_default();
        let newly_listed = q.is_empty();
        q.push_back(p);
        if newly_listed {
            state.order.push_back(venue);
        }
        state.len += 1;
        stats.note_shard_depth(state.len as u64);
        drop(state);
        self.wake_for_shard(shard);
        Ok(())
    }

    /// Requeues a dying batcher's batch at the *front* of its own
    /// shard's venue FIFO, preserving request order, then wakes everyone
    /// so a sibling picks it up. The batch is
    /// venue-homogeneous by construction, so the whole thing goes back
    /// to one venue FIFO.
    pub(super) fn requeue_front(&self, batch: &mut Vec<Pending>) {
        if batch.is_empty() {
            return;
        }
        let venue = batch[0].venue;
        let shard = shard_of(venue, self.shards.len());
        let n = batch.len();
        // Re-reserve the depth *before* pushing content, keeping
        // the invariant depth >= queued content (so depth == 0
        // still implies an empty plane for drain checks).
        self.depth.fetch_add(n, Ordering::AcqRel);
        let mut state = self.shards[shard].lock().unwrap();
        let q = state.venues.entry(venue).or_default();
        for p in batch.drain(..).rev() {
            q.push_front(p);
        }
        // The venue goes to the order *front*: the requeued batch
        // is the oldest admitted work in this shard.
        if let Some(pos) = state.order.iter().position(|&v| v == venue) {
            state.order.remove(pos);
        }
        state.order.push_front(venue);
        state.len += n;
        drop(state);
        self.wake_all();
    }

    /// Wakes every waiter (shutdown, or a requeue that any batcher may
    /// claim).
    pub(super) fn wake_all(&self) {
        for i in 0..self.batchers.len() {
            self.try_unpark(i);
        }
    }

    /// Blocks for the next venue-homogeneous micro-batch into `batch`
    /// (cleared first; capacity reused): whatever the first non-empty
    /// venue FIFO holds, up to `max_batch`, returned at once with no fill
    /// wait. Blocks only while the whole plane is empty. `batcher` is the caller's slot
    /// index — it selects the owned shards and the parking slot (the
    /// watchdog's final drain passes 0; it never
    /// parks because a drained plane returns `false` immediately).
    /// Returns `false` once the plane is empty *and* shutting down.
    pub(super) fn next_batch(
        &self,
        batcher: usize,
        batch: &mut Vec<Pending>,
        config: &DispatchConfig,
        shutting_down: impl Fn() -> bool,
        stats: &PipelineStats,
    ) -> bool {
        batch.clear();
        let nshards = self.shards.len();
        let nb = self.batchers.len();
        let b = batcher % nb;
        // This batcher owns shards `b, b+B, b+2B, …` — every
        // shard has exactly one owner (for B <= N), so an active
        // owner round-robinning its set bounds every shard's
        // service interval even if no steal ever fires.
        let owned = if b < nshards {
            (nshards - b).div_ceil(nb)
        } else {
            0
        };
        let slot = self.batchers.get(batcher);
        loop {
            // Owned shards first, entered at the rotating cursor
            // so a hot owned shard cannot shadow a cold one.
            let oc = slot
                .map(|sl| sl.own_cursor.load(Ordering::Relaxed))
                .unwrap_or(0);
            for k in 0..owned {
                let idx = (oc + k) % owned;
                if self.pop_batch_from(b + idx * nb, batch, config.max_batch) {
                    if let Some(sl) = slot {
                        sl.own_cursor.store((idx + 1) % owned, Ordering::Relaxed);
                    }
                    return true;
                }
            }
            // Every owned shard is dry: steal from the rest,
            // again from a rotating start, so dry batchers fan
            // out over hot shards without re-draining the first
            // one they find.
            let sc = slot
                .map(|sl| sl.steal_cursor.load(Ordering::Relaxed))
                .unwrap_or(0);
            for k in 0..nshards {
                let shard = (sc + k) % nshards;
                if shard % nb == b {
                    continue; // owned; just scanned above
                }
                if self.pop_batch_from(shard, batch, config.max_batch) {
                    stats.record_queue_steal();
                    if let Some(sl) = slot {
                        sl.steal_cursor
                            .store((shard + 1) % nshards, Ordering::Relaxed);
                    }
                    return true;
                }
            }
            if shutting_down() && self.depth.load(Ordering::Acquire) == 0 {
                return false;
            }
            // Park until an enqueue targets us (or the poll
            // backstop fires — same bound as every blocking wait
            // here). The parked flag is published before the
            // re-check, so an enqueue between our scan and the
            // park is guaranteed to either land in the re-check
            // or leave us an unpark token.
            if let Some(slot) = slot {
                slot.parked.store(true, Ordering::Release);
                if self.depth.load(Ordering::Acquire) > 0 || shutting_down() {
                    slot.parked.store(false, Ordering::Release);
                    continue;
                }
                std::thread::park_timeout(POLL_INTERVAL);
                slot.parked.store(false, Ordering::Release);
            } else {
                // Unregistered caller (the watchdog drain): the
                // plane still has depth, so spin-wait briefly for
                // the in-flight enqueue to land.
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }
}
