//! The dispatch queue between the socket layer and the batcher pool:
//! one venue round-robin queue under one lock and one condvar.
//!
//! The queue keeps a FIFO per venue, threaded on a round-robin order of
//! the venues that hold requests. A batcher pops the head venue's FIFO
//! (up to `max_batch` requests) and sends the venue to the back of the
//! order if requests remain, so every popped batch is venue-homogeneous
//! with no scan, and a cold venue is served within one pass over the
//! venues listed ahead of it: a hot venue cannot starve it.
//!
//! Batching is *work-conserving*: a batcher ships whatever its venue's
//! FIFO holds the moment it pops and never waits for more. Requests that
//! arrive while it solves queue up and form the next batch, so batches
//! grow with load on their own and a lone request at low load is solved
//! as soon as a batcher is free.
//!
//! The queue is the path for backlog only: an event loop that finds a
//! lone request while [`Dispatch::claim_idle`] succeeds (no admitted
//! request is unanswered, wherever it is) solves it itself rather than
//! pay a batcher's wake-up.
//!
//! **Contract**: admission, capacity and the `closed` flag are decided
//! under the queue lock, so `queue_depth_peak <= queue_capacity` holds
//! and no request is admitted after [`Dispatch::close`]. Queued-deadline
//! expiry stays per request, at solve time. A dying batcher requeues its
//! batch at the front of its venue's FIFO and the venue at the front of
//! the order. [`Dispatch::next_batch`] reports dry only once the queue
//! is closed *and* empty, so every admitted request is answered.

use super::Pending;
use nomloc_core::stats::PipelineStats;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Everything the queue lock guards.
#[derive(Default)]
struct Queue {
    /// Round-robin service order over venues with queued requests. A
    /// venue goes to the *back* after each batch it gives up.
    order: VecDeque<u64>,
    /// Per-venue FIFOs. Kept in lockstep with `order`: a venue has an
    /// entry here exactly when it holds requests, and then it is listed
    /// in `order` exactly once — never twice (which would double-serve
    /// it) and never dropped (which would strand its requests).
    venues: HashMap<u64, VecDeque<Pending>>,
    /// Requests queued, over every venue.
    len: usize,
    /// Batchers blocked in [`Dispatch::next_batch`]: a push notifies the
    /// condvar only when this is non-zero, because std's `notify_one`
    /// makes a futex syscall every time.
    waiting: usize,
    /// Set by [`Dispatch::close`]: admission is refused and an empty
    /// queue reports dry instead of blocking.
    closed: bool,
}

/// Requests being answered (see [`Dispatch::answering`]). Dropping it
/// ends their flight — also while a panic that escaped the batch guard
/// unwinds its batcher, so a lost batch never leaves the queue looking
/// busy for good.
pub(super) struct Answering<'a>(&'a Dispatch, usize);

impl Drop for Answering<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(self.1, Ordering::AcqRel);
    }
}

/// The dispatch queue (fields private to this module; the daemon drives
/// it through the methods).
pub(super) struct Dispatch {
    queue: Mutex<Queue>,
    /// Signalled when a request is pushed while a batcher waits, and on
    /// close.
    ready: Condvar,
    /// Cap on one popped batch.
    max_batch: usize,
    /// Admission bound on `Queue::len`; arrivals beyond it are refused.
    capacity: usize,
    /// Admitted requests not yet answered — queued, in a batcher's hands
    /// or solved outside the queue. Raised by [`Dispatch::admit`] and
    /// [`Dispatch::claim_idle`], lowered when an [`Answering`] drops.
    in_flight: AtomicUsize,
}

impl Dispatch {
    pub(super) fn new(max_batch: usize, capacity: usize) -> Self {
        Dispatch {
            queue: Mutex::default(),
            ready: Condvar::new(),
            max_batch: max_batch.max(1),
            capacity,
            in_flight: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue
            .lock()
            .expect("a thread panicked holding the dispatch queue lock")
    }

    /// Claims the idle queue for one solve outside it, if no admitted
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

    /// Admits `p` at the back of its venue's FIFO, or hands it back (the
    /// `Err`) for an `Overloaded` reply when the queue is full or closed.
    /// Raises the depth high-water mark, then wakes one batcher if any
    /// is waiting.
    pub(super) fn admit(&self, p: Pending, stats: &PipelineStats) -> Result<(), Pending> {
        let mut q = self.lock();
        if q.closed || q.len >= self.capacity {
            return Err(p);
        }
        // Raised before the request is visible, so its `answering` can
        // never run first.
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        let venue = p.venue;
        let fifo = q.venues.entry(venue).or_default();
        let newly_listed = fifo.is_empty();
        fifo.push_back(p);
        if newly_listed {
            q.order.push_back(venue);
        }
        q.len += 1;
        stats.note_queue_depth(q.len as u64);
        let wake = q.waiting > 0;
        drop(q);
        if wake {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Requeues a dying batcher's batch at the *front* of its venue's
    /// FIFO, preserving request order, and moves the venue to the front
    /// of the order: the batch is the oldest admitted work. The batch is
    /// venue-homogeneous by construction, so it all goes back to one
    /// FIFO. Its requests stay in flight throughout.
    pub(super) fn requeue_front(&self, batch: &mut Vec<Pending>) {
        let Some(venue) = batch.first().map(|p| p.venue) else {
            return;
        };
        let mut q = self.lock();
        q.len += batch.len();
        let fifo = q.venues.entry(venue).or_default();
        for p in batch.drain(..).rev() {
            fifo.push_front(p);
        }
        if let Some(pos) = q.order.iter().position(|&v| v == venue) {
            q.order.remove(pos);
        }
        q.order.push_front(venue);
        let wake = q.waiting > 0;
        drop(q);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Closes admission and wakes every waiting batcher, so each drains
    /// what is queued and then reports dry.
    pub(super) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Blocks for the next venue-homogeneous micro-batch into `batch`
    /// (cleared first; capacity reused): whatever the head venue's FIFO
    /// holds, up to `max_batch`, returned at once with no fill wait.
    /// Blocks only while the queue is empty and open. Returns `false`
    /// once the queue is closed and empty.
    pub(super) fn next_batch(&self, batch: &mut Vec<Pending>) -> bool {
        batch.clear();
        let mut q = self.lock();
        loop {
            if let Some(venue) = q.order.pop_front() {
                let fifo = q
                    .venues
                    .get_mut(&venue)
                    .expect("listed venues have queued requests");
                let take = fifo.len().min(self.max_batch);
                batch.extend(fifo.drain(..take));
                if fifo.is_empty() {
                    q.venues.remove(&venue);
                } else {
                    // Round-robin: the venue's remainder goes to the
                    // back, so the other venues are served first.
                    q.order.push_back(venue);
                }
                q.len -= take;
                return true;
            }
            if q.closed {
                return false;
            }
            q.waiting += 1;
            q = self
                .ready
                .wait(q)
                .expect("a thread panicked holding the dispatch queue lock");
            q.waiting -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::event::QueuedSink;
    use std::sync::Arc;
    use std::time::Instant;

    fn pending(sink: &Arc<QueuedSink>, venue: u64, request_id: u64) -> Pending {
        Pending {
            request_id,
            venue,
            session: 0,
            reports: Vec::new(),
            admitted_at: Instant::now(),
            deadline: None,
            writer: Arc::clone(sink),
        }
    }

    /// `(venue, request_id)` of each request in `batch`.
    fn ids(batch: &[Pending]) -> Vec<(u64, u64)> {
        batch.iter().map(|p| (p.venue, p.request_id)).collect()
    }

    #[test]
    fn admits_exactly_the_capacity_then_refuses() {
        let sink = QueuedSink::for_tests();
        let stats = PipelineStats::new();
        let d = Dispatch::new(8, 3);
        for id in 0..3 {
            assert!(d.admit(pending(&sink, id % 2, id), &stats).is_ok());
        }
        let refused = d.admit(pending(&sink, 0, 3), &stats).unwrap_err();
        assert_eq!(refused.request_id, 3);
        assert_eq!(stats.snapshot().counters.queue_depth_peak, 3);
        // A popped batch frees its slots for new admissions.
        let mut batch = Vec::new();
        assert!(d.next_batch(&mut batch));
        assert!(d.admit(pending(&sink, 0, 4), &stats).is_ok());
    }

    #[test]
    fn a_cold_venue_pops_before_a_hot_venues_second_batch() {
        let sink = QueuedSink::for_tests();
        let stats = PipelineStats::new();
        let d = Dispatch::new(2, 64);
        for id in 0..6 {
            assert!(d.admit(pending(&sink, 7, id), &stats).is_ok());
        }
        assert!(d.admit(pending(&sink, 9, 100), &stats).is_ok());
        let mut batch = Vec::new();
        let mut popped = Vec::new();
        while popped.len() < 4 {
            assert!(d.next_batch(&mut batch));
            popped.push(ids(&batch));
        }
        assert_eq!(
            popped,
            [
                vec![(7, 0), (7, 1)],
                vec![(9, 100)],
                vec![(7, 2), (7, 3)],
                vec![(7, 4), (7, 5)],
            ]
        );
    }

    #[test]
    fn requeue_front_restores_the_batch_at_the_head_in_order() {
        let sink = QueuedSink::for_tests();
        let stats = PipelineStats::new();
        let d = Dispatch::new(3, 64);
        for id in 0..5 {
            assert!(d.admit(pending(&sink, 1, id), &stats).is_ok());
        }
        assert!(d.admit(pending(&sink, 2, 50), &stats).is_ok());
        let mut batch = Vec::new();
        assert!(d.next_batch(&mut batch));
        assert_eq!(ids(&batch), [(1, 0), (1, 1), (1, 2)]);
        // Venue 2 is now ahead of venue 1's remainder; the requeued batch
        // goes back in front of both, ahead of the remainder in its FIFO.
        d.requeue_front(&mut batch);
        assert!(batch.is_empty());
        assert!(d.next_batch(&mut batch));
        assert_eq!(ids(&batch), [(1, 0), (1, 1), (1, 2)]);
        // Then round robin resumes: venue 2, then venue 1's remainder.
        assert!(d.next_batch(&mut batch));
        assert_eq!(ids(&batch), [(2, 50)]);
        assert!(d.next_batch(&mut batch));
        assert_eq!(ids(&batch), [(1, 3), (1, 4)]);
    }

    #[test]
    fn close_refuses_admission_and_drains_before_reporting_dry() {
        let sink = QueuedSink::for_tests();
        let stats = PipelineStats::new();
        let d = Arc::new(Dispatch::new(1, 64));
        assert!(d.admit(pending(&sink, 0, 1), &stats).is_ok());
        assert!(d.admit(pending(&sink, 0, 2), &stats).is_ok());
        // A batcher blocked on an empty queue is woken by the close.
        let idle = Arc::new(Dispatch::new(1, 64));
        let waiter = {
            let idle = Arc::clone(&idle);
            std::thread::spawn(move || idle.next_batch(&mut Vec::new()))
        };
        while idle.lock().waiting == 0 {
            std::thread::yield_now();
        }
        d.close();
        idle.close();
        assert!(!waiter.join().unwrap(), "a closed empty queue is dry");
        assert!(d.admit(pending(&sink, 0, 3), &stats).is_err());
        let mut batch = Vec::new();
        assert!(d.next_batch(&mut batch));
        assert_eq!(ids(&batch), [(0, 1)]);
        assert!(d.next_batch(&mut batch));
        assert_eq!(ids(&batch), [(0, 2)]);
        assert!(!d.next_batch(&mut batch));
        assert!(batch.is_empty());
    }

    #[test]
    fn claim_idle_fails_while_any_admitted_request_is_unanswered() {
        let sink = QueuedSink::for_tests();
        let stats = PipelineStats::new();
        let d = Dispatch::new(8, 64);
        assert!(d.admit(pending(&sink, 0, 1), &stats).is_ok());
        assert!(!d.claim_idle(), "a request is queued");
        let mut batch = Vec::new();
        assert!(d.next_batch(&mut batch));
        assert!(!d.claim_idle(), "a popped request is not answered yet");
        let answering = d.answering(batch.len());
        assert!(!d.claim_idle(), "the batch is being answered");
        drop(answering);
        assert!(d.claim_idle(), "every admitted request is answered");
        assert!(!d.claim_idle(), "the claim itself counts as in flight");
        drop(d.answering(1));
        assert!(d.claim_idle());
    }
}
