//! The daemon's socket layer: N event-loop threads own every connection
//! through a [`Poller`](crate::poll::Poller) and feed decoded requests
//! to the dispatch queue — or, when a request is the only work in sight,
//! solve it on the spot.
//!
//! Per loop: one waker (producers nudge the loop when a reply could not
//! be written straight through), one nonblocking clone of the listener
//! (every loop accepts; the kernel hands each connection to exactly one),
//! and a slab of nonblocking connections, each with an incremental
//! [`StreamDecoder`](crate::wire::StreamDecoder) and a bounded outbound
//! buffer ([`QueuedSink`]).
//!
//! **Run to completion.** A poll pass that returns exactly one event, for
//! a connection whose read leaves exactly one whole request buffered,
//! solves that request on the loop thread when no admitted request is
//! unanswered and the venue's cache is resident — the hand-off would
//! only pay a batcher's wake-up. At most one request
//! per pass runs this way; the rest go to the queue.
//!
//! **Writes go through, and are bounded.** Whichever thread produces a
//! reply writes it to the nonblocking socket itself when the connection's
//! buffer holds no unwritten bytes. Only the remainder of a partial write
//! (or the whole frame, on `EAGAIN` or behind earlier unwritten bytes) is
//! queued, and only then is the loop woken to flush it on writability. A
//! failed write marks the sink dead, and the loop closes the connection.
//! A connection whose peer stops reading fills its buffer to
//! `write_buffer_cap` and is *evicted* (buffer dropped, socket closed,
//! `slow_readers_evicted` bumped) instead of buffering without bound —
//! loop-mates keep flowing because no thread ever blocks in `write`.
//!
//! **The sink owns the socket.** A queued request holds its connection's
//! [`QueuedSink`], and the sink holds the `TcpStream`, so the fd stays
//! open until the last reply to it is dropped: a reply produced after the
//! connection closed can never land in a reused fd number. Closing a
//! connection therefore deregisters it, marks the sink closed (later
//! sends are dropped) and shuts the socket down, so the peer sees the
//! close at once even while a producer still holds the sink.
//!
//! **Shutdown is two-phase.** Phase one (`shutting_down`, with the
//! dispatch queue closed to admission): loops deregister their listeners
//! and stop reading, while batchers drain the admitted queue and send
//! replies. Phase two (`drain_flush`, set after
//! the watchdog joins the batchers): loops flush every remaining
//! outbound byte (bounded by a deadline), then close and exit — so
//! "every admitted request is answered" holds on the wire, not just in
//! the buffers.

use super::{error_reply, handle_frame, reply, send_frames, BatcherScratch, Shared, POLL_INTERVAL};
use crate::poll::{Event, Interest, Poller, Waker};
use crate::wire::{self, ErrorCode, StreamDecoder, WireError};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token of the loop's waker fd.
const WAKER_TOKEN: u64 = 0;
/// Token of the loop's listener clone.
const LISTENER_TOKEN: u64 = 1;
/// Connection tokens are `slab slot + CONN_TOKEN_BASE`.
const CONN_TOKEN_BASE: u64 = 2;

/// Upper bound on the final flush phase: a peer that reads slower than
/// this at shutdown forfeits its tail replies (the socket closes anyway).
const FLUSH_DEADLINE: Duration = Duration::from_secs(5);
/// Poll granularity inside the final flush phase.
const FLUSH_POLL: Duration = Duration::from_millis(5);

/// Accepts drained per listener-readiness pass. An accept storm (a herd
/// of clients connecting at once) used to stall the whole loop while it
/// drained *every* pending accept — ~10µs of syscalls each — before any
/// established connection's requests were served, which is where the
/// idle-crowd p99 inflation lived. Level-triggered polling re-reports
/// the listener on the next pass, so capping the drain just interleaves
/// the remaining backlog with request handling.
const ACCEPTS_PER_PASS: usize = 64;

/// The cross-thread face of one event loop: producers of replies (and
/// `shutdown`) reach the loop only through this — mark a connection
/// dirty, wake the poller.
pub(super) struct LoopShared {
    waker: Waker,
    /// Slab slots with freshly queued outbound bytes (or an eviction to
    /// act on). Deduplicated by each sink's [`QueuedSink::dirty`] flag —
    /// a producer pushes its slot at most once per loop pass, so marking
    /// is O(1) regardless of how many replies are in flight. Drained by
    /// the loop each pass.
    dirty: Mutex<Vec<usize>>,
    /// A wake byte is already in the waker pipe (or this pass will pick
    /// the work up anyway) — dedups the wake syscall under reply bursts.
    wake_pending: AtomicBool,
}

impl LoopShared {
    /// Nudges the loop out of `Poller::wait` (shutdown phase changes,
    /// replies left queued by a blocked or failed write-through). One
    /// pipe write per loop pass, no matter how many producers call this.
    pub(super) fn wake(&self) {
        if !self.wake_pending.swap(true, Ordering::AcqRel) {
            self.waker.wake();
        }
    }

    fn mark_dirty(&self, slot: usize) {
        self.dirty.lock().unwrap().push(slot);
        self.wake();
    }

    /// Swaps the dirty list out and re-arms the wake dedup: producers
    /// pushing after this write a fresh wake byte, producers pushing
    /// before it are in `into`.
    fn take_dirty(&self, into: &mut Vec<usize>) {
        into.clear();
        self.wake_pending.store(false, Ordering::Release);
        std::mem::swap(&mut *self.dirty.lock().unwrap(), into);
    }
}

/// The write half of one connection, shared by every producer of its
/// replies: the socket itself plus a bounded buffer for the bytes the
/// socket would not take yet.
pub(super) struct QueuedSink {
    owner: Arc<LoopShared>,
    slot: usize,
    cap: usize,
    /// The connection's socket. Owned here, not by the loop's `Conn`, so
    /// the fd lives as long as any producer can still write to it.
    stream: TcpStream,
    /// This sink's slot is already on the owner's dirty list. Cleared by
    /// the loop as it drains the list, so each send is one `swap` — not
    /// a locked `contains` scan over the list.
    dirty: AtomicBool,
    /// Held across every socket write, so whole frames never interleave.
    out: Mutex<OutBuf>,
}

#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    written: usize,
    /// The socket is dead — the loop closed it, or a write-through
    /// failed and the loop will close it; appends are dropped.
    closed: bool,
    /// The buffer overflowed `cap`; the loop will close the socket.
    evicted: bool,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.written
    }
}

/// How far a nonblocking write got.
enum Wrote {
    /// Every byte is on the wire.
    All,
    /// The socket buffer filled after this many bytes (`WouldBlock`).
    Partial(usize),
    /// The socket failed: a reset, or a write that took nothing.
    Failed,
}

/// Writes `bytes` until they are all out, the socket would block, or it
/// fails. Never blocks.
fn write_nonblocking(mut stream: &TcpStream, bytes: &[u8]) -> Wrote {
    let mut done = 0;
    while done < bytes.len() {
        match stream.write(&bytes[done..]) {
            Ok(0) => return Wrote::Failed,
            Ok(n) => done += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Wrote::Partial(done),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Wrote::Failed,
        }
    }
    Wrote::All
}

impl QueuedSink {
    /// Sends reply bytes: straight to the socket when nothing unwritten
    /// is buffered ahead of them, otherwise (or for whatever the socket
    /// would not take) into the buffer, waking the loop to flush it.
    /// Returns `false` if the connection is gone, the write failed, or
    /// the connection just got evicted for overflowing its cap.
    pub(super) fn send(&self, bytes: &[u8]) -> bool {
        let sent = {
            let mut out = self.out.lock().unwrap();
            if out.closed || out.evicted {
                return false;
            }
            if out.pending() > 0 {
                self.append(&mut out, bytes)
            } else {
                out.buf.clear();
                out.written = 0;
                match write_nonblocking(&self.stream, bytes) {
                    // The common case: no buffer, no wake-up.
                    Wrote::All => return true,
                    Wrote::Partial(n) => self.append(&mut out, &bytes[n..]),
                    Wrote::Failed => {
                        out.closed = true;
                        false
                    }
                }
            }
        };
        if !self.dirty.swap(true, Ordering::AcqRel) {
            self.owner.mark_dirty(self.slot);
        }
        sent
    }

    /// Queues `bytes` behind the unwritten ones, or evicts the
    /// connection if that would overflow `cap`.
    fn append(&self, out: &mut OutBuf, bytes: &[u8]) -> bool {
        if out.pending() + bytes.len() > self.cap {
            // Slow reader: the peer stopped draining its socket and
            // the bounded buffer is full. Evict instead of buffering
            // without bound; the loop closes the socket.
            out.evicted = true;
            out.buf.clear();
            out.written = 0;
            false
        } else {
            out.buf.extend_from_slice(bytes);
            true
        }
    }

    fn mark_closed(&self) {
        let mut out = self.out.lock().unwrap();
        out.closed = true;
        out.buf = Vec::new();
        out.written = 0;
    }

    /// A sink over a fresh loopback connection with no loop behind it,
    /// for unit tests that need a [`Pending`](super::Pending).
    #[cfg(test)]
    pub(super) fn for_tests() -> Arc<QueuedSink> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let stream = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        Arc::new(QueuedSink {
            owner: Arc::new(LoopShared {
                waker: Waker::new().expect("waker"),
                dirty: Mutex::new(Vec::new()),
                wake_pending: AtomicBool::new(false),
            }),
            slot: 0,
            cap: 1 << 16,
            stream,
            dirty: AtomicBool::new(false),
            out: Mutex::new(OutBuf::default()),
        })
    }
}

/// One connection owned by an event loop.
struct Conn {
    decoder: StreamDecoder,
    /// The write half, which also owns the socket.
    writer: Arc<QueuedSink>,
    /// A fatal reply (protocol error) is queued; close the socket as
    /// soon as the outbound buffer flushes.
    close_after_flush: bool,
    /// Whether the fd is currently registered for write-readiness.
    want_write: bool,
}

/// A minimal slab: O(1) insert/remove with stable indices (the poller
/// tokens) and slot reuse.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
}

impl Slab {
    fn insert_with(&mut self, make: impl FnOnce(usize) -> Conn) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(make(slot));
                slot
            }
            None => {
                let slot = self.slots.len();
                let conn = make(slot);
                self.slots.push(Some(conn));
                slot
            }
        }
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut Conn> {
        self.slots.get_mut(slot).and_then(|s| s.as_mut())
    }

    fn remove(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.slots.get_mut(slot).and_then(|s| s.take());
        if conn.is_some() {
            self.free.push(slot);
        }
        conn
    }

    fn occupied(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect()
    }

    fn any_pending(&self) -> bool {
        self.slots.iter().flatten().any(|conn| {
            let out = conn.writer.out.lock().unwrap();
            !out.closed && !out.evicted && out.pending() > 0
        })
    }
}

/// The loop threads and their cross-thread handles, as spawned.
pub(super) type SpawnedLoops = (Vec<JoinHandle<()>>, Vec<Arc<LoopShared>>);

/// Spawns `config.event_loops` loop threads sharing the listener.
pub(super) fn spawn_loops(
    shared: &Arc<Shared>,
    listener: &TcpListener,
) -> io::Result<SpawnedLoops> {
    let n = shared.config.event_loops.max(1);
    let mut threads = Vec::with_capacity(n);
    let mut loops = Vec::with_capacity(n);
    for i in 0..n {
        let listener = listener.try_clone()?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.register(waker.rx_fd(), WAKER_TOKEN, Interest::READABLE)?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        let loop_shared = Arc::new(LoopShared {
            waker,
            dirty: Mutex::new(Vec::new()),
            wake_pending: AtomicBool::new(false),
        });
        loops.push(Arc::clone(&loop_shared));
        let shared = Arc::clone(shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("nomloc-evloop-{i}"))
                .spawn(move || run_loop(&shared, poller, &listener, &loop_shared))?,
        );
    }
    Ok((threads, loops))
}

fn run_loop(
    shared: &Arc<Shared>,
    mut poller: Poller,
    listener: &TcpListener,
    ls: &Arc<LoopShared>,
) {
    let mut conns = Slab::default();
    let mut events: Vec<Event> = Vec::new();
    let mut dirty: Vec<usize> = Vec::new();
    let mut tmp = vec![0u8; 64 * 1024];
    // Run-to-completion solves reuse this across passes, like a batcher's.
    let mut scratch = BatcherScratch::default();
    let mut listener_registered = true;
    loop {
        if shared.drain_flush.load(Ordering::Acquire) {
            flush_phase(shared, &mut poller, &mut conns, ls);
            return;
        }
        let shutting = shared.shutting_down.load(Ordering::Acquire);
        if shutting && listener_registered {
            let _ = poller.deregister(listener.as_raw_fd());
            listener_registered = false;
        }
        if poller.wait(&mut events, Some(POLL_INTERVAL)).is_err() {
            // A failed wait would otherwise spin; pace it.
            std::thread::sleep(POLL_INTERVAL);
            continue;
        }
        // A pass with a single event has no other connection waiting on
        // this thread, so it may solve a lone request itself.
        let lone = events.len() == 1;
        for &ev in &events {
            match ev.token {
                WAKER_TOKEN => ls.waker.drain(),
                LISTENER_TOKEN => {
                    if !shutting {
                        accept_ready(shared, &poller, listener, &mut conns, ls);
                    }
                }
                token => {
                    let slot = (token - CONN_TOKEN_BASE) as usize;
                    if ev.readable {
                        if shutting {
                            // Drain mode: stop consuming input (admission
                            // is closed anyway) but keep flushing replies.
                        } else {
                            let inline = lone.then_some(&mut scratch);
                            handle_readable(shared, &poller, &mut conns, slot, &mut tmp, inline);
                        }
                    }
                    if ev.writable {
                        flush_slot(shared, &poller, &mut conns, slot);
                    }
                }
            }
        }
        ls.take_dirty(&mut dirty);
        for &slot in &dirty {
            // Re-arm the sink's dedup *before* flushing: a reply queued
            // mid-flush re-marks the slot instead of being stranded.
            if let Some(conn) = conns.get_mut(slot) {
                conn.writer.dirty.store(false, Ordering::Release);
            }
            flush_slot(shared, &poller, &mut conns, slot);
        }
    }
}

fn accept_ready(
    shared: &Arc<Shared>,
    poller: &Poller,
    listener: &TcpListener,
    conns: &mut Slab,
    ls: &Arc<LoopShared>,
) {
    for _ in 0..ACCEPTS_PER_PASS {
        match listener.accept() {
            Ok((stream, _)) => {
                shared
                    .net
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue; // drop it; the peer sees a reset
                }
                let cap = shared.config.write_buffer_cap.max(1);
                let owner = Arc::clone(ls);
                let fd = stream.as_raw_fd();
                let slot = conns.insert_with(|slot| Conn {
                    writer: Arc::new(QueuedSink {
                        owner,
                        slot,
                        cap,
                        stream,
                        dirty: AtomicBool::new(false),
                        out: Mutex::new(OutBuf::default()),
                    }),
                    decoder: StreamDecoder::new(),
                    close_after_flush: false,
                    want_write: false,
                });
                if poller
                    .register(fd, CONN_TOKEN_BASE + slot as u64, Interest::READABLE)
                    .is_err()
                {
                    // Can't watch it; drop the connection rather than leak.
                    conns.remove(slot);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Transient (e.g. EMFILE). The listener stays readable, so
                // back off briefly instead of spinning on the error.
                std::thread::sleep(Duration::from_millis(5));
                return;
            }
        }
    }
}

/// Reads until `WouldBlock`, feeding the incremental decoder and handing
/// complete frames to the shared `handle_frame` path. `inline` is the
/// loop's solve scratch when this connection is the pass's only event:
/// the frame that drains the decoder's buffer may then be solved here
/// (once per pass — anything arriving meanwhile goes to the plane).
fn handle_readable(
    shared: &Arc<Shared>,
    poller: &Poller,
    conns: &mut Slab,
    slot: usize,
    tmp: &mut [u8],
    mut inline: Option<&mut BatcherScratch>,
) {
    enum Action {
        ReadMore,
        WouldBlock,
        Close,
        CloseAfterFlush,
    }
    loop {
        let action = {
            let Some(conn) = conns.get_mut(slot) else {
                return;
            };
            match (&conn.writer.stream).read(tmp) {
                Ok(0) => Action::Close, // peer closed
                Ok(n) => {
                    conn.decoder.extend(&tmp[..n]);
                    let mut action = Action::ReadMore;
                    loop {
                        match conn.decoder.next_frame() {
                            Ok(Some(frame)) => {
                                let scratch = if conn.decoder.buffered() == 0 {
                                    inline.take()
                                } else {
                                    None
                                };
                                if handle_frame(shared, &conn.writer, frame, scratch).is_err() {
                                    action = Action::CloseAfterFlush;
                                    break;
                                }
                            }
                            Ok(None) => break,
                            Err(WireError::BadVersion { got }) => {
                                // Version mismatch: reply in the *client's*
                                // protocol version so it can decode the
                                // rejection, then close.
                                shared.net.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                let (frame, version) = wire::unsupported_version_reply(got);
                                send_frames(shared, &conn.writer, version, [frame]);
                                action = Action::CloseAfterFlush;
                                break;
                            }
                            Err(e) => {
                                // Protocol violation: explain, then close
                                // (once the explanation has flushed).
                                shared.net.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                reply(
                                    shared,
                                    &conn.writer,
                                    error_reply(0, ErrorCode::Malformed, e.to_string()),
                                );
                                action = Action::CloseAfterFlush;
                                break;
                            }
                        }
                    }
                    action
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Action::WouldBlock,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => Action::ReadMore,
                Err(_) => Action::Close,
            }
        };
        match action {
            Action::ReadMore => {}
            Action::WouldBlock => return,
            Action::Close => {
                close_slot(poller, conns, slot);
                return;
            }
            Action::CloseAfterFlush => {
                if let Some(conn) = conns.get_mut(slot) {
                    conn.close_after_flush = true;
                }
                flush_slot(shared, poller, conns, slot);
                return;
            }
        }
    }
}

/// Writes as much buffered output as the socket accepts, then updates
/// write-interest / closes / evicts accordingly. Never blocks.
fn flush_slot(shared: &Arc<Shared>, poller: &Poller, conns: &mut Slab, slot: usize) {
    enum Flush {
        Evicted,
        Error,
        Pending,
        Clean,
    }
    let (outcome, close_after) = {
        let Some(conn) = conns.get_mut(slot) else {
            return;
        };
        let mut out = conn.writer.out.lock().unwrap();
        let outcome = if out.evicted {
            Flush::Evicted
        } else if out.closed {
            Flush::Error
        } else {
            match write_nonblocking(&conn.writer.stream, &out.buf[out.written..]) {
                Wrote::All => {
                    out.buf.clear();
                    out.written = 0;
                    Flush::Clean
                }
                Wrote::Partial(n) => {
                    out.written += n;
                    Flush::Pending
                }
                Wrote::Failed => Flush::Error,
            }
        };
        (outcome, conn.close_after_flush)
    };
    match outcome {
        Flush::Evicted => {
            shared
                .net
                .slow_readers_evicted
                .fetch_add(1, Ordering::Relaxed);
            close_slot(poller, conns, slot);
        }
        Flush::Error => close_slot(poller, conns, slot),
        Flush::Clean if close_after => close_slot(poller, conns, slot),
        Flush::Clean => set_write_interest(poller, conns, slot, false),
        Flush::Pending => set_write_interest(poller, conns, slot, true),
    }
}

fn set_write_interest(poller: &Poller, conns: &mut Slab, slot: usize, want: bool) {
    let Some(conn) = conns.get_mut(slot) else {
        return;
    };
    if conn.want_write == want {
        return;
    }
    let interest = Interest {
        readable: true,
        writable: want,
    };
    if poller
        .modify(
            conn.writer.stream.as_raw_fd(),
            CONN_TOKEN_BASE + slot as u64,
            interest,
        )
        .is_ok()
    {
        conn.want_write = want;
    }
}

fn close_slot(poller: &Poller, conns: &mut Slab, slot: usize) {
    let Some(conn) = conns.remove(slot) else {
        return;
    };
    let _ = poller.deregister(conn.writer.stream.as_raw_fd());
    conn.writer.mark_closed();
    // The fd closes when the last holder of the sink lets go — here, or
    // after a queued request's reply is dropped. Shut the socket down
    // now so the peer sees the close either way.
    let _ = conn.writer.stream.shutdown(Shutdown::Both);
}

/// The terminal phase: batchers are joined, every reply is queued — push
/// the remaining bytes onto the wire (bounded by [`FLUSH_DEADLINE`]),
/// then close everything and exit the loop thread.
fn flush_phase(shared: &Arc<Shared>, poller: &mut Poller, conns: &mut Slab, ls: &Arc<LoopShared>) {
    let deadline = Instant::now() + FLUSH_DEADLINE;
    let mut events: Vec<Event> = Vec::new();
    loop {
        ls.waker.drain();
        ls.dirty.lock().unwrap().clear();
        for slot in conns.occupied() {
            flush_slot(shared, poller, conns, slot);
        }
        if !conns.any_pending() || Instant::now() >= deadline {
            break;
        }
        let _ = poller.wait(&mut events, Some(FLUSH_POLL));
    }
    for slot in conns.occupied() {
        close_slot(poller, conns, slot);
    }
}
