//! The two load shapes: an open loop of Poisson arrivals (independent
//! phones) and a closed loop that keeps a fixed window in flight
//! (capacity). At most two load threads and two connections each.

use crate::daemon::{write_all, Conn};
use crate::workload::{Pool, Verdict, POOL};
use nomloc_core::EstimateQuality;
use nomloc_net::poll::{Event, Interest, Poller};
use nomloc_net::wire::{ErrorCode, Frame, LocateResponse};
use std::io::{self, Read};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long the receiver waits for stragglers after the last send before
/// counting them as lost.
const DRAIN: Duration = Duration::from_secs(10);

/// Reply accounting for one phase; every reply is checked by the oracle.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    /// Error replies other than refusals.
    pub errors: u64,
    pub overloaded: u64,
    pub mismatches: u64,
    pub lost: u64,
    /// Pool slots still in flight when they came due again.
    pub collisions: u64,
    pub predicted: u64,
    /// Pool slots answered OK at least once (empty until the first).
    pub ok_slots: Vec<bool>,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errors + self.overloaded + self.mismatches + self.lost
    }

    fn record(&mut self, pool: &Pool, reply: &LocateResponse) -> bool {
        match pool.check(reply) {
            Verdict::Ok => {
                self.ok += 1;
                if self.ok_slots.is_empty() {
                    self.ok_slots = vec![false; POOL];
                }
                // `check` accepts only request ids inside the pool.
                self.ok_slots[reply.request_id as usize] = true;
                if matches!(&reply.outcome, Ok(e) if e.quality == EstimateQuality::Predicted.as_u8())
                {
                    self.predicted += 1;
                }
                true
            }
            Verdict::Error(ErrorCode::Overloaded) => {
                self.overloaded += 1;
                false
            }
            Verdict::Error(_) => {
                self.errors += 1;
                false
            }
            Verdict::Mismatch => {
                self.mismatches += 1;
                false
            }
        }
    }

    pub fn merge(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.errors += o.errors;
        self.overloaded += o.overloaded;
        self.mismatches += o.mismatches;
        self.lost += o.lost;
        self.collisions += o.collisions;
        self.predicted += o.predicted;
        if self.ok_slots.is_empty() {
            self.ok_slots = o.ok_slots.clone();
        } else {
            for (a, &b) in self.ok_slots.iter_mut().zip(&o.ok_slots) {
                *a |= b;
            }
        }
    }
}

/// Nanoseconds since the run's epoch.
pub fn ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn sleep_until(epoch: Instant, t: u64) {
    let now = ns(epoch);
    if t > now {
        std::thread::sleep(Duration::from_nanos(t - now));
    }
}

/// One client-side interval of one request, for the span file.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What an open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    pub tally: Tally,
    /// Due time → reply decoded, every answered request, ascending.
    pub latency_ns: Vec<u64>,
    /// Write start → reply decoded, ascending.
    pub rtt_ns: Vec<u64>,
    /// Write start − due time, ascending: how late the generator ran.
    pub late_ns: Vec<u64>,
    /// Traced runs only: one `client.send` and one `client.rtt` interval
    /// per request.
    pub sends: Vec<Interval>,
    pub rtts: Vec<Interval>,
    pub wall: Duration,
}

/// Per-slot state shared by the sender and the receiver.
struct Slots {
    due: Vec<AtomicU64>,
    written: Vec<AtomicU64>,
    in_flight: Vec<AtomicBool>,
}

/// Drives `schedule` (offsets from the phase start, ns) over both
/// connections: a sender thread sleeps until each request is due and
/// writes it, alternating connections; a receiver thread polls both.
/// Latency runs from the due time, so a stall also delays the requests
/// queued behind it.
pub fn open_loop(
    conns: &mut [Conn; 2],
    pool: &Pool,
    schedule: &[u64],
    epoch: Instant,
    traced: bool,
) -> io::Result<OpenLoop> {
    for c in conns.iter() {
        c.stream.set_nonblocking(true)?;
    }
    let slots = Slots {
        due: (0..POOL).map(|_| AtomicU64::new(0)).collect(),
        written: (0..POOL).map(|_| AtomicU64::new(0)).collect(),
        in_flight: (0..POOL).map(|_| AtomicBool::new(false)).collect(),
    };
    let sender_done = AtomicBool::new(false);
    let sent_total = AtomicU64::new(0);
    // A short lead so the first arrival is not already late.
    let t0 = ns(epoch) + 2_000_000;
    let [c0, c1] = conns;
    let (streams, decoders) = ([&c0.stream, &c1.stream], [&mut c0.decoder, &mut c1.decoder]);

    let (send_side, recv_side) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut tally = Tally::default();
            let mut late = Vec::with_capacity(schedule.len());
            let mut sends = Vec::new();
            let result = (|| -> io::Result<()> {
                for (k, &offset) in schedule.iter().enumerate() {
                    let due = t0 + offset;
                    let now = ns(epoch);
                    if due > now {
                        std::thread::sleep(Duration::from_nanos(due - now));
                    }
                    let slot = pool.order[k % POOL];
                    if slots.in_flight[slot].load(Ordering::Acquire) {
                        tally.collisions += 1;
                        continue;
                    }
                    let start = ns(epoch);
                    slots.due[slot].store(due, Ordering::Relaxed);
                    slots.written[slot].store(start, Ordering::Relaxed);
                    // Release: the receiver reads `due`/`written` only
                    // after seeing the flag.
                    slots.in_flight[slot].store(true, Ordering::Release);
                    write_all(streams[k % 2], &pool.frames[slot])?;
                    tally.sent += 1;
                    late.push(start.saturating_sub(due));
                    if traced {
                        sends.push(Interval {
                            request: slot as u64,
                            start_ns: start,
                            end_ns: ns(epoch),
                        });
                    }
                }
                Ok(())
            })();
            sent_total.store(tally.sent, Ordering::Release);
            sender_done.store(true, Ordering::Release);
            (result, tally, late, sends)
        });
        let receiver = scope.spawn(|| {
            receive(
                streams,
                decoders,
                pool,
                &slots,
                (&sender_done, &sent_total),
                epoch,
                traced,
            )
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let (send_result, send_tally, mut late_ns, sends) = send_side;
    send_result?;
    let mut out = recv_side?;
    out.tally.sent = send_tally.sent;
    out.tally.collisions = send_tally.collisions;
    late_ns.sort_unstable();
    out.late_ns = late_ns;
    out.sends = sends;
    out.wall = Duration::from_nanos(ns(epoch).saturating_sub(t0));
    Ok(out)
}

/// The receiver half of [`open_loop`].
fn receive(
    streams: [&std::net::TcpStream; 2],
    decoders: [&mut nomloc_net::wire::StreamDecoder; 2],
    pool: &Pool,
    slots: &Slots,
    (sender_done, sent_total): (&AtomicBool, &AtomicU64),
    epoch: Instant,
    traced: bool,
) -> io::Result<OpenLoop> {
    let mut poller = Poller::new()?;
    for (token, s) in streams.iter().enumerate() {
        poller.register(s.as_raw_fd(), token as u64, Interest::READABLE)?;
    }
    let mut out = OpenLoop::default();
    let mut events: Vec<Event> = Vec::new();
    let mut buf = vec![0u8; 256 * 1024];
    let mut answered = 0u64;
    let mut drain_deadline: Option<Instant> = None;
    loop {
        if sender_done.load(Ordering::Acquire) {
            if answered == sent_total.load(Ordering::Acquire) {
                break;
            }
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
            if Instant::now() > deadline {
                break; // the rest is lost
            }
        }
        poller.wait(&mut events, Some(Duration::from_millis(5)))?;
        for ev in &events {
            let c = ev.token as usize;
            let mut stream = streams[c];
            loop {
                match stream.read(&mut buf) {
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(n) => decoders[c].extend(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            while let Some(frame) = decoders[c].next_frame().map_err(io::Error::other)? {
                let now = ns(epoch);
                let Frame::LocateResponse(reply) = frame else {
                    return Err(io::Error::other("unexpected frame during a phase"));
                };
                let slot = reply.request_id as usize;
                if slot >= POOL || !slots.in_flight[slot].load(Ordering::Acquire) {
                    out.tally.mismatches += 1; // a reply nobody is waiting for
                    continue;
                }
                let due = slots.due[slot].load(Ordering::Relaxed);
                let written = slots.written[slot].load(Ordering::Relaxed);
                out.tally.record(pool, &reply);
                out.latency_ns.push(now.saturating_sub(due));
                out.rtt_ns.push(now.saturating_sub(written));
                if traced {
                    out.rtts.push(Interval {
                        request: slot as u64,
                        start_ns: written,
                        end_ns: now,
                    });
                }
                answered += 1;
                slots.in_flight[slot].store(false, Ordering::Release);
            }
        }
    }
    out.tally.lost = sent_total.load(Ordering::Acquire) - answered;
    out.latency_ns.sort_unstable();
    out.rtt_ns.sort_unstable();
    Ok(out)
}

/// What one capacity window measured.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    pub tally: Tally,
    /// OK replies decoded inside the timed window.
    pub ok_in_window: u64,
    /// OK replies per second inside the timed window.
    pub rate: f64,
}

/// Two threads, each on its own connection, keep `window` requests in
/// flight for `warmup + seconds`; only replies decoded in the last
/// `seconds` count. Thread `c` sends the even (`c = 0`) or odd send-order
/// positions, so no pool slot is ever in flight twice.
pub fn closed_loop(
    conns: &mut [Conn; 2],
    pool: &Pool,
    window: usize,
    warmup: f64,
    seconds: f64,
    epoch: Instant,
) -> io::Result<ClosedLoop> {
    for c in conns.iter() {
        c.stream.set_nonblocking(false)?;
    }
    let start = ns(epoch) + 2_000_000;
    let w0 = start + (warmup * 1e9) as u64;
    let w1 = w0 + (seconds * 1e9) as u64;
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || -> io::Result<(Tally, u64)> {
                    let mut tally = Tally::default();
                    let mut ok_in_window = 0u64;
                    let mut pos = c;
                    let mut send = |tally: &mut Tally, stream: &std::net::TcpStream| {
                        let slot = pool.order[pos % POOL];
                        pos += 2;
                        tally.sent += 1;
                        write_all(stream, &pool.frames[slot])
                    };
                    sleep_until(epoch, start);
                    for _ in 0..window {
                        send(&mut tally, &conn.stream)?;
                    }
                    let mut in_flight = window;
                    while in_flight > 0 {
                        let reply = conn.read_reply()?;
                        in_flight -= 1;
                        let now = ns(epoch);
                        if tally.record(pool, &reply) && (w0..w1).contains(&now) {
                            ok_in_window += 1;
                        }
                        if now < w1 {
                            send(&mut tally, &conn.stream)?;
                            in_flight += 1;
                        }
                    }
                    Ok((tally, ok_in_window))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("capacity thread panicked"))
            .collect()
    });
    let mut out = ClosedLoop::default();
    for r in results {
        let (tally, ok) = r?;
        out.tally.merge(&tally);
        out.ok_in_window += ok;
    }
    out.rate = out.ok_in_window as f64 / seconds;
    Ok(out)
}
