//! loadbench: socket-to-socket latency, capacity and a per-layer budget
//! for the `nomloc serve --listen` daemon over four frozen workloads.
//!
//! ```text
//! loadbench [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//!           [--daemon PATH] [--out DIR]
//! loadbench compare A/ B/ [--bench BENCHMARK.json]
//! ```
//!
//! The daemon runs as a subprocess and sees only pre-encoded frames over
//! two loopback connections, driven by at most two load threads. See
//! README.md in this directory for the metrics, the workloads and why.

mod compare;
mod daemon;
mod drive;
mod json;
mod report;
mod sample;
mod trace;
mod workload;

use daemon::{Conn, Daemon, TICKS_PER_SECOND};
use drive::{closed_loop, open_loop, OpenLoop, Tally};
use nomloc_net::wire::ServerHealth;
use report::{metric, Environment, Metric, RunResult};
use sample::{median, phase_seed, poisson_schedule, quantile, samples_beyond};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Pool, Verdict, Workload, LOW_RPS, WARMUP_WINDOW, WINDOW, WORKLOADS};

/// The default seed, and the one the frozen rates were measured at.
const DEFAULT_SEED: u64 = 2014;
/// Default measured seconds per run: ten untraced or five traced rounds.
const DEFAULT_SECONDS: f64 = 24.0;
/// The generator lateness p99 (µs) that, exceeded in every round of a
/// phase kind, makes a run invalid.
const MAX_LATE_P99_US: f64 = 1000.0;
/// The high rate of a traced round is at most this share of the capacity
/// measured in the same round, so a slow spell of the host never drives
/// the daemon past capacity into refusals.
const HIGH_SHARE: f64 = 0.6;
/// Arrivals a high phase expects at least, so that its p99 has more than
/// ten samples beyond it at any rate; a lowered rate lengthens the phase.
const HIGH_ARRIVALS: f64 = 1500.0;
/// Extra daemons set up and timed in each untraced round. A fleet daemon
/// sets up in ~40 or ~65 ms by the host's moment, so the median needs
/// many set-ups to repeat: with 11 a run, the median of ten runs moved by
/// up to 22% between two sets (p99 of a resampling of measured set-ups);
/// with 31, up to 10%.
const SETUPS_PER_ROUND: usize = 3;

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    daemon: PathBuf,
    out: PathBuf,
}

/// Seconds of each phase in one round. A run repeats the round on one
/// daemon, so a slow stretch of the shared host lands in some rounds of
/// every phase rather than in all of one phase; each metric is the median
/// over the rounds. Untraced rounds time more daemon set-ups and run the
/// low rate; traced rounds run capacity, low, high, and high again
/// with spans recorded.
#[derive(Debug, Clone, Copy)]
struct Round {
    capacity: f64,
    /// 2.4 s at 500 req/s is ~1200 arrivals: ten or more beyond the p99.
    low: f64,
    high: f64,
}

const ROUND: Round = Round {
    capacity: 1.0,
    low: 2.4,
    high: 0.5,
};
const SMOKE_ROUND: Round = Round {
    capacity: 0.5,
    low: 1.0,
    high: 1.0,
};

struct Plan {
    /// Closed-loop seconds before the first round: caches fill and every
    /// pool request is answered before anything is timed.
    warmup: f64,
    rounds: usize,
    round: Round,
}

impl Options {
    fn plan(&self) -> Plan {
        if self.smoke {
            return Plan {
                warmup: 0.5,
                rounds: 1,
                round: SMOKE_ROUND,
            };
        }
        let per_round = if self.trace {
            ROUND.capacity + ROUND.low + 2.0 * ROUND.high
        } else {
            ROUND.low
        };
        Plan {
            warmup: 1.5,
            rounds: ((self.seconds / per_round).round() as usize).max(1),
            round: ROUND,
        }
    }
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        daemon: target_dir().join("release").join("nomloc"),
        out: target_dir().join("loadbench"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workloads
                    .push(workload::by_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if o.seconds.is_nan() || o.seconds < 1.0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => o.smoke = true,
            "--daemon" => o.daemon = PathBuf::from(value()?),
            "--out" => o.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.to_vec();
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return run_compare(&args[1..]);
    }
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("loadbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !options.daemon.exists() {
        eprintln!(
            "loadbench: daemon {} not found (cargo build --release -p nomloc-cli)",
            options.daemon.display()
        );
        return ExitCode::from(2);
    }
    let env = Environment::capture();
    let mut ok = true;
    for &w in &options.workloads {
        match Pool::build(w, options.seed).and_then(|pool| run(&options, w, &env, &pool)) {
            Ok(result) => {
                print!("{}", result.table());
                match result.save(&options.out) {
                    Ok(path) => println!("  results: {}", path.display()),
                    Err(e) => eprintln!("loadbench: cannot write results: {e}"),
                }
                for p in &result.problems {
                    eprintln!("loadbench: {}: invalid run: {p}", w.name);
                }
                println!("{}", result.summary_line());
                ok &= result.correct;
            }
            Err(e) => {
                eprintln!("loadbench: {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(args: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            match it.next() {
                Some(p) => bench = PathBuf::from(p),
                None => {
                    eprintln!("loadbench compare: --bench needs a path");
                    return ExitCode::from(2);
                }
            }
        } else {
            dirs.push(PathBuf::from(a));
        }
    }
    let [a, b] = dirs.as_slice() else {
        eprintln!("usage: loadbench compare A/ B/ [--bench BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let result = std::fs::read_to_string(&bench)
        .map_err(|e| format!("{}: {e}", bench.display()))
        .and_then(|t| json::Json::parse(&t))
        .and_then(|j| compare::compare(a, b, &j));
    match result {
        Ok((table, any_worse)) => {
            print!("{table}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("loadbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Spawns the daemon and times it until the first OK reply arrives on a
/// fresh connection. Returns the daemon, that connection and the time.
fn set_up(o: &Options, w: Workload, pool: &Pool) -> Result<(Daemon, Conn, f64), String> {
    let start = Instant::now();
    let daemon = Daemon::spawn(&o.daemon, &w.daemon_args()).map_err(err)?;
    let mut conn = Conn::connect(daemon.addr).map_err(err)?;
    let slot = pool.order[0];
    daemon::write_all(&conn.stream, &pool.frames[slot]).map_err(err)?;
    let reply = conn.read_reply().map_err(err)?;
    let took = start.elapsed().as_secs_f64();
    if reply.request_id != slot as u64 || pool.check(&reply) != Verdict::Ok {
        return Err(format!("first reply is wrong: {reply:?}"));
    }
    Ok((daemon, conn, took))
}

/// A percentile of ascending latencies, ms.
fn ms(sorted_ns: &[u64], q: f64) -> f64 {
    quantile(sorted_ns, q).map_or(f64::NAN, |v| v as f64 / 1e6)
}

/// Counter deltas over one kind of phase, summed over the rounds.
#[derive(Debug, Default)]
struct Deltas {
    enqueued: u64,
    batches: u64,
    rebuilds: u64,
}

impl Deltas {
    fn add(&mut self, a: &ServerHealth, b: &ServerHealth) {
        let rebuilds = |h: &ServerHealth| h.venues.iter().map(|v| v.cache_rebuilds).sum::<u64>();
        self.enqueued += b.requests_enqueued.saturating_sub(a.requests_enqueued);
        self.batches += b.batches_formed.saturating_sub(a.batches_formed);
        self.rebuilds += rebuilds(b).saturating_sub(rebuilds(a));
    }

    fn batch_mean(&self) -> f64 {
        self.enqueued as f64 / self.batches.max(1) as f64
    }
}

/// The median of repeated measurements, each kept for the table.
fn median_of(name: &str, unit: &str, values: Vec<f64>, samples: u64) -> Metric {
    Metric {
        each: values.clone(),
        ..metric(name, unit, median(&values), samples)
    }
}

/// Runs one workload on its pool. A run that fails a validity check (most
/// often the load generator behind its schedule in every round, as a slow
/// spell of the shared host lasting the whole run makes it) still reports
/// its numbers; the problems go to stderr and the result file, which
/// marks the run invalid.
fn run(o: &Options, w: Workload, env: &Environment, pool: &Pool) -> Result<RunResult, String> {
    let (daemon, conn, setup) = set_up(o, w, pool)?;
    let mut conns = [conn, Conn::connect(daemon.addr).map_err(err)?];
    let mut run = Run {
        o,
        w,
        pool,
        plan: o.plan(),
        epoch: Instant::now(),
        tally: Tally::default(),
        problems: Vec::new(),
        metrics: Vec::new(),
        late: BTreeMap::new(),
        setups: vec![setup],
    };
    let warmup = run.plan.warmup;
    let c = closed_loop(&mut conns, pool, WARMUP_WINDOW, 0.0, warmup, run.epoch).map_err(err)?;
    run.tally.merge(&c.tally);
    if o.trace {
        run.traced(daemon, &mut conns)?;
    } else {
        run.untraced(daemon, &mut conns)?;
    }
    let Run {
        tally,
        mut problems,
        metrics,
        setups,
        ..
    } = run;
    let attempted = tally.sent + setups.len() as u64;
    let failed = tally.failed();
    if tally.mismatches > 0 {
        problems.push(format!(
            "{} replies disagree with the oracle",
            tally.mismatches
        ));
    }
    Ok(RunResult {
        workload: w.name.into(),
        seed: o.seed,
        trace: o.trace,
        seconds: o.seconds,
        env: env.clone(),
        // Refusals and lost requests are failures, not wrong answers.
        correct: tally.mismatches == 0 && tally.errors == 0,
        valid: problems.is_empty(),
        problems,
        attempted,
        failed,
        metrics,
    })
}

/// One workload's run after set-up: the daemon, the pool and what has
/// been measured so far.
struct Run<'a> {
    o: &'a Options,
    w: Workload,
    pool: &'a Pool,
    plan: Plan,
    epoch: Instant,
    tally: Tally,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    /// Per phase kind, each round's generator lateness p99 (µs) and
    /// whether a pool slot was still in flight when it came due again.
    late: BTreeMap<&'static str, Vec<(f64, bool)>>,
    /// Seconds from daemon spawn to the first OK reply, one per set-up.
    setups: Vec<f64>,
}

impl Run<'_> {
    /// One open-loop phase at `rate`; `tag` picks its arrival stream.
    /// Phases named `None` (the warm-up) are neither checked nor recorded.
    fn open(
        &mut self,
        conns: &mut [Conn; 2],
        (name, rate, seconds, tag): (Option<&'static str>, f64, f64, u64),
        traced: bool,
    ) -> Result<OpenLoop, String> {
        let schedule = poisson_schedule(rate, seconds, phase_seed(self.o.seed, tag));
        let p = open_loop(conns, self.pool, &schedule, self.epoch, traced).map_err(err)?;
        self.tally.merge(&p.tally);
        let Some(name) = name else {
            return Ok(p);
        };
        let late_us = quantile(&p.late_ns, 0.99).unwrap_or(0) as f64 / 1e3;
        let backlog = p.tally.collisions > 0;
        self.late.entry(name).or_default().push((late_us, backlog));
        Ok(p)
    }

    /// Checks that the generator kept up, per phase kind: a kind is
    /// invalid when every one of its rounds ran more than 1 ms late at the
    /// p99, or found a pool slot still in flight when it came due again
    /// (a backlog that never drained). A stall of the host makes single
    /// rounds late; a generator that cannot keep up makes all of them.
    fn check_generator(&mut self) {
        for (name, rounds) in &self.late {
            let least = rounds.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
            if least > MAX_LATE_P99_US {
                let ms = least / 1e3;
                self.problems.push(format!(
                    "{name}: generator lateness p99 over 1 ms in every round (least {ms:.3} ms)"
                ));
            }
            if rounds.iter().all(|r| r.1) {
                self.problems.push(format!(
                    "{name}: every round found a pool slot still in flight when it came due again"
                ));
            }
        }
    }

    /// The end-to-end run: rounds of the low rate on one daemon, each
    /// round timing the set-up of [`SETUPS_PER_ROUND`] more daemons, so
    /// the set-ups sample the host across the whole run.
    fn untraced(&mut self, daemon: Daemon, conns: &mut [Conn; 2]) -> Result<(), String> {
        let round = self.plan.round;
        let (mut low50, mut low_n) = (Vec::new(), 0);
        for r in 0..self.plan.rounds as u64 {
            for _ in 0..SETUPS_PER_ROUND {
                let (_, _, setup) = set_up(self.o, self.w, self.pool)?;
                self.setups.push(setup);
            }
            let low = self.open(conns, (Some("low"), LOW_RPS, round.low, 10 * r + 1), false)?;
            low50.push(ms(&low.latency_ns, 0.50));
            low_n += low.latency_ns.len() as u64;
        }
        let hwm_kib = daemon.status_kib("VmHWM").map_err(err)?;
        drop(daemon);
        self.check_generator();
        let (mean_error, slots) = self.pool.mean_error_m(&self.tally.ok_slots);
        if !self.o.smoke && slots < self.pool.frames.len() as u64 {
            // The warm-up sends the whole pool several times over.
            self.problems
                .push(format!("mean_error_m: only {slots} pool slots answered OK"));
        }
        let setups = self.setups.clone();
        let m = &mut self.metrics;
        m.push(median_of(
            "setup_s",
            "s",
            setups.clone(),
            setups.len() as u64,
        ));
        m.push(metric("rss_mb", "MiB", hwm_kib as f64 / 1024.0, 1));
        // The least round: a slow spell of the shared host lasts minutes
        // and lifts every round it covers, but rarely all of a run's.
        let least = low50.iter().copied().fold(f64::INFINITY, f64::min);
        m.push(Metric {
            each: low50,
            ..metric("p50_ms.low", "ms", least, low_n)
        });
        m.push(metric("mean_error_m", "m", mean_error, slots));
        Ok(())
    }

    /// A p99 needs ten samples beyond it; smoke phases are too short to
    /// hold one and are not checked.
    fn check_samples(&mut self, name: &str, n: usize) {
        if !self.o.smoke && samples_beyond(n, 0.99) < 10 {
            self.problems.push(format!(
                "{name}: {n} samples leave fewer than ten beyond p99"
            ));
        }
    }

    /// The traced run: rounds of capacity, low rate, and the high rate
    /// twice (plain, then with client spans); stats-frame deltas at the
    /// phase boundaries; then the in-process replay of the pool through
    /// every layer. A round's high rate is the workload's frozen rate, or
    /// [`HIGH_SHARE`] of the round's capacity when that is less.
    fn traced(&mut self, daemon: Daemon, conns: &mut [Conn; 2]) -> Result<(), String> {
        let (w, round) = (self.w, self.plan.round);
        let (mut low_d, mut high_d) = (Deltas::default(), Deltas::default());
        let (mut cpu_ticks, mut high_wall) = (0u64, 0.0f64);
        let (mut cap, mut cap_ok, mut cap_replies, mut cap_ticks) = (Vec::new(), 0, 0, 0u64);
        let (mut high50, mut high99, mut traced50) = (Vec::new(), Vec::new(), Vec::new());
        let (mut low99, mut low_n) = (Vec::new(), 0);
        let (mut rtt_ns, mut predicted, mut served, mut high_n) = (Vec::new(), 0, 0, 0);
        let (mut rtts, mut sends, mut high_rates) = (Vec::new(), Vec::new(), Vec::new());
        for r in 0..self.plan.rounds as u64 {
            let cpu0 = daemon.cpu_ticks().map_err(err)?;
            let c = closed_loop(conns, self.pool, WINDOW, 0.1, round.capacity, self.epoch)
                .map_err(err)?;
            cap_ticks += daemon.cpu_ticks().map_err(err)?.saturating_sub(cpu0);
            if c.tally.overloaded > 0 {
                let n = c.tally.overloaded;
                self.problems
                    .push(format!("capacity: {n} Overloaded refusals"));
            }
            self.tally.merge(&c.tally);
            (cap_ok, cap_replies) = (cap_ok + c.ok_in_window, cap_replies + c.tally.ok);
            cap.push(c.rate);
            let before = conns[0].stats().map_err(err)?;
            let low = self.open(conns, (Some("low"), LOW_RPS, round.low, 10 * r + 1), false)?;
            let after_low = conns[0].stats().map_err(err)?;
            self.check_samples("low", low.latency_ns.len());
            low99.push(ms(&low.latency_ns, 0.99));
            low_n += low.latency_ns.len() as u64;
            low_d.add(&before, &after_low);
            let rate = w.high_rps.min(HIGH_SHARE * c.rate).max(LOW_RPS);
            let seconds = round.high.max(HIGH_ARRIVALS / rate);
            high_rates.push(rate);
            let cpu0 = daemon.cpu_ticks().map_err(err)?;
            let high_phase = (Some("high"), rate, seconds, 10 * r + 2);
            let high = self.open(conns, high_phase, false)?;
            cpu_ticks += daemon.cpu_ticks().map_err(err)?.saturating_sub(cpu0);
            let after_high = conns[0].stats().map_err(err)?;
            high_d.add(&after_low, &after_high);
            // The same arrivals again, with spans recorded.
            let traced_phase = (Some("high traced"), rate, seconds, 10 * r + 2);
            let traced = self.open(conns, traced_phase, true)?;
            self.check_samples("high", high.latency_ns.len());
            high_wall += high.wall.as_secs_f64();
            high_n += high.latency_ns.len() as u64;
            high50.push(ms(&high.latency_ns, 0.5));
            high99.push(ms(&high.latency_ns, 0.99));
            traced50.push(ms(&traced.latency_ns, 0.5));
            predicted += high.tally.predicted + traced.tally.predicted;
            served += high.tally.ok + traced.tally.ok;
            rtt_ns.extend_from_slice(&traced.rtt_ns);
            rtts.extend(traced.rtts);
            sends.extend(traced.sends);
        }
        let end = conns[0].stats().map_err(err)?;
        drop(daemon);
        rtt_ns.sort_unstable();
        self.check_generator();
        let late: Vec<f64> = self.late["high"].iter().map(|r| r.0).collect();

        let mut spans = trace::Spans::default();
        spans.add_client(&rtts, &sends);
        let layers = trace::replay(self.pool, &mut spans, self.epoch)?;
        std::fs::create_dir_all(&self.o.out).map_err(err)?;
        let span_file = self.o.out.join(format!("trace-{}.jsonl", w.name));
        spans.write_jsonl(&span_file).map_err(err)?;
        println!("  spans: {}", span_file.display());

        let n = self.pool.frames.len() as u64;
        let us = |ns: Option<u64>| ns.map_or(f64::NAN, |v| v as f64 / 1e3);
        let rtt_n = rtt_ns.len() as u64;
        let rtt_p50 = us(quantile(&rtt_ns, 0.5));
        let send_us: Vec<f64> = sends
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        let overhead = 100.0 * (median(&traced50) / median(&high50) - 1.0);
        let cpu_s = cpu_ticks as f64 / TICKS_PER_SECOND;
        self.metrics
            .push(median_of("capacity_rps", "req/s", cap, cap_ok));
        self.metrics
            .push(median_of("p99_ms.low", "ms", low99, low_n));
        self.metrics
            .push(median_of("p50_ms.high", "ms", high50, high_n));
        self.metrics
            .push(median_of("p99_ms.high", "ms", high99, high_n));
        self.metrics
            .push(median_of("loadgen.late_p99_us", "us", late, high_n));
        self.metrics
            .push(median_of("loadgen.high_rps", "req/s", high_rates, high_n));
        let rows = [
            ("wire.request_kib", "KiB", layers.request_kib, n),
            ("wire.decode_us", "us", layers.decode_us, n),
            ("wire.crc_us", "us", layers.crc_us, n),
            ("wire.encode_us", "us", layers.encode_us, n),
            ("pdp.extract_us", "us", layers.extract_us, n),
            ("pdp.snapshots", "count", layers.snapshots, n),
            ("proximity.judge_us", "us", layers.judge_us, n),
            ("proximity.judgements", "count", layers.judgements, n),
            ("estimator.localize_us", "us", layers.localize_us, n),
            ("estimator.full_ratio", "ratio", layers.full_ratio, n),
            ("lp.iterations", "count", layers.lp_iterations, n),
            ("lp.warm_start_hits", "count", layers.warm_start_hits, n),
            (
                "lp.phase1_pivots_saved",
                "count",
                layers.phase1_pivots_saved,
                n,
            ),
            ("sessions.observe_us", "us", layers.observe_us, n),
            (
                "sessions.predicted_ratio",
                "ratio",
                predicted as f64 / served.max(1) as f64,
                served,
            ),
            ("registry.resolve_hit_us", "us", layers.resolve_hit_us, n),
            ("registry.resolve_miss_us", "us", layers.resolve_miss_us, n),
            (
                "registry.rebuilds_per_kreq",
                "count",
                high_d.rebuilds as f64 * 1e3 / high_d.enqueued.max(1) as f64,
                high_d.enqueued,
            ),
            (
                "dispatch.batch_size_mean.low",
                "count",
                low_d.batch_mean(),
                low_d.batches,
            ),
            (
                "dispatch.batch_size_mean.high",
                "count",
                high_d.batch_mean(),
                high_d.batches,
            ),
            (
                "dispatch.batch_size_p50",
                "count",
                end.batch_size_p50 as f64,
                end.batches_formed,
            ),
            (
                "dispatch.queue_depth_peak",
                "count",
                end.queue_depth_peak as f64,
                1,
            ),
            ("daemon.rtt_p50_us", "us", rtt_p50, rtt_n),
            (
                "daemon.rtt_p99_us",
                "us",
                us(quantile(&rtt_ns, 0.99)),
                rtt_n,
            ),
            (
                "daemon.solve_p50_us",
                "us",
                end.solve_p50_ns as f64 / 1e3,
                end.requests_ok,
            ),
            (
                "daemon.unattributed_p50_us",
                "us",
                rtt_p50 - layers.in_process_us(),
                rtt_n,
            ),
            ("daemon.cpu_util", "cores", cpu_s / high_wall, 1),
            (
                "daemon.cpu_us_per_req",
                "us",
                cap_ticks as f64 / TICKS_PER_SECOND * 1e6 / cap_replies.max(1) as f64,
                cap_replies,
            ),
            (
                "client.send_us",
                "us",
                median(&send_us),
                send_us.len() as u64,
            ),
            ("trace.overhead_pct", "%", overhead, rtt_n),
        ];
        for (name, unit, value, samples) in rows {
            self.metrics.push(metric(name, unit, value, samples));
        }
        Ok(())
    }
}
