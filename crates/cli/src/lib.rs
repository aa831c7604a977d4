//! Command-line interface for the NomLoc indoor localization system.
//!
//! The `nomloc` binary wraps the library's campaign runner and analysis
//! tools for interactive use:
//!
//! ```text
//! nomloc campaign --venue lab --deployment nomadic:8 --trials 8
//! nomloc map --venue lobby --nomadic
//! nomloc venues
//! ```
//!
//! Argument parsing is hand-rolled (the workspace stays dependency-light);
//! the parsing layer lives here so it can be unit-tested, while
//! `src/bin/nomloc.rs` only dispatches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nomloc_core::experiment::{Campaign, Deployment};
use nomloc_core::localizability;
use nomloc_core::scenario::{fleet_venue, Venue};
use nomloc_core::LocalizationServer;
use nomloc_dsp::Window;
use nomloc_faults::FaultPlan;
use nomloc_geometry::Point;
use nomloc_lp::center::CenterMethod;
use nomloc_net::wire::{ErrorReply, WireEstimate, WireVenue};
use std::fmt;

// The synthetic workload lives in `nomloc_core::scenario` (one builder
// shared with the bench bins and the loopback tests); re-exported here so
// existing `nomloc_cli::synthetic_workload` callers keep working.
pub use nomloc_core::scenario::synthetic_workload;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a measurement campaign and print its summary.
    Campaign(CampaignSpec),
    /// Print the analytical localizability map of a venue.
    Map(MapSpec),
    /// Serve a synthetic batch of localization requests and print
    /// pipeline statistics — or, with `--listen`, run the network daemon.
    Serve(ServeSpec),
    /// Drive a running (or freshly spawned loopback) daemon with
    /// concurrent connections and print throughput + latency quantiles.
    Loadgen(LoadgenSpec),
    /// Spawn a loopback daemon, replay a workload through seeded fault
    /// injection, and verify the per-fault-class serving contract.
    Chaos(ChaosSpec),
    /// Administer a running daemon's venue registry over the wire-v3
    /// admin plane (onboard / retire / list).
    VenueAdmin(VenueAdminSpec),
    /// List the built-in venues.
    Venues,
    /// Print usage.
    Help,
}

/// Parameters of a `campaign` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Venue name (`lab` / `lobby`).
    pub venue: VenueName,
    /// Deployment under test.
    pub deployment: DeploymentSpec,
    /// Probe packets per AP site.
    pub packets: usize,
    /// Trials per test site.
    pub trials: usize,
    /// Nomadic position error range, metres.
    pub er: f64,
    /// RNG seed.
    pub seed: u64,
    /// Center method.
    pub center: CenterMethod,
    /// PDP spectral window.
    pub window: Window,
    /// Receive antennas per AP.
    pub antennas: usize,
    /// Model the nomadic carrier's body.
    pub carrier: bool,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            venue: VenueName::Lab,
            deployment: DeploymentSpec::Nomadic { steps: 8 },
            packets: 60,
            trials: 8,
            er: 0.0,
            seed: 2014,
            center: CenterMethod::Chebyshev,
            window: Window::Rectangular,
            antennas: 1,
            carrier: false,
        }
    }
}

/// Parameters of a `map` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct MapSpec {
    /// Venue name.
    pub venue: VenueName,
    /// Include the nomadic AP's sites in the deployment.
    pub nomadic: bool,
    /// Grid pitch, metres.
    pub pitch: f64,
}

impl Default for MapSpec {
    fn default() -> Self {
        MapSpec {
            venue: VenueName::Lab,
            nomadic: false,
            pitch: 0.5,
        }
    }
}

/// Parameters of a `serve` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Venue name.
    pub venue: VenueName,
    /// Number of localization requests in the batch (synthetic mode).
    pub requests: usize,
    /// Probe packets per AP per request (synthetic mode).
    pub packets: usize,
    /// RNG seed for the synthetic CSI workload.
    pub seed: u64,
    /// Daemon mode: the address to listen on (e.g. `127.0.0.1:4455`).
    pub listen: Option<String>,
    /// Daemon: micro-batch size cap.
    pub max_batch: usize,
    /// Daemon: admission-queue capacity (`Overloaded` beyond it).
    pub queue_cap: usize,
    /// Daemon: batcher threads forming micro-batches.
    pub batchers: usize,
    /// Daemon: exit after this many responses (0 = run until killed).
    pub max_requests: usize,
    /// Daemon: event-loop threads.
    pub event_loops: usize,
    /// Daemon: fleet venues pre-onboarded at startup (ids `1..=N`,
    /// rotating scaled floor plans from `fleet_venue`).
    pub venues: usize,
    /// Daemon: venue-cache memory budget in bytes (0 = unlimited); cold
    /// venues beyond it are LRU-evicted and rebuilt on next request.
    pub venue_budget: usize,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            venue: VenueName::Lab,
            requests: 40,
            packets: 20,
            seed: 2014,
            listen: None,
            max_batch: 32,
            queue_cap: 1024,
            batchers: 2,
            max_requests: 0,
            event_loops: 2,
            venues: 0,
            venue_budget: 0,
        }
    }
}

/// Parameters of a `loadgen` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenSpec {
    /// Venue used to synthesise the CSI workload.
    pub venue: VenueName,
    /// Daemon address to connect to; `None` spawns a loopback daemon.
    pub connect: Option<String>,
    /// Parallel TCP connections.
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Probe packets per AP per request.
    pub packets: usize,
    /// RNG seed for the synthetic CSI workload.
    pub seed: u64,
    /// Per-request deadline, µs (0 = none).
    pub deadline_us: u32,
    /// Extra connections opened and held idle for the whole run —
    /// exercises the event loop's mostly-idle scaling.
    pub idle_connections: usize,
    /// Fleet venues onboarded over the admin plane before driving (ids
    /// `1..=N`); traffic is then spread zipf-over-venues across ids
    /// `0..=N` (0 = the daemon's resident venue). 0 = single-venue run.
    pub venues: usize,
    /// Zipf exponent `s` for the over-venues traffic skew (1.0 ≈ classic
    /// web-style popularity; 0.0 = uniform). Only used with `--venues`.
    pub zipf: f64,
    /// Sessioned traffic: each connection drives one long-lived session
    /// (carried across reconnects); the report adds the per-session
    /// smoothed-vs-raw deviation.
    pub sessions: bool,
    /// Closed-loop worker count (`0` = open-loop pipelined). `N > 0`
    /// drives N synchronous send-one-wait-one workers, each on its own
    /// connection, and reports aggregate RPS plus the worst per-worker
    /// p99 — the contended-dispatch view. Overrides `--connections`.
    pub concurrency: usize,
}

impl Default for LoadgenSpec {
    fn default() -> Self {
        LoadgenSpec {
            venue: VenueName::Lab,
            connect: None,
            connections: 4,
            requests: 1000,
            packets: 4,
            seed: 2014,
            deadline_us: 0,
            idle_connections: 0,
            venues: 0,
            zipf: 1.0,
            sessions: false,
            concurrency: 0,
        }
    }
}

/// Parameters of a `chaos` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Venue used to synthesise the CSI workload.
    pub venue: VenueName,
    /// Total requests driven through the fault plan.
    pub requests: usize,
    /// Probe packets per AP per request.
    pub packets: usize,
    /// Seed shared by the workload and the fault plan.
    pub seed: u64,
    /// Per-fault-class injection rate (eight classes, so the faulted
    /// fraction is roughly eight times this).
    pub rate: f64,
    /// Kill a batcher thread after every Nth batch (0 = never), proving
    /// the watchdog respawns them without losing requests.
    pub kill_every: usize,
    /// Concurrent sessions the chaos run interleaves (0 = stateless).
    /// With N ≥ 2 the verifier's per-session tracker replay doubles as a
    /// cross-wire detector, and the plan's stale-session fault is armed.
    pub sessions: u64,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            venue: VenueName::Lab,
            requests: 200,
            packets: 4,
            seed: 2014,
            rate: 0.03,
            kill_every: 0,
            sessions: 0,
        }
    }
}

/// Which admin-plane operation a `venue` invocation performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VenueAction {
    /// Onboard a venue (build its cache on the daemon, make it live).
    Onboard,
    /// Retire a venue (drop it from the registry; in-flight batches
    /// holding its entry still complete).
    Retire,
    /// List the registry: id, name, residency, request count per venue.
    List,
}

/// Parameters of a `venue` invocation (wire-v3 admin plane client).
#[derive(Debug, Clone, PartialEq)]
pub struct VenueAdminSpec {
    /// Operation to perform.
    pub action: VenueAction,
    /// Daemon address to administer.
    pub connect: String,
    /// Venue id to onboard/retire (must be ≥ 1; venue 0 is the daemon's
    /// resident venue and cannot be administered).
    pub id: u64,
    /// Onboard only: a built-in venue to use verbatim. Defaults to the
    /// id-keyed `fleet_venue` rotation (scaled lab/lobby/mall plans).
    pub venue: Option<VenueName>,
}

/// A built-in venue selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VenueName {
    /// The cluttered laboratory (Fig. 6(a)).
    Lab,
    /// The open L-shaped lobby (Fig. 6(b)).
    Lobby,
    /// The marketplace-scale cross-shaped mall wing.
    Mall,
}

impl VenueName {
    /// Builds the venue.
    pub fn venue(&self) -> Venue {
        match self {
            VenueName::Lab => Venue::lab(),
            VenueName::Lobby => Venue::lobby(),
            VenueName::Mall => Venue::mall(),
        }
    }
}

/// Deployment selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeploymentSpec {
    /// All APs parked.
    Static,
    /// One nomadic AP walking `steps` transitions.
    Nomadic {
        /// Markov-chain transitions per round.
        steps: usize,
    },
    /// `nomads` nomadic APs walking 8 transitions each.
    Fleet {
        /// Number of nomadic APs.
        nomads: usize,
    },
}

impl DeploymentSpec {
    /// Converts to the library's deployment type.
    pub fn deployment(&self) -> Deployment {
        match self {
            DeploymentSpec::Static => Deployment::Static,
            DeploymentSpec::Nomadic { steps } => Deployment::nomadic(*steps),
            DeploymentSpec::Fleet { nomads } => Deployment::Fleet {
                nomads: *nomads,
                steps: 8,
            },
        }
    }
}

/// A CLI parse error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// Usage text printed by `nomloc help`.
pub const USAGE: &str = "\
nomloc — calibration-free indoor localization with nomadic access points

USAGE:
    nomloc campaign [OPTIONS]     run a measurement campaign
    nomloc map [OPTIONS]          print a localizability heat map
    nomloc serve [OPTIONS]        serve a synthetic request batch + stats
                                  (with --listen ADDR: run the TCP daemon)
    nomloc loadgen [OPTIONS]      drive a daemon with concurrent clients
    nomloc chaos [OPTIONS]        fault-inject a loopback daemon and verify
                                  the graceful-degradation contract
    nomloc venue ACTION [OPTIONS] administer a daemon's venue registry
                                  (ACTION: onboard | retire | list)
    nomloc venues                 list built-in venues
    nomloc help                   show this message

CAMPAIGN OPTIONS:
    --venue lab|lobby|mall        venue (default lab)
    --deployment static|nomadic[:STEPS]|fleet:N
                                  AP deployment (default nomadic:8)
    --packets N                   probe packets per AP site (default 60)
    --trials N                    trials per test site (default 8)
    --er METERS                   nomadic position error range (default 0)
    --seed N                      RNG seed (default 2014)
    --center chebyshev|analytic|centroid
                                  feasible-region center (default chebyshev)
    --window rect|hann|hamming|blackman
                                  PDP spectral window (default rect)
    --antennas N                  receive antennas per AP (default 1)
    --carrier                     model the nomadic carrier's body

MAP OPTIONS:
    --venue lab|lobby|mall        venue (default lab)
    --nomadic                     include the nomadic AP's sites
    --pitch METERS                grid pitch (default 0.5)

SERVE OPTIONS:
    --venue lab|lobby|mall        venue (default lab)
    --requests N                  requests in the batch (default 40)
    --packets N                   probe packets per AP per request (default 20)
    --seed N                      workload RNG seed (default 2014)
    --listen ADDR                 run the nomloc-net daemon on ADDR
                                  (e.g. 127.0.0.1:4455; port 0 = ephemeral)
    --max-batch N                 daemon: micro-batch size cap (default 32)
    --queue-cap N                 daemon: admission queue cap (default 1024)
    --batchers N                  daemon: batcher threads (default 2)
    --max-requests N              daemon: exit after N responses (default 0
                                  = run until killed)
    --event-loops N               daemon: event-loop threads (default 2)
    --venues N                    daemon: pre-onboard N fleet venues
                                  (ids 1..=N; default 0)
    --venue-budget BYTES          daemon: venue-cache memory budget; cold
                                  venues beyond it are LRU-evicted and
                                  rebuilt on next request (default 0
                                  = unlimited)

LOADGEN OPTIONS:
    --connect ADDR                daemon to drive (default: spawn a loopback
                                  daemon in-process on 127.0.0.1:0)
    --venue lab|lobby|mall        workload venue (default lab)
    --connections N               parallel connections (default 4)
    --requests N                  total requests (default 1000)
    --packets N                   probe packets per AP per request (default 4)
    --seed N                      workload RNG seed (default 2014)
    --deadline-us N               per-request deadline, 0 = none (default 0)
    --idle-connections N          extra connections opened and held idle
                                  for the whole run (default 0)
    --venues N                    onboard N fleet venues over the admin
                                  plane, then spread traffic zipf-over-
                                  venues across ids 0..=N (default 0
                                  = single-venue)
    --zipf S                      zipf exponent for the venue skew
                                  (default 1.0; 0 = uniform)
    --sessions                    sessioned traffic: one long-lived session
                                  per connection (survives reconnects);
                                  reports per-session smoothing deviation
    --concurrency N               closed loop: N synchronous workers, one
                                  connection each, send-one-wait-one;
                                  reports aggregate RPS + worst per-worker
                                  p99 (default 0 = open-loop pipelined;
                                  overrides --connections)

CHAOS OPTIONS:
    --venue lab|lobby|mall        workload venue (default lab)
    --requests N                  requests driven (default 200)
    --packets N                   probe packets per AP per request (default 4)
    --seed N                      workload + fault-plan seed (default 2014)
    --rate R                      per-fault-class rate in [0, 0.125]
                                  (default 0.03; 8 classes ≈ 24 % faulted)
    --kill-every N                kill a batcher after every Nth batch,
                                  0 = never (default 0; watchdog respawns;
                                  1 is rejected: it would livelock)
    --sessions N                  interleave N concurrent sessions, verified
                                  by per-session tracker replay (cross-wire
                                  detection; arms the stale-session fault;
                                  default 0 = stateless)

VENUE OPTIONS:
    --connect ADDR                daemon to administer (required)
    --id N                        venue id, N ≥ 1 (onboard/retire; venue 0
                                  is the resident venue)
    --venue lab|lobby|mall        onboard: use this built-in venue verbatim
                                  (default: the id-keyed fleet rotation of
                                  scaled lab/lobby/mall plans)
";

/// Parses a full argument list (excluding the program name).
///
/// # Errors
///
/// Returns a [`ParseError`] with a user-facing message on unknown
/// commands, flags, or malformed values.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("venues") => Ok(Command::Venues),
        Some("campaign") => parse_campaign(it.as_slice()).map(Command::Campaign),
        Some("map") => parse_map(it.as_slice()).map(Command::Map),
        Some("serve") => parse_serve(it.as_slice()).map(Command::Serve),
        Some("loadgen") => parse_loadgen(it.as_slice()).map(Command::Loadgen),
        Some("chaos") => parse_chaos(it.as_slice()).map(Command::Chaos),
        Some("venue") => parse_venue_admin(it.as_slice()).map(Command::VenueAdmin),
        Some(other) => Err(err(format!("unknown command `{other}`; try `nomloc help`"))),
    }
}

fn take_value<'a>(
    flag: &str,
    it: &mut std::slice::Iter<'a, String>,
) -> Result<&'a str, ParseError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| err(format!("flag `{flag}` needs a value")))
}

fn parse_usize(flag: &str, v: &str) -> Result<usize, ParseError> {
    v.parse().map_err(|_| {
        err(format!(
            "flag `{flag}`: `{v}` is not a non-negative integer"
        ))
    })
}

fn parse_f64(flag: &str, v: &str) -> Result<f64, ParseError> {
    v.parse::<f64>()
        .ok()
        .filter(|x| x.is_finite() && *x >= 0.0)
        .ok_or_else(|| err(format!("flag `{flag}`: `{v}` is not a non-negative number")))
}

fn parse_venue(v: &str) -> Result<VenueName, ParseError> {
    match v {
        "lab" => Ok(VenueName::Lab),
        "lobby" => Ok(VenueName::Lobby),
        "mall" => Ok(VenueName::Mall),
        _ => Err(err(format!("unknown venue `{v}` (lab|lobby|mall)"))),
    }
}

fn parse_deployment(v: &str) -> Result<DeploymentSpec, ParseError> {
    if v == "static" {
        return Ok(DeploymentSpec::Static);
    }
    if v == "nomadic" {
        return Ok(DeploymentSpec::Nomadic { steps: 8 });
    }
    if let Some(steps) = v.strip_prefix("nomadic:") {
        return Ok(DeploymentSpec::Nomadic {
            steps: parse_usize("--deployment", steps)?,
        });
    }
    if let Some(n) = v.strip_prefix("fleet:") {
        return Ok(DeploymentSpec::Fleet {
            nomads: parse_usize("--deployment", n)?,
        });
    }
    Err(err(format!(
        "unknown deployment `{v}` (static|nomadic[:STEPS]|fleet:N)"
    )))
}

fn parse_campaign(args: &[String]) -> Result<CampaignSpec, ParseError> {
    let mut spec = CampaignSpec::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--venue" => spec.venue = parse_venue(take_value(flag, &mut it)?)?,
            "--deployment" => spec.deployment = parse_deployment(take_value(flag, &mut it)?)?,
            "--packets" => spec.packets = parse_usize(flag, take_value(flag, &mut it)?)?,
            "--trials" => spec.trials = parse_usize(flag, take_value(flag, &mut it)?)?,
            "--er" => spec.er = parse_f64(flag, take_value(flag, &mut it)?)?,
            "--seed" => {
                spec.seed = take_value(flag, &mut it)?
                    .parse()
                    .map_err(|_| err("flag `--seed`: not an integer"))?
            }
            "--center" => {
                spec.center = match take_value(flag, &mut it)? {
                    "chebyshev" => CenterMethod::Chebyshev,
                    "analytic" => CenterMethod::Analytic,
                    "centroid" => CenterMethod::Centroid,
                    other => {
                        return Err(err(format!(
                            "unknown center `{other}` (chebyshev|analytic|centroid)"
                        )))
                    }
                }
            }
            "--window" => {
                spec.window = match take_value(flag, &mut it)? {
                    "rect" | "rectangular" => Window::Rectangular,
                    "hann" => Window::Hann,
                    "hamming" => Window::Hamming,
                    "blackman" => Window::Blackman,
                    other => {
                        return Err(err(format!(
                            "unknown window `{other}` (rect|hann|hamming|blackman)"
                        )))
                    }
                }
            }
            "--antennas" => spec.antennas = parse_usize(flag, take_value(flag, &mut it)?)?,
            "--carrier" => spec.carrier = true,
            other => return Err(err(format!("unknown campaign flag `{other}`"))),
        }
    }
    Ok(spec)
}

fn parse_map(args: &[String]) -> Result<MapSpec, ParseError> {
    let mut spec = MapSpec::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--venue" => spec.venue = parse_venue(take_value(flag, &mut it)?)?,
            "--nomadic" => spec.nomadic = true,
            "--pitch" => {
                spec.pitch = parse_f64(flag, take_value(flag, &mut it)?)?;
                if spec.pitch <= 0.0 {
                    return Err(err("flag `--pitch`: must be positive"));
                }
            }
            other => return Err(err(format!("unknown map flag `{other}`"))),
        }
    }
    Ok(spec)
}

fn parse_serve(args: &[String]) -> Result<ServeSpec, ParseError> {
    let mut spec = ServeSpec::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--venue" => spec.venue = parse_venue(take_value(flag, &mut it)?)?,
            "--requests" => spec.requests = parse_usize(flag, take_value(flag, &mut it)?)?,
            "--packets" => spec.packets = parse_usize(flag, take_value(flag, &mut it)?)?,
            "--seed" => {
                spec.seed = take_value(flag, &mut it)?
                    .parse()
                    .map_err(|_| err("flag `--seed`: not an integer"))?
            }
            "--listen" => spec.listen = Some(take_value(flag, &mut it)?.to_string()),
            "--max-batch" => {
                spec.max_batch = parse_usize(flag, take_value(flag, &mut it)?)?;
                if spec.max_batch == 0 {
                    return Err(err("flag `--max-batch`: must be positive"));
                }
            }
            "--queue-cap" => {
                spec.queue_cap = parse_usize(flag, take_value(flag, &mut it)?)?;
                if spec.queue_cap == 0 {
                    return Err(err("flag `--queue-cap`: must be positive"));
                }
            }
            "--batchers" => {
                spec.batchers = parse_usize(flag, take_value(flag, &mut it)?)?;
                if spec.batchers == 0 {
                    return Err(err("flag `--batchers`: must be positive"));
                }
            }
            "--max-requests" => spec.max_requests = parse_usize(flag, take_value(flag, &mut it)?)?,
            "--event-loops" => {
                spec.event_loops = parse_usize(flag, take_value(flag, &mut it)?)?;
                if spec.event_loops == 0 {
                    return Err(err("flag `--event-loops`: must be positive"));
                }
            }
            "--venues" => spec.venues = parse_usize(flag, take_value(flag, &mut it)?)?,
            "--venue-budget" => spec.venue_budget = parse_usize(flag, take_value(flag, &mut it)?)?,
            other => return Err(err(format!("unknown serve flag `{other}`"))),
        }
    }
    Ok(spec)
}

fn parse_loadgen(args: &[String]) -> Result<LoadgenSpec, ParseError> {
    let mut spec = LoadgenSpec::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--connect" => spec.connect = Some(take_value(flag, &mut it)?.to_string()),
            "--venue" => spec.venue = parse_venue(take_value(flag, &mut it)?)?,
            "--connections" => {
                spec.connections = parse_usize(flag, take_value(flag, &mut it)?)?;
                if spec.connections == 0 {
                    return Err(err("flag `--connections`: must be positive"));
                }
            }
            "--requests" => spec.requests = parse_usize(flag, take_value(flag, &mut it)?)?,
            "--packets" => spec.packets = parse_usize(flag, take_value(flag, &mut it)?)?,
            "--seed" => {
                spec.seed = take_value(flag, &mut it)?
                    .parse()
                    .map_err(|_| err("flag `--seed`: not an integer"))?
            }
            "--deadline-us" => {
                spec.deadline_us = take_value(flag, &mut it)?
                    .parse()
                    .map_err(|_| err("flag `--deadline-us`: not an integer"))?
            }
            "--idle-connections" => {
                spec.idle_connections = parse_usize(flag, take_value(flag, &mut it)?)?
            }
            "--venues" => spec.venues = parse_usize(flag, take_value(flag, &mut it)?)?,
            "--zipf" => spec.zipf = parse_f64(flag, take_value(flag, &mut it)?)?,
            "--sessions" => spec.sessions = true,
            "--concurrency" => spec.concurrency = parse_usize(flag, take_value(flag, &mut it)?)?,
            other => return Err(err(format!("unknown loadgen flag `{other}`"))),
        }
    }
    Ok(spec)
}

fn parse_chaos(args: &[String]) -> Result<ChaosSpec, ParseError> {
    let mut spec = ChaosSpec::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--venue" => spec.venue = parse_venue(take_value(flag, &mut it)?)?,
            "--requests" => spec.requests = parse_usize(flag, take_value(flag, &mut it)?)?,
            "--packets" => spec.packets = parse_usize(flag, take_value(flag, &mut it)?)?,
            "--seed" => {
                spec.seed = take_value(flag, &mut it)?
                    .parse()
                    .map_err(|_| err("flag `--seed`: not an integer"))?
            }
            "--rate" => {
                spec.rate = parse_f64(flag, take_value(flag, &mut it)?)?;
                if spec.rate > 0.125 {
                    return Err(err(
                        "flag `--rate`: per-class rate above 1/8 would exceed probability 1",
                    ));
                }
            }
            "--kill-every" => {
                spec.kill_every = parse_usize(flag, take_value(flag, &mut it)?)?;
                if spec.kill_every == 1 {
                    return Err(err(
                        "flag `--kill-every`: 1 would kill every batcher on every batch \
                         (a livelock that answers nothing); use 0 or N >= 2",
                    ));
                }
            }
            "--sessions" => {
                spec.sessions = take_value(flag, &mut it)?
                    .parse()
                    .map_err(|_| err("flag `--sessions`: not an integer"))?
            }
            other => return Err(err(format!("unknown chaos flag `{other}`"))),
        }
    }
    Ok(spec)
}

fn parse_venue_admin(args: &[String]) -> Result<VenueAdminSpec, ParseError> {
    let mut it = args.iter();
    let action = match it.next().map(String::as_str) {
        Some("onboard") => VenueAction::Onboard,
        Some("retire") => VenueAction::Retire,
        Some("list") => VenueAction::List,
        Some(other) => {
            return Err(err(format!(
                "unknown venue action `{other}` (onboard|retire|list)"
            )))
        }
        None => return Err(err("venue: needs an action (onboard|retire|list)")),
    };
    let mut spec = VenueAdminSpec {
        action,
        connect: String::new(),
        id: 0,
        venue: None,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--connect" => spec.connect = take_value(flag, &mut it)?.to_string(),
            "--id" => {
                spec.id = take_value(flag, &mut it)?
                    .parse()
                    .map_err(|_| err("flag `--id`: not an integer"))?
            }
            "--venue" => spec.venue = Some(parse_venue(take_value(flag, &mut it)?)?),
            other => return Err(err(format!("unknown venue flag `{other}`"))),
        }
    }
    if spec.connect.is_empty() {
        return Err(err("venue: needs --connect ADDR"));
    }
    if spec.action != VenueAction::List && spec.id == 0 {
        return Err(err(
            "venue onboard/retire: needs --id N with N ≥ 1 (venue 0 is the \
             daemon's resident venue and cannot be administered)",
        ));
    }
    Ok(spec)
}

/// Runs a campaign per spec and renders its report to a string.
pub fn run_campaign(spec: &CampaignSpec) -> String {
    let venue = spec.venue.venue();
    let result = Campaign::new(venue.clone(), spec.deployment.deployment())
        .packets_per_site(spec.packets)
        .trials_per_site(spec.trials)
        .position_error(spec.er)
        .center_method(spec.center)
        .pdp_window(spec.window)
        .rx_antennas(spec.antennas)
        .carrier_blocking(spec.carrier)
        .seed(spec.seed)
        .run();
    let cdf = result.error_cdf();
    let mut out = String::new();
    out.push_str(&format!(
        "campaign: {} / {:?} (packets {}, trials {}, ER {} m, seed {})\n\n",
        venue.name, spec.deployment, spec.packets, spec.trials, spec.er, spec.seed
    ));
    out.push_str(&format!(
        "{:>6} {:>12} {:>12} {:>10}\n",
        "site", "truth", "mean_err_m", "prox_acc"
    ));
    for ((i, o), acc) in result
        .outcomes
        .iter()
        .enumerate()
        .zip(&result.proximity_accuracy)
    {
        out.push_str(&format!(
            "{:>6} {:>12} {:>12.3} {:>10.3}\n",
            i + 1,
            format!("{}", o.site),
            o.mean_error(),
            acc
        ));
    }
    out.push_str(&format!(
        "\nmean error {:.2} m | median {:.2} m | 90th {:.2} m | SLV {:.3} m² | proximity acc {:.1} %\n",
        result.mean_error(),
        cdf.quantile(0.5),
        cdf.quantile(0.9),
        result.slv(),
        100.0 * result.mean_proximity_accuracy(),
    ));
    out
}

/// Renders the localizability map per spec to a string.
pub fn run_map(spec: &MapSpec) -> String {
    let venue = spec.venue.venue();
    let mut sites = venue.static_deployment();
    if spec.nomadic {
        sites.extend_from_slice(&venue.nomadic_sites);
    }
    let map = localizability::analyze(venue.plan.boundary(), &sites, spec.pitch);
    let (min, max) = venue.plan.boundary().bounding_box();
    let cols = ((max.x - min.x) / spec.pitch).round() as usize;
    let rows = ((max.y - min.y) / spec.pitch).round() as usize;
    let mut grid = vec![vec![' '; cols]; rows];
    for c in map.cells() {
        let i = ((c.point.x - min.x) / spec.pitch) as usize;
        let j = ((c.point.y - min.y) / spec.pitch) as usize;
        if j < rows && i < cols {
            grid[j][i] = match c.predicted_error {
                e if e < 1.0 => '.',
                e if e < 2.0 => 'o',
                e if e < 3.0 => 'O',
                _ => '#',
            };
        }
    }
    for ap in &sites {
        let i = ((ap.x - min.x) / spec.pitch) as usize;
        let j = ((ap.y - min.y) / spec.pitch) as usize;
        if j < rows && i < cols {
            grid[j][i] = 'A';
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "{} — {} ('.' <1 m, 'o' <2 m, 'O' <3 m, '#' ≥3 m, 'A' AP)\n",
        venue.name,
        if spec.nomadic {
            "static + nomadic sites"
        } else {
            "static deployment"
        }
    ));
    for row in grid.iter().rev() {
        out.push_str("  ");
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "mean predicted error {:.2} m | predicted SLV {:.3} m² | blind points (≥3 m): {}\n",
        map.mean_predicted_error(),
        map.predicted_slv(),
        map.blind_spots(3.0).len()
    ));
    out
}

/// Builds the `LocalizationServer` that `serve` (either mode) and `chaos`
/// localize with. Chaos builds two — the in-process baseline and the one
/// inside the daemon — so bit-identity between them is meaningful.
fn venue_server(venue: &Venue) -> LocalizationServer {
    LocalizationServer::new(venue.plan.boundary().clone())
}

/// Serves a synthetic batch of localization requests (one per venue test
/// site, round-robin) through `LocalizationServer::process_batch` and
/// renders the outcome plus the pipeline-stats snapshot.
pub fn run_serve(spec: &ServeSpec) -> String {
    let venue = spec.venue.venue();
    let server = venue_server(&venue);
    let aps = venue.static_deployment();
    let (truths, batch) = synthetic_workload(&venue, spec.requests, spec.packets, spec.seed);

    let start = std::time::Instant::now();
    let results = server.process_batch(&batch);
    let elapsed = start.elapsed();

    let mut errors: Vec<f64> = Vec::new();
    let mut failures = 0usize;
    for (result, &truth) in results.iter().zip(&truths) {
        match result {
            Ok(est) => errors.push(est.position.distance(truth)),
            Err(_) => failures += 1,
        }
    }
    errors.sort_by(|a, b| a.total_cmp(b));
    let mean = if errors.is_empty() {
        0.0
    } else {
        errors.iter().sum::<f64>() / errors.len() as f64
    };
    let median = errors.get(errors.len() / 2).copied().unwrap_or(0.0);

    let mut out = String::new();
    out.push_str(&format!(
        "serve: {} — {} requests × {} APs × {} packets (seed {})\n",
        venue.name,
        spec.requests,
        aps.len(),
        spec.packets,
        spec.seed
    ));
    let per_req_ms = if spec.requests > 0 {
        elapsed.as_secs_f64() * 1e3 / spec.requests as f64
    } else {
        0.0
    };
    out.push_str(&format!(
        "batch took {:.1} ms ({:.2} ms/request) | mean error {:.2} m | median {:.2} m | failures {}\n",
        elapsed.as_secs_f64() * 1e3,
        per_req_ms,
        mean,
        median,
        failures
    ));
    let snapshot = server.stats_snapshot();
    out.push_str(&format!(
        "warm-started center LPs: {} (phase-1 pivots saved: {})\n\n",
        snapshot.counters.warm_start_hits, snapshot.counters.phase1_pivots_saved
    ));
    out.push_str(&snapshot.to_string());
    out
}

/// Spawns the `nomloc-net` daemon per a `serve --listen` spec.
///
/// # Errors
///
/// Returns a user-facing message if the listen address is missing,
/// malformed, or cannot be bound.
pub fn start_daemon(spec: &ServeSpec) -> Result<nomloc_net::DaemonHandle, String> {
    let addr = spec
        .listen
        .as_deref()
        .ok_or("serve: daemon mode needs --listen ADDR")?;
    let venue = spec.venue.venue();
    let server = venue_server(&venue);
    let config = nomloc_net::DaemonConfig {
        batchers: spec.batchers,
        max_batch: spec.max_batch,
        queue_capacity: spec.queue_cap,
        event_loops: spec.event_loops,
        venue_budget_bytes: spec.venue_budget,
        ..nomloc_net::DaemonConfig::default()
    };
    let handle = nomloc_net::spawn(server, config, addr)
        .map_err(|e| format!("serve: cannot listen on `{addr}`: {e}"))?;
    // Pre-onboard the fleet in-process (same registry path the admin
    // plane takes, minus the socket) so the daemon is live-venue-complete
    // before the first client connects.
    for id in 1..=spec.venues as u64 {
        handle
            .registry()
            .onboard(WireVenue::from_venue(id, &fleet_venue(id)))
            .map_err(|e| format!("serve: cannot onboard venue {id}: {e}"))?;
    }
    Ok(handle)
}

/// Runs the load generator: spawns a loopback daemon when `--connect` is
/// absent, drives it with the synthetic workload, and renders throughput,
/// latency quantiles, and (loopback only) the server's drain-time health.
///
/// # Errors
///
/// Returns a user-facing message on bind/connect/protocol failures.
pub fn run_loadgen(spec: &LoadgenSpec) -> Result<String, String> {
    let venue = spec.venue.venue();
    let (_, batch) = synthetic_workload(&venue, spec.requests, spec.packets, spec.seed);

    // Loopback mode: host the daemon ourselves on an ephemeral port.
    let loopback = if spec.connect.is_none() {
        let serve_spec = ServeSpec {
            venue: spec.venue,
            listen: Some("127.0.0.1:0".to_string()),
            ..ServeSpec::default()
        };
        Some(start_daemon(&serve_spec)?)
    } else {
        None
    };
    let addr = match (&loopback, spec.connect.as_deref()) {
        (Some(handle), _) => handle.local_addr(),
        (None, Some(addr)) => addr
            .parse()
            .map_err(|e| format!("loadgen: bad --connect address `{addr}`: {e}"))?,
        (None, None) => unreachable!("loopback covers the None connect case"),
    };

    // Multi-venue runs onboard the fleet over the wire-v3 admin plane —
    // the same frames a remote operator would send — then spread traffic
    // zipf-over-venues across the resident venue plus the fleet.
    for id in 1..=spec.venues as u64 {
        nomloc_net::admin::onboard(addr, &WireVenue::from_venue(id, &fleet_venue(id)))
            .map_err(|e| format!("loadgen: onboarding venue {id}: {e}"))?;
    }

    let config = nomloc_net::LoadgenConfig {
        connections: spec.connections,
        deadline_us: spec.deadline_us,
        idle_connections: spec.idle_connections,
        venues: if spec.venues > 0 {
            (0..=spec.venues as u64).collect()
        } else {
            Vec::new()
        },
        zipf_s: spec.zipf,
        zipf_seed: spec.seed,
        sessions: spec.sessions,
        concurrency: spec.concurrency,
        ..nomloc_net::LoadgenConfig::default()
    };
    let report =
        nomloc_net::loadgen::run(addr, &config, &batch).map_err(|e| format!("loadgen: {e}"))?;

    let mut out = format!(
        "loadgen: {} — {} connections × {} requests ({} packets/AP, seed {})\n",
        venue.name, config.connections, spec.requests, spec.packets, spec.seed
    );
    if spec.venues > 0 {
        out.push_str(&format!(
            "venues: zipf(s={}) over {} live venues (resident + {} fleet)\n",
            spec.zipf,
            spec.venues + 1,
            spec.venues
        ));
    }
    out.push_str(&report.render());
    if let Some(handle) = loopback {
        if spec.venues > 0 {
            // The batcher shards by venue, so under zipf traffic every
            // micro-batch must still be venue-homogeneous.
            let counters = handle.stats_snapshot().counters;
            out.push_str(&format!(
                "venue batching: {} homogeneous micro-batches, {} mixed\n",
                counters.batches_homogeneous, counters.batches_mixed
            ));
        }
        let health = handle.shutdown();
        out.push('\n');
        out.push_str(&health.to_string());
    }
    Ok(out)
}

/// Runs a chaos campaign: spawns a loopback daemon carrying the fault
/// plan, replays the synthetic workload through client-side fault
/// injection, and verifies every reply against the per-fault-class
/// contract (non-faulted ⇒ bit-identical to an in-process fault-free
/// run; faulted ⇒ the typed error or degraded tier its class demands).
///
/// # Errors
///
/// Returns a user-facing message on bind/transport failures or — the
/// point of the exercise — on any contract violation.
pub fn run_chaos(spec: &ChaosSpec) -> Result<String, String> {
    let venue = spec.venue.venue();
    let (_, batch) = synthetic_workload(&venue, spec.requests, spec.packets, spec.seed);
    let plan = FaultPlan::uniform(spec.seed, spec.rate);
    plan.validate().map_err(|e| format!("chaos: {e}"))?;

    let baseline_server = venue_server(&venue);
    let baseline: Vec<Result<WireEstimate, ErrorReply>> = batch
        .iter()
        .map(|reports| match baseline_server.process(reports) {
            Ok(est) => Ok(WireEstimate::from_core(&est)),
            Err(e) => Err(ErrorReply {
                code: nomloc_net::ErrorCode::from_estimate_error(&e),
                message: e.to_string(),
            }),
        })
        .collect();

    let config = nomloc_net::DaemonConfig {
        fault_plan: Some(plan),
        kill_batcher_every: spec.kill_every as u64,
        ..nomloc_net::DaemonConfig::default()
    };
    let handle = nomloc_net::spawn(venue_server(&venue), config, "127.0.0.1:0")
        .map_err(|e| format!("chaos: cannot bind loopback daemon: {e}"))?;
    let mut chaos_config = nomloc_net::ChaosConfig::new(plan);
    chaos_config.sessions = spec.sessions;
    if spec.sessions > 0 {
        // Hand the driver the daemon's live table so the plan's
        // stale-session fault can force-expire server-side state.
        chaos_config.session_table = Some(handle.sessions());
    }
    let report = nomloc_net::chaos::run(handle.local_addr(), &chaos_config, &batch)
        .map_err(|e| format!("chaos: {e}"))?;
    let health = handle.shutdown();

    match report.verify(&chaos_config, &baseline) {
        Ok(summary) => {
            let mut out = format!(
                "chaos: {} — {} requests (seed {}, per-class rate {}, ≈{:.0} % faulted)\n",
                venue.name,
                spec.requests,
                spec.seed,
                spec.rate,
                100.0 * plan.total_rate()
            );
            out.push_str(&summary.render());
            out.push_str(&format!(
                "  transport: {} reconnects | {} corrupt frames rejected by the server\n",
                report.reconnects, report.rejections_observed
            ));
            if spec.sessions > 0 {
                out.push_str(&format!(
                    "  sessions: {} interleaved, replay-verified | {} stale-session expiries\n",
                    spec.sessions, report.stale_expiries
                ));
            }
            out.push('\n');
            out.push_str(&health.to_string());
            Ok(out)
        }
        Err(violations) => {
            let shown: Vec<&str> = violations.iter().take(5).map(String::as_str).collect();
            Err(format!(
                "chaos: contract violated on {} request(s):\n  {}",
                violations.len(),
                shown.join("\n  ")
            ))
        }
    }
}

/// Runs a `venue` admin operation against a live daemon and renders the
/// registry listing every admin response carries.
///
/// # Errors
///
/// Returns a user-facing message on connect/protocol failures or when the
/// daemon rejects the operation (unknown venue, reserved id, bad geometry).
pub fn run_venue_admin(spec: &VenueAdminSpec) -> Result<String, String> {
    let addr = spec.connect.as_str();
    let listing = match spec.action {
        VenueAction::List => nomloc_net::admin::list(addr),
        VenueAction::Retire => nomloc_net::admin::retire(addr, spec.id),
        VenueAction::Onboard => {
            let venue = match spec.venue {
                Some(name) => name.venue(),
                None => fleet_venue(spec.id),
            };
            nomloc_net::admin::onboard(addr, &WireVenue::from_venue(spec.id, &venue))
        }
    }
    .map_err(|e| format!("venue: `{addr}`: {e}"))?;

    let mut out = format!("{:>8}  {:<12} {:>10}  state\n", "venue", "name", "requests");
    for v in &listing {
        out.push_str(&format!(
            "{:>8}  {:<12} {:>10}  {}\n",
            v.venue_id,
            v.name,
            v.requests,
            if v.resident { "resident" } else { "evicted" },
        ));
    }
    Ok(out)
}

/// Renders the venue listing.
pub fn run_venues() -> String {
    let mut out = String::new();
    for venue in [Venue::lab(), Venue::lobby(), Venue::mall()] {
        let (min, max) = venue.plan.boundary().bounding_box();
        out.push_str(&format!(
            "{:<6} {:>5.1} × {:<5.1} m  area {:>6.1} m²  APs {}  nomadic sites {}  test sites {:>2}  obstacles {}\n",
            venue.name,
            max.x - min.x,
            max.y - min.y,
            venue.plan.boundary().area(),
            venue.static_deployment().len(),
            venue.nomadic_sites.len(),
            venue.test_sites.len(),
            venue.plan.obstacles().len(),
        ));
    }
    out
}

/// Checks a point is inside a venue (helper reused by integration tests).
pub fn inside(venue: &Venue, p: Point) -> bool {
    venue.plan.boundary().contains(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse(&args("")).unwrap(), Command::Help);
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("-h")).unwrap(), Command::Help);
    }

    #[test]
    fn unknown_command_rejected() {
        let e = parse(&args("frobnicate")).unwrap_err();
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn campaign_defaults() {
        let cmd = parse(&args("campaign")).unwrap();
        assert_eq!(cmd, Command::Campaign(CampaignSpec::default()));
    }

    #[test]
    fn campaign_full_flags() {
        let cmd = parse(&args(
            "campaign --venue lobby --deployment fleet:3 --packets 10 --trials 2 \
             --er 1.5 --seed 7 --center centroid --window hann --antennas 3 --carrier",
        ))
        .unwrap();
        let Command::Campaign(spec) = cmd else {
            panic!("not a campaign")
        };
        assert_eq!(spec.venue, VenueName::Lobby);
        assert_eq!(spec.deployment, DeploymentSpec::Fleet { nomads: 3 });
        assert_eq!(spec.packets, 10);
        assert_eq!(spec.trials, 2);
        assert_eq!(spec.er, 1.5);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.center, CenterMethod::Centroid);
        assert_eq!(spec.window, Window::Hann);
        assert_eq!(spec.antennas, 3);
        assert!(spec.carrier);
    }

    #[test]
    fn deployment_forms() {
        assert_eq!(parse_deployment("static").unwrap(), DeploymentSpec::Static);
        assert_eq!(
            parse_deployment("nomadic").unwrap(),
            DeploymentSpec::Nomadic { steps: 8 }
        );
        assert_eq!(
            parse_deployment("nomadic:3").unwrap(),
            DeploymentSpec::Nomadic { steps: 3 }
        );
        assert_eq!(
            parse_deployment("fleet:2").unwrap(),
            DeploymentSpec::Fleet { nomads: 2 }
        );
        assert!(parse_deployment("wandering").is_err());
        assert!(parse_deployment("nomadic:x").is_err());
    }

    #[test]
    fn bad_values_are_rejected_with_messages() {
        assert!(parse(&args("campaign --packets ten")).is_err());
        assert!(parse(&args("campaign --er -1")).is_err());
        assert!(parse(&args("campaign --venue attic")).is_err());
        assert!(parse(&args("campaign --center middle")).is_err());
        assert!(parse(&args("campaign --window kaiser")).is_err());
        assert!(parse(&args("campaign --packets")).is_err(), "missing value");
        assert!(parse(&args("campaign --bogus 1")).is_err());
    }

    #[test]
    fn map_flags() {
        let cmd = parse(&args("map --venue lobby --nomadic --pitch 1.0")).unwrap();
        assert_eq!(
            cmd,
            Command::Map(MapSpec {
                venue: VenueName::Lobby,
                nomadic: true,
                pitch: 1.0,
            })
        );
        assert!(parse(&args("map --pitch 0")).is_err());
        assert!(parse(&args("map --bogus")).is_err());
    }

    #[test]
    fn venues_listing_mentions_all_three() {
        let out = run_venues();
        assert!(out.contains("Lab"));
        assert!(out.contains("Lobby"));
        assert!(out.contains("Mall"));
    }

    #[test]
    fn mall_venue_parses() {
        assert_eq!(parse_venue("mall").unwrap(), VenueName::Mall);
    }

    #[test]
    fn run_map_renders_grid() {
        let out = run_map(&MapSpec {
            venue: VenueName::Lab,
            nomadic: true,
            pitch: 1.0,
        });
        assert!(out.contains('A'), "AP markers missing");
        assert!(out.contains("predicted SLV"));
    }

    #[test]
    fn serve_flags() {
        let cmd = parse(&args(
            "serve --venue lobby --requests 12 --packets 5 --seed 9",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeSpec {
                venue: VenueName::Lobby,
                requests: 12,
                packets: 5,
                seed: 9,
                ..ServeSpec::default()
            })
        );
        assert_eq!(
            parse(&args("serve")).unwrap(),
            Command::Serve(ServeSpec::default())
        );
        assert!(parse(&args("serve --bogus 1")).is_err());
        assert!(parse(&args("serve --requests many")).is_err());
    }

    #[test]
    fn workers_flag_is_rejected() {
        // Each batch is solved on the thread that pops it; there is no
        // per-batch thread count left to set.
        for cmd in ["serve", "loadgen", "chaos"] {
            let e = parse(&args(&format!("{cmd} --workers 2"))).unwrap_err();
            assert!(
                e.to_string()
                    .contains(&format!("unknown {cmd} flag `--workers`")),
                "{e}"
            );
        }
    }

    #[test]
    fn serve_daemon_flags() {
        let cmd = parse(&args(
            "serve --listen 127.0.0.1:4455 --max-batch 8 \
             --queue-cap 64 --batchers 3 --max-requests 500 --event-loops 4",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeSpec {
                listen: Some("127.0.0.1:4455".to_string()),
                max_batch: 8,
                queue_cap: 64,
                batchers: 3,
                max_requests: 500,
                event_loops: 4,
                ..ServeSpec::default()
            })
        );
        // Zero is nonsense for sizing knobs and rejected at parse time.
        assert!(parse(&args("serve --max-batch 0")).is_err());
        assert!(parse(&args("serve --queue-cap 0")).is_err());
        assert!(parse(&args("serve --batchers 0")).is_err());
        assert!(parse(&args("serve --event-loops 0")).is_err());
    }

    #[test]
    fn serve_venue_flags() {
        let cmd = parse(&args(
            "serve --listen 127.0.0.1:0 --venues 8 --venue-budget 1048576",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeSpec {
                listen: Some("127.0.0.1:0".to_string()),
                venues: 8,
                venue_budget: 1_048_576,
                ..ServeSpec::default()
            })
        );
    }

    #[test]
    fn venue_admin_flags() {
        let cmd = parse(&args("venue list --connect 127.0.0.1:4455")).unwrap();
        assert_eq!(
            cmd,
            Command::VenueAdmin(VenueAdminSpec {
                action: VenueAction::List,
                connect: "127.0.0.1:4455".to_string(),
                id: 0,
                venue: None,
            })
        );
        let cmd = parse(&args(
            "venue onboard --connect 127.0.0.1:4455 --id 3 --venue lobby",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::VenueAdmin(VenueAdminSpec {
                action: VenueAction::Onboard,
                connect: "127.0.0.1:4455".to_string(),
                id: 3,
                venue: Some(VenueName::Lobby),
            })
        );
        let cmd = parse(&args("venue retire --connect 127.0.0.1:4455 --id 3")).unwrap();
        assert_eq!(
            cmd,
            Command::VenueAdmin(VenueAdminSpec {
                action: VenueAction::Retire,
                connect: "127.0.0.1:4455".to_string(),
                id: 3,
                venue: None,
            })
        );
        // Action, --connect, and a nonzero --id (for onboard/retire) are
        // all mandatory; venue 0 is reserved for the resident venue.
        assert!(parse(&args("venue")).is_err());
        assert!(parse(&args("venue evict --connect 127.0.0.1:1")).is_err());
        assert!(parse(&args("venue list")).is_err());
        assert!(parse(&args("venue onboard --connect 127.0.0.1:1")).is_err());
        assert!(parse(&args("venue retire --connect 127.0.0.1:1 --id 0")).is_err());
        assert!(parse(&args("venue list --connect 127.0.0.1:1 --bogus")).is_err());
    }

    #[test]
    fn removed_socket_and_queue_flags_are_unknown() {
        // The daemon has one socket layer and one dispatch plane, so the
        // flags that used to select between alternatives are gone; batching
        // is work-conserving, so the fill-window knob is gone too.
        for cmd in ["serve", "loadgen", "chaos"] {
            let e = parse(&args(&format!("{cmd} --socket-backend event-loop"))).unwrap_err();
            assert!(e.to_string().contains("unknown"), "{cmd}: {e}");
        }
        for flag in ["--acceptors 2", "--queue-shards 8", "--max-wait-us 500"] {
            let e = parse(&args(&format!("serve {flag}"))).unwrap_err();
            assert!(e.to_string().contains("unknown serve flag"), "{flag}: {e}");
        }
        // Every serving counter travels in the health frame, so the
        // loadgen flag that re-printed the reply counters is gone as well.
        let e = parse(&args("loadgen --payload-reuse")).unwrap_err();
        assert!(e.to_string().contains("unknown loadgen flag"), "{e}");
    }

    #[test]
    fn loadgen_flags() {
        let cmd = parse(&args(
            "loadgen --connect 10.0.0.7:4455 --venue mall --connections 8 \
             --requests 2000 --packets 2 --seed 7 --deadline-us 1500 \
             --idle-connections 5000 \
             --venues 100 --zipf 1.2 --sessions --concurrency 6",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Loadgen(LoadgenSpec {
                venue: VenueName::Mall,
                connect: Some("10.0.0.7:4455".to_string()),
                connections: 8,
                requests: 2000,
                packets: 2,
                seed: 7,
                deadline_us: 1500,
                idle_connections: 5000,
                venues: 100,
                zipf: 1.2,
                sessions: true,
                concurrency: 6,
            })
        );
        assert_eq!(
            parse(&args("loadgen")).unwrap(),
            Command::Loadgen(LoadgenSpec::default())
        );
        assert!(parse(&args("loadgen --connections 0")).is_err());
        assert!(parse(&args("loadgen --bogus 1")).is_err());
    }

    #[test]
    fn chaos_flags() {
        let cmd = parse(&args(
            "chaos --venue lobby --requests 80 --packets 2 --seed 7 --rate 0.05 \
             --kill-every 6 --sessions 3",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Chaos(ChaosSpec {
                venue: VenueName::Lobby,
                requests: 80,
                packets: 2,
                seed: 7,
                rate: 0.05,
                kill_every: 6,
                sessions: 3,
            })
        );
        assert_eq!(
            parse(&args("chaos")).unwrap(),
            Command::Chaos(ChaosSpec::default())
        );
        // A per-class rate above 1/8 would push the total past 1.
        assert!(parse(&args("chaos --rate 0.2")).is_err());
        assert!(parse(&args("chaos --bogus 1")).is_err());
    }

    #[test]
    fn kill_every_one_is_rejected_as_a_livelock() {
        let e = parse(&args("chaos --kill-every 1")).unwrap_err();
        assert!(e.to_string().contains("livelock"), "{e}");
        for ok in ["0", "2"] {
            let cmd = parse(&args(&format!("chaos --kill-every {ok}"))).unwrap();
            assert!(matches!(cmd, Command::Chaos(_)), "--kill-every {ok}");
        }
    }

    #[test]
    fn run_chaos_smoke_verifies_the_contract() {
        let out = run_chaos(&ChaosSpec {
            requests: 40,
            packets: 2,
            seed: 7,
            kill_every: 5,
            ..ChaosSpec::default()
        })
        .expect("chaos contract holds");
        assert!(out.contains("40 requests"), "missing totals:\n{out}");
        assert!(
            out.contains("bit-identical"),
            "missing verification:\n{out}"
        );
        assert!(out.contains("batchers respawned"), "missing health:\n{out}");
        // kill-every 5 over 40 requests guarantees observable respawns.
        assert!(
            !out.contains("batchers respawned    0"),
            "watchdog never fired:\n{out}"
        );
    }

    #[test]
    fn start_daemon_requires_listen() {
        let msg = start_daemon(&ServeSpec::default()).map(|_| ()).unwrap_err();
        assert!(msg.contains("--listen"), "unexpected message: {msg}");
        let msg = start_daemon(&ServeSpec {
            listen: Some("not-an-address".to_string()),
            ..ServeSpec::default()
        })
        .map(|_| ())
        .unwrap_err();
        assert!(msg.contains("not-an-address"), "unexpected message: {msg}");
    }

    #[test]
    fn run_loadgen_loopback_smoke() {
        let out = run_loadgen(&LoadgenSpec {
            requests: 12,
            packets: 2,
            connections: 2,
            ..LoadgenSpec::default()
        })
        .unwrap();
        assert!(out.contains("12 requests"), "missing totals:\n{out}");
        assert!(out.contains("latency p50"), "missing quantiles:\n{out}");
        assert!(out.contains("ok 12"), "requests failed:\n{out}");
        // The loopback daemon's drain-time health summary rides along.
        assert!(out.contains("nomloc-net health"), "missing health:\n{out}");
        // Every reply is counted as it is encoded, so the health summary
        // reports the reply bytes.
        assert!(
            out.contains("reply bytes encoded"),
            "missing reply-bytes line:\n{out}"
        );
    }

    #[test]
    fn run_loadgen_multi_venue_smoke() {
        let out = run_loadgen(&LoadgenSpec {
            requests: 24,
            packets: 2,
            connections: 2,
            venues: 3,
            ..LoadgenSpec::default()
        })
        .unwrap();
        assert!(out.contains("24 requests"), "missing totals:\n{out}");
        assert!(
            out.contains("zipf(s=1) over 4 live venues"),
            "missing venue header:\n{out}"
        );
        // The venue-sharded batcher must never mix venues in a batch.
        assert!(out.contains(", 0 mixed"), "mixed batches:\n{out}");
        // Drain-time health carries one per-venue line per live venue.
        assert_eq!(
            out.matches("    venue ").count(),
            4,
            "missing per-venue health:\n{out}"
        );
    }

    #[test]
    fn run_loadgen_closed_loop_smoke() {
        let out = run_loadgen(&LoadgenSpec {
            requests: 16,
            packets: 2,
            venues: 3,
            concurrency: 4,
            ..LoadgenSpec::default()
        })
        .unwrap();
        assert!(
            out.contains("closed-loop: 4 workers"),
            "missing closed-loop report line:\n{out}"
        );
        assert!(out.contains(", 0 mixed"), "mixed batches:\n{out}");
    }

    #[test]
    fn run_venue_admin_round_trip() {
        let handle = start_daemon(&ServeSpec {
            listen: Some("127.0.0.1:0".to_string()),
            ..ServeSpec::default()
        })
        .expect("loopback daemon");
        let connect = handle.local_addr().to_string();
        let admin = |argv: String| {
            let Command::VenueAdmin(spec) = parse(&args(&argv)).expect("parses") else {
                panic!("not a venue command")
            };
            run_venue_admin(&spec)
        };

        let out = admin(format!("venue onboard --connect {connect} --id 2")).unwrap();
        assert!(out.contains("resident"), "venue not live:\n{out}");
        let out = admin(format!(
            "venue onboard --connect {connect} --id 3 --venue mall"
        ))
        .unwrap();
        assert!(out.contains("Mall"), "explicit venue ignored:\n{out}");
        let out = admin(format!("venue retire --connect {connect} --id 2")).unwrap();
        assert!(!out.contains(" 2  "), "retired venue still listed:\n{out}");
        // The daemon rejects bad operations with a typed error that the
        // client surfaces as a message, not a panic.
        let msg = admin(format!("venue retire --connect {connect} --id 99")).unwrap_err();
        assert!(msg.contains("99"), "unhelpful error: {msg}");
        handle.shutdown();
    }

    #[test]
    fn run_serve_smoke() {
        let out = run_serve(&ServeSpec {
            venue: VenueName::Lab,
            requests: 6,
            packets: 5,
            seed: 3,
            ..ServeSpec::default()
        });
        assert!(out.contains("6 requests"));
        assert!(out.contains("pipeline stats"));
        assert!(out.contains("simplex iterations"));
        assert!(out.contains("warm-started center LPs"));
        assert!(out.contains("warm-start hits"));
        assert!(out.contains("failures 0"), "unexpected failures:\n{out}");
    }

    #[test]
    fn run_serve_is_deterministic() {
        let spec = ServeSpec {
            requests: 5,
            packets: 4,
            ..ServeSpec::default()
        };
        let first = run_serve(&spec);
        let second = run_serve(&spec);
        // Error figures (lines with "mean error") must match exactly;
        // timing lines differ, so compare the error metrics only.
        let metric = |s: &str| {
            s.lines()
                .find(|l| l.contains("mean error"))
                .map(|l| l.split('|').skip(1).take(3).collect::<Vec<_>>().join("|"))
                .unwrap()
        };
        assert_eq!(metric(&first), metric(&second));
    }

    #[test]
    fn run_campaign_smoke() {
        let spec = CampaignSpec {
            packets: 8,
            trials: 1,
            ..CampaignSpec::default()
        };
        let out = run_campaign(&spec);
        assert!(out.contains("mean error"));
        assert!(out.contains("SLV"));
        // One row per Lab test site.
        assert_eq!(
            out.lines()
                .filter(|l| l.trim_start().starts_with(char::is_numeric))
                .count(),
            10
        );
    }
}
