//! Idle-connection soak: the daemon's event loops hold thousands of
//! mostly-idle connections with bounded per-connection memory and no
//! measurable impact on the active traffic sharing the loops.
//!
//! This is the socket layer's scaling claim: a nomadic-AP deployment
//! keeps one long-lived connection per AP, and almost all of them are
//! quiet at any instant. The event loop pays one registered fd per idle
//! socket, not a thread stack. The full-size
//! 10k run (fd limits want a daemon in its own process) lives in the
//! serving benchmark; this in-process test pins the same properties at
//! 2 000 connections so regressions fail `cargo test`, not just a bench.
//!
//! Memory is asserted via `VmRSS` deltas on Linux (the only platform the
//! CI image runs); elsewhere the connection-count and latency assertions
//! still run.

#![cfg(unix)]

use nomloc_core::scenario::Venue;
use nomloc_core::server::CsiReport;
use nomloc_core::{ApSite, LocalizationServer};
use nomloc_net::{loadgen, spawn, DaemonConfig, LoadgenConfig};
use std::time::Duration;

const IDLE_CONNS: usize = 2_000;
const ACTIVE_REQUESTS: usize = 400;

/// Current resident set size in bytes, from `/proc/self/status`.
/// `None` off Linux (or if the field ever goes missing).
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn lab_server() -> LocalizationServer {
    LocalizationServer::new(Venue::lab().plan.boundary().clone())
}

/// Cheap-but-valid requests (empty bursts → boundary-only solves): the
/// soak measures the socket layer, not the estimator.
fn workload(n: usize) -> Vec<Vec<CsiReport>> {
    let venue = Venue::lab();
    let ap = venue.static_deployment()[0];
    (0..n)
        .map(|_| {
            vec![CsiReport {
                site: ApSite::fixed(1, ap),
                burst: Vec::new(),
            }]
        })
        .collect()
}

#[test]
fn thousands_of_idle_connections_are_cheap_and_harmless() {
    let handle = spawn(
        lab_server(),
        DaemonConfig {
            event_loops: 2,
            ..DaemonConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn daemon");
    let addr = handle.local_addr();
    let requests = workload(ACTIVE_REQUESTS);

    // Baseline: the same active workload with no idle crowd.
    let base_config = LoadgenConfig {
        connections: 4,
        ..LoadgenConfig::default()
    };
    let base = loadgen::run(addr, &base_config, &requests).expect("baseline run");
    assert_eq!(base.outcomes.len(), ACTIVE_REQUESTS);
    let base_p99 = base.latency_quantile(0.99);

    // Soak: 2 000 idle connections held open for the whole run while the
    // same 4 active connections re-drive the workload.
    let rss_before = rss_bytes();
    let soak_config = LoadgenConfig {
        connections: 4,
        idle_connections: IDLE_CONNS,
        ..LoadgenConfig::default()
    };
    let soak = loadgen::run(addr, &soak_config, &requests).expect("soak run");
    let rss_after = rss_bytes();

    // Every idle connection was actually established and held.
    assert_eq!(
        soak.idle_held, IDLE_CONNS,
        "could not hold {IDLE_CONNS} idle connections"
    );
    // The active traffic was fully served alongside the idle crowd.
    assert_eq!(soak.outcomes.len(), ACTIVE_REQUESTS);
    for (i, outcome) in soak.outcomes.iter().enumerate() {
        assert!(
            outcome.reply.is_ok(),
            "active request {i} failed during soak: {:?}",
            outcome.reply
        );
    }

    // Idle connections must not meaningfully tax active latency. Debug
    // builds under parallel test load are noisy, so the bound is loose —
    // an event loop that *walked* idle connections per wakeup would blow
    // through it at 2 000 sockets (that's the regression this catches).
    let soak_p99 = soak.latency_quantile(0.99);
    let allowed = std::cmp::max(base_p99 * 20, Duration::from_millis(100));
    assert!(
        soak_p99 <= allowed,
        "idle crowd degraded active p99: {base_p99:?} -> {soak_p99:?} (allowed {allowed:?})"
    );

    // Bounded per-connection memory: both sides of every socket live in
    // this process, and the crowd must still cost well under 8 KiB per
    // connection on average (a thread stack would be ≥ 64× that).
    if let (Some(before), Some(after)) = (rss_before, rss_after) {
        let delta = after.saturating_sub(before);
        assert!(
            delta < 16 << 20,
            "idle crowd cost {delta} bytes RSS (limit 16 MiB)"
        );
        assert!(
            delta / (IDLE_CONNS as u64) < 8 * 1024,
            "per-connection RSS {} bytes exceeds 8 KiB",
            delta / (IDLE_CONNS as u64)
        );
    }

    let health = handle.shutdown();
    assert_eq!(health.protocol_errors, 0, "soak caused protocol errors");
    assert!(
        health.connections_accepted >= (IDLE_CONNS + 8) as u64,
        "daemon did not accept the idle crowd: {health}"
    );
}
