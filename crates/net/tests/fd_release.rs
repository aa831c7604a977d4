//! The daemon releases a connection's socket once the client has closed
//! it and every reply is out: no batcher or event loop keeps an answered
//! request (and with it the connection's sink and fd) until its next
//! batch.
//!
//! Its own test binary, so that no other test opens or closes file
//! descriptors in this process while it counts them.

#![cfg(target_os = "linux")]

use nomloc_core::scenario::Venue;
use nomloc_core::server::CsiReport;
use nomloc_core::{ApSite, LocalizationServer};
use nomloc_net::wire::{decode_frame, frame_to_vec, LocateRequest, WireReport};
use nomloc_net::{spawn, DaemonConfig, Frame};
use nomloc_rfsim::{Environment, RadioConfig, SubcarrierGrid};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs is mounted")
        .count()
}

/// One lab request: a CSI report per static AP, two packets each.
fn request(venue: &Venue, request_id: u64) -> Vec<u8> {
    let env = Environment::new(venue.plan.clone(), RadioConfig::default());
    let grid = SubcarrierGrid::intel5300();
    let object = venue.test_sites[request_id as usize % venue.test_sites.len()];
    let mut rng = StdRng::seed_from_u64(request_id);
    let reports: Vec<CsiReport> = venue
        .static_deployment()
        .iter()
        .enumerate()
        .map(|(i, &ap)| CsiReport {
            site: ApSite::fixed(i + 1, ap),
            burst: env.sample_csi_burst(object, ap, &grid, 2, &mut rng),
        })
        .collect();
    frame_to_vec(&Frame::LocateRequest(LocateRequest {
        request_id,
        deadline_us: 0,
        venue_id: 0,
        session_id: 0,
        reports: reports.iter().map(WireReport::from_core).collect(),
    }))
}

/// Reads frames off `stream` until `n` locate responses have arrived.
fn await_responses(stream: &mut TcpStream, n: usize) {
    let (mut buf, mut tmp, mut seen) = (Vec::new(), [0u8; 16 * 1024], 0);
    while seen < n {
        match decode_frame(&buf) {
            Ok((Frame::LocateResponse(resp), used)) => {
                assert!(resp.outcome.is_ok(), "request {} failed", resp.request_id);
                buf.drain(..used);
                seen += 1;
            }
            Ok((other, _)) => panic!("unexpected frame {other:?}"),
            Err(_) => {
                let got = stream.read(&mut tmp).expect("read replies");
                assert!(got > 0, "daemon closed the connection");
                buf.extend_from_slice(&tmp[..got]);
            }
        }
    }
}

#[test]
fn closed_connections_release_their_sockets() {
    let venue = Venue::lab();
    let server = LocalizationServer::new(venue.plan.boundary().clone());
    let handle = spawn(server, DaemonConfig::default(), "127.0.0.1:0").expect("spawn daemon");
    let start = open_fds();
    // Lone requests, each answered before the next is sent: solved on the
    // event loop, in its own scratch.
    for id in 0..3 {
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        stream.write_all(&request(&venue, id)).unwrap();
        await_responses(&mut stream, 1);
    }
    // Pipelined requests on several connections: they queue and batch,
    // so batcher threads answer them.
    let mut streams: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(handle.local_addr()).expect("connect"))
        .collect();
    for (c, stream) in streams.iter_mut().enumerate() {
        let frames: Vec<u8> = (0..8)
            .flat_map(|i| request(&venue, 100 + 8 * c as u64 + i))
            .collect();
        stream.write_all(&frames).unwrap();
    }
    for stream in &mut streams {
        await_responses(stream, 8);
    }
    drop(streams);
    // Every client has closed; the daemon's fd count must come back.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut now = open_fds();
    while now != start && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        now = open_fds();
    }
    assert_eq!(
        now,
        start,
        "{} fds still open after every client closed",
        now as isize - start as isize
    );
    handle.shutdown();
}
