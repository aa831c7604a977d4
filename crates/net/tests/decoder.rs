//! Property and fuzz tests for [`StreamDecoder`], the incremental frame
//! decoder behind the daemon's event-loop socket layer.
//!
//! The contract under test: however a byte stream is sliced into reads —
//! one byte at a time, split at every possible boundary, or coalesced
//! into one giant read — the decoder yields exactly the frame sequence a
//! whole-buffer [`decode_frame`] loop yields, errors on exactly the
//! inputs `decode_frame` rejects, and keeps its internal buffer bounded
//! by compaction. A nonblocking socket delivers bytes at arbitrary
//! boundaries, so any slicing-dependence here would be a heisenbug in
//! production.

use nomloc_dsp::Complex;
use nomloc_net::wire::{
    decode_frame, frame_to_vec, ErrorReply, LocateRequest, LocateResponse, ServerHealth,
    StreamDecoder, WireEstimate, WireReport, WireSession, WireSnapshot,
};
use nomloc_net::{ErrorCode, Frame, WireError};
use proptest::prelude::*;

/// A deterministic little frame zoo: every frame kind, with payloads from
/// empty to multi-report, derived from `seed`.
fn frame_zoo(seed: u64) -> Vec<Frame> {
    let mix = |i: u64| nomloc_faults::mix64(seed, i);
    let f = |i: u64| (mix(i) % 10_000) as f64 / 100.0;
    let snapshot = |i: u64, n: usize| WireSnapshot {
        offsets_hz: (0..n).map(|k| k as f64 * 312_500.0).collect(),
        h: (0..n)
            .map(|k| Complex::new(f(i + k as u64), f(i + 50 + k as u64)))
            .collect(),
    };
    vec![
        Frame::LocateRequest(LocateRequest {
            request_id: mix(1),
            deadline_us: (mix(2) % 1_000_000) as u32,
            venue_id: mix(9),
            session_id: mix(11),
            reports: vec![
                WireReport {
                    ap: 1,
                    visit: 0,
                    x: f(3),
                    y: f(4),
                    burst: vec![snapshot(5, 4), snapshot(6, 2)],
                },
                WireReport {
                    ap: 2,
                    visit: 1,
                    x: f(7),
                    y: f(8),
                    burst: Vec::new(),
                },
            ],
        }),
        Frame::LocateResponse(LocateResponse {
            request_id: mix(9),
            outcome: Ok(WireEstimate {
                x: f(10),
                y: f(11),
                relaxation_cost: f(12),
                region_area: f(13),
                quality: (mix(21) % 3) as u8,
                n_constraints: mix(14) % 100,
                n_winning_pieces: mix(15) % 100,
                lp_iterations: mix(16) % 100,
                warm_start_hits: mix(17) % 100,
                phase1_pivots_saved: mix(18) % 100,
                session: if mix(22) % 2 == 0 {
                    None
                } else {
                    Some(WireSession {
                        smoothed_x: f(23),
                        smoothed_y: f(24),
                        velocity_x: f(25),
                        velocity_y: f(26),
                        error_bound: f(27),
                    })
                },
            }),
        }),
        Frame::LocateResponse(LocateResponse {
            request_id: mix(19),
            outcome: Err(ErrorReply {
                code: ErrorCode::Malformed,
                message: format!("hostile payload {}", mix(20)),
            }),
        }),
        Frame::StatsRequest,
        Frame::StatsResponse(ServerHealth::default()),
    ]
}

/// Ground truth: decode `bytes` with repeated whole-buffer `decode_frame`
/// calls. Returns the frames and what terminated the stream.
fn reference_decode(bytes: &[u8]) -> (Vec<Frame>, Option<WireError>) {
    let mut frames = Vec::new();
    let mut rest = bytes;
    loop {
        if rest.is_empty() {
            return (frames, None);
        }
        match decode_frame(rest) {
            Ok((frame, consumed)) => {
                frames.push(frame);
                rest = &rest[consumed..];
            }
            Err(WireError::Incomplete { .. }) => return (frames, None),
            Err(e) => return (frames, Some(e)),
        }
    }
}

/// Feed `bytes` to a fresh decoder in the given chunks; collect frames
/// until exhaustion or error.
fn chunked_decode(bytes: &[u8], chunk_sizes: &[usize]) -> (Vec<Frame>, Option<WireError>) {
    let mut dec = StreamDecoder::new();
    let mut frames = Vec::new();
    let mut offset = 0;
    let mut sizes = chunk_sizes.iter().copied().cycle();
    while offset < bytes.len() {
        let take = sizes.next().unwrap_or(1).clamp(1, bytes.len() - offset);
        dec.extend(&bytes[offset..offset + take]);
        offset += take;
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(e) => return (frames, Some(e)),
            }
        }
    }
    (frames, None)
}

/// Errors must match in kind; messages may differ in offsets (the
/// incremental decoder reports positions relative to its own buffer).
fn same_error_kind(a: &WireError, b: &WireError) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

fn assert_parity(bytes: &[u8], chunk_sizes: &[usize], label: &str) {
    let (want_frames, want_err) = reference_decode(bytes);
    let (got_frames, got_err) = chunked_decode(bytes, chunk_sizes);
    assert_eq!(
        got_frames, want_frames,
        "{label}: frame sequence diverged from whole-buffer decode"
    );
    match (&got_err, &want_err) {
        (None, None) => {}
        (Some(g), Some(w)) => assert!(
            same_error_kind(g, w),
            "{label}: error kind diverged: {g:?} vs {w:?}"
        ),
        (g, w) => panic!("{label}: error presence diverged: {g:?} vs {w:?}"),
    }
}

/// One byte at a time — the worst case a nonblocking socket can deliver.
#[test]
fn byte_at_a_time_decodes_identically() {
    let blob: Vec<u8> = frame_zoo(42).iter().flat_map(frame_to_vec).collect();
    assert_parity(&blob, &[1], "byte-at-a-time");
}

/// Every possible two-chunk split of a multi-frame blob: the boundary
/// sweeps through magic, length, payload, and CRC of every frame.
#[test]
fn every_split_boundary_decodes_identically() {
    // A smaller zoo keeps the quadratic sweep fast but still crosses
    // every header field of several frames.
    let frames = frame_zoo(7);
    let blob: Vec<u8> = frames[..3].iter().flat_map(frame_to_vec).collect();
    let (want_frames, want_err) = reference_decode(&blob);
    assert!(want_err.is_none());
    for split in 0..=blob.len() {
        let mut dec = StreamDecoder::new();
        let mut got = Vec::new();
        for part in [&blob[..split], &blob[split..]] {
            dec.extend(part);
            while let Some(frame) = dec
                .next_frame()
                .unwrap_or_else(|e| panic!("split at {split}: {e}"))
            {
                got.push(frame);
            }
        }
        assert_eq!(got, want_frames, "split at byte {split} diverged");
        assert_eq!(dec.buffered(), 0, "split at {split}: bytes left behind");
    }
}

/// Coalesced reads — everything in one `extend` — decode identically too,
/// and a trailing partial frame stays buffered until completed.
#[test]
fn coalesced_and_resumed_reads_decode_identically() {
    let frames = frame_zoo(1234);
    let blob: Vec<u8> = frames.iter().flat_map(frame_to_vec).collect();
    let (want_frames, _) = reference_decode(&blob);

    // Whole blob plus a partial frame in one shot.
    let tail = frame_to_vec(&frames[0]);
    let mut dec = StreamDecoder::new();
    dec.extend(&blob);
    dec.extend(&tail[..tail.len() - 1]);
    let mut got = Vec::new();
    while let Some(frame) = dec.next_frame().expect("valid stream") {
        got.push(frame);
    }
    assert_eq!(got, want_frames);
    assert_eq!(dec.buffered(), tail.len() - 1, "partial frame not retained");

    // The last byte arrives: the buffered frame completes.
    dec.extend(&tail[tail.len() - 1..]);
    let last = dec.next_frame().expect("valid stream").expect("one frame");
    assert_eq!(last, frames[0]);
    assert_eq!(dec.buffered(), 0);
}

/// Garbage inputs error exactly where whole-buffer decoding errors:
/// corrupting any single byte of a frame stream produces the same error
/// kind (or the same silently-valid decode, for bytes CRC can't see —
/// there are none, but the parity check does not presuppose that).
#[test]
fn corrupted_streams_error_identically() {
    let frames = frame_zoo(99);
    let blob: Vec<u8> = frames[..2].iter().flat_map(frame_to_vec).collect();
    for pos in 0..blob.len() {
        let mut bad = blob.clone();
        bad[pos] ^= 0x5A;
        assert_parity(&bad, &[1], &format!("corrupt byte {pos}, 1B chunks"));
        assert_parity(
            &bad,
            &[7, 3, 1],
            &format!("corrupt byte {pos}, mixed chunks"),
        );
    }
}

/// The decoder's buffer stays bounded: after draining a long stream fed
/// in small chunks, compaction has kept capacity near the largest frame,
/// not near the total bytes ever seen.
#[test]
fn compaction_bounds_the_buffer() {
    let frames = frame_zoo(5);
    let one = frame_to_vec(&frames[0]);
    let mut dec = StreamDecoder::new();
    let mut total = 0usize;
    for _ in 0..2_000 {
        dec.extend(&one);
        total += one.len();
        while dec.next_frame().expect("valid stream").is_some() {}
    }
    assert_eq!(dec.buffered(), 0);
    assert!(
        dec.capacity() < total / 4,
        "no compaction: capacity {} after {} bytes streamed",
        dec.capacity(),
        total
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary frame sequences sliced into arbitrary chunk patterns —
    /// with optional leading/trailing garbage — always decode exactly
    /// like the whole-buffer reference.
    #[test]
    fn arbitrary_slicing_has_decode_parity(
        seed in 0u64..u64::MAX,
        n_frames in 1usize..6,
        chunk_sizes in prop::collection::vec(1usize..96, 1..8),
        garbage in prop::collection::vec(0u32..256, 0..24),
        garbage_leads in 0u32..2,
    ) {
        let zoo = frame_zoo(seed);
        let garbage: Vec<u8> = garbage.iter().map(|&b| b as u8).collect();
        let garbage_leads = garbage_leads == 1;
        let mut blob = Vec::new();
        if garbage_leads {
            blob.extend_from_slice(&garbage);
        }
        for i in 0..n_frames {
            blob.extend_from_slice(&frame_to_vec(&zoo[i % zoo.len()]));
        }
        if !garbage_leads {
            blob.extend_from_slice(&garbage);
        }
        assert_parity(&blob, &chunk_sizes, "proptest slicing");
    }

    /// Truncating a valid stream at any point never errors — the decoder
    /// waits for more bytes — and yields exactly the frames whose bytes
    /// fully arrived.
    #[test]
    fn truncation_never_errors(
        seed in 0u64..u64::MAX,
        cut_num in 0u32..1_001,
    ) {
        let zoo = frame_zoo(seed);
        let blob: Vec<u8> = zoo.iter().flat_map(frame_to_vec).collect();
        let cut = (blob.len() as u64 * cut_num as u64 / 1_000) as usize;
        let (got, err) = chunked_decode(&blob[..cut], &[13]);
        prop_assert!(err.is_none(), "truncation at {cut} errored: {err:?}");
        let (want, _) = reference_decode(&blob[..cut]);
        prop_assert_eq!(got, want);
    }
}
