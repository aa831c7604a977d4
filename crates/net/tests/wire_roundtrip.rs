//! Property tests for the wire codec: every frame type survives an
//! encode → decode → re-encode cycle byte-for-byte (round trips are
//! checked on the canonical encoding so NaN payload bit-patterns — which
//! defeat `PartialEq` — are still pinned exactly), and corrupted input
//! (truncation, bit flips, garbage) decodes to a clean [`WireError`]
//! without panicking.

use nomloc_dsp::Complex;
use nomloc_net::wire::{
    decode_frame, frame_to_vec, ErrorCode, ErrorReply, LocateRequest, LocateResponse, ServerHealth,
    VenueHealth, WireError, WireEstimate, WireReport, WireSession, WireSnapshot,
};
use nomloc_net::Frame;
use proptest::prelude::*;

/// Interprets raw bits as an `f64` — covers NaNs, infinities, subnormals.
fn bits(v: u64) -> f64 {
    f64::from_bits(v)
}

fn error_code(tag: u8) -> ErrorCode {
    match tag % 8 {
        0 => ErrorCode::EstimateFailed,
        1 => ErrorCode::Malformed,
        2 => ErrorCode::Overloaded,
        3 => ErrorCode::DeadlineExceeded,
        4 => ErrorCode::Internal,
        5 => ErrorCode::InsufficientJudgements,
        6 => ErrorCode::LpInfeasible,
        _ => ErrorCode::LpNumerical,
    }
}

fn snapshot(seed: u64, subcarriers: usize) -> WireSnapshot {
    let mix = |i: u64| {
        let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    };
    WireSnapshot {
        offsets_hz: (0..subcarriers).map(|i| bits(mix(i as u64))).collect(),
        h: (0..subcarriers)
            .map(|i| Complex::new(bits(mix(1000 + i as u64)), bits(mix(2000 + i as u64))))
            .collect(),
    }
}

fn report(seed: u64, bursts: usize, subcarriers: usize) -> WireReport {
    WireReport {
        ap: seed,
        visit: seed >> 7,
        x: bits(seed.rotate_left(13)),
        y: bits(seed.rotate_left(29)),
        burst: (0..bursts)
            .map(|b| snapshot(seed.wrapping_add(b as u64 * 77), subcarriers))
            .collect(),
    }
}

/// Encode → decode → re-encode must reproduce the bytes exactly and
/// consume the whole buffer.
fn assert_roundtrip(frame: &Frame) -> Result<(), TestCaseError> {
    let bytes = frame_to_vec(frame);
    let (decoded, consumed) = match decode_frame(&bytes) {
        Ok(v) => v,
        Err(e) => {
            return Err(TestCaseError::Fail(format!(
                "decode failed on a valid frame: {e}"
            )))
        }
    };
    prop_assert_eq!(consumed, bytes.len());
    prop_assert_eq!(frame_to_vec(&decoded), bytes);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn locate_request_roundtrip(
        request_id in 0u64..u64::MAX,
        deadline_us in 0u32..u32::MAX,
        venue_id in 0u64..u64::MAX,
        session_id in 0u64..u64::MAX,
        seeds in prop::collection::vec(0u64..u64::MAX, 0..4),
        bursts in 0usize..3,
        subcarriers in 0usize..6,
    ) {
        let frame = Frame::LocateRequest(LocateRequest {
            request_id,
            deadline_us,
            venue_id,
            session_id,
            reports: seeds.iter().map(|&s| report(s, bursts, subcarriers)).collect(),
        });
        assert_roundtrip(&frame)?;
    }

    #[test]
    fn locate_response_ok_roundtrip(fields in prop::collection::vec(0u64..u64::MAX, 9..10)) {
        let session = if fields[0] % 2 == 0 {
            None
        } else {
            Some(WireSession {
                smoothed_x: bits(fields[1].rotate_left(3)),
                smoothed_y: bits(fields[2].rotate_left(5)),
                velocity_x: bits(fields[3].rotate_left(7)),
                velocity_y: bits(fields[4].rotate_left(11)),
                error_bound: bits(fields[5].rotate_left(13)),
            })
        };
        let frame = Frame::LocateResponse(LocateResponse {
            request_id: fields[0],
            outcome: Ok(WireEstimate {
                x: bits(fields[1]),
                y: bits(fields[2]),
                relaxation_cost: bits(fields[3]),
                region_area: bits(fields[4]),
                n_constraints: fields[5],
                n_winning_pieces: fields[6],
                lp_iterations: fields[7],
                warm_start_hits: fields[8],
                phase1_pivots_saved: fields[0].rotate_left(17),
                quality: (fields[0] % 4) as u8,
                session,
            }),
        });
        assert_roundtrip(&frame)?;
    }

    #[test]
    fn locate_response_err_roundtrip(
        request_id in 0u64..u64::MAX,
        code in 0u8..4,
        message in prop::collection::vec(32u8..127, 0..64),
    ) {
        let frame = Frame::LocateResponse(LocateResponse {
            request_id,
            outcome: Err(ErrorReply {
                code: error_code(code),
                message: String::from_utf8(message).expect("printable ASCII"),
            }),
        });
        assert_roundtrip(&frame)?;
    }

    /// Every scalar is filled through the generated view, so a counter
    /// added to `ServerHealth` or `VenueHealth` is covered without touching
    /// this test; decoding must reproduce the health exactly.
    #[test]
    fn stats_response_roundtrip(
        fields in prop::collection::vec(0u64..u64::MAX, ServerHealth::LEN..ServerHealth::LEN + 1),
        venues in prop::collection::vec(
            (
                0u64..u64::MAX,
                prop::collection::vec(0u64..u64::MAX, VenueHealth::LEN..VenueHealth::LEN + 1),
                0u8..2,
            ),
            0..5,
        ),
    ) {
        let mut health = ServerHealth::default();
        for (slot, v) in health.values_mut().into_iter().zip(&fields) {
            *slot = *v;
        }
        for (venue_id, counters, resident) in &venues {
            let mut v = VenueHealth {
                venue_id: *venue_id,
                resident: *resident == 1,
                ..VenueHealth::default()
            };
            for (slot, n) in v.values_mut().into_iter().zip(counters) {
                *slot = *n;
            }
            health.venues.push(v);
        }
        let frame = Frame::StatsResponse(health);
        assert_roundtrip(&frame)?;
        prop_assert_eq!(decode_frame(&frame_to_vec(&frame)).unwrap().0, frame);
    }

    /// Any strict prefix of a valid frame decodes to `Incomplete` with an
    /// honest `needed` hint — never a panic, never a bogus success.
    #[test]
    fn truncation_reports_incomplete(
        seed in 0u64..u64::MAX,
        cut_num in 0usize..1000,
    ) {
        let frame = Frame::LocateRequest(LocateRequest {
            request_id: seed,
            deadline_us: (seed >> 32) as u32,
            venue_id: seed.rotate_left(23),
            session_id: seed.rotate_left(7),
            reports: vec![report(seed, 2, 4)],
        });
        let bytes = frame_to_vec(&frame);
        let cut = cut_num * (bytes.len() - 1) / 1000;
        match decode_frame(&bytes[..cut]) {
            Err(WireError::Incomplete { needed }) => {
                prop_assert!(
                    needed <= bytes.len(),
                    "needed {} exceeds true frame length {}", needed, bytes.len()
                );
            }
            other => {
                return Err(TestCaseError::Fail(format!(
                    "truncated frame (cut at {cut}/{}) decoded to {other:?}",
                    bytes.len()
                )));
            }
        }
    }

    /// Any single-byte corruption of a frame is rejected: the header
    /// checks catch corrupted framing fields and the CRC catches payload
    /// damage. (CRC32 detects all single-byte errors.)
    #[test]
    fn single_byte_corruption_is_rejected(
        seed in 0u64..u64::MAX,
        pos_num in 0usize..1000,
        flip in (1u32..256).prop_map(|v| v as u8),
    ) {
        let frame = Frame::LocateRequest(LocateRequest {
            request_id: seed,
            deadline_us: 0,
            venue_id: seed.rotate_left(41),
            session_id: seed.rotate_left(13),
            reports: vec![report(seed, 1, 3)],
        });
        let mut bytes = frame_to_vec(&frame);
        let pos = pos_num * (bytes.len() - 1) / 999;
        bytes[pos] ^= flip;
        prop_assert!(
            decode_frame(&bytes).is_err(),
            "corruption at byte {} (xor {:#04x}) went undetected", pos, flip
        );
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(
        junk in prop::collection::vec((0u32..256).prop_map(|v| v as u8), 0..256),
    ) {
        let _ = decode_frame(&junk);
    }

    /// Garbage that happens to start with a valid-looking header still
    /// cannot claim an oversized payload or pass the CRC.
    #[test]
    fn hostile_header_is_bounded(
        len_bits in 0u32..u32::MAX,
        junk in prop::collection::vec((0u32..256).prop_map(|v| v as u8), 0..64),
    ) {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"NMLC");
        buf.push(nomloc_net::wire::VERSION); // current version, so the
        // hostile length field (not a version mismatch) is what's tested
        buf.push(1); // LocateRequest
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&len_bits.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // bogus CRC
        buf.extend_from_slice(&junk);
        match decode_frame(&buf) {
            Ok((frame, _)) => {
                return Err(TestCaseError::Fail(format!(
                    "hostile header decoded to {frame:?}"
                )));
            }
            Err(WireError::Incomplete { needed }) => {
                // An Incomplete claim may only ask for a bounded frame.
                prop_assert!(
                    needed <= nomloc_net::wire::HEADER_LEN + nomloc_net::wire::MAX_PAYLOAD as usize,
                    "decoder asked for {} bytes", needed
                );
            }
            Err(_) => {}
        }
    }
}

/// The `ErrorCode` wire tags are part of the protocol: pin them so a
/// refactor cannot silently renumber deployed peers apart.
#[test]
fn error_code_tags_are_stable() {
    assert_eq!(ErrorCode::EstimateFailed as u8, 1);
    assert_eq!(ErrorCode::Malformed as u8, 2);
    assert_eq!(ErrorCode::Overloaded as u8, 3);
    assert_eq!(ErrorCode::DeadlineExceeded as u8, 4);
    assert_eq!(ErrorCode::Internal as u8, 5);
    assert_eq!(ErrorCode::InsufficientJudgements as u8, 6);
    assert_eq!(ErrorCode::LpInfeasible as u8, 7);
    assert_eq!(ErrorCode::LpNumerical as u8, 8);
}

/// A StatsRequest is a bare header; its round trip is a plain unit check.
#[test]
fn stats_request_roundtrip() {
    let bytes = frame_to_vec(&Frame::StatsRequest);
    assert_eq!(bytes.len(), nomloc_net::wire::HEADER_LEN);
    let (frame, consumed) = decode_frame(&bytes).expect("decodes");
    assert_eq!(frame, Frame::StatsRequest);
    assert_eq!(consumed, bytes.len());
}

/// Two frames back-to-back in one buffer decode in sequence — the
/// consumed count is the streaming contract the daemon's reader uses.
#[test]
fn streaming_consumes_frame_by_frame() {
    let a = frame_to_vec(&Frame::StatsRequest);
    let b = frame_to_vec(&Frame::LocateRequest(LocateRequest {
        request_id: 7,
        deadline_us: 0,
        venue_id: 3,
        session_id: 0,
        reports: vec![report(42, 1, 2)],
    }));
    let mut buf = a.clone();
    buf.extend_from_slice(&b);
    let (first, consumed_a) = decode_frame(&buf).expect("first frame");
    assert_eq!(first, Frame::StatsRequest);
    assert_eq!(consumed_a, a.len());
    let (_, consumed_b) = decode_frame(&buf[consumed_a..]).expect("second frame");
    assert_eq!(consumed_b, b.len());
}
