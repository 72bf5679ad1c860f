//! Frame-codec correctness: property-based round-trips plus adversarial
//! decodes (truncation, hostile lengths, unknown types, one-byte reads),
//! all through `read_frame`, the reader the server and the client share.

use gts_net::frame::{decode_body, read_frame, DecodeError};
use gts_net::{ErrorCode, Frame, WireError, MAX_FRAME, PROTOCOL_VERSION};
use gts_service::{Mutation, Query, QueryKind, QueryResult, TraceContext};
use proptest::prelude::*;
use std::io::{ErrorKind, Read};

fn roundtrip(frame: &Frame) -> Frame {
    let bytes = frame.encode();
    let (got, used) = read_frame(&mut &bytes[..])
        .expect("decodes")
        .expect("complete");
    assert_eq!(used, bytes.len(), "no leftover bytes");
    got
}

/// The decode error `read_frame` reports for a stream holding `bytes`.
fn read_err(bytes: &[u8]) -> DecodeError {
    let err = read_frame(&mut &bytes[..]).expect_err("the stream is refused");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    let inner = err.get_ref().and_then(|e| e.downcast_ref::<DecodeError>());
    inner.expect("a decode error").clone()
}

/// A reader that hands out one byte per `read`: the finest fragmentation
/// a socket can produce.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match (self.0.split_first(), buf.first_mut()) {
            (Some((&b, rest)), Some(slot)) => {
                *slot = b;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

fn sample_query(kind_tag: u8, param: u32, index: u32, pos: Vec<f32>) -> Query {
    let kind = match kind_tag % 3 {
        0 => QueryKind::Nn,
        1 => QueryKind::Knn {
            k: (param % 64 + 1) as usize,
        },
        _ => QueryKind::Pc {
            radius: (param % 1000) as f32 / 500.0,
        },
    };
    Query {
        index: index as usize,
        pos,
        kind,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batch_submit_roundtrips(
        base_req in 0u64..1_000_000,
        n in 0usize..40,
        kind_tag in 0u8..3,
        param in 0u32..10_000,
        trace_id in 1u64..u64::MAX,
        span_id in 1u64..1_000_000,
        with_ctx in 0u8..2,
    ) {
        let queries: Vec<Query> = (0..n)
            .map(|i| sample_query(
                kind_tag.wrapping_add(i as u8),
                param + i as u32,
                i as u32 % 4,
                vec![i as f32 * 0.5, -(i as f32), 3.25],
            ))
            .collect();
        let ctx = (with_ctx == 1).then_some(TraceContext { trace_id, span_id });
        let frame = Frame::BatchSubmit { base_req, queries, ctx };
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn batch_result_roundtrips(n in 0usize..30, fail_every in 1usize..5) {
        let results: Vec<Result<QueryResult, WireError>> = (0..n)
            .map(|i| {
                if i % fail_every == 0 {
                    Err(WireError {
                        code: ErrorCode::Overloaded,
                        message: format!("overloaded #{i}"),
                        predicted_us: 1500 + i as u64,
                        budget_us: 1000,
                    })
                } else {
                    Ok(match i % 3 {
                        0 => QueryResult::Nn { dist2: i as f32 * 0.25, id: i as u32 },
                        1 => QueryResult::Knn {
                            dist2: vec![0.5, 1.0, 2.0],
                            ids: vec![9, 8, 7],
                        },
                        _ => QueryResult::Pc { count: i as u32 * 3 },
                    })
                }
            })
            .collect();
        let frame = Frame::BatchResult { base_req: n as u64 * 17, results };
        prop_assert_eq!(roundtrip(&frame), frame);
    }
}

#[test]
fn scalar_frames_roundtrip() {
    for frame in [
        Frame::Hello {
            version: PROTOCOL_VERSION,
            wall_us: 1_754_600_000_000_000,
        },
        Frame::Shutdown,
        Frame::Error {
            req: u64::MAX,
            error: WireError::protocol("nope"),
        },
        Frame::SlowLogQuery { req: 11 },
        Frame::SlowLog {
            req: 11,
            json: r#"{"capacity":256,"entries":[]}"#.into(),
        },
    ] {
        assert_eq!(roundtrip(&frame), frame);
    }
}

#[test]
fn a_k_past_the_wire_slot_saturates_instead_of_wrapping() {
    let submit = |k: usize| Frame::BatchSubmit {
        base_req: 1,
        queries: vec![Query {
            index: 0,
            pos: vec![0.5; 3],
            kind: QueryKind::Knn { k },
        }],
        ctx: None,
    };
    let max = u32::MAX as usize;
    for k in [(1 << 32) + 1, usize::MAX] {
        assert_eq!(roundtrip(&submit(k)), submit(max), "k = {k}");
    }
    assert_eq!(roundtrip(&submit(max)), submit(max));
}

#[test]
fn one_byte_reads_reassemble_every_frame() {
    let frames = [
        Frame::Hello {
            version: PROTOCOL_VERSION,
            wall_us: 1_700_000_000_000_000,
        },
        Frame::BatchSubmit {
            base_req: 42,
            queries: vec![sample_query(1, 5, 0, vec![1.0, 2.0, 3.0])],
            ctx: Some(TraceContext {
                trace_id: 0xDEAD_BEEF,
                span_id: 3,
            }),
        },
        Frame::Shutdown,
    ];
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for f in &frames {
        bytes.extend_from_slice(&f.encode());
        ends.push(bytes.len());
    }
    let mut r = OneByte(&bytes);
    let (mut got, mut consumed) = (Vec::new(), 0);
    while let Some((frame, used)) = read_frame(&mut r).unwrap() {
        got.push(frame);
        consumed += used;
    }
    assert_eq!(consumed, bytes.len());
    assert_eq!(got, frames.to_vec());

    // A stream cut anywhere inside a frame, its length prefix included,
    // yields the whole frames before the cut and then `UnexpectedEof`.
    for cut in (1..bytes.len()).filter(|c| !ends.contains(c)) {
        let mut r = OneByte(&bytes[..cut]);
        let mut whole = 0;
        let err = loop {
            match read_frame(&mut r) {
                Ok(Some(_)) => whole += 1,
                Ok(None) => panic!("a stream cut at byte {cut} ended cleanly"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "cut at byte {cut}");
        assert_eq!(
            whole,
            ends.iter().filter(|&&e| e < cut).count(),
            "cut at byte {cut}"
        );
    }
}

#[test]
fn oversized_declared_length_is_rejected_from_the_header_alone() {
    // 8 bytes claiming a 100 MiB frame: the reader must reject on the
    // header, without ever reading (or allocating for) the body.
    let declared = 100 * 1024 * 1024u32;
    let mut bytes = declared.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[2, 0, 0, 0]);
    assert_eq!(read_err(&bytes), DecodeError::Oversized { declared });
    let mut r = std::io::Cursor::new(bytes);
    assert!(read_frame(&mut r).is_err());
    assert_eq!(r.position(), 4, "body was never read");

    // Boundary: MAX_FRAME itself is allowed (only > rejects), so a
    // maximal declared length fails on missing bytes, not on size.
    let err = read_frame(&mut &MAX_FRAME.to_le_bytes()[..]).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
}

#[test]
fn unknown_frame_type_is_an_error() {
    // 2 and 4 are retired tags.
    for tag in [2, 4, 99] {
        let mut bytes = 1u32.to_le_bytes().to_vec();
        bytes.push(tag);
        assert_eq!(read_err(&bytes), DecodeError::UnknownType(tag));
    }
}

#[test]
fn zero_length_frame_is_an_error() {
    assert_eq!(read_err(&0u32.to_le_bytes()), DecodeError::Empty);
}

#[test]
fn hello_with_wrong_magic_is_rejected() {
    let mut body = vec![1u8]; // T_HELLO
    body.extend_from_slice(&0xdeadbeefu32.to_le_bytes());
    body.push(PROTOCOL_VERSION);
    assert_eq!(decode_body(&body), Err(DecodeError::BadMagic(0xdeadbeef)));
}

#[test]
fn hostile_element_counts_inside_the_payload_are_rejected() {
    // A BatchSubmit declaring u32::MAX queries in a tiny frame.
    let mut body = vec![3u8]; // T_BATCH_SUBMIT
    body.extend_from_slice(&0u64.to_le_bytes());
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_body(&body),
        Err(DecodeError::BadPayload(_))
    ));

    // A BatchResult slot holding a Knn result with a huge neighbor count.
    let mut body = vec![5u8]; // T_BATCH_RESULT
    body.extend_from_slice(&1u64.to_le_bytes());
    body.extend_from_slice(&1u32.to_le_bytes());
    body.push(0); // Ok slot
    body.push(1); // Knn tag
    body.extend_from_slice(&(MAX_FRAME / 2 + 1).to_le_bytes());
    assert!(matches!(
        decode_body(&body),
        Err(DecodeError::BadPayload(_))
    ));
}

#[test]
fn trailing_bytes_after_a_valid_payload_are_rejected() {
    let mut bytes = Frame::Shutdown.encode();
    // Extend the Shutdown payload with one stray byte (and patch length).
    bytes.push(0xaa);
    let len = (bytes.len() - 4) as u32;
    bytes[..4].copy_from_slice(&len.to_le_bytes());
    assert_eq!(read_err(&bytes), DecodeError::BadPayload("trailing bytes"));
}

#[test]
fn error_frames_carry_the_admission_model() {
    let frame = Frame::Error {
        req: 5,
        error: WireError {
            code: ErrorCode::Overloaded,
            message: "predicted wait 2ms exceeds budget 1ms".into(),
            predicted_us: 2000,
            budget_us: 1000,
        },
    };
    let Frame::Error { error, .. } = roundtrip(&frame) else {
        panic!()
    };
    assert_eq!(
        error.predicted_wait(),
        Some(std::time::Duration::from_micros(2000))
    );
    assert_eq!(error.budget_us, 1000);
}

#[test]
fn non_utf8_error_message_is_rejected() {
    let mut body = vec![6u8]; // T_ERROR
    body.extend_from_slice(&1u64.to_le_bytes());
    body.push(ErrorCode::Internal as u8);
    body.extend_from_slice(&0u64.to_le_bytes());
    body.extend_from_slice(&0u64.to_le_bytes());
    body.extend_from_slice(&2u32.to_le_bytes());
    body.extend_from_slice(&[0xff, 0xfe]);
    assert_eq!(
        decode_body(&body),
        Err(DecodeError::BadPayload("error message is not utf-8"))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutate_roundtrips(
        req in 0u64..u64::MAX,
        index in 0u32..16,
        n in 0usize..40,
        seed in 0u32..1_000_000,
    ) {
        let muts: Vec<Mutation> = (0..n)
            .map(|i| {
                if (seed as usize + i).is_multiple_of(3) {
                    Mutation::Delete { id: seed.wrapping_add(i as u32) }
                } else {
                    let dim = 1 + (seed as usize + i) % 7;
                    Mutation::Insert {
                        pos: (0..dim)
                            .map(|j| ((seed as f32).cos() * 10.0 + (i + j) as f32) / 3.0)
                            .collect(),
                    }
                }
            })
            .collect();
        let frame = Frame::Mutate { req, index, muts };
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn mutate_ack_roundtrips(
        req in 0u64..u64::MAX,
        accepted in 0u64..1_000_000,
        rejected in 0u64..1_000,
        epoch in 0u64..1_000_000,
        pending in 0u64..100_000,
        n in 0usize..50,
    ) {
        let assigned: Vec<u32> = (0..n).map(|i| i as u32 * 13 + 7).collect();
        let frame = Frame::MutateAck { req, accepted, rejected, epoch, pending, assigned };
        prop_assert_eq!(roundtrip(&frame), frame);
    }
}

#[test]
fn unknown_mutation_tag_is_rejected() {
    let mut body = vec![8u8]; // T_MUTATE
    body.extend_from_slice(&1u64.to_le_bytes()); // req
    body.extend_from_slice(&0u32.to_le_bytes()); // index
    body.extend_from_slice(&1u32.to_le_bytes()); // count
    body.push(9); // neither insert (0) nor delete (1)
    assert_eq!(
        decode_body(&body),
        Err(DecodeError::BadPayload("unknown mutation tag"))
    );
}

#[test]
fn hostile_mutate_count_is_rejected_before_allocating() {
    let mut body = vec![8u8]; // T_MUTATE
    body.extend_from_slice(&1u64.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes());
    body.extend_from_slice(&(MAX_FRAME / 2 + 1).to_le_bytes());
    assert!(matches!(
        decode_body(&body),
        Err(DecodeError::BadPayload(_))
    ));
}

#[test]
fn batch_submit_context_trailer_is_sixteen_bytes_or_none() {
    // The trace context is a pure suffix: a frame without it decodes with
    // `ctx: None`, and with it is exactly trace id + span id longer.
    let frame = |ctx| Frame::BatchSubmit {
        base_req: 21,
        queries: vec![sample_query(2, 300, 2, vec![0.5, 0.25])],
        ctx,
    };
    let bare = frame(None);
    let tagged = frame(Some(TraceContext {
        trace_id: 77,
        span_id: 5,
    }));
    assert_eq!(tagged.encode().len(), bare.encode().len() + 16);
    assert_eq!(roundtrip(&bare), bare);
    assert_eq!(roundtrip(&tagged), tagged);
}

#[test]
fn half_written_context_trailer_is_rejected() {
    // 8 trailing bytes is neither "no context" (0) nor a context (16):
    // the trace id parses but the span id is truncated.
    let mut bytes = Frame::BatchSubmit {
        base_req: 4,
        queries: vec![sample_query(0, 0, 0, vec![1.0])],
        ctx: None,
    }
    .encode();
    bytes.extend_from_slice(&9u64.to_le_bytes());
    let len = (bytes.len() - 4) as u32;
    bytes[..4].copy_from_slice(&len.to_le_bytes());
    assert_eq!(read_err(&bytes), DecodeError::BadPayload("truncated field"));
}

#[test]
fn non_utf8_slow_log_json_is_rejected() {
    let mut body = vec![11u8]; // T_SLOW_LOG
    body.extend_from_slice(&1u64.to_le_bytes());
    body.extend_from_slice(&2u32.to_le_bytes());
    body.extend_from_slice(&[0xff, 0xfe]);
    assert_eq!(
        decode_body(&body),
        Err(DecodeError::BadPayload("slow-log json is not utf-8"))
    );
}

#[test]
fn truncated_mutate_ack_is_rejected() {
    let frame = Frame::MutateAck {
        req: 3,
        accepted: 2,
        rejected: 0,
        epoch: 1,
        pending: 0,
        assigned: vec![10, 11],
    };
    let bytes = frame.encode();
    // Drop the last assigned id (and patch the length): the declared
    // count no longer matches the payload.
    let mut cut = bytes[..bytes.len() - 4].to_vec();
    let len = (cut.len() - 4) as u32;
    cut[..4].copy_from_slice(&len.to_le_bytes());
    assert_eq!(read_err(&cut), DecodeError::BadPayload("truncated field"));
}
