//! Property tests for the service's wire layer.
//!
//! Two contracts, fuzzed at ≥256 cases each (the proptest default):
//!
//! 1. **Telemetry round-trips.** Arbitrary `FailureRecord` lists (and
//!    `BatchStats` rollups) survive `failures_to_json` →
//!    `failures_from_json` losslessly — the results endpoint embeds
//!    that JSON verbatim, so the wire form must be an exact codec, not
//!    a best-effort printer.
//!
//! 2. **The hand-rolled HTTP parser never panics.** Arbitrary bytes,
//!    truncated-valid requests, oversized heads and bodies: the
//!    server answers a well-formed 4xx (or closes silently on an empty
//!    connection) and `handle_connection` never unwinds — asserted
//!    with an explicit `catch_unwind` boundary around every case.

use metaform_extractor::telemetry::{
    failures_from_json, failures_to_json, stats_from_json, stats_to_json, AttemptRecord,
    CacheOutcome, ErrorKind, FailureOutcome, FailureRecord,
};
use metaform_extractor::BatchStats;
use metaform_service::{handle_connection, ServiceConfig, ServiceState};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{Cursor, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

// ------------------------------------------------- telemetry strategies

fn error_kind() -> impl Strategy<Value = ErrorKind> {
    prop_oneof![
        Just(ErrorKind::Panicked),
        Just(ErrorKind::Truncated),
        Just(ErrorKind::Timeout),
        Just(ErrorKind::EmptyForm),
        Just(ErrorKind::Cancelled),
    ]
}

fn outcome() -> impl Strategy<Value = FailureOutcome> {
    prop_oneof![
        Just(FailureOutcome::Recovered),
        Just(FailureOutcome::Salvaged),
        Just(FailureOutcome::Degraded),
        Just(FailureOutcome::Cancelled),
    ]
}

fn opt_usize() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), (0usize..10_000).prop_map(Some)]
}

fn opt_u64() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0u64..600_000).prop_map(Some),]
}

fn cache_outcome() -> impl Strategy<Value = Option<CacheOutcome>> {
    prop_oneof![
        Just(None),
        Just(Some(CacheOutcome::Hit)),
        Just(Some(CacheOutcome::Miss)),
    ]
}

fn attempt() -> impl Strategy<Value = AttemptRecord> {
    (
        0usize..8,
        0usize..1_000_000,
        opt_u64(),
        prop_oneof![Just(None), error_kind().prop_map(Some)],
        cache_outcome(),
        0usize..10_000,
        0usize..1_000_000,
        0u64..10_000_000,
    )
        .prop_map(
            |(attempt, max_instances, deadline_ms, error, cache, tokens, created, elapsed_us)| {
                AttemptRecord {
                    attempt,
                    max_instances,
                    deadline_ms,
                    error,
                    cache,
                    tokens,
                    created,
                    elapsed_us,
                }
            },
        )
}

fn failure_record() -> impl Strategy<Value = FailureRecord> {
    (
        0usize..10_000,
        error_kind(),
        // \PC = any printable char: exercises quotes, backslashes,
        // and non-ASCII through the JSON escaper.
        prop_oneof![Just(None), "\\PC{0,40}".prop_map(Some)],
        1usize..6,
        outcome(),
        0usize..1_000_000,
        opt_u64(),
        (opt_usize(), opt_usize()),
        (vec("\\PC{0,12}", 0..3), vec("\\PC{0,12}", 0..3)),
        vec(attempt(), 0..4),
    )
        .prop_map(
            |(
                page_index,
                error,
                message,
                attempts,
                outcome,
                final_max_instances,
                final_deadline_ms,
                (salvage_covered, salvage_tokens),
                (partial_roots, arrangements),
                attempt_log,
            )| FailureRecord {
                page_index,
                error,
                message,
                attempts,
                outcome,
                final_max_instances,
                final_deadline_ms,
                salvage_covered,
                salvage_tokens,
                partial_roots,
                arrangements,
                attempt_log,
            },
        )
}

proptest! {
    #[test]
    fn failure_records_round_trip_through_json(records in vec(failure_record(), 0..5)) {
        let json = failures_to_json(&records);
        let back = failures_from_json(&json);
        prop_assert!(back.is_ok(), "rejected own output: {:?}\n{json}", back.err());
        prop_assert_eq!(back.as_deref().unwrap(), &records[..]);
        // Fixpoint: serializing the parse reproduces the bytes.
        prop_assert_eq!(failures_to_json(back.as_deref().unwrap()), json);
    }

    #[test]
    fn batch_stats_round_trip_through_json(fields in vec(0u64..5_000_000, 20)) {
        let stats = BatchStats {
            pages: fields[0] as usize,
            workers: fields[1] as usize,
            tokens: fields[2] as usize,
            created: fields[3] as usize,
            invalidated: fields[4] as usize,
            trees: fields[5] as usize,
            schedules_built: fields[6] as usize,
            panicked: fields[7] as usize,
            truncated: fields[8] as usize,
            timed_out: fields[9] as usize,
            empty: fields[10] as usize,
            cancelled: fields[11] as usize,
            degraded: fields[12] as usize,
            salvaged: fields[13] as usize,
            retried: fields[14] as usize,
            recovered: fields[15] as usize,
            cache_hits: fields[16] as usize,
            cache_delta: fields[17] as usize,
            cache_misses: fields[18] as usize,
            elapsed: Duration::from_micros(fields[19]),
        };
        let json = stats_to_json(&stats);
        let back = stats_from_json(&json);
        prop_assert!(back.is_ok(), "rejected own output: {:?}", back.err());
        prop_assert_eq!(back.as_ref().unwrap(), &stats);
        prop_assert_eq!(stats_to_json(back.as_ref().unwrap()), json);
    }
}

// ------------------------------------------------------- HTTP fuzzing

/// In-memory stream: `handle_connection` reads the request bytes,
/// writes its response here.
struct MockStream {
    input: Cursor<Vec<u8>>,
    output: Vec<u8>,
}

impl Read for MockStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for MockStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Serves `raw` against a small-bodied test state, asserting the
/// panic boundary holds. Returns the raw response bytes.
fn serve(raw: Vec<u8>) -> Vec<u8> {
    let state = ServiceState::new(ServiceConfig {
        max_body_bytes: 1024,
        ..ServiceConfig::default()
    });
    let mut stream = MockStream {
        input: Cursor::new(raw),
        output: Vec::new(),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        handle_connection(&state, &mut stream);
    }));
    assert!(outcome.is_ok(), "handle_connection must never panic");
    stream.output
}

/// A syntactically valid submission request, used as the base for
/// truncation fuzzing.
fn valid_submission() -> Vec<u8> {
    let body = r#"{"pages": ["<form>A <input type=text name=a></form>"]}"#;
    format!(
        "POST /v1/batches HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_the_server(raw in vec(0u8..255, 0..2048)) {
        let response = serve(raw);
        if !response.is_empty() {
            let text = String::from_utf8_lossy(&response);
            prop_assert!(text.starts_with("HTTP/1.1 "), "malformed response: {text}");
            prop_assert!(
                text.contains("\r\nConnection: close\r\n")
                    || text.contains("\r\nConnection: keep-alive\r\n"),
                "{text}"
            );
        }
    }

    /// Keep-alive sequencing: N well-formed requests on one connection
    /// answer exactly N responses, all but the last keep-alive (EOF
    /// after the last ends the conversation quietly).
    #[test]
    fn a_pipelined_connection_answers_every_request(count in 1usize..6) {
        let mut wire = Vec::new();
        for _ in 0..count {
            wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        }
        let response = serve(wire);
        let text = String::from_utf8_lossy(&response);
        prop_assert_eq!(
            text.matches("HTTP/1.1 200 OK\r\n").count(),
            count,
            "{}", text
        );
        prop_assert_eq!(
            text.matches("\r\nConnection: keep-alive\r\n").count(),
            count,
            "{}", text
        );
    }

    /// Content-Length smuggling shapes — signed values that
    /// `str::parse::<usize>` would tolerate, garnished values, and
    /// duplicate headers (conflicting or not) — all answer 400.
    #[test]
    fn content_length_smuggling_shapes_answer_400(header in prop_oneof![
        // A sign on the value: +5 parses under parse::<usize>.
        (0usize..100).prop_map(|n| format!("Content-Length: +{n}")),
        (0usize..100).prop_map(|n| format!("Content-Length: -{n}")),
        // Whitespace, lists, or trailing junk inside the value.
        (0usize..100).prop_map(|n| format!("Content-Length: {n} {n}")),
        (0usize..100).prop_map(|n| format!("Content-Length: {n},{n}")),
        (0usize..100).prop_map(|n| format!("Content-Length: 0x{n}")),
        Just("Content-Length:".to_string()),
        // Duplicate headers: equal or conflicting, reject both.
        (0usize..100, 0usize..100).prop_map(|(a, b)| {
            format!("Content-Length: {a}\r\nContent-Length: {b}")
        }),
        (0usize..100, 0usize..100).prop_map(|(a, b)| {
            format!("Content-Length: {a}\r\ncontent-length: {b}")
        }),
    ]) {
        let raw = format!("POST /v1/batches HTTP/1.1\r\n{header}\r\n\r\nhello");
        let response = serve(raw.into_bytes());
        let text = String::from_utf8_lossy(&response);
        prop_assert!(text.starts_with("HTTP/1.1 400 "), "expected 400: {text}");
        prop_assert!(text.contains("\r\nConnection: close\r\n"), "{text}");
    }

    #[test]
    fn malformed_requests_answer_4xx(raw in prop_oneof![
        // A valid request truncated mid-flight (head or body).
        (1usize..valid_submission().len()).prop_map(|cut| valid_submission()[..cut].to_vec()),
        // A body announced over the 1 KiB test cap.
        (1025usize..1_000_000).prop_map(|n| {
            format!("POST /v1/batches HTTP/1.1\r\nContent-Length: {n}\r\n\r\n").into_bytes()
        }),
        // A head padded past MAX_HEAD_BYTES.
        (16_385usize..40_000).prop_map(|n| {
            format!("GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(n)).into_bytes()
        }),
        // Line noise where the request line should be.
        "\\PC{1,64}".prop_map(|junk| format!("{junk}\r\n\r\n").into_bytes()),
    ]) {
        let response = serve(raw);
        // A truncated head with nothing before EOF reads as a closed
        // connection (no response); anything else must be a 4xx.
        if !response.is_empty() {
            let text = String::from_utf8_lossy(&response);
            prop_assert!(text.starts_with("HTTP/1.1 4"), "expected 4xx, got: {text}");
        }
    }
}
