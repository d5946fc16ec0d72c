//! Differential test: the HTTP service against the in-process engine.
//!
//! `metaformd` is transport plus scheduling, never semantics — so for
//! the same pages and the same configuration, the reports a client
//! fetches over loopback must be **byte-identical** to calling
//! `extract_batch_adaptive` in process, and the failure telemetry must
//! match record-for-record (modulo the wall-clock `elapsed_us` field,
//! masked via `FailureRecord::normalized`). Three scenarios:
//!
//! 1. the survey corpus with a poison (panicking) page in the middle;
//! 2. a deterministic mid-batch cancellation (a planned cancel page fires the
//!    job's cancel token between pages, single batch worker);
//! 3. `DELETE` on a still-queued job, equal to a run under a
//!    pre-fired token — driven in process through the router, so the
//!    job is queued by construction.

use metaform_datasets::survey_corpus;
use metaform_extractor::telemetry::failures_from_json;
use metaform_extractor::{
    stats_to_json, AdaptiveBatch, AdaptiveOptions, Fault, FaultPlan, FormExtractor, LruParseCache,
    Provenance,
};
use metaform_parser::CancelToken;
use metaform_service::{
    push_json_str, route, status_for, JsonValue, Request, Server, ServerHandle, ServiceConfig,
    ServiceState,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

// ------------------------------------------------------- HTTP client

/// One request over a fresh connection, opting out of keep-alive with
/// `Connection: close` so EOF ends the response. Returns
/// `(status, body)` with chunked framing decoded — large results
/// documents stream with `Transfer-Encoding: chunked`.
fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connects");
    let head = match body {
        Some(body) => format!(
            "{method} {path} HTTP/1.1\r\nHost: metaformd\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
        None => format!("{method} {path} HTTP/1.1\r\nHost: metaformd\r\nConnection: close\r\n\r\n"),
    };
    stream.write_all(head.as_bytes()).expect("writes");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reads");
    let (head, raw_body) = response.split_once("\r\n\r\n").expect("has a head");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("has a status");
    let body = if head.contains("Transfer-Encoding: chunked") {
        decode_chunked(raw_body)
    } else {
        raw_body.to_string()
    };
    (status, body)
}

/// Reassembles a `Transfer-Encoding: chunked` body.
fn decode_chunked(mut rest: &str) -> String {
    let mut out = String::new();
    loop {
        let (size, tail) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size, 16).expect("hex chunk size");
        if size == 0 {
            return out;
        }
        out.push_str(&tail[..size]);
        rest = &tail[size + 2..];
    }
}

/// Builds the `POST /v1/batches` body for `pages`.
fn submission_body(pages: &[String]) -> String {
    let mut body = String::from("{\"pages\": [");
    for (i, page) in pages.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        push_json_str(&mut body, page);
    }
    body.push_str("]}");
    body
}

/// Submits `pages`, returning the job id.
fn submit(addr: SocketAddr, pages: &[String]) -> u64 {
    let (status, body) = http(addr, "POST", "/v1/batches", Some(&submission_body(pages)));
    assert_eq!(status, 202, "{body}");
    JsonValue::parse(body.as_bytes())
        .expect("submission answer is JSON")
        .field("job")
        .and_then(JsonValue::as_num)
        .expect("has a job id")
}

/// Polls the job until it finishes; returns its final state string.
fn wait_finished(addr: SocketAddr, job: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = http(addr, "GET", &format!("/v1/batches/{job}"), None);
        assert_eq!(status, 200, "{body}");
        let state = JsonValue::parse(body.as_bytes())
            .expect("status is JSON")
            .field("state")
            .and_then(|v| v.as_str().map(str::to_string))
            .expect("has a state");
        if state == "done" || state == "cancelled" {
            return state;
        }
        assert!(Instant::now() < deadline, "job {job} stuck in {state}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

// -------------------------------------------------- differential core

/// Asserts the wire results document equals the in-process batch:
/// byte-identical reports, matching provenance and per-page status,
/// record-identical (normalized) failures, and an equal stats rollup
/// (elapsed masked).
fn assert_differential(results_body: &str, expected: &AdaptiveBatch) {
    let root = JsonValue::parse(results_body.as_bytes()).expect("results are JSON");

    // Per-page reports: byte-identical Display output, provenance, and
    // the typed error → status mapping.
    let reports = root
        .field("reports")
        .and_then(JsonValue::as_arr)
        .map(<[JsonValue]>::to_vec)
        .expect("has reports");
    assert_eq!(reports.len(), expected.extractions.len());
    for (index, (report, extraction)) in reports.iter().zip(&expected.extractions).enumerate() {
        assert_eq!(
            report.field("page_index").and_then(JsonValue::as_num),
            Ok(index as u64)
        );
        let want_via = match extraction.via {
            Provenance::Grammar => "grammar",
            Provenance::PartialSalvage => "salvage",
            Provenance::BaselineFallback => "baseline",
            Provenance::CacheHit => "cache_hit",
        };
        assert_eq!(
            report.field("via").and_then(|v| v.as_str()),
            Ok(want_via),
            "page {index}"
        );
        let want_status = expected
            .failures
            .iter()
            .find(|f| {
                f.page_index == index && f.outcome != metaform_extractor::FailureOutcome::Recovered
            })
            .map_or(200, |f| u64::from(status_for(f.error)));
        assert_eq!(
            report.field("http_status").and_then(JsonValue::as_num),
            Ok(want_status),
            "page {index}"
        );
        assert_eq!(
            report.field("report").and_then(|v| v.as_str()),
            Ok(extraction.report.to_string().as_str()),
            "page {index}: wire report must be byte-identical to in-process"
        );
    }

    // Failure records: the endpoint embeds `failures_to_json` output
    // verbatim as the last field, so slice it back out and parse it
    // with the telemetry codec itself.
    let failures_src = results_body
        .split_once("\"failures\": ")
        .map(|(_, rest)| &rest[..rest.len() - 1])
        .expect("failures is the last field");
    let failures = failures_from_json(failures_src).expect("failures parse");
    assert_eq!(failures.len(), expected.failures.len());
    for (got, want) in failures.iter().zip(&expected.failures) {
        assert_eq!(got.normalized(), want.normalized());
    }

    // Stats rollup: every counter equal; elapsed is wall-clock and
    // masked.
    let strip_elapsed = |v: &JsonValue| match v {
        JsonValue::Obj(fields) => fields
            .iter()
            .filter(|(name, _)| name != "elapsed_us")
            .cloned()
            .collect::<Vec<_>>(),
        _ => panic!("stats is not an object"),
    };
    let got_stats = root.field("stats").expect("has stats").clone();
    let want_stats =
        JsonValue::parse(stats_to_json(&expected.stats).as_bytes()).expect("stats serialize");
    assert_eq!(strip_elapsed(&got_stats), strip_elapsed(&want_stats));
}

fn fetch_results(addr: SocketAddr, job: u64) -> String {
    let (status, body) = http(addr, "GET", &format!("/v1/batches/{job}/results"), None);
    assert_eq!(status, 200, "{body}");
    body
}

fn spawn_server(config: ServiceConfig) -> ServerHandle {
    Server::bind(config)
        .expect("binds an ephemeral port")
        .spawn()
        .expect("spawns")
}

// ------------------------------------------------------------ scenarios

#[test]
fn wire_results_are_byte_identical_to_in_process_extraction() {
    // The survey corpus with a poison page in the middle: the page
    // panics the pipeline, degrades to baseline, and answers 500 —
    // while every other page is untouched.
    let mut pages: Vec<String> = survey_corpus().into_iter().map(|(_, html)| html).collect();
    pages.insert(
        5,
        "<form>POISON <input type=text name=p><input type=submit value=Go></form>".to_string(),
    );

    let handle = spawn_server(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        pool_workers: 1,
        batch_workers: Some(2),
        fault_plan: Some(FaultPlan::new().with(5, Fault::Panic)),
        ..ServiceConfig::default()
    });
    let addr = handle.addr;

    // Liveness and observability sanity while we're here.
    assert_eq!(
        http(addr, "GET", "/healthz", None),
        (200, "ok\n".to_string())
    );
    let (status, metrics) = http(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(
        metrics.contains("metaformd_jobs_submitted_total 0"),
        "{metrics}"
    );
    assert_eq!(http(addr, "GET", "/nope", None).0, 404);
    assert_eq!(http(addr, "PUT", "/healthz", None).0, 405);
    assert_eq!(http(addr, "POST", "/v1/batches", Some("not json")).0, 400);

    let job = submit(addr, &pages);
    assert_eq!(wait_finished(addr, job), "done");
    let body = fetch_results(addr, job);

    // The same engine configuration, in process.
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
    let expected = FormExtractor::new()
        .worker_threads(2)
        .parse_cache(LruParseCache::shared())
        .fault_plan(FaultPlan::new().with(5, Fault::Panic))
        .extract_batch_adaptive(&refs, &AdaptiveOptions::default());
    assert_eq!(expected.stats.panicked, 1, "the poison page panicked");
    assert_differential(&body, &expected);
    assert!(
        body.contains("\"http_status\": 500"),
        "poison page maps to 500"
    );

    let (_, metrics) = http(addr, "GET", "/metrics", None);
    assert!(
        metrics.contains("metaformd_jobs_completed_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("metaformd_pages_degraded_total 1"),
        "{metrics}"
    );
    handle.shutdown();
}

#[test]
fn mid_batch_cancellation_matches_in_process_run() {
    // Deterministic mid-batch cancel: one batch worker processes pages
    // in order; the planned cancel page fires the job's token before its own
    // parse, so page 0 completes, pages 1..N come back cancelled —
    // on the wire and in process alike.
    let pages = vec![
        "<form>Author <input type=text name=a><input type=submit value=Go></form>".to_string(),
        "<form>CANCEL_NOW <input type=text name=c><input type=submit value=Go></form>".to_string(),
        "<form>Title <input type=text name=t><input type=submit value=Go></form>".to_string(),
    ];

    let handle = spawn_server(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        pool_workers: 1,
        batch_workers: Some(1),
        fault_plan: Some(FaultPlan::new().with(1, Fault::Cancel)),
        ..ServiceConfig::default()
    });
    let job = submit(handle.addr, &pages);
    assert_eq!(wait_finished(handle.addr, job), "cancelled");
    let body = fetch_results(handle.addr, job);

    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
    let expected = FormExtractor::new()
        .worker_threads(1)
        .parse_cache(LruParseCache::shared())
        .cancel_token(CancelToken::new())
        .fault_plan(FaultPlan::new().with(1, Fault::Cancel))
        .extract_batch_adaptive(&refs, &AdaptiveOptions::default());
    assert_eq!(expected.stats.cancelled, 2, "pages 1..3 were cancelled");
    assert_eq!(expected.extractions[0].via, Provenance::Grammar);
    assert_differential(&body, &expected);
    assert!(
        body.contains("\"http_status\": 499"),
        "cancelled pages map to 499"
    );
    handle.shutdown();
}

#[test]
fn deleting_a_queued_job_equals_a_pre_cancelled_run() {
    // Driven in process — the shared state and its router, with no
    // pool worker started — so the job is still queued when the DELETE
    // arrives, by construction. Running it the way a pool worker would
    // then runs it under the fired token, which must equal an
    // in-process run under a pre-fired token.
    let corpus: Vec<String> = survey_corpus().into_iter().map(|(_, html)| html).collect();
    let victim: Vec<String> = corpus[..5].to_vec();

    let state = ServiceState::new(ServiceConfig {
        batch_workers: Some(1),
        ..ServiceConfig::default()
    });
    let send = |method: &str, target: &str, body: String| {
        let response = route(
            &state,
            &Request {
                method: method.to_string(),
                target: target.to_string(),
                headers: Vec::new(),
                body: body.into_bytes(),
                keep_alive: false,
            },
        );
        let body = String::from_utf8(response.body).expect("UTF-8 body");
        (response.status, body)
    };

    let (status, body) = send("POST", "/v1/batches", submission_body(&victim));
    assert_eq!(status, 202, "{body}");
    let job = JsonValue::parse(body.as_bytes())
        .expect("submission answer is JSON")
        .field("job")
        .and_then(JsonValue::as_num)
        .expect("has a job id");
    let (status, body) = send("DELETE", &format!("/v1/batches/{job}"), String::new());
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"state\": \"queued\""), "{body}");

    assert_eq!(state.queue.pop(0), Some(job), "the job is still queued");
    state.run_job(job);
    let (_, body) = send("GET", &format!("/v1/batches/{job}"), String::new());
    assert!(body.contains("\"state\": \"cancelled\""), "{body}");
    let (status, body) = send("GET", &format!("/v1/batches/{job}/results"), String::new());
    assert_eq!(status, 200, "{body}");

    let refs: Vec<&str> = victim.iter().map(String::as_str).collect();
    let token = CancelToken::new();
    token.cancel();
    let expected = FormExtractor::new()
        .worker_threads(1)
        .cancel_token(token)
        .extract_batch_adaptive(&refs, &AdaptiveOptions::default());
    assert_eq!(
        expected.stats.cancelled,
        victim.len(),
        "every page cancelled"
    );
    assert_differential(&body, &expected);
}
