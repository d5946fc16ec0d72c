//! Deterministic fault injection end to end: the option-gated
//! [`FaultPlan`] steering `extract_batch_adaptive`, the same plan
//! running inside `metaformd` (with `/metrics` counters matching the
//! summed per-job `BatchStats` exactly), and the automatic budget
//! refit loop converging under a starved control plane.

use metaform_datasets::basic;
use metaform_extractor::{AdaptiveOptions, ErrorKind, Fault, FaultPlan, FormExtractor, Provenance};
use metaform_parser::CancelToken;
use metaform_service::{push_json_str, JsonValue, Server, ServerHandle, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

// ------------------------------------------------------- HTTP client

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

fn submit(addr: SocketAddr, pages: &[String]) -> u64 {
    let mut body = String::from("{\"pages\": [");
    for (i, page) in pages.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        push_json_str(&mut body, page);
    }
    body.push_str("]}");
    let (status, body) = http(addr, "POST", "/v1/batches", Some(&body));
    assert_eq!(status, 202, "{body}");
    JsonValue::parse(body.as_bytes())
        .expect("submission answer is JSON")
        .field("job")
        .and_then(JsonValue::as_num)
        .expect("has a job id")
}

fn wait_done(addr: SocketAddr, job: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = http(addr, "GET", &format!("/v1/batches/{job}"), None);
        assert_eq!(status, 200, "{body}");
        let state = JsonValue::parse(body.as_bytes())
            .expect("status is JSON")
            .field("state")
            .and_then(|v| v.as_str().map(str::to_string))
            .expect("has a state");
        if state == "done" {
            return;
        }
        assert!(Instant::now() < deadline, "job {job} stuck in {state}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Pulls the named stats counter out of a job's results document.
fn job_stat(addr: SocketAddr, job: u64, name: &str) -> u64 {
    let (status, body) = http(addr, "GET", &format!("/v1/batches/{job}/results"), None);
    assert_eq!(status, 200, "{body}");
    JsonValue::parse(body.as_bytes())
        .expect("results are JSON")
        .field("stats")
        .and_then(|s| s.field(name))
        .and_then(JsonValue::as_num)
        .unwrap_or_else(|_| panic!("results of job {job} carry stats.{name}"))
}

/// Pulls one metric value out of the `/metrics` exposition text.
fn metric(addr: SocketAddr, name: &str) -> u64 {
    let (status, text) = http(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    text.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from: {text}"))
}

fn spawn_server(config: ServiceConfig) -> ServerHandle {
    Server::bind(config)
        .expect("binds an ephemeral port")
        .spawn()
        .expect("spawns")
}

// ------------------------------------------------------- plan algebra

#[test]
fn plan_specs_parse_seed_and_replace() {
    let plan = FaultPlan::parse("panic@3,stall@5,cancel@7").expect("valid spec");
    assert_eq!(plan.fault_for(3), Some(Fault::Panic));
    assert_eq!(plan.fault_for(5), Some(Fault::Stall));
    assert_eq!(plan.fault_for(7), Some(Fault::Cancel));
    assert_eq!(plan.fault_for(4), None);
    assert!(!plan.is_empty());

    assert!(FaultPlan::parse("explode@3").is_err(), "unknown kind");
    assert!(FaultPlan::parse("panic@x").is_err(), "bad index");
    assert!(FaultPlan::parse("panic3").is_err(), "missing separator");
    assert!(FaultPlan::parse("").expect("empty spec is fine").is_empty());

    // Builder: a later entry for the same page replaces the earlier.
    let plan = FaultPlan::new().with(2, Fault::Panic).with(2, Fault::Stall);
    assert_eq!(plan.fault_for(2), Some(Fault::Stall));

    // Seeded chaos is a pure function of the seed.
    let a = FaultPlan::seeded(42, 100, 30);
    let b = FaultPlan::seeded(42, 100, 30);
    assert_eq!(a, b);
    assert!(!a.is_empty(), "30% over 100 pages fires somewhere");
    assert_ne!(a, FaultPlan::seeded(43, 100, 30), "seed matters");
    assert!(FaultPlan::seeded(42, 100, 0).is_empty());
}

// ---------------------------------------------------- batch behavior

#[test]
fn planned_faults_steer_the_batch_deterministically() {
    let ds = basic();
    let pages: Vec<String> = ds.sources.iter().take(12).map(|s| s.html.clone()).collect();
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
    let plan = FaultPlan::parse("panic@3,stall@5,cancel@8").expect("valid spec");

    let run = || {
        FormExtractor::new()
            .worker_threads(1)
            .cancel_token(CancelToken::new())
            .fault_plan(plan.clone())
            .extract_batch_adaptive(
                &refs,
                &AdaptiveOptions {
                    max_retries: 0,
                    budget_growth: 2,
                },
            )
    };
    let batch = run();

    // The plan lands exactly where it was aimed: page 3 panics, page 5
    // stalls into its deadline, page 8 fires the cancel token — and
    // with one worker, every page after 8 observes the cancellation.
    assert_eq!(batch.stats.panicked, 1, "{}", batch.stats.summary());
    assert_eq!(batch.stats.timed_out, 1, "{}", batch.stats.summary());
    assert_eq!(batch.stats.cancelled, 4, "{}", batch.stats.summary());
    assert_eq!(batch.stats.failed(), 6, "{}", batch.stats.summary());
    let kind_of = |page: usize| {
        batch
            .failures
            .iter()
            .find(|f| f.page_index == page)
            .unwrap_or_else(|| panic!("page {page} has a failure record"))
            .error
    };
    assert_eq!(kind_of(3), ErrorKind::Panicked);
    assert_eq!(kind_of(5), ErrorKind::Timeout);
    for page in 8..12 {
        assert_eq!(kind_of(page), ErrorKind::Cancelled, "page {page}");
    }

    // Faulted pages still produce reports (the ladder bottoms out at
    // the baseline; none of these partials can claim conditions).
    for (i, e) in batch.extractions.iter().enumerate() {
        let faulted = i == 3 || i == 5 || i >= 8;
        if faulted {
            assert_eq!(e.via, Provenance::BaselineFallback, "page {i}");
        } else {
            assert_eq!(e.via, Provenance::Grammar, "page {i}");
        }
    }

    // Unfaulted pages are byte-identical to a clean sequential run.
    let clean = FormExtractor::new();
    for (i, e) in batch.extractions.iter().enumerate() {
        if i == 3 || i == 5 || i >= 8 {
            continue;
        }
        assert_eq!(
            e.report.to_string(),
            clean.extract(&pages[i]).report.to_string(),
            "page {i}"
        );
    }

    // Same plan, same pages, same results — no timing races anywhere.
    let again = run();
    let masked = |s: &metaform_extractor::BatchStats| {
        s.summary()
            .split(" time=")
            .next()
            .expect("time")
            .to_string()
    };
    assert_eq!(masked(&batch.stats), masked(&again.stats));
    let shape = |b: &metaform_extractor::AdaptiveBatch| {
        b.extractions
            .iter()
            .map(|e| (e.via, e.report.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(&batch), shape(&again));
    for (a, b) in batch.failures.iter().zip(&again.failures) {
        assert_eq!(a.normalized(), b.normalized());
    }
}

/// Faults are evaluated on every attempt, retries included. Retry
/// rounds reuse the tokens of the page's first attempt instead of
/// re-running the front end, and a planned stall must still fire on
/// each of them: the stalled page times out in all three rounds and
/// settles at the baseline, while every other page is untouched.
#[test]
fn planned_stall_fires_on_every_retried_attempt() {
    const STALLED: usize = 4;
    let ds = basic();
    let pages: Vec<String> = ds.sources.iter().take(8).map(|s| s.html.clone()).collect();
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
    let plan = FaultPlan::new().with(STALLED, Fault::Stall);

    let run = || {
        FormExtractor::new()
            .worker_threads(1)
            .fault_plan(plan.clone())
            .extract_batch_adaptive(
                &refs,
                &AdaptiveOptions {
                    max_retries: 2,
                    budget_growth: 2,
                },
            )
    };
    let batch = run();

    assert_eq!(batch.stats.retried, 2, "{}", batch.stats.summary());
    assert_eq!(batch.stats.timed_out, 1, "{}", batch.stats.summary());
    assert_eq!(batch.stats.failed(), 1, "{}", batch.stats.summary());
    assert_eq!(batch.failures.len(), 1);
    let record = &batch.failures[0];
    assert_eq!(record.page_index, STALLED);
    assert_eq!(record.attempts, 3);
    let kinds: Vec<Option<ErrorKind>> = record.attempt_log.iter().map(|a| a.error).collect();
    assert_eq!(kinds, vec![Some(ErrorKind::Timeout); 3]);
    assert_eq!(batch.extractions[STALLED].via, Provenance::BaselineFallback);

    // The baseline read the same tokens a clean run tokenizes.
    let clean = FormExtractor::new();
    assert_eq!(
        batch.extractions[STALLED].tokens,
        clean.extract(&pages[STALLED]).tokens
    );
    // Untouched pages are byte-identical to single-page extraction.
    for (i, e) in batch.extractions.iter().enumerate() {
        if i == STALLED {
            continue;
        }
        let want = clean.extract(&pages[i]);
        assert_eq!(e.via, want.via, "page {i}");
        assert_eq!(e.report.to_string(), want.report.to_string(), "page {i}");
        assert_eq!(e.tokens, want.tokens, "page {i}");
    }

    // Deterministic: the same plan tells the same story twice.
    let again = run();
    assert_eq!(batch.failures.len(), again.failures.len());
    for (a, b) in batch.failures.iter().zip(&again.failures) {
        assert_eq!(a.normalized(), b.normalized());
    }
}

// --------------------------------------------------- service behavior

#[test]
fn service_metrics_match_summed_batch_stats_under_faults() {
    let ds = basic();
    let pages: Vec<String> = ds.sources.iter().take(8).map(|s| s.html.clone()).collect();
    let handle = spawn_server(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        pool_workers: 1,
        batch_workers: Some(1),
        fault_plan: Some(FaultPlan::parse("panic@1,stall@4").expect("valid spec")),
        ..ServiceConfig::default()
    });
    let addr = handle.addr;

    let jobs: Vec<u64> = (0..3).map(|_| submit(addr, &pages)).collect();
    for &job in &jobs {
        wait_done(addr, job);
    }

    // No drift: each /metrics counter equals the same counter summed
    // over every job's BatchStats document.
    for (stat, metric_name) in [
        ("degraded", "metaformd_pages_degraded_total"),
        ("salvaged", "metaformd_pages_salvaged_total"),
        ("recovered", "metaformd_pages_recovered_total"),
        ("cancelled", "metaformd_pages_cancelled_total"),
    ] {
        let summed: u64 = jobs.iter().map(|&job| job_stat(addr, job, stat)).sum();
        assert_eq!(
            metric(addr, metric_name),
            summed,
            "{metric_name} drifted from summed BatchStats"
        );
    }
    // Every job hit the same plan: 2 faulted pages each, all degraded.
    for &job in &jobs {
        assert_eq!(job_stat(addr, job, "panicked"), 1);
        assert_eq!(job_stat(addr, job, "timed_out"), 1);
        assert_eq!(job_stat(addr, job, "degraded"), 2);
    }
    assert_eq!(metric(addr, "metaformd_jobs_completed_total"), 3);
    handle.shutdown();
}

/// The soak from the acceptance list: a starved control plane plus
/// `refit_every: 1` must converge — later jobs see the refitted
/// budgets and stop truncating.
#[test]
fn refit_loop_converges_under_starved_budgets() {
    let ds = basic();
    let pages: Vec<String> = ds.sources.iter().take(20).map(|s| s.html.clone()).collect();
    let handle = spawn_server(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        pool_workers: 1,
        batch_workers: Some(1),
        refit_every: Some(1),
        ..ServiceConfig::default()
    });
    let addr = handle.addr;

    // Starve the budgets by hand: a cap this low truncates every page.
    let (status, body) = http(addr, "POST", "/v1/budgets", Some("{\"max_instances\": 5}"));
    assert_eq!(status, 200, "{body}");

    let first = submit(addr, &pages);
    wait_done(addr, first);
    let starved_truncated = job_stat(addr, first, "truncated");
    assert_eq!(starved_truncated, pages.len() as u64, "cap 5 starves all");

    // The refit fired off the first job's evidence and grew the caps.
    assert!(metric(addr, "metaformd_budget_refits_total") >= 1);
    let (status, budgets) = http(addr, "GET", "/v1/budgets", None);
    assert_eq!(status, 200);
    let refitted = JsonValue::parse(budgets.as_bytes())
        .expect("budgets are JSON")
        .field("max_instances")
        .and_then(JsonValue::as_num)
        .expect("refit set a cap");
    assert!(refitted > 5, "refit grew the cap, got {refitted}");

    // Convergence: the next job runs under the refitted budgets and
    // stops truncating (fewer truncated, no new degradations).
    let second = submit(addr, &pages);
    wait_done(addr, second);
    assert!(
        job_stat(addr, second, "truncated") < starved_truncated,
        "refit did not converge"
    );
    assert_eq!(job_stat(addr, second, "degraded"), 0);
    handle.shutdown();
}
