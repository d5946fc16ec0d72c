//! Service load bench: concurrent HTTP clients against an in-process
//! `metaformd`, comparing close-per-request against keep-alive and
//! measuring end-to-end job throughput. Run as:
//!
//! ```text
//! cargo run --release -p metaform-bench --bin bench_service [-- <out.json>]
//! cargo run --release -p metaform-bench --bin bench_service -- --daemon-probe <sock>
//! cargo run --release -p metaform-bench --bin bench_service -- --smoke <out.json>
//! ```
//!
//! The default run writes `BENCH_service.json` with three legs:
//!
//! - `close`: every request on a fresh connection (`Connection:
//!   close`), the pre-keep-alive wire behaviour;
//! - `keep_alive`: the same request count on one persistent
//!   connection per client;
//! - `submit_drain`: keep-alive clients submitting real batch jobs
//!   and polling them to completion (pages/sec through the job queue
//!   and worker pool).
//!
//! Each wire leg reports p50/p99 request latency and throughput; the
//! headline ratio is `keep_alive_speedup` (close rps ÷ keep-alive
//! rps... inverted so >1 means keep-alive is faster). `--smoke` runs a
//! reduced load (CI-sized); `--daemon-probe` speaks one `ping` line to
//! a Unix daemon socket and prints the answer — `scripts/check.sh`
//! greps it for `pong`.

use metaform_service::{JsonValue, Server, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Concurrent client threads per wire leg.
const CLIENTS: usize = 8;

/// Requests per client in the full run (`--smoke` divides by 10).
const REQUESTS_PER_CLIENT: usize = 250;

/// Jobs per client in the submit/drain leg, pages per job.
const JOBS_PER_CLIENT: usize = 5;
const PAGES_PER_JOB: usize = 8;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon-probe") {
        let Some(path) = args.get(1) else {
            eprintln!("--daemon-probe needs a socket path");
            std::process::exit(2);
        };
        daemon_probe(path);
        return;
    }
    let smoke = args.first().map(String::as_str) == Some("--smoke");
    let out_path = args
        .get(if smoke { 1 } else { 0 })
        .cloned()
        .unwrap_or_else(|| "BENCH_service.json".into());
    let requests = if smoke {
        REQUESTS_PER_CLIENT / 10
    } else {
        REQUESTS_PER_CLIENT
    };

    // One in-process server for the whole run: ephemeral port, enough
    // queue for the submit leg, the grammar compiled at bind time so
    // no leg pays startup.
    let handle = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        pool_workers: 2,
        batch_workers: Some(2),
        queue_capacity: 1024,
        ..ServiceConfig::default()
    })
    .expect("binds an ephemeral port")
    .spawn()
    .expect("spawns");
    let addr = handle.addr;
    eprintln!(
        "bench_service: {CLIENTS} clients x {requests} requests per wire leg on {addr}{}",
        if smoke { " (smoke)" } else { "" }
    );

    let close_leg = wire_leg(addr, requests, false);
    let keep_leg = wire_leg(addr, requests, true);
    let (jobs, pages, drain_elapsed) = submit_drain(addr, if smoke { 2 } else { JOBS_PER_CLIENT });

    let speedup = keep_leg.rps / close_leg.rps.max(1e-9);
    eprintln!(
        "  close      p50 {:>7.1} us  p99 {:>7.1} us  {:>9.0} req/s",
        close_leg.p50_us, close_leg.p99_us, close_leg.rps
    );
    eprintln!(
        "  keep_alive p50 {:>7.1} us  p99 {:>7.1} us  {:>9.0} req/s  speedup {speedup:.2}x",
        keep_leg.p50_us, keep_leg.p99_us, keep_leg.rps
    );
    let jobs_per_s = jobs as f64 / drain_elapsed.as_secs_f64().max(1e-9);
    let pages_per_s = pages as f64 / drain_elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "  submit_drain {jobs} jobs / {pages} pages in {:.1} ms  ({jobs_per_s:.0} jobs/s, {pages_per_s:.0} pages/s)",
        drain_elapsed.as_secs_f64() * 1e3
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": \"service_load\",\n",
            "  \"clients\": {},\n",
            "  \"requests_per_client\": {},\n",
            "{},\n",
            "  \"legs\": {{\n",
            "    \"close\": {{ \"requests\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"rps\": {:.0} }},\n",
            "    \"keep_alive\": {{ \"requests\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"rps\": {:.0} }},\n",
            "    \"submit_drain\": {{ \"jobs\": {}, \"pages\": {}, \"elapsed_ms\": {:.1}, ",
            "\"jobs_per_s\": {:.0}, \"pages_per_s\": {:.0} }}\n",
            "  }},\n",
            "  \"keep_alive_speedup\": {:.3}\n",
            "}}\n"
        ),
        CLIENTS,
        requests,
        metaform_bench::metadata_json("  "),
        close_leg.count,
        close_leg.p50_us,
        close_leg.p99_us,
        close_leg.rps,
        keep_leg.count,
        keep_leg.p50_us,
        keep_leg.p99_us,
        keep_leg.rps,
        jobs,
        pages,
        drain_elapsed.as_secs_f64() * 1e3,
        jobs_per_s,
        pages_per_s,
        speedup,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("{json}");
    eprintln!("wrote {out_path}");
    handle.shutdown();
}

/// One wire leg's aggregated numbers.
struct Leg {
    count: usize,
    p50_us: f64,
    p99_us: f64,
    rps: f64,
}

/// Runs `CLIENTS` threads of `requests` GETs each; `keep_alive` picks
/// one-persistent-connection-per-client vs one-connection-per-request.
fn wire_leg(addr: SocketAddr, requests: usize, keep_alive: bool) -> Leg {
    let started = Instant::now();
    let workers: Vec<std::thread::JoinHandle<Vec<u64>>> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(requests);
                if keep_alive {
                    let mut stream = TcpStream::connect(addr).expect("connects");
                    stream.set_nodelay(true).expect("nodelay");
                    for _ in 0..requests {
                        let at = Instant::now();
                        request_on(&mut stream, "GET /healthz HTTP/1.1\r\n\r\n");
                        latencies.push(at.elapsed().as_nanos() as u64);
                    }
                } else {
                    for _ in 0..requests {
                        let at = Instant::now();
                        let mut stream = TcpStream::connect(addr).expect("connects");
                        stream.set_nodelay(true).expect("nodelay");
                        request_on(
                            &mut stream,
                            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
                        );
                        latencies.push(at.elapsed().as_nanos() as u64);
                    }
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    for worker in workers {
        latencies.extend(worker.join().expect("client thread joins"));
    }
    let elapsed = started.elapsed();
    latencies.sort_unstable();
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize] as f64 / 1e3;
    Leg {
        count: latencies.len(),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        rps: latencies.len() as f64 / elapsed.as_secs_f64().max(1e-9),
    }
}

/// Writes one request and reads one `Content-Length`-framed response
/// off the stream, asserting a 200.
fn request_on(stream: &mut TcpStream, raw: &str) {
    stream.write_all(raw.as_bytes()).expect("writes");
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    let head_end = loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break at;
        }
        let n = stream.read(&mut chunk).expect("reads");
        assert!(n > 0, "server closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).expect("head is UTF-8");
    assert!(head.starts_with("HTTP/1.1 200 "), "unexpected: {head}");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("has a Content-Length");
    let mut have = buf.len() - head_end - 4;
    while have < length {
        let n = stream.read(&mut chunk).expect("reads the body");
        assert!(n > 0, "server closed mid-body");
        have += n;
    }
}

/// Submits `jobs_per_client` small batch jobs from every client over
/// keep-alive connections and polls them all to completion. Returns
/// `(jobs, pages, elapsed)`.
fn submit_drain(addr: SocketAddr, jobs_per_client: usize) -> (usize, usize, Duration) {
    let started = Instant::now();
    let workers: Vec<std::thread::JoinHandle<usize>> = (0..CLIENTS)
        .map(|client| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connects");
                stream.set_nodelay(true).expect("nodelay");
                let mut ids = Vec::new();
                for round in 0..jobs_per_client {
                    let mut body = String::from("{\"pages\": [");
                    for page in 0..PAGES_PER_JOB {
                        if page > 0 {
                            body.push_str(", ");
                        }
                        body.push_str(&format!(
                            "\"<form>Field {client}-{round}-{page} \
                             <input type=text name=f{page}>\
                             <input type=submit value=Go></form>\""
                        ));
                    }
                    body.push_str("]}");
                    let (status, answer) = framed(
                        &mut stream,
                        &format!(
                            "POST /v1/batches HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                            body.len()
                        ),
                    );
                    assert_eq!(status, 202, "{answer}");
                    ids.push(
                        JsonValue::parse(answer.as_bytes())
                            .expect("submission answer is JSON")
                            .field("job")
                            .and_then(JsonValue::as_num)
                            .expect("has a job id"),
                    );
                }
                // Poll every job to completion on the same connection.
                for id in &ids {
                    let deadline = Instant::now() + Duration::from_secs(120);
                    loop {
                        let (status, answer) = framed(
                            &mut stream,
                            &format!("GET /v1/batches/{id} HTTP/1.1\r\n\r\n"),
                        );
                        assert_eq!(status, 200, "{answer}");
                        if answer.contains("\"state\": \"done\"") {
                            break;
                        }
                        assert!(Instant::now() < deadline, "job {id} stuck: {answer}");
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                ids.len()
            })
        })
        .collect();
    let jobs: usize = workers.into_iter().map(|w| w.join().expect("joins")).sum();
    (jobs, jobs * PAGES_PER_JOB, started.elapsed())
}

/// One keep-alive request returning `(status, body)` with
/// `Content-Length` framing (the requests this bench sends never
/// stream chunked).
fn framed(stream: &mut TcpStream, raw: &str) -> (u16, String) {
    stream.write_all(raw.as_bytes()).expect("writes");
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break at;
        }
        let n = stream.read(&mut chunk).expect("reads");
        assert!(n > 0, "server closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).expect("head is UTF-8");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("has a status");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("has a Content-Length");
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < length {
        let n = stream.read(&mut chunk).expect("reads the body");
        assert!(n > 0, "server closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(length);
    (status, String::from_utf8(body).expect("body is UTF-8"))
}

/// Speaks one `{"op": "ping"}` line to a daemon socket and prints the
/// response body (expected: `pong`). Exits nonzero on any mismatch.
#[cfg(unix)]
fn daemon_probe(path: &str) {
    use std::os::unix::net::UnixStream;

    let mut stream = match UnixStream::connect(path) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("cannot connect to {path}: {e}");
            std::process::exit(1);
        }
    };
    stream
        .write_all(b"{\"op\": \"ping\"}\n")
        .expect("writes the ping line");
    let mut line = Vec::new();
    let mut chunk = [0u8; 256];
    while !line.contains(&b'\n') {
        let n = stream.read(&mut chunk).expect("reads the answer");
        assert!(n > 0, "daemon closed before answering");
        line.extend_from_slice(&chunk[..n]);
    }
    let text = String::from_utf8(line).expect("answer is UTF-8");
    let value = JsonValue::parse(text.trim().as_bytes()).expect("answer line is JSON");
    let body = value
        .field("body")
        .and_then(|v| v.as_str().map(str::to_string))
        .expect("answer has a body");
    println!("{body}");
    if body != "pong" {
        std::process::exit(1);
    }
}

#[cfg(not(unix))]
fn daemon_probe(_path: &str) {
    eprintln!("daemon probe requires Unix domain sockets");
    std::process::exit(1);
}
