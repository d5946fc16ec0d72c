//! Unix-socket daemon mode: line-delimited JSON over a local socket,
//! for co-located crawler callers that want the work queue without
//! HTTP framing overhead.
//!
//! Protocol: one JSON object per line in, one JSON object per line
//! out, always `{"status": <http status>, "body": "<response body>"}`.
//! The body is the HTTP endpoint's body verbatim, escaped into a JSON
//! string (bodies like `/metrics` and the failure telemetry span
//! lines, so the frame — not the payload — carries the line
//! discipline). Requests:
//!
//! | Line | Equivalent HTTP request |
//! |---|---|
//! | `{"op": "ping"}` | none — answers `pong` locally |
//! | `{"op": "submit", "pages": [...], ...}` | `POST /v1/batches` |
//! | `{"op": "status", "job": N}` | `GET /v1/batches/N` |
//! | `{"op": "results", "job": N}` | `GET /v1/batches/N/results` |
//! | `{"op": "cancel", "job": N}` | `DELETE /v1/batches/N` |
//! | `{"op": "jobs"}` | `GET /v1/jobs` |
//! | `{"op": "metrics"}` | `GET /metrics` |
//! | `{"op": "budgets"}` | `GET /v1/budgets` |
//! | `{"op": "budgets", "budget_growth": 3, ...}` | `POST /v1/budgets` |
//! | `{"op": "shutdown"}` | `POST /v1/shutdown` |
//!
//! Every op except `ping` is translated onto the *same*
//! [`route`] function the HTTP listener uses
//! (`submit` re-serializes its own line, minus `op`, as the request
//! body) — the daemon is a framing, not a second implementation, so
//! the two listeners cannot drift.

use crate::http::Request;
use crate::json::{push_json_str, JsonValue};
use crate::server::{route, ServiceState, ACCEPT_IDLE};
use std::io::{Read, Write};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Answers one daemon request line with one response line (no
/// trailing newline). Never errs: protocol mistakes answer
/// `{"status": 400, ...}` like their HTTP counterparts, and the
/// request counters tick exactly as they would over TCP.
pub fn handle_line(state: &ServiceState, line: &str) -> String {
    let (status, body) = std::panic::catch_unwind(AssertUnwindSafe(|| dispatch(state, line)))
        .unwrap_or_else(|_| (500, "handler panicked".to_string()));
    state.metrics.observe_status(status);
    let mut out = format!("{{\"status\": {status}, \"body\": ");
    push_json_str(&mut out, &body);
    out.push('}');
    out
}

/// Translates one request line onto [`route`].
fn dispatch(state: &ServiceState, line: &str) -> (u16, String) {
    let value = match JsonValue::parse(line.as_bytes()) {
        Ok(value) => value,
        Err(why) => return (400, format!("bad request line: {why}")),
    };
    let op = match value.field("op").and_then(JsonValue::as_str) {
        Ok(op) => op.to_string(),
        Err(why) => return (400, format!("bad \"op\": {why}")),
    };
    let job = || -> Result<u64, String> { value.field("job")?.as_num() };
    let (method, target, body) = match op.as_str() {
        "ping" => return (200, "pong".to_string()),
        "submit" => {
            // The line itself, minus the op marker, is the POST body.
            let JsonValue::Obj(fields) = value else {
                return (400, "submit line must be an object".to_string());
            };
            let rest: Vec<_> = fields
                .into_iter()
                .filter(|(name, _)| name != "op")
                .collect();
            (
                "POST",
                "/v1/batches".to_string(),
                JsonValue::Obj(rest).to_json(),
            )
        }
        "status" | "results" | "cancel" => {
            let id = match job() {
                Ok(id) => id,
                Err(why) => return (400, format!("bad \"job\": {why}")),
            };
            match op.as_str() {
                "status" => ("GET", format!("/v1/batches/{id}"), String::new()),
                "results" => ("GET", format!("/v1/batches/{id}/results"), String::new()),
                _ => ("DELETE", format!("/v1/batches/{id}"), String::new()),
            }
        }
        "jobs" => ("GET", "/v1/jobs".to_string(), String::new()),
        "metrics" => ("GET", "/metrics".to_string(), String::new()),
        "budgets" => {
            // A bare line reads the budgets; one carrying overrides
            // posts them (the line minus `op`, like `submit`).
            let JsonValue::Obj(fields) = value else {
                return (400, "budgets line must be an object".to_string());
            };
            let rest: Vec<_> = fields
                .into_iter()
                .filter(|(name, _)| name != "op")
                .collect();
            if rest.is_empty() {
                ("GET", "/v1/budgets".to_string(), String::new())
            } else {
                (
                    "POST",
                    "/v1/budgets".to_string(),
                    JsonValue::Obj(rest).to_json(),
                )
            }
        }
        "shutdown" => ("POST", "/v1/shutdown".to_string(), String::new()),
        other => return (400, format!("unknown op {other:?}")),
    };
    let request = Request {
        method: method.to_string(),
        target,
        headers: Vec::new(),
        body: body.into_bytes(),
        keep_alive: true,
    };
    let response = route(state, &request);
    (
        response.status,
        String::from_utf8_lossy(&response.body).into_owned(),
    )
}

/// Serves one daemon connection: request lines answered in order until
/// the peer closes, stalls past the read timeout, or sends a line over
/// the body cap. Generic over the stream for in-memory tests, exactly
/// like [`crate::server::handle_connection`].
pub fn serve_connection<S: Read + Write>(state: &ServiceState, stream: &mut S) {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        while let Some(at) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=at).collect();
            let line = String::from_utf8_lossy(&line);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let response = handle_line(state, line);
            if stream.write_all(response.as_bytes()).is_err()
                || stream.write_all(b"\n").is_err()
                || stream.flush().is_err()
            {
                return;
            }
        }
        if buf.len() > state.config.max_body_bytes {
            // A line that never ends: answer once and hang up, the
            // daemon's equivalent of 413.
            let _ = stream.write_all(
                b"{\"status\": 413, \"body\": \"request line over the configured cap\"}\n",
            );
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return, // timeout (idle or slowloris) or hangup
        }
    }
}

/// Binds `path` and serves daemon connections on a background thread
/// until the service begins shutting down. A stale socket file from a
/// previous run is replaced; the file is removed again on exit.
#[cfg(unix)]
pub fn spawn(state: Arc<ServiceState>, path: &str) -> std::io::Result<JoinHandle<()>> {
    use std::os::unix::net::UnixListener;

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let path = path.to_string();
    Ok(std::thread::spawn(move || {
        loop {
            if state.is_stopping() {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_read_timeout(Some(state.config.read_timeout));
                    state.metrics.connections.bump();
                    state.metrics.connections_active.inc();
                    let state = Arc::clone(&state);
                    std::thread::spawn(move || {
                        let mut stream = stream;
                        serve_connection(&state, &mut stream);
                        state.metrics.connections_active.dec();
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_IDLE);
                }
                Err(_) => {}
            }
        }
        let _ = std::fs::remove_file(&path);
    }))
}

/// Daemon mode needs Unix domain sockets; on other platforms binding
/// reports unsupported instead of compiling the listener out silently.
#[cfg(not(unix))]
pub fn spawn(_state: Arc<ServiceState>, _path: &str) -> std::io::Result<JoinHandle<()>> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "daemon mode requires Unix domain sockets",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServiceConfig;
    use std::io::Cursor;

    fn test_state() -> ServiceState {
        ServiceState::new(ServiceConfig {
            batch_workers: Some(1),
            ..ServiceConfig::default()
        })
    }

    /// Extracts `status` and the unescaped `body` from a response line.
    fn decode(line: &str) -> (u64, String) {
        let value = JsonValue::parse(line.as_bytes()).expect("response line is JSON");
        (
            value.field("status").unwrap().as_num().unwrap(),
            value.field("body").unwrap().as_str().unwrap().to_string(),
        )
    }

    #[test]
    fn ping_answers_pong() {
        let state = test_state();
        let (status, body) = decode(&handle_line(&state, r#"{"op": "ping"}"#));
        assert_eq!((status, body.as_str()), (200, "pong"));
    }

    #[test]
    fn protocol_mistakes_answer_400_in_frame() {
        let state = test_state();
        for bad in [
            "not json",
            r#"{"pages": []}"#,
            r#"{"op": "teleport"}"#,
            r#"{"op": 7}"#,
            r#"{"op": "status"}"#,
            r#"{"op": "cancel", "job": "one"}"#,
            r#"{"op": "submit", "pages": "not an array"}"#,
        ] {
            let (status, _) = decode(&handle_line(&state, bad));
            assert_eq!(status, 400, "{bad}");
        }
        assert_eq!(state.metrics.client_errors.value(), 7);
    }

    #[test]
    fn ops_walk_a_job_through_the_same_routes_as_http() {
        let state = test_state();
        let (status, body) = decode(&handle_line(
            &state,
            r#"{"op": "submit", "pages": ["<form>Author <input type=text name=q><input type=submit value=S></form>"], "max_retries": 1}"#,
        ));
        assert_eq!(status, 202, "{body}");
        assert!(body.contains("\"job\": 1"), "{body}");

        let id = state.queue.pop(0).expect("queued");
        state.run_job(id);

        let (status, body) = decode(&handle_line(&state, r#"{"op": "status", "job": 1}"#));
        assert_eq!(status, 200);
        assert!(body.contains("\"state\": \"done\""), "{body}");
        let (status, body) = decode(&handle_line(&state, r#"{"op": "results", "job": 1}"#));
        assert_eq!(status, 200);
        assert!(body.contains("\"via\": \"grammar\""), "{body}");
        let (status, body) = decode(&handle_line(&state, r#"{"op": "jobs"}"#));
        assert_eq!(status, 200);
        assert!(body.contains("\"count\": 1"), "{body}");
        let (status, body) = decode(&handle_line(&state, r#"{"op": "metrics"}"#));
        assert_eq!(status, 200);
        assert!(
            body.contains("metaformd_jobs_submitted_total 1\n"),
            "{body}"
        );
        let (status, _) = decode(&handle_line(&state, r#"{"op": "results", "job": 99}"#));
        assert_eq!(status, 404);
        // Job 1 is done: cancelling it removes it, as DELETE does.
        let (status, body) = decode(&handle_line(&state, r#"{"op": "cancel", "job": 1}"#));
        assert_eq!(status, 200);
        assert!(body.contains("\"removed\": true"), "{body}");
        let (status, _) = decode(&handle_line(&state, r#"{"op": "status", "job": 1}"#));
        assert_eq!(status, 404);
        let (status, _) = decode(&handle_line(&state, r#"{"op": "shutdown"}"#));
        assert_eq!(status, 202);
        assert!(state.is_stopping());
    }

    #[test]
    fn budgets_op_reads_bare_and_posts_overrides() {
        let state = test_state();
        let (status, body) = decode(&handle_line(&state, r#"{"op": "budgets"}"#));
        assert_eq!(status, 200);
        assert!(body.contains("\"budget_growth\": 2"), "{body}");
        let (status, body) = decode(&handle_line(
            &state,
            r#"{"op": "budgets", "budget_growth": 5}"#,
        ));
        assert_eq!(status, 200);
        assert!(body.contains("\"budget_growth\": 5"), "{body}");
        let (status, _) = decode(&handle_line(&state, r#"{"op": "budgets", "typo": 1}"#));
        assert_eq!(status, 400);
    }

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

    #[test]
    fn a_connection_answers_one_line_per_request_line() {
        let state = test_state();
        let mut stream = MockStream {
            input: Cursor::new(
                b"{\"op\": \"ping\"}\n\n{\"op\": \"jobs\"}\n{\"op\": \"nope\"}\n".to_vec(),
            ),
            output: Vec::new(),
        };
        serve_connection(&state, &mut stream);
        let text = String::from_utf8(stream.output).expect("UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "blank lines are skipped — {text}");
        assert_eq!(decode(lines[0]).1, "pong");
        assert_eq!(decode(lines[1]).0, 200);
        assert_eq!(decode(lines[2]).0, 400);
    }

    #[test]
    fn an_endless_line_is_cut_off_with_413() {
        let state = ServiceState::new(ServiceConfig {
            max_body_bytes: 64,
            ..ServiceConfig::default()
        });
        let mut stream = MockStream {
            input: Cursor::new(vec![b'x'; 1024]),
            output: Vec::new(),
        };
        serve_connection(&state, &mut stream);
        let text = String::from_utf8(stream.output).expect("UTF-8");
        assert_eq!(decode(text.trim()).0, 413, "{text}");
    }
}
