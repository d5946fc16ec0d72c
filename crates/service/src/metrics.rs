//! Service counters, exposed as `GET /metrics` in the text exposition
//! format (one `name value` line per counter, `# TYPE` annotated).
//!
//! Counters are **striped**: each one is a small bank of
//! cache-line-padded atomics, and every thread increments its own
//! stripe (threads are assigned stripes round-robin on first touch).
//! With per-connection handler threads and the worker pool all
//! bumping the same counters, striping keeps the hot increment path
//! free of cross-core cache-line ping-pong; `/metrics` reads aggregate
//! across stripes. Relaxed ordering is deliberate: the counters feed
//! dashboards, not control flow.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Stripes per counter. Eight covers the thread counts this service
/// runs (pool workers + connection handlers); more stripes would only
/// pad memory.
const STRIPES: usize = 8;

/// Round-robin stripe assignment, one slot per thread on first use.
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// One cache line of counter, so neighbouring stripes never share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PadU64(AtomicU64);

#[derive(Debug, Default)]
#[repr(align(64))]
struct PadI64(AtomicI64);

/// A monotone counter, striped across cache lines.
#[derive(Debug, Default)]
pub struct Counter {
    stripes: [PadU64; STRIPES],
}

impl Counter {
    /// Adds one.
    pub fn bump(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.stripes[stripe_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// The aggregated value across stripes.
    pub fn value(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A gauge that can go up and down, striped like [`Counter`]. Each
/// stripe holds a signed delta; the aggregate is clamped at zero so a
/// decrement racing ahead of its increment on another stripe can
/// never render an underflowed value.
#[derive(Debug, Default)]
pub struct Gauge {
    stripes: [PadI64; STRIPES],
}

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        self.stripes[stripe_index()]
            .0
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.stripes[stripe_index()]
            .0
            .fetch_sub(1, Ordering::Relaxed);
    }

    /// The aggregated value across stripes, clamped at zero.
    pub fn value(&self) -> u64 {
        let sum: i64 = self
            .stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum();
        sum.max(0) as u64
    }
}

/// The service's counter block. One instance lives in the shared
/// service state; every handler and worker increments it lock-free.
#[derive(Debug, Default)]
pub struct Metrics {
    /// HTTP requests answered, all endpoints and statuses.
    pub requests: Counter,
    /// Requests answered with a 4xx (client error).
    pub client_errors: Counter,
    /// Requests answered with a 5xx (server fault, panics included).
    pub server_errors: Counter,
    /// Connections accepted (TCP and daemon alike).
    pub connections: Counter,
    /// Connections currently being served (gauge).
    pub connections_active: Gauge,
    /// Jobs accepted into the queue.
    pub jobs_submitted: Counter,
    /// Jobs rejected because the queue was full (503).
    pub jobs_rejected: Counter,
    /// Jobs that ran to completion (cancelled runs included).
    pub jobs_completed: Counter,
    /// `DELETE`s that fired a queued or running job's cancel token (a
    /// `DELETE` that removes a finished job is not counted).
    pub jobs_cancelled: Counter,
    /// Pages submitted across all accepted jobs.
    pub pages_submitted: Counter,
    /// Pages that degraded to the proximity baseline.
    pub pages_degraded: Counter,
    /// Pages served as a salvaged partial grammar-path report
    /// (`Provenance::PartialSalvage`).
    pub pages_salvaged: Counter,
    /// Automatic budget refits run by the control plane (manual
    /// `POST /v1/budgets` overrides are not counted).
    pub budget_refits: Counter,
    /// Pages recovered by the adaptive retry loop.
    pub pages_recovered: Counter,
    /// Pages abandoned by a cancellation.
    pub pages_cancelled: Counter,
    /// Pages whose report was replayed from the parse cache (exact
    /// fingerprint hit, no parse).
    pub pages_cache_hit: Counter,
    /// Pages that consulted the parse cache but parsed cold.
    pub pages_cache_miss: Counter,
    /// Pages the client flagged `"revisit": true` at submission
    /// (advisory — compare against the cache hit counter).
    pub revisit_hints: Counter,
    /// Grammar-induction refits run by the `--induce-every` hook
    /// (counted whether or not any candidate was accepted).
    pub grammar_inductions: Counter,
    /// Induced productions accepted by the validation gate and
    /// hot-added to the live grammar.
    pub productions_induced: Counter,
    /// Jobs currently waiting in the queue (gauge).
    pub queue_depth: Gauge,
}

impl Metrics {
    /// Records the status of one answered request.
    pub fn observe_status(&self, status: u16) {
        self.requests.bump();
        if (400..500).contains(&status) {
            self.client_errors.bump();
        } else if status >= 500 {
            self.server_errors.bump();
        }
    }

    /// Renders the text exposition document.
    pub fn render(&self) -> String {
        enum Any<'a> {
            C(&'a Counter),
            G(&'a Gauge),
        }
        let rows: [(&str, &str, Any); 21] = [
            (
                "metaformd_requests_total",
                "counter",
                Any::C(&self.requests),
            ),
            (
                "metaformd_client_errors_total",
                "counter",
                Any::C(&self.client_errors),
            ),
            (
                "metaformd_server_errors_total",
                "counter",
                Any::C(&self.server_errors),
            ),
            (
                "metaformd_connections_total",
                "counter",
                Any::C(&self.connections),
            ),
            (
                "metaformd_connections_active",
                "gauge",
                Any::G(&self.connections_active),
            ),
            (
                "metaformd_jobs_submitted_total",
                "counter",
                Any::C(&self.jobs_submitted),
            ),
            (
                "metaformd_jobs_rejected_total",
                "counter",
                Any::C(&self.jobs_rejected),
            ),
            (
                "metaformd_jobs_completed_total",
                "counter",
                Any::C(&self.jobs_completed),
            ),
            (
                "metaformd_jobs_cancelled_total",
                "counter",
                Any::C(&self.jobs_cancelled),
            ),
            (
                "metaformd_pages_submitted_total",
                "counter",
                Any::C(&self.pages_submitted),
            ),
            (
                "metaformd_pages_degraded_total",
                "counter",
                Any::C(&self.pages_degraded),
            ),
            (
                "metaformd_pages_salvaged_total",
                "counter",
                Any::C(&self.pages_salvaged),
            ),
            (
                "metaformd_budget_refits_total",
                "counter",
                Any::C(&self.budget_refits),
            ),
            (
                "metaformd_pages_recovered_total",
                "counter",
                Any::C(&self.pages_recovered),
            ),
            (
                "metaformd_pages_cancelled_total",
                "counter",
                Any::C(&self.pages_cancelled),
            ),
            (
                "metaformd_pages_cache_hit_total",
                "counter",
                Any::C(&self.pages_cache_hit),
            ),
            (
                "metaformd_pages_cache_miss_total",
                "counter",
                Any::C(&self.pages_cache_miss),
            ),
            (
                "metaformd_revisit_hints_total",
                "counter",
                Any::C(&self.revisit_hints),
            ),
            (
                "metaformd_grammar_inductions_total",
                "counter",
                Any::C(&self.grammar_inductions),
            ),
            (
                "metaformd_productions_induced_total",
                "counter",
                Any::C(&self.productions_induced),
            ),
            ("metaformd_queue_depth", "gauge", Any::G(&self.queue_depth)),
        ];
        let mut out = String::new();
        for (name, kind, counter) in rows {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            out.push_str(name);
            out.push(' ');
            let value = match counter {
                Any::C(c) => c.value(),
                Any::G(g) => g.value(),
            };
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::default();
        m.observe_status(202);
        m.observe_status(404);
        m.observe_status(500);
        m.jobs_submitted.bump();
        m.pages_submitted.add(33);
        m.queue_depth.inc();
        m.queue_depth.dec();
        m.queue_depth.dec(); // clamps at zero on read, no underflow

        let text = m.render();
        assert!(text.contains("metaformd_requests_total 3\n"), "{text}");
        assert!(text.contains("metaformd_client_errors_total 1\n"));
        assert!(text.contains("metaformd_server_errors_total 1\n"));
        assert!(text.contains("metaformd_pages_submitted_total 33\n"));
        assert!(text.contains("metaformd_queue_depth 0\n"), "{text}");
        assert!(text.contains("# TYPE metaformd_queue_depth gauge\n"));
        assert!(text.contains("# TYPE metaformd_connections_active gauge\n"));
    }

    #[test]
    fn stripes_aggregate_across_threads() {
        let m = std::sync::Arc::new(Metrics::default());
        let threads: Vec<_> = (0..16)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.requests.bump();
                        m.connections_active.inc();
                        m.connections_active.dec();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("joins");
        }
        assert_eq!(m.requests.value(), 16_000);
        assert_eq!(m.connections_active.value(), 0);
    }

    #[test]
    fn render_order_is_deterministic_and_lists_cache_counters() {
        let m = Metrics::default();
        m.pages_cache_hit.add(4);
        m.pages_cache_miss.add(2);
        m.revisit_hints.bump();
        let text = m.render();
        assert_eq!(text, m.render(), "row order is fixed, not map order");
        let hit = text.find("metaformd_pages_cache_hit_total 4\n").unwrap();
        let miss = text.find("metaformd_pages_cache_miss_total 2\n").unwrap();
        let hints = text.find("metaformd_revisit_hints_total 1\n").unwrap();
        assert!(hit < miss && miss < hints);
        assert!(!text.contains("cache_delta"));
    }
}
