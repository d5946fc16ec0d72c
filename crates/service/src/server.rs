//! The service core: shared state, request routing, the worker pool,
//! and the accept loop — `metaformd` minus the binary's flag parsing.
//!
//! Wiring (see DESIGN.md):
//!
//! ```text
//! accept loop ──▶ connection thread (×conn) ──▶ route (per request)
//!                   POST /v1/batches ──▶ JobStore::create ─▶ JobQueue::push
//!                                                                │ (wakes one parked worker)
//!                 pool worker (×N) ◀── JobQueue::pop ◀───────────┘
//!                   └─▶ extractor.cancel_token(job).extract_batch_adaptive
//!                         └─▶ JobStore::finish (Done | Cancelled)
//! ```
//!
//! Every accepted connection gets its own handler thread, which
//! serves HTTP/1.1 requests **sequentially with keep-alive** until
//! the peer closes, errs, asks `Connection: close`, or stalls past
//! the read timeout — so a slow or chatty client occupies one thread,
//! never the accept loop, and `/healthz` stays responsive under any
//! single client's behaviour. Handlers are queue/map operations that
//! complete in microseconds; the actual work — batch extraction —
//! runs on the pool workers.
//!
//! Routing runs behind `catch_unwind`: a handler bug answers 500 on
//! that one request and the service keeps serving, the same
//! page-level fault isolation stance the batch engine takes.

use crate::error::status_for;
use crate::http::{Request, RequestError, RequestReader, Response};
use crate::jobs::{JobQueue, JobStore};
use crate::json::{parse_batch_request, parse_budget_update, push_json_str};
use crate::metrics::Metrics;
use metaform_datasets::BudgetPreset;
use metaform_eval::{refit_grammar, AcceptedCandidate, InductionGate};
use metaform_extractor::telemetry::ErrorKind;
use metaform_extractor::{
    failures_to_json, stats_to_json, AdaptiveOptions, BatchStats, FailureRecord, FaultPlan,
    FormExtractor, LruParseCache, Provenance,
};
use metaform_grammar::{ArrangementBook, CompiledGrammar};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything `metaformd` can be configured with.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Listen address (`127.0.0.1:8077` by default; port 0 asks the
    /// OS for an ephemeral port — the bound address is reported by
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Pool workers running batch jobs (each job additionally fans its
    /// pages over the extractor's own batch workers).
    pub pool_workers: usize,
    /// Batch worker threads per job; `None` = the extractor's default
    /// (machine parallelism).
    pub batch_workers: Option<usize>,
    /// Jobs the queue holds before submissions answer 503.
    pub queue_capacity: usize,
    /// Default adaptive retry rounds (a submission's `max_retries`
    /// field overrides per job).
    pub max_retries: usize,
    /// Budget multiplier per retry round.
    pub budget_growth: u32,
    /// Per-page instance cap; `None` = the extractor's default.
    pub max_instances: Option<usize>,
    /// Per-page wall-clock deadline; `None` = none.
    pub page_deadline: Option<Duration>,
    /// Request body cap in bytes (oversized submissions answer 413).
    pub max_body_bytes: usize,
    /// Socket read timeout per request: an idle keep-alive connection
    /// past it closes quietly; a peer stalled mid-request (slowloris)
    /// answers 408 and closes.
    pub read_timeout: Duration,
    /// Unix-socket path for the line-delimited-JSON daemon listener;
    /// `None` disables daemon mode.
    pub uds_path: Option<String>,
    /// Automatic budget recalibration cadence: after every N completed
    /// jobs the control plane refits the live budgets from the
    /// accumulated rollups and failure records (see [`BudgetControl`]).
    /// `None` disables the automatic refit; `/v1/budgets` POST still
    /// works.
    pub refit_every: Option<usize>,
    /// Grammar-induction cadence: after every N completed jobs the
    /// service mines the accumulated parse residue, synthesizes
    /// candidate productions, and hot-adds the ones that clear the
    /// corpus-replay validation gate (see [`InductionControl`]).
    /// `None` (the default) disables induction entirely — the daemon
    /// never builds the gate and jobs run the boot grammar.
    pub induce_every: Option<usize>,
    /// Deterministic fault plan applied to every job's batch (page
    /// indices are within each job). For chaos and soak testing —
    /// production deployments leave it `None`.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let adaptive = AdaptiveOptions::default();
        ServiceConfig {
            addr: "127.0.0.1:8077".to_string(),
            pool_workers: 2,
            batch_workers: None,
            queue_capacity: 64,
            max_retries: adaptive.max_retries,
            budget_growth: adaptive.budget_growth,
            max_instances: None,
            page_deadline: None,
            max_body_bytes: 16 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            uds_path: None,
            refit_every: None,
            induce_every: None,
            fault_plan: None,
        }
    }
}

/// The grammar-induction control plane, the `--induce-every` sibling
/// of [`BudgetControl`]: evidence (mined token arrangements) absorbed
/// from every finished job, plus the live grammar override once a
/// candidate production has been accepted. Every accepted production
/// flowed through `Grammar::compile` inside the validation gate —
/// there is no other path into the live grammar. Job extractors pick
/// the override up at claim time; parse-cache entries recorded under
/// the old grammar degrade to misses on their own (cached visits are
/// gated on grammar identity), so a hot swap needs no cache flush.
#[derive(Debug, Default)]
pub struct InductionControl {
    /// Arrangements mined from job batches since the last refit.
    book: ArrangementBook,
    /// Jobs folded in since the last refit.
    jobs_since: usize,
    /// The live grammar override; `None` until a candidate is
    /// accepted, after which every job runs the extended grammar.
    grammar: Option<Arc<CompiledGrammar>>,
    /// The corpus-replay validation gate, built lazily from the boot
    /// grammar on the first refit (building it renders the frozen
    /// corpus and scores the held-out slice, too costly for boot).
    /// One gate lives for the daemon's lifetime: its acceptance bar
    /// re-baselines on every admit, so it stays aligned with the live
    /// grammar as productions accumulate.
    gate: Option<InductionGate>,
    /// Candidate signatures already proposed, accepted or not — a
    /// rejected arrangement that keeps recurring is not re-validated
    /// every cadence.
    seen: std::collections::BTreeSet<String>,
    /// Every production accepted since boot, in acceptance order.
    accepted: Vec<AcceptedCandidate>,
}

impl InductionControl {
    /// Support floor for synthesis: an arrangement must recur on at
    /// least this many distinct pages before it becomes a candidate.
    /// Matches the offline loop's `InductionConfig` default.
    const MIN_SUPPORT: usize = 2;

    /// The productions accepted since boot (name, signature, support).
    pub fn accepted(&self) -> &[AcceptedCandidate] {
        &self.accepted
    }

    /// The live grammar override, if any candidate has been accepted.
    pub fn live_grammar(&self) -> Option<Arc<CompiledGrammar>> {
        self.grammar.clone()
    }
}

/// The self-tuning budget control plane: the live per-page budgets
/// every job runs under, plus the evidence — rollups and failure
/// records — accumulated since the last refit. A refit (automatic
/// every [`ServiceConfig::refit_every`] jobs, or manual via
/// `POST /v1/budgets`) replaces the budgets with
/// [`BudgetPreset::from_stats`] over the accumulated rollup and the
/// retry growth factor with
/// [`BudgetPreset::growth_from_failures`] over the accumulated
/// records, then resets the evidence. See DESIGN.md "Degradation
/// ladder" for the loop's state machine.
#[derive(Debug)]
pub struct BudgetControl {
    /// Per-page instance cap jobs run under (`None` = the extractor's
    /// default).
    pub max_instances: Option<usize>,
    /// Per-page wall-clock deadline jobs run under, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Retry budget multiplier jobs run under.
    pub growth: u32,
    /// Rollup accumulated since the last refit.
    acc: BatchStats,
    /// Failure records accumulated since the last refit, oldest
    /// dropped past [`BudgetControl::MAX_RECENT_FAILURES`].
    recent_failures: Vec<FailureRecord>,
    /// Jobs folded in since the last refit.
    jobs_since_refit: usize,
}

impl BudgetControl {
    /// Evidence window for growth fitting: records beyond this drop
    /// oldest-first, so a long soak fits from recent behaviour.
    const MAX_RECENT_FAILURES: usize = 256;

    fn from_config(config: &ServiceConfig) -> BudgetControl {
        BudgetControl {
            max_instances: config.max_instances,
            deadline_ms: config
                .page_deadline
                .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
            growth: config.budget_growth,
            acc: BatchStats::default(),
            recent_failures: Vec::new(),
            jobs_since_refit: 0,
        }
    }

    /// Folds one finished job's outcome into the evidence.
    fn absorb(&mut self, stats: &BatchStats, failures: &[FailureRecord]) {
        self.acc.pages += stats.pages;
        self.acc.workers = self.acc.workers.max(stats.workers);
        self.acc.tokens += stats.tokens;
        self.acc.created += stats.created;
        self.acc.truncated += stats.truncated;
        self.acc.timed_out += stats.timed_out;
        self.acc.degraded += stats.degraded;
        self.acc.salvaged += stats.salvaged;
        self.acc.recovered += stats.recovered;
        self.acc.elapsed += stats.elapsed;
        for record in failures {
            if self.recent_failures.len() >= Self::MAX_RECENT_FAILURES {
                self.recent_failures.remove(0);
            }
            self.recent_failures.push(record.clone());
        }
        self.jobs_since_refit += 1;
    }

    /// Refits the live budgets from the accumulated evidence and
    /// resets it. A window with no pages carries no signal and leaves
    /// the budgets untouched (still resets the job counter, so an idle
    /// window does not pin the next refit).
    fn refit(&mut self) -> bool {
        let fitted = self.acc.pages > 0;
        if fitted {
            let preset = BudgetPreset::from_stats(&self.acc);
            self.max_instances = Some(preset.max_instances);
            self.deadline_ms = preset
                .deadline
                .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
            self.growth = BudgetPreset::growth_from_failures(&self.recent_failures);
        }
        self.acc = BatchStats::default();
        self.recent_failures.clear();
        self.jobs_since_refit = 0;
        fitted
    }

    /// The `GET /v1/budgets` document body (also answers POST).
    fn render(&self, refits: u64) -> String {
        let mut out = String::from("{\"max_instances\": ");
        match self.max_instances {
            Some(cap) => out.push_str(&cap.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(", \"deadline_ms\": ");
        match self.deadline_ms {
            Some(ms) => out.push_str(&ms.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ", \"budget_growth\": {}, \"jobs_since_refit\": {}, \"pages_observed\": {}, \"refits\": {refits}}}",
            self.growth, self.jobs_since_refit, self.acc.pages
        ));
        out
    }
}

/// Shared state behind every connection handler and pool worker.
#[derive(Debug)]
pub struct ServiceState {
    /// The compile-once engine; cloned per job to attach that job's
    /// cancel token (clones share the one compiled grammar).
    pub extractor: FormExtractor,
    /// All jobs, by id.
    pub store: JobStore,
    /// The bounded queue between handlers and pool workers.
    pub queue: JobQueue,
    /// The `/metrics` counter block.
    pub metrics: Metrics,
    /// Configuration the state was built from.
    pub config: ServiceConfig,
    /// The live budget control plane (see [`BudgetControl`]). Locked
    /// briefly at job start (read budgets) and job end (absorb
    /// evidence, maybe refit) — never across a parse.
    pub budgets: Mutex<BudgetControl>,
    /// The grammar-induction control plane (see [`InductionControl`]).
    /// Locked briefly at job start (read the grammar override) and job
    /// end (absorb arrangements, maybe refit) — the refit itself
    /// replays corpora and is the one deliberate long hold; it runs at
    /// most once per `induce_every` jobs and never when induction is
    /// disabled.
    pub induction: Mutex<InductionControl>,
    stopping: AtomicBool,
}

impl ServiceState {
    /// Builds the shared state: one extractor with `config`'s batch
    /// workers and fault plan (grammar compiled once, here), an empty
    /// store, an empty queue. The per-page budgets are not set here:
    /// [`ServiceState::run_job`] applies the control plane's, which
    /// start from `config`. The extractor carries a process-wide parse
    /// cache, so a page resubmitted unchanged in a later job replays
    /// the earlier visit (the per-job extractor clones share it).
    pub fn new(config: ServiceConfig) -> Self {
        let mut extractor = FormExtractor::new().parse_cache(LruParseCache::shared());
        if let Some(workers) = config.batch_workers {
            extractor = extractor.worker_threads(workers);
        }
        if let Some(plan) = &config.fault_plan {
            extractor = extractor.fault_plan(plan.clone());
        }
        let budgets = Mutex::new(BudgetControl::from_config(&config));
        ServiceState {
            extractor,
            store: JobStore::default(),
            queue: JobQueue::new(config.queue_capacity),
            metrics: Metrics::default(),
            config,
            budgets,
            induction: Mutex::new(InductionControl::default()),
            stopping: AtomicBool::new(false),
        }
    }

    /// Whether a shutdown has been requested.
    pub fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::Relaxed)
    }

    /// Starts a graceful shutdown: no new submissions, queued jobs
    /// drain, workers exit once the queue is empty.
    pub fn begin_shutdown(&self) {
        self.stopping.store(true, Ordering::Relaxed);
        self.queue.shutdown();
    }

    /// One pool worker: claim, extract, settle — until the queue shuts
    /// down and drains.
    pub fn work_loop(&self) {
        while let Some(id) = self.queue.pop(0) {
            self.metrics.queue_depth.dec();
            self.run_job(id);
        }
    }

    /// Runs one claimed job to completion and records the result. The
    /// job runs under the control plane's *current* budgets (not the
    /// boot configuration), and its outcome feeds the next refit.
    pub fn run_job(&self, id: u64) {
        let Some((pages, max_retries, token)) = self.store.claim(id) else {
            return;
        };
        let (cap, deadline_ms, growth) = {
            let control = self.budgets.lock().expect("budget lock");
            (control.max_instances, control.deadline_ms, control.growth)
        };
        let mut extractor = self.extractor.clone().cancel_token(token);
        if self.config.induce_every.is_some() {
            let control = self.induction.lock().expect("induction lock");
            if let Some(grammar) = control.live_grammar() {
                extractor = extractor.with_grammar_swapped(grammar);
            }
        }
        if let Some(cap) = cap {
            extractor = extractor.max_instances(cap);
        }
        if let Some(ms) = deadline_ms {
            extractor = extractor.page_deadline(Duration::from_millis(ms));
        }
        let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
        let opts = AdaptiveOptions {
            max_retries: max_retries.unwrap_or(self.config.max_retries),
            budget_growth: growth,
        };
        let batch = extractor.extract_batch_adaptive(&refs, &opts);
        if let Some(every) = self.config.induce_every {
            // Collect: fold the job's parse residue into the book. The
            // arrangements are mined under the grammar the job actually
            // ran (spans come from its charts), so the proximity
            // quantizer must match that grammar too.
            let proximity = extractor.grammar().proximity;
            let mut control = self.induction.lock().expect("induction lock");
            for (index, extraction) in batch.extractions.iter().enumerate() {
                control.book.absorb_page(
                    &format!("job{id}:{index}"),
                    &extraction.tokens,
                    &extraction.report.missing,
                    &extraction.pattern_spans,
                    &proximity,
                );
            }
            control.jobs_since += 1;
            if control.jobs_since >= every.max(1) {
                control.jobs_since = 0;
                self.metrics.grammar_inductions.bump();
                if control.gate.is_none() {
                    control.gate = Some(InductionGate::new(
                        self.extractor.compiled(),
                        self.config.batch_workers,
                    ));
                }
                let current = control
                    .live_grammar()
                    .unwrap_or_else(|| Arc::clone(self.extractor.compiled()));
                let InductionControl {
                    book,
                    gate,
                    seen,
                    accepted,
                    grammar,
                    ..
                } = &mut *control;
                let gate = gate.as_mut().expect("gate built above");
                let (next, newly) =
                    refit_grammar(book, current, InductionControl::MIN_SUPPORT, gate, seen);
                if !newly.is_empty() {
                    self.metrics.productions_induced.add(newly.len() as u64);
                    accepted.extend(newly);
                    *grammar = Some(next);
                }
                book.clear();
            }
        }
        {
            let mut control = self.budgets.lock().expect("budget lock");
            control.absorb(&batch.stats, &batch.failures);
            if self
                .config
                .refit_every
                .is_some_and(|every| control.jobs_since_refit >= every.max(1))
                && control.refit()
            {
                self.metrics.budget_refits.bump();
            }
        }
        self.metrics.pages_degraded.add(batch.stats.degraded as u64);
        self.metrics.pages_salvaged.add(batch.stats.salvaged as u64);
        self.metrics
            .pages_recovered
            .add(batch.stats.recovered as u64);
        self.metrics
            .pages_cancelled
            .add(batch.stats.cancelled as u64);
        self.metrics
            .pages_cache_hit
            .add(batch.stats.cache_hits as u64);
        self.metrics
            .pages_cache_miss
            .add(batch.stats.cache_misses as u64);
        self.metrics.jobs_completed.bump();
        self.store.finish(id, batch);
    }
}

/// Serves one connection to completion: requests are read
/// sequentially with [`RequestReader`] (keep-alive), each routed
/// behind a panic boundary, until the peer closes, errs, asks
/// `Connection: close`, or the service is shutting down. Generic over
/// the stream so the property tests can drive it with in-memory
/// bytes — the fuzzing contract is on *this* function, not on a
/// socket.
pub fn handle_connection<S: Read + Write>(state: &ServiceState, stream: &mut S) {
    let mut reader = RequestReader::new();
    loop {
        match reader.read_request(stream, state.config.max_body_bytes) {
            Err(RequestError::Closed) => return,
            Err(err) => {
                // Any request error ends the conversation: framing is
                // no longer trustworthy past a malformed request.
                let response = Response::json(err.status(), error_body(&err.detail()));
                state.metrics.observe_status(response.status);
                response.write_to(stream, false);
                return;
            }
            Ok(request) => {
                let response =
                    std::panic::catch_unwind(AssertUnwindSafe(|| route(state, &request)))
                        .unwrap_or_else(|_| Response::json(500, error_body("handler panicked")));
                // The stop flag is read *after* routing so the request
                // that triggers the shutdown is itself answered with
                // `Connection: close`.
                let keep_alive = request.keep_alive && !state.is_stopping();
                state.metrics.observe_status(response.status);
                response.write_to(stream, keep_alive);
                if !keep_alive {
                    return;
                }
            }
        }
    }
}

/// `{"error": "<detail>"}`.
fn error_body(detail: &str) -> String {
    let mut out = String::from("{\"error\": ");
    push_json_str(&mut out, detail);
    out.push('}');
    out
}

/// Maps one parsed request to its response. Total: every path/method
/// combination answers something typed.
pub fn route(state: &ServiceState, request: &Request) -> Response {
    let method = request.method.as_str();
    match request.path() {
        "/healthz" => match method {
            "GET" => Response::text(200, "ok\n"),
            _ => method_not_allowed("GET"),
        },
        "/metrics" => match method {
            "GET" => Response::text(200, state.metrics.render()),
            _ => method_not_allowed("GET"),
        },
        "/v1/batches" => match method {
            "POST" => submit(state, request),
            _ => method_not_allowed("POST"),
        },
        "/v1/jobs" => match method {
            "GET" => job_list(state),
            _ => method_not_allowed("GET"),
        },
        "/v1/budgets" => match method {
            "GET" => budgets_get(state),
            "POST" => budgets_post(state, request),
            _ => method_not_allowed("GET, POST"),
        },
        "/v1/shutdown" => match method {
            "POST" => {
                state.begin_shutdown();
                Response::json(202, "{\"shutdown\": \"draining\"}")
            }
            _ => method_not_allowed("POST"),
        },
        path => match path.strip_prefix("/v1/batches/") {
            Some(rest) => batch_endpoint(state, method, rest),
            None => Response::json(404, error_body("no such endpoint")),
        },
    }
}

fn method_not_allowed(allowed: &str) -> Response {
    Response::json(
        405,
        error_body(&format!("method not allowed (try {allowed})")),
    )
}

/// `POST /v1/batches`: parse, register, enqueue — or 400/503.
fn submit(state: &ServiceState, request: &Request) -> Response {
    if state.is_stopping() {
        return Response::json(503, error_body("shutting down"));
    }
    let batch = match parse_batch_request(&request.body) {
        Ok(batch) => batch,
        Err(why) => return Response::json(400, error_body(&why)),
    };
    let pages = batch.pages.len();
    let revisit_hints = batch.revisit_hints;
    let id = state.store.create(batch.pages, batch.max_retries);
    if state.queue.push(id).is_err() {
        state.store.remove(id);
        state.metrics.jobs_rejected.bump();
        return Response::json(503, error_body("job queue is full"));
    }
    state.metrics.jobs_submitted.bump();
    state.metrics.pages_submitted.add(pages as u64);
    state.metrics.revisit_hints.add(revisit_hints);
    state.metrics.queue_depth.inc();
    Response::json(
        202,
        format!("{{\"job\": {id}, \"state\": \"queued\", \"pages\": {pages}}}"),
    )
}

/// `GET /v1/budgets`: the control plane's live budgets and the refit
/// loop's position (jobs and pages absorbed since the last refit,
/// total refits).
fn budgets_get(state: &ServiceState) -> Response {
    let body = state
        .budgets
        .lock()
        .expect("budget lock")
        .render(state.metrics.budget_refits.value());
    Response::json(200, body)
}

/// `POST /v1/budgets`: manual recalibration — overrides any subset of
/// `max_instances` / `deadline_ms` / `budget_growth` for subsequent
/// jobs and answers the resulting document. Unknown fields are 400,
/// like every other body this service parses. Manual overrides do not
/// count as refits (the `budget_refits` counter tracks the automatic
/// loop only).
fn budgets_post(state: &ServiceState, request: &Request) -> Response {
    let update = match parse_budget_update(&request.body) {
        Ok(update) => update,
        Err(why) => return Response::json(400, error_body(&why)),
    };
    let mut control = state.budgets.lock().expect("budget lock");
    if let Some(cap) = update.max_instances {
        control.max_instances = Some(cap);
    }
    if let Some(ms) = update.deadline_ms {
        control.deadline_ms = Some(ms);
    }
    if let Some(growth) = update.budget_growth {
        control.growth = growth;
    }
    Response::json(200, control.render(state.metrics.budget_refits.value()))
}

/// `GET /v1/jobs`: every known job — id, phase, page count — sorted by
/// id (submission order), finished jobs included. The deterministic
/// order makes the listing diffable across polls.
fn job_list(state: &ServiceState) -> Response {
    let jobs = state.store.list();
    let mut out = format!("{{\"count\": {}, \"jobs\": [", jobs.len());
    for (index, (id, phase, pages)) in jobs.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"job\": {id}, \"state\": \"{}\", \"pages\": {pages}}}",
            phase.as_str()
        ));
    }
    out.push_str("]}");
    Response::json(200, out)
}

/// `GET|DELETE /v1/batches/{id}[/results]`.
fn batch_endpoint(state: &ServiceState, method: &str, rest: &str) -> Response {
    let (id_str, sub) = match rest.split_once('/') {
        Some((id, sub)) => (id, Some(sub)),
        None => (rest, None),
    };
    let Ok(id) = id_str.parse::<u64>() else {
        return Response::json(404, error_body("no such job"));
    };
    match (method, sub) {
        ("GET", None) => job_status(state, id),
        ("DELETE", None) => job_delete(state, id),
        ("GET", Some("results")) => job_results(state, id),
        ("DELETE", Some("results")) => method_not_allowed("GET"),
        (_, None) => method_not_allowed("GET, DELETE"),
        _ => Response::json(404, error_body("no such endpoint")),
    }
}

/// `GET /v1/batches/{id}`: phase + stats (stats null until finished).
fn job_status(state: &ServiceState, id: u64) -> Response {
    let body = state.store.with_job(id, |job| {
        let mut out = format!(
            "{{\"job\": {id}, \"state\": \"{}\", \"pages\": {}, \"stats\": ",
            job.phase.as_str(),
            job.pages.len()
        );
        match &job.result {
            Some(batch) => out.push_str(&stats_to_json(&batch.stats)),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    });
    match body {
        Some(body) => Response::json(200, body),
        None => Response::json(404, error_body("no such job")),
    }
}

/// `DELETE /v1/batches/{id}`: removes a finished job (later requests
/// for it answer 404), or fires an unfinished job's cancel token. A
/// cancelled job is never yanked — it settles through the normal
/// pipeline (running against a fired token is the engine's
/// all-cancelled fast path) and its results stay queryable, marked
/// `cancelled`.
fn job_delete(state: &ServiceState, id: u64) -> Response {
    match state.store.delete(id) {
        Some(phase) if phase.is_finished() => Response::json(
            200,
            format!(
                "{{\"job\": {id}, \"state\": \"{}\", \"removed\": true}}",
                phase.as_str()
            ),
        ),
        Some(phase) => {
            state.metrics.jobs_cancelled.bump();
            Response::json(
                202,
                format!(
                    "{{\"job\": {id}, \"state\": \"{}\", \"cancel\": \"requested\"}}",
                    phase.as_str()
                ),
            )
        }
        None => Response::json(404, error_body("no such job")),
    }
}

/// `GET /v1/batches/{id}/results`: the full report document. 409 until
/// the job finishes. The `failures` field is
/// [`metaform_extractor::failures_to_json`] output verbatim, placed
/// last so clients (and the differential test) can slice it out and
/// feed it straight back to `failures_from_json`. Large documents
/// stream chunked (see [`Response::write_to`]).
fn job_results(state: &ServiceState, id: u64) -> Response {
    let body = state.store.with_job(id, |job| {
        let Some(batch) = &job.result else {
            return Err(job.phase);
        };
        let status_by_page: HashMap<usize, ErrorKind> = batch
            .failures
            .iter()
            .filter(|f| f.outcome != metaform_extractor::FailureOutcome::Recovered)
            .map(|f| (f.page_index, f.error))
            .collect();
        let salvage_by_page: HashMap<usize, (usize, usize)> = batch
            .failures
            .iter()
            .filter_map(|f| Some((f.page_index, (f.salvage_covered?, f.salvage_tokens?))))
            .collect();
        let mut out = format!(
            "{{\"job\": {id}, \"state\": \"{}\", \"stats\": {}, \"reports\": [",
            job.phase.as_str(),
            stats_to_json(&batch.stats)
        );
        for (index, extraction) in batch.extractions.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            let via = match extraction.via {
                Provenance::Grammar => "grammar",
                Provenance::PartialSalvage => "salvage",
                Provenance::BaselineFallback => "baseline",
                Provenance::CacheHit => "cache_hit",
            };
            let http_status = status_by_page
                .get(&index)
                .map_or(200, |&kind| status_for(kind));
            out.push_str(&format!(
                "{{\"page_index\": {index}, \"via\": \"{via}\", \"http_status\": {http_status}, "
            ));
            // Salvaged pages carry their coverage ratio: the tokens
            // the report accounts for over the page's token count.
            if let Some(&(covered, tokens)) = salvage_by_page.get(&index) {
                out.push_str(&format!(
                    "\"salvage_covered\": {covered}, \"salvage_tokens\": {tokens}, "
                ));
            }
            out.push_str("\"report\": ");
            push_json_str(&mut out, &extraction.report.to_string());
            out.push('}');
        }
        out.push_str("], \"failures\": ");
        // Verbatim telemetry output, minus its trailing newline — the
        // document's closing brace follows immediately.
        out.push_str(failures_to_json(&batch.failures).trim_end());
        out.push('}');
        Ok(out)
    });
    match body {
        None => Response::json(404, error_body("no such job")),
        Some(Err(phase)) => Response::json(
            409,
            error_body(&format!("job is {}, results not ready", phase.as_str())),
        ),
        Some(Ok(body)) => Response::json(200, body),
    }
}

/// A bound, not-yet-serving instance of `metaformd`.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
}

/// How long the accept loops (TCP here, Unix in [`crate::daemon`])
/// sleep when no connection is pending — also the latency bound on
/// observing a shutdown request.
pub(crate) const ACCEPT_IDLE: Duration = Duration::from_millis(2);

impl Server {
    /// Binds the configured address and builds the shared state (this
    /// is where the grammar compiles — before the first request).
    pub fn bind(config: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let state = Arc::new(ServiceState::new(config));
        Ok(Server { listener, state })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state, for embedding and tests.
    pub fn state(&self) -> Arc<ServiceState> {
        Arc::clone(&self.state)
    }

    /// Serves until shut down: spawns the pool workers (and the Unix
    /// daemon listener when configured), then accepts connections and
    /// hands each to its own handler thread. Returns once a shutdown
    /// has been requested (`POST /v1/shutdown`, the daemon `shutdown`
    /// op, or [`ServerHandle::shutdown`]) and every queued job has
    /// drained; connection threads are detached and die with their
    /// sockets.
    pub fn run(self) {
        let workers: Vec<JoinHandle<()>> = (0..self.state.config.pool_workers.max(1))
            .map(|_| {
                let state = Arc::clone(&self.state);
                std::thread::spawn(move || state.work_loop())
            })
            .collect();
        let daemon =
            self.state.config.uds_path.clone().and_then(|path| {
                match crate::daemon::spawn(Arc::clone(&self.state), &path) {
                    Ok(handle) => Some(handle),
                    Err(e) => {
                        eprintln!("metaformd: cannot bind daemon socket {path}: {e}");
                        None
                    }
                }
            });
        // Nonblocking accept so the loop observes the stop flag
        // within ACCEPT_IDLE even with no traffic.
        let _ = self.listener.set_nonblocking(true);
        loop {
            if self.state.is_stopping() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Accepted sockets go back to blocking with a read
                    // timeout: a peer that connects and goes silent
                    // occupies one thread for at most the timeout.
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_read_timeout(Some(self.state.config.read_timeout));
                    let state = Arc::clone(&self.state);
                    state.metrics.connections.bump();
                    state.metrics.connections_active.inc();
                    std::thread::spawn(move || {
                        let mut stream = stream;
                        handle_connection(&state, &mut stream);
                        state.metrics.connections_active.dec();
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_IDLE);
                }
                Err(_) => {
                    // Transient accept errors (EINTR, resource blips):
                    // keep serving; the stop flag still exits above.
                }
            }
        }
        self.state.queue.shutdown();
        for worker in workers {
            let _ = worker.join();
        }
        if let Some(daemon) = daemon {
            let _ = daemon.join();
        }
    }

    /// [`Server::run`] on a background thread; the handle shuts it
    /// down. For tests and embedding.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let state = Arc::clone(&self.state);
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            state,
            thread,
        })
    }
}

/// Handle to a [`Server::spawn`]ed instance.
#[derive(Debug)]
pub struct ServerHandle {
    /// The bound address.
    pub addr: SocketAddr,
    /// The server's shared state.
    pub state: Arc<ServiceState>,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    /// Gracefully shuts the server down and waits for it: drains the
    /// queue and joins the accept loop (which polls the stop flag).
    pub fn shutdown(self) {
        self.state.begin_shutdown();
        let _ = self.thread.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// An in-memory stream: reads from a fixed request, collects the
    /// response.
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

    /// Drives one request through `handle_connection`, returning
    /// `(status, body)`.
    fn send(state: &ServiceState, raw: &[u8]) -> (u16, String) {
        let mut stream = MockStream {
            input: Cursor::new(raw.to_vec()),
            output: Vec::new(),
        };
        handle_connection(state, &mut stream);
        let text = String::from_utf8(stream.output).expect("response is UTF-8");
        let (head, body) = text.split_once("\r\n\r\n").expect("has a head");
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("has a status");
        (status, body.to_string())
    }

    fn post_batch(pages_json: &str) -> Vec<u8> {
        let body = format!("{{\"pages\": {pages_json}}}");
        format!(
            "POST /v1/batches HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    fn test_state() -> ServiceState {
        ServiceState::new(ServiceConfig {
            batch_workers: Some(1),
            queue_capacity: 2,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn routes_the_fixed_endpoints() {
        let state = test_state();
        let (status, body) = send(&state, b"GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, body) = send(&state, b"GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("metaformd_requests_total"));
        let (status, _) = send(&state, b"GET /nope HTTP/1.1\r\n\r\n");
        assert_eq!(status, 404);
        let (status, _) = send(&state, b"DELETE /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(status, 405);
        let (status, _) = send(&state, b"GET /v1/batches HTTP/1.1\r\n\r\n");
        assert_eq!(status, 405);
        let (status, _) = send(&state, b"GET /v1/batches/notanumber HTTP/1.1\r\n\r\n");
        assert_eq!(status, 404);
        let (status, _) = send(&state, b"GET /v1/batches/1/sideways HTTP/1.1\r\n\r\n");
        assert_eq!(status, 404);
        let (status, body) = send(
            &state,
            b"POST /v1/batches HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!",
        );
        assert_eq!(status, 400);
        assert!(body.contains("error"));
    }

    #[test]
    fn one_connection_serves_sequential_requests() {
        let state = test_state();
        let mut stream = MockStream {
            input: Cursor::new(
                b"GET /healthz HTTP/1.1\r\n\r\n\
                  GET /v1/jobs HTTP/1.1\r\n\r\n\
                  GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n\
                  GET /never-reached HTTP/1.1\r\n\r\n"
                    .to_vec(),
            ),
            output: Vec::new(),
        };
        handle_connection(&state, &mut stream);
        let text = String::from_utf8(stream.output).expect("UTF-8");
        let responses: Vec<&str> = text.split("HTTP/1.1 ").filter(|s| !s.is_empty()).collect();
        assert_eq!(
            responses.len(),
            3,
            "three served, fourth never read past Connection: close — {text}"
        );
        assert!(responses[0].starts_with("200"));
        assert!(responses[0].contains("Connection: keep-alive\r\n"));
        assert!(responses[1].contains("\"count\": 0"));
        assert!(
            responses[2].contains("Connection: close\r\n"),
            "explicit close honoured"
        );
        assert_eq!(state.metrics.requests.value(), 3);
    }

    #[test]
    fn a_job_walks_submit_run_results() {
        let state = test_state();
        let (status, body) = send(
            &state,
            &post_batch(
                r#"["<form>Author <input type=text name=q><input type=submit value=S></form>"]"#,
            ),
        );
        assert_eq!(status, 202, "{body}");
        assert!(body.contains("\"job\": 1"), "{body}");

        // Not finished yet: status says queued, results say 409.
        let (status, body) = send(&state, b"GET /v1/batches/1 HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"state\": \"queued\""), "{body}");
        assert!(body.contains("\"stats\": null"), "{body}");
        let (status, _) = send(&state, b"GET /v1/batches/1/results HTTP/1.1\r\n\r\n");
        assert_eq!(status, 409);

        // Run the queued job the way a pool worker would.
        let id = state.queue.pop(0).expect("queued");
        state.run_job(id);

        let (status, body) = send(&state, b"GET /v1/batches/1 HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"state\": \"done\""), "{body}");
        assert!(body.contains("\"pages\": 1"), "{body}");
        let (status, body) = send(&state, b"GET /v1/batches/1/results HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"via\": \"grammar\""), "{body}");
        assert!(body.contains("\"http_status\": 200"), "{body}");
        assert!(body.contains("Author"), "{body}");
        assert!(body.ends_with("\"failures\": []}"), "{body}");

        // Unknown job: 404 on all three verbs.
        for raw in [
            &b"GET /v1/batches/99 HTTP/1.1\r\n\r\n"[..],
            b"GET /v1/batches/99/results HTTP/1.1\r\n\r\n",
            b"DELETE /v1/batches/99 HTTP/1.1\r\n\r\n",
        ] {
            assert_eq!(send(&state, raw).0, 404);
        }
    }

    #[test]
    fn jobs_listing_is_sorted_and_tracks_phases() {
        let state = test_state();
        let (status, body) = send(&state, b"GET /v1/jobs HTTP/1.1\r\n\r\n");
        assert_eq!(
            (status, body.as_str()),
            (200, "{\"count\": 0, \"jobs\": []}")
        );
        assert_eq!(send(&state, b"POST /v1/jobs HTTP/1.1\r\n\r\n").0, 405);

        let page = r#"["<form>A <input type=text name=a></form>"]"#;
        assert_eq!(send(&state, &post_batch(page)).0, 202);
        assert_eq!(send(&state, &post_batch("[]")).0, 202);
        let id = state.queue.pop(0).expect("queued");
        state.run_job(id);

        let (status, body) = send(&state, b"GET /v1/jobs HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert_eq!(
            body,
            "{\"count\": 2, \"jobs\": [\
             {\"job\": 1, \"state\": \"done\", \"pages\": 1}, \
             {\"job\": 2, \"state\": \"queued\", \"pages\": 0}]}"
        );
    }

    #[test]
    fn resubmitted_pages_replay_from_the_parse_cache() {
        let state = test_state();
        let page = "<form>Author <input type=text name=q>\
                    <input type=submit value=Search></form>";
        let entry = format!("{{\"html\": \"{}\", \"revisit\": true}}", page);

        // First visit: a miss that populates the cache.
        assert_eq!(send(&state, &post_batch(&format!("[\"{page}\"]"))).0, 202);
        let id = state.queue.pop(0).expect("queued");
        state.run_job(id);
        let (_, first) = send(&state, b"GET /v1/batches/1/results HTTP/1.1\r\n\r\n");
        assert!(first.contains("\"via\": \"grammar\""), "{first}");

        // Second visit, flagged revisit: served from the cache.
        assert_eq!(send(&state, &post_batch(&format!("[{entry}]"))).0, 202);
        let id = state.queue.pop(0).expect("queued");
        state.run_job(id);
        let (status, second) = send(&state, b"GET /v1/batches/2/results HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(second.contains("\"via\": \"cache_hit\""), "{second}");
        assert!(second.contains("\"cache_hits\": 1"), "{second}");

        // Both visits return the same report bytes.
        let report = |body: &str| {
            let at = body.find("\"report\": ").expect("has a report");
            body[at..].to_string()
        };
        assert_eq!(report(&first), report(&second));

        let (_, metrics) = send(&state, b"GET /metrics HTTP/1.1\r\n\r\n");
        assert!(
            metrics.contains("metaformd_pages_cache_hit_total 1\n"),
            "{metrics}"
        );
        assert!(
            metrics.contains("metaformd_pages_cache_miss_total 1\n"),
            "{metrics}"
        );
        assert!(!metrics.contains("cache_delta"), "{metrics}");
        assert!(
            metrics.contains("metaformd_revisit_hints_total 1\n"),
            "{metrics}"
        );
    }

    #[test]
    fn cancelling_a_queued_job_settles_it_as_cancelled() {
        let state = test_state();
        let (status, _) = send(
            &state,
            &post_batch(r#"["<form>A <input type=text name=a></form>"]"#),
        );
        assert_eq!(status, 202);
        let (status, body) = send(&state, b"DELETE /v1/batches/1 HTTP/1.1\r\n\r\n");
        assert_eq!(status, 202);
        assert!(body.contains("\"cancel\": \"requested\""), "{body}");

        // The worker still runs it — against the fired token.
        let id = state.queue.pop(0).expect("still queued");
        state.run_job(id);
        let (_, body) = send(&state, b"GET /v1/batches/1 HTTP/1.1\r\n\r\n");
        assert!(body.contains("\"state\": \"cancelled\""), "{body}");
        let (status, body) = send(&state, b"GET /v1/batches/1/results HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200, "cancelled jobs keep queryable results");
        assert!(body.contains("\"via\": \"baseline\""), "{body}");
        assert!(body.contains("\"http_status\": 499"), "{body}");
        assert_eq!(state.metrics.jobs_cancelled.value(), 1);
    }

    #[test]
    fn deleting_a_finished_job_removes_it() {
        let state = test_state();
        for _ in 0..2 {
            send(
                &state,
                &post_batch(r#"["<form>A <input type=text name=a></form>"]"#),
            );
        }
        // Job 1 runs to `done`; job 2 is cancelled, then runs.
        let (status, _) = send(&state, b"DELETE /v1/batches/2 HTTP/1.1\r\n\r\n");
        assert_eq!(status, 202);
        for _ in 0..2 {
            let id = state.queue.pop(0).expect("queued");
            state.run_job(id);
        }
        for (id, phase) in [(1, "done"), (2, "cancelled")] {
            let delete = format!("DELETE /v1/batches/{id} HTTP/1.1\r\n\r\n");
            let (status, body) = send(&state, delete.as_bytes());
            assert_eq!(status, 200, "{body}");
            assert!(body.contains(&format!("\"state\": \"{phase}\"")), "{body}");
            assert!(body.contains("\"removed\": true"), "{body}");
            for path in ["", "/results"] {
                let get = format!("GET /v1/batches/{id}{path} HTTP/1.1\r\n\r\n");
                assert_eq!(send(&state, get.as_bytes()).0, 404, "{get}");
            }
            assert_eq!(send(&state, delete.as_bytes()).0, 404, "deleted twice");
        }
        assert!(state.store.list().is_empty());
        // Only the one real cancel counts.
        assert_eq!(state.metrics.jobs_cancelled.value(), 1);
    }

    #[test]
    fn budgets_endpoint_reads_and_overrides_the_control_plane() {
        let state = test_state();
        let (status, body) = send(&state, b"GET /v1/budgets HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"budget_growth\": 2"), "{body}");
        assert!(body.contains("\"refits\": 0"), "{body}");

        let post = |json: &str| {
            format!(
                "POST /v1/budgets HTTP/1.1\r\nContent-Length: {}\r\n\r\n{json}",
                json.len()
            )
            .into_bytes()
        };
        let (status, body) = send(
            &state,
            &post(r#"{"max_instances": 12345, "budget_growth": 3}"#),
        );
        assert_eq!(status, 200);
        assert!(body.contains("\"max_instances\": 12345"), "{body}");
        assert!(body.contains("\"budget_growth\": 3"), "{body}");
        let (status, body) = send(&state, &post(r#"{"max_retries": 1}"#));
        assert_eq!(status, 400, "unknown fields fail loudly: {body}");

        // The override sticks and governs subsequent jobs.
        let (_, body) = send(&state, b"GET /v1/budgets HTTP/1.1\r\n\r\n");
        assert!(body.contains("\"max_instances\": 12345"), "{body}");
        assert_eq!(state.budgets.lock().unwrap().growth, 3);
        assert_eq!(
            state.metrics.budget_refits.value(),
            0,
            "manual overrides are not refits"
        );
        let (status, _) = send(&state, b"DELETE /v1/budgets HTTP/1.1\r\n\r\n");
        assert_eq!(status, 405);
    }

    #[test]
    fn completed_jobs_feed_the_automatic_refit_loop() {
        let state = ServiceState::new(ServiceConfig {
            batch_workers: Some(1),
            refit_every: Some(1),
            ..ServiceConfig::default()
        });
        let page = r#"["<form>Author <input type=text name=q><input type=submit value=S></form>"]"#;
        assert_eq!(send(&state, &post_batch(page)).0, 202);
        let id = state.queue.pop(0).expect("queued");
        state.run_job(id);
        assert_eq!(state.metrics.budget_refits.value(), 1);
        let (_, body) = send(&state, b"GET /v1/budgets HTTP/1.1\r\n\r\n");
        assert!(body.contains("\"refits\": 1"), "{body}");
        assert!(body.contains("\"jobs_since_refit\": 0"), "{body}");
        assert!(
            state.budgets.lock().expect("lock").max_instances.is_some(),
            "the fit replaced the boot budgets with observed ones"
        );
    }

    #[test]
    fn induce_every_mines_validates_and_hot_swaps_the_grammar() {
        let state = ServiceState::new(ServiceConfig {
            batch_workers: Some(1),
            induce_every: Some(1),
            ..ServiceConfig::default()
        });
        let boot = Arc::clone(state.extractor.compiled());
        // Submit the induction-split training slice as one job: pages
        // whose recurring unparsed arrangements the miner can cluster.
        let (train, _) = metaform_datasets::induction_split();
        let mut pages = String::from("[");
        for (index, src) in train.sources.iter().enumerate() {
            if index > 0 {
                pages.push(',');
            }
            push_json_str(&mut pages, &src.html);
        }
        pages.push(']');
        assert_eq!(send(&state, &post_batch(&pages)).0, 202);
        let id = state.queue.pop(0).expect("queued");
        state.run_job(id);

        assert_eq!(state.metrics.grammar_inductions.value(), 1);
        assert!(
            state.metrics.productions_induced.value() >= 1,
            "the training slice supports at least one accepted candidate"
        );
        {
            let control = state.induction.lock().expect("induction lock");
            assert!(!control.accepted().is_empty());
            let live = control.live_grammar().expect("grammar hot-swapped");
            assert!(
                !Arc::ptr_eq(&live, &boot),
                "acceptance replaces the live grammar"
            );
            assert!(
                live.grammar().productions.len() > boot.grammar().productions.len(),
                "the swap added productions"
            );
        }
        let (_, body) = send(&state, b"GET /metrics HTTP/1.1\r\n\r\n");
        assert!(
            body.contains("metaformd_grammar_inductions_total 1"),
            "{body}"
        );
        assert!(
            body.contains("metaformd_productions_induced_total"),
            "{body}"
        );

        // A follow-up job runs under the extended grammar without
        // disturbing it: its pages are in-grammar, so the next refit
        // finds nothing new to accept.
        let page = r#"["<form>Author <input type=text name=q><input type=submit value=S></form>"]"#;
        assert_eq!(send(&state, &post_batch(page)).0, 202);
        let id = state.queue.pop(0).expect("queued");
        state.run_job(id);
        assert_eq!(state.metrics.grammar_inductions.value(), 2);
        let control = state.induction.lock().expect("induction lock");
        let live = control.live_grammar().expect("override persists");
        assert!(!Arc::ptr_eq(&live, &boot));
    }

    #[test]
    fn full_queue_answers_503_and_forgets_the_job() {
        let state = test_state(); // capacity 2
        for _ in 0..2 {
            assert_eq!(send(&state, &post_batch("[]")).0, 202);
        }
        let (status, body) = send(&state, &post_batch("[]"));
        assert_eq!(status, 503);
        assert!(body.contains("queue is full"), "{body}");
        // The rejected job is not queryable: it was never accepted.
        let (status, _) = send(&state, b"GET /v1/batches/3 HTTP/1.1\r\n\r\n");
        assert_eq!(status, 404);
        // And after shutdown begins, submissions are refused outright.
        state.begin_shutdown();
        assert_eq!(send(&state, &post_batch("[]")).0, 503);
    }

    #[test]
    fn shutdown_endpoint_flips_the_flag() {
        let state = test_state();
        let (status, body) = send(&state, b"POST /v1/shutdown HTTP/1.1\r\n\r\n");
        assert_eq!(status, 202);
        assert!(body.contains("draining"), "{body}");
        assert!(state.is_stopping());
        assert_eq!(state.queue.pop(0), None, "queue is shut down and empty");
    }
}
