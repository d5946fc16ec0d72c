//! The four workloads: their inputs, the system each one sets up, one
//! job through that system, and the reference each output is checked
//! against.
//!
//! Every workload is a closed loop with one caller — a crawler and an
//! interactive client both wait for a job's results before sending the
//! next — and one extractor worker, because two workers on a two-core
//! machine shared with other processes spread far more from run to run
//! than one. Budgets are instance caps only, never wall-clock deadlines,
//! so every ladder decision is deterministic.

use crate::corpus::{pool, Inputs};
use crate::trace::{Mirror, TimedCache, Tracer};
use metaform_core::ExtractionReport;
use metaform_eval::metrics::{score_extraction, DatasetScore, SourceScore};
use metaform_extractor::{AdaptiveBatch, AdaptiveOptions, FormExtractor, LruParseCache};
use metaform_grammar::{CompiledGrammar, Grammar};
use metaform_service::{read_request, route, JsonValue, ServiceConfig, ServiceState};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Unique pages in large jobs through `extract_batch_adaptive`,
    /// default budgets, no cache: every page runs the front end and the
    /// parser exactly once.
    CrawlCold,
    /// Zipf re-visits over a pool several times the parse cache's
    /// capacity, a fixed share of them mutated, through an extractor
    /// with the LRU parse cache: exact hits skip the parser.
    RevisitZipf,
    /// The same generator under a low instance cap and one retry, so
    /// retries, `salvage_merge` and `extract_baseline` do much of the
    /// work.
    StarvedLadder,
    /// Small jobs of unique pages sent as JSON through the service's
    /// request path on the benchmark thread — `read_request` →
    /// `route(POST /v1/batches)` → `queue.pop` → `run_job` →
    /// `route(GET …/results)` → `Response::to_bytes` — against
    /// `ServiceState::new` defaults but one batch worker.
    ServiceDispatch,
}

pub const ALL: [Kind; 4] = [
    Kind::CrawlCold,
    Kind::RevisitZipf,
    Kind::StarvedLadder,
    Kind::ServiceDispatch,
];

const CRAWL_POOL: usize = 4096;
const CRAWL_JOB: usize = 32;
const REVISIT_POOL: usize = 4 * LruParseCache::DEFAULT_CAPACITY;
const REVISIT_VISITS: usize = 32 * 1024;
const REVISIT_JOB: usize = 32;
const REVISIT_ZIPF: f64 = 1.0;
const REVISIT_MUTATED: f64 = 0.15;
const STARVED_POOL: usize = 4096;
const STARVED_JOB: usize = 32;
/// The starved golden fixture's cap: with one retry at growth 2 it
/// leaves pages on all three ladder outcomes.
const STARVED_CAP: usize = 40;
const STARVED_RETRIES: usize = 1;
const SERVICE_POOL: usize = 4096;
const SERVICE_JOB: usize = 8;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::CrawlCold => "crawl_cold",
            Kind::RevisitZipf => "revisit_zipf",
            Kind::StarvedLadder => "starved_ladder",
            Kind::ServiceDispatch => "service_dispatch",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's inputs for `seed`.
    pub fn inputs(self, seed: u64) -> Inputs {
        match self {
            Kind::CrawlCold => Inputs::chunked(pool(seed, CRAWL_POOL), CRAWL_JOB),
            Kind::RevisitZipf => Inputs::zipf(
                pool(seed, REVISIT_POOL),
                seed,
                REVISIT_VISITS,
                REVISIT_JOB,
                REVISIT_ZIPF,
                REVISIT_MUTATED,
            ),
            Kind::StarvedLadder => Inputs::chunked(pool(seed, STARVED_POOL), STARVED_JOB),
            Kind::ServiceDispatch => Inputs::chunked(pool(seed, SERVICE_POOL), SERVICE_JOB),
        }
    }

    /// `(instance cap, retry rounds, budget growth)` the workload runs
    /// under; `None` is the parser's default cap.
    fn budgets(self) -> (Option<usize>, AdaptiveOptions) {
        match self {
            Kind::StarvedLadder => (
                Some(STARVED_CAP),
                AdaptiveOptions {
                    max_retries: STARVED_RETRIES,
                    budget_growth: 2,
                },
            ),
            Kind::ServiceDispatch => {
                let config = ServiceConfig::default();
                (
                    None,
                    AdaptiveOptions {
                        max_retries: config.max_retries,
                        budget_growth: config.budget_growth,
                    },
                )
            }
            _ => (None, AdaptiveOptions::default()),
        }
    }

    /// A cache-less one-worker extractor under the workload's budgets.
    fn plain_extractor(self, compiled: Arc<CompiledGrammar>) -> FormExtractor {
        let ex = FormExtractor::with_compiled(compiled).worker_threads(1);
        match self.budgets().0 {
            Some(cap) => ex.max_instances(cap),
            None => ex,
        }
    }
}

/// What every output is checked against, plus the accuracy of those
/// outputs against the generator's ground truth. References are kept
/// as digests of the rendered reports, so that a large page pool does
/// not also fill the benchmark process with report text; the text is
/// rendered again only to describe a mismatch.
pub struct References {
    ex: FormExtractor,
    opts: AdaptiveOptions,
    service: bool,
    /// Report digest per table document (batch workloads).
    by_doc: Vec<u64>,
    /// Report digests per job (service workload).
    by_job: Vec<Vec<u64>>,
    /// Report digest of the set-up page.
    pub probe: u64,
    pub accuracy: f64,
    pub scored_pages: usize,
}

/// Digest of a rendered report.
pub fn digest(report: &str) -> u64 {
    let mut h = DefaultHasher::new();
    report.hash(&mut h);
    h.finish()
}

impl References {
    /// Computes the references with the library directly, outside any
    /// timed region:
    /// - batch workloads: each document through single-page
    ///   `FormExtractor::extract` under the same budgets, escalating
    ///   the cap the way the retry rounds do (no cache, so
    ///   `revisit_zipf` is held to cold extraction — the cache-parity
    ///   invariant);
    /// - `service_dispatch`: each job through in-process
    ///   `extract_batch_adaptive` (the service differential).
    ///
    /// Accuracy is scored on the generated pages only (mutated revisits
    /// have no ground truth); the ground truth is dropped afterwards.
    pub fn build(
        kind: Kind,
        inputs: &mut Inputs,
        probe: &str,
        compiled: &Arc<CompiledGrammar>,
    ) -> Self {
        let pool = std::mem::take(&mut inputs.pool);
        let mut refs = References {
            ex: kind.plain_extractor(compiled.clone()),
            opts: kind.budgets().1,
            service: kind == Kind::ServiceDispatch,
            by_doc: Vec::new(),
            by_job: Vec::new(),
            probe: 0,
            accuracy: 0.0,
            scored_pages: 0,
        };
        refs.probe = digest(&refs.render(&[probe]).remove(0));
        let mut scores: Vec<Option<SourceScore>> = vec![None; pool.len()];
        if refs.service {
            for job in &inputs.jobs {
                let pages: Vec<&str> = job.iter().map(|&d| inputs.html[d].as_str()).collect();
                let batch = refs.ex.extract_batch_adaptive(&pages, &refs.opts);
                for (&doc, extraction) in job.iter().zip(&batch.extractions) {
                    scores[doc] = Some(score_extraction(&pool[doc], extraction));
                }
                refs.by_job
                    .push(render(&batch).iter().map(|r| digest(r)).collect());
            }
        } else {
            for (doc, html) in inputs.html.iter().enumerate() {
                let extraction = ladder_reference(&refs.ex, html, &refs.opts);
                if let Some(source) = pool.get(doc) {
                    scores[doc] = Some(score_extraction(source, &extraction));
                }
                refs.by_doc.push(digest(&extraction.report.to_string()));
            }
        }
        let sources: Vec<SourceScore> = scores.into_iter().flatten().collect();
        refs.scored_pages = sources.len();
        refs.accuracy = DatasetScore {
            name: kind.name().to_string(),
            sources,
        }
        .accuracy();
        refs
    }

    /// The reference reports of `pages`, rendered again (for the
    /// set-up page and for describing a mismatch).
    pub fn render(&self, pages: &[&str]) -> Vec<String> {
        if self.service {
            render(&self.ex.extract_batch_adaptive(pages, &self.opts))
        } else {
            pages
                .iter()
                .map(|html| {
                    ladder_reference(&self.ex, html, &self.opts)
                        .report
                        .to_string()
                })
                .collect()
        }
    }

    /// The report digests expected for job `job`.
    pub fn expected(&self, inputs: &Inputs, job: usize) -> Vec<u64> {
        if self.service {
            self.by_job[job].clone()
        } else {
            inputs.jobs[job]
                .iter()
                .map(|&doc| self.by_doc[doc])
                .collect()
        }
    }
}

/// The fixed cost of one batch call, in µs: the median time of a
/// one-page `extract_batch_adaptive` call on `page` less the median time
/// of `FormExtractor::extract` on it, the two timed in turn on one
/// cache-less one-worker extractor. Default budgets, so that `page`
/// parses once either way; a workload's low cap would send the two
/// calls down different ladder paths.
pub fn batch_overhead_us(page: &str, reps: usize) -> f64 {
    let ex = FormExtractor::new().worker_threads(1);
    let opts = AdaptiveOptions::default();
    let (mut batch, mut single) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let start = Instant::now();
        black_box(ex.extract_batch_adaptive(&[page], &opts));
        batch.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(ex.extract(page));
        single.push(start.elapsed().as_secs_f64());
    }
    (crate::median(&batch) - crate::median(&single)) * 1e6
}

/// Single-page extraction under the adaptive batch's escalation:
/// the first attempt that completes, else the settled last attempt.
fn ladder_reference(
    ex: &FormExtractor,
    html: &str,
    opts: &AdaptiveOptions,
) -> metaform_extractor::Extraction {
    let mut round = ex.clone();
    for r in 0..=opts.max_retries {
        match round.try_extract(html) {
            Ok(extraction) => return extraction,
            Err(e) if e.is_budget_limited() && r < opts.max_retries => {
                let cap = round
                    .budgets()
                    .0
                    .saturating_mul(opts.budget_growth.max(1) as usize);
                round = round.max_instances(cap);
            }
            Err(_) => break,
        }
    }
    round.extract(html)
}

fn render(batch: &AdaptiveBatch) -> Vec<String> {
    batch
        .extractions
        .iter()
        .map(|e| e.report.to_string())
        .collect()
}

/// The system a workload drives.
pub enum Engine {
    Batch {
        ex: FormExtractor,
        opts: AdaptiveOptions,
    },
    Service(Box<ServiceState>),
}

/// One job's raw output, checked after the timed window it ran in.
pub enum Output {
    Batch(AdaptiveBatch),
    Service {
        submit_status: u16,
        results_status: u16,
        /// The results response as wire bytes.
        wire: Vec<u8>,
    },
}

/// Ladder and cache outcome counts over checked pages.
#[derive(Clone, Copy, Debug, Default)]
pub struct Outcomes {
    pub pages: u64,
    pub failed: u64,
    pub recovered: u64,
    pub salvaged: u64,
    pub degraded: u64,
    pub cache_hits: u64,
    pub cache_delta: u64,
    pub cache_misses: u64,
    pub results_bytes: u64,
}

impl Engine {
    /// Builds the workload's system over `compiled`. With a tracer, the
    /// parse cache (if the workload has one) is a [`TimedCache`] of the
    /// same capacity.
    pub fn new(kind: Kind, compiled: Arc<CompiledGrammar>, tracer: Option<&Arc<Tracer>>) -> Self {
        let timed_cache = || -> Arc<dyn metaform_extractor::ParseCache> {
            match tracer {
                Some(t) => Arc::new(TimedCache::new(LruParseCache::DEFAULT_CAPACITY, t.clone())),
                None => LruParseCache::shared(),
            }
        };
        match kind {
            Kind::ServiceDispatch => {
                let mut state = ServiceState::new(ServiceConfig {
                    batch_workers: Some(1),
                    ..ServiceConfig::default()
                });
                state.extractor = state.extractor.clone().with_grammar_swapped(compiled);
                if tracer.is_some() {
                    state.extractor = state.extractor.clone().parse_cache(timed_cache());
                }
                Engine::Service(Box::new(state))
            }
            _ => {
                let mut ex = kind.plain_extractor(compiled);
                if kind == Kind::RevisitZipf {
                    ex = ex.parse_cache(timed_cache());
                }
                Engine::Batch {
                    ex,
                    opts: kind.budgets().1,
                }
            }
        }
    }

    /// A [`Mirror`] of the extractor this system runs, with its retry
    /// rounds.
    pub fn mirror(&self, tracer: Arc<Tracer>) -> Mirror {
        let (ex, opts) = match self {
            Engine::Batch { ex, opts } => (ex, *opts),
            Engine::Service(state) => {
                let config = &state.config;
                (
                    &state.extractor,
                    AdaptiveOptions {
                        max_retries: config.max_retries,
                        budget_growth: config.budget_growth,
                    },
                )
            }
        };
        let capacity = ex.cache().map(|_| LruParseCache::DEFAULT_CAPACITY);
        Mirror::new(ex, opts.max_retries, opts.budget_growth, capacity, tracer)
    }

    /// Runs one job. `tracer` wraps the service's steps in spans.
    pub fn run(&self, pages: &[&str], tracer: &Tracer) -> Output {
        match self {
            Engine::Batch { ex, opts } => {
                Output::Batch(tracer.span("job", || ex.extract_batch_adaptive(pages, opts)))
            }
            Engine::Service(state) => {
                tracer.span("service.round_trip", || service_job(state, pages, tracer))
            }
        }
    }

    /// Forgets a finished service job. The job store keeps finished
    /// jobs until removed and the wire API has no call that does so;
    /// without this, memory would grow with the number of jobs a run
    /// completes and `peak_rss_mb` would track throughput.
    pub fn forget(&self, output: &Output) {
        if let (Engine::Service(state), Output::Service { wire, .. }) = (self, output) {
            if let Some(id) = job_id(body_of(wire)) {
                state.store.remove(id);
            }
        }
    }
}

/// One round trip as a client makes it: encode the pages as a
/// submission, submit, take the job off the queue and run it as a pool
/// worker would, fetch the results.
fn service_job(state: &ServiceState, pages: &[&str], tracer: &Tracer) -> Output {
    let max_body = state.config.max_body_bytes;
    let mut body = String::from("{\"pages\": [");
    for (i, page) in pages.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        metaform_service::push_json_str(&mut body, page);
    }
    body.push_str("]}");
    let post = format!(
        "POST /v1/batches HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (submit_status, id) = tracer.span("service.submit", || {
        let request = read_request(&mut post.as_bytes(), max_body).expect("well-formed request");
        let response = route(state, &request);
        let id = job_id(&response.body);
        black_box(response.to_bytes(request.keep_alive));
        (response.status, id)
    });
    let Some(id) = id.filter(|_| submit_status == 202) else {
        return Output::Service {
            submit_status,
            results_status: 0,
            wire: Vec::new(),
        };
    };
    tracer.span("service.queue", || {
        let popped = state.queue.pop(0);
        state.metrics.queue_depth.dec();
        assert_eq!(popped, Some(id), "the only queued job is this one");
    });
    tracer.span("service.run_job", || state.run_job(id));
    let get = format!("GET /v1/batches/{id}/results HTTP/1.1\r\nHost: bench\r\n\r\n");
    tracer.span("service.results", || {
        let request = read_request(&mut get.as_bytes(), max_body).expect("well-formed request");
        let response = route(state, &request);
        Output::Service {
            submit_status,
            results_status: response.status,
            wire: response.to_bytes(request.keep_alive),
        }
    })
}

fn body_of(wire: &[u8]) -> &[u8] {
    match wire.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(at) => &wire[at + 4..],
        None => &[],
    }
}

/// The `"job"` field of a submit or results document.
fn job_id(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"job\": ")? + "\"job\": ".len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Checks one job's output against `expected`, its reference report
/// digests, and adds its outcomes up; returns the rendered reports
/// (for the mirror comparison) or what differed. `reference(i)`
/// renders page `i`'s reference for the message.
pub fn check(
    expected: &[u64],
    output: &Output,
    outcomes: &mut Outcomes,
    reference: impl Fn(usize) -> String,
) -> Result<Vec<String>, String> {
    let (got, via) = read(output, expected.len() as u64, outcomes)?;
    if got.len() != expected.len() {
        return Err(format!(
            "{} reports for {} pages",
            got.len(),
            expected.len()
        ));
    }
    match got.iter().zip(expected).position(|(g, &e)| digest(g) != e) {
        Some(i) => Err(format!(
            "page {i} (served via {}): report differs from the reference\ngot:\n{}expected:\n{}",
            via[i],
            got[i],
            reference(i)
        )),
        None => Ok(got),
    }
}

/// Adds one job's outcomes up and returns its rendered reports with
/// each page's provenance (for diagnostics only — provenance is never
/// compared).
pub fn read(
    output: &Output,
    pages: u64,
    outcomes: &mut Outcomes,
) -> Result<(Vec<String>, Vec<String>), String> {
    outcomes.pages += pages;
    match output {
        Output::Batch(batch) => {
            let s = &batch.stats;
            outcomes.failed += (s.panicked + s.empty + s.cancelled) as u64;
            outcomes.recovered += s.recovered as u64;
            outcomes.salvaged += s.salvaged as u64;
            outcomes.degraded += s.degraded as u64;
            outcomes.cache_hits += s.cache_hits as u64;
            outcomes.cache_delta += s.cache_delta as u64;
            outcomes.cache_misses += s.cache_misses as u64;
            let via = batch
                .extractions
                .iter()
                .map(|e| format!("{:?}", e.via))
                .collect();
            Ok((render(batch), via))
        }
        Output::Service {
            submit_status,
            results_status,
            wire,
        } => {
            outcomes.results_bytes += wire.len() as u64;
            if (*submit_status, *results_status) != (202, 200) {
                outcomes.failed += pages;
                return Err(format!(
                    "submit answered {submit_status}, results answered {results_status}"
                ));
            }
            let doc = JsonValue::parse(body_of(wire))?;
            let stats = doc.field("stats")?;
            let count = |name: &str| stats.field(name).and_then(JsonValue::as_num);
            outcomes.recovered += count("recovered")?;
            outcomes.salvaged += count("salvaged")?;
            outcomes.degraded += count("degraded")?;
            outcomes.cache_hits += count("cache_hits")?;
            outcomes.cache_delta += count("cache_delta")?;
            outcomes.cache_misses += count("cache_misses")?;
            let (mut got, mut via) = (Vec::new(), Vec::new());
            for entry in doc.field("reports")?.as_arr()? {
                if entry.field("http_status")?.as_num()? != 200 {
                    outcomes.failed += 1;
                }
                via.push(entry.field("via")?.as_str()?.to_string());
                got.push(entry.field("report")?.as_str()?.to_string());
            }
            Ok((got, via))
        }
    }
}

/// Compares the mirror's reports with the extractor's for one job.
pub fn check_mirror(real: &[String], mirror: &[ExtractionReport]) -> Result<(), String> {
    let mirrored: Vec<String> = mirror.iter().map(ToString::to_string).collect();
    match real.iter().zip(&mirrored).position(|(a, b)| a != b) {
        None if real.len() == mirrored.len() => Ok(()),
        at => Err(format!(
            "the traced mirror's report differs from the extractor's at page {at:?}"
        )),
    }
}

/// One timed set-up: compile the grammar, build the workload's system,
/// run the first page through it. Returns the system, the first page's
/// output, the compile time and the whole set-up time, in seconds.
pub fn set_up(
    kind: Kind,
    grammar: &Grammar,
    first_page: &str,
    tracer: &Arc<Tracer>,
    traced: bool,
) -> (Engine, Output, f64, f64) {
    let grammar = grammar.clone();
    let start = Instant::now();
    let compiled = Arc::new(grammar.compile().expect("the global grammar compiles"));
    let compile_s = start.elapsed().as_secs_f64();
    let engine = Engine::new(kind, compiled, traced.then_some(tracer));
    let output = engine.run(&[first_page], tracer);
    let setup_s = start.elapsed().as_secs_f64();
    (engine, output, compile_s, setup_s)
}
