//! The traced run: spans recorded from the benchmark's own files around
//! calls into each crate's public functions.
//!
//! Two sources feed the span log:
//! - [`TimedCache`], a [`ParseCache`] decorator around
//!   [`LruParseCache`] handed to the extractor through
//!   `FormExtractor::parse_cache`, times the cache calls the real
//!   pipeline makes;
//! - [`Mirror`] replays each job through the pipeline's public stages
//!   in the pipeline's own call order (`parse` → `layout_with` →
//!   `tokenize` → `ParseSession::parse` → `merge`/`salvage_merge` →
//!   `extract_baseline`) with a span around each call. Its reports are
//!   compared with the extractor's after every job, so the mirror
//!   cannot drift from the code it times.
//!
//! Spans stay in memory and are written out when the run ends.

use metaform_core::{ExtractionReport, Token, TokenFingerprint};
use metaform_extractor::{
    condition_coverage, extract_baseline, token_coverage, CachedVisit, FormExtractor,
    LruParseCache, ParseCache,
};
use metaform_layout::{layout_with, LayoutOptions};
use metaform_parser::{
    merge, pattern_spans, salvage_merge, tree_symbols, BudgetOutcome, ChartSnapshot, ParseSession,
    ParserOptions,
};
use metaform_tokenizer::tokenize;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call: `req` identifies the request it served — the job
/// (`job << 16`) or one of its pages (`job << 16 | page + 1`).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    /// The enclosing span, 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Request id of a job's `page`-th page.
pub fn page_req(job: u64, page: usize) -> u64 {
    job << 16 | (page as u64 + 1)
}

/// The in-memory span log. Spans nest along the one benchmark call
/// path; the extractor's batch worker runs while the benchmark thread
/// waits in the enclosing span, so one "current span" slot suffices.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: AtomicBool,
    next: AtomicU32,
    current: AtomicU32,
    req: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            on: AtomicBool::new(false),
            next: AtomicU32::new(0),
            current: AtomicU32::new(0),
            req: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts or stops recording; while stopped, [`Tracer::span`] only
    /// runs its closure.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::SeqCst)
    }

    pub fn set_req(&self, req: u64) {
        self.req.store(req, Ordering::SeqCst);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on.load(Ordering::SeqCst) {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::SeqCst) + 1;
        let parent = self.current.swap(id, Ordering::SeqCst);
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.current.store(parent, Ordering::SeqCst);
        let span = Span {
            id,
            parent,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            req: self.req.load(Ordering::SeqCst),
        };
        self.spans.lock().expect("span log lock").push(span);
        out
    }

    /// Empties the log.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log lock"))
    }
}

/// Writes the span log as tab-separated lines:
/// `id parent name start_ns end_ns req`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\treq")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    out.flush()
}

/// A [`ParseCache`] that times every call into the [`LruParseCache`]
/// it wraps.
#[derive(Debug)]
pub struct TimedCache {
    inner: LruParseCache,
    tracer: Arc<Tracer>,
}

impl TimedCache {
    pub fn new(capacity: usize, tracer: Arc<Tracer>) -> Self {
        TimedCache {
            inner: LruParseCache::new(capacity),
            tracer,
        }
    }
}

impl ParseCache for TimedCache {
    fn lookup(&self, key: &TokenFingerprint) -> Option<Arc<CachedVisit>> {
        self.tracer.span("cache.lookup", || self.inner.lookup(key))
    }

    fn nearest(&self, tokens: &[Token]) -> Option<(Arc<CachedVisit>, usize)> {
        self.tracer
            .span("cache.nearest", || self.inner.nearest(tokens))
    }

    fn store(&self, key: TokenFingerprint, visit: Arc<CachedVisit>) {
        self.tracer
            .span("cache.store", || self.inner.store(key, visit))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Counts the mirror takes where the work happens.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Pages replayed (first attempts).
    pub pages: u64,
    /// Tokens of each page's first front-end pass.
    pub tokens: u64,
    /// Front-end passes: one per attempt plus one per settled failure.
    pub frontend_runs: u64,
    pub parses: u64,
    pub truncated: u64,
    pub created: u64,
    pub combos: u64,
    /// Parser phase nanoseconds: alloc, instantiate, enforce, maximize.
    pub phase_ns: [u64; 4],
    pub baseline_calls: u64,
}

/// A budget-limited attempt's partial result, kept for the ladder.
struct Partial {
    report: ExtractionReport,
    tokens: usize,
    trees: usize,
}

enum Attempt {
    Done(ExtractionReport),
    Budget(Partial),
    Empty,
}

/// The extraction pipeline rebuilt from public calls, with a span
/// around each stage. It follows `extract_batch_adaptive` with one
/// worker: a first pass over the job, retry rounds for budget-limited
/// pages under escalated instance caps, then the salvage-or-baseline
/// settlement. A workload with a parse cache gives the mirror a cache
/// of its own that sees the same calls in the same order as the
/// extractor's, so both hold the same entries.
pub struct Mirror {
    base: FormExtractor,
    retries: usize,
    growth: u32,
    cache: Option<LruParseCache>,
    tracer: Arc<Tracer>,
    pub counts: Counts,
}

impl Mirror {
    /// A mirror of `extractor` (same grammar and instance cap, parser
    /// phase profiling on) running `retries` rounds at `growth`.
    pub fn new(
        extractor: &FormExtractor,
        retries: usize,
        growth: u32,
        cache_capacity: Option<usize>,
        tracer: Arc<Tracer>,
    ) -> Self {
        let base = extractor
            .clone()
            .parser_options(ParserOptions {
                profile: true,
                ..ParserOptions::default()
            })
            .max_instances(extractor.budgets().0);
        Mirror {
            base,
            retries,
            growth: growth.max(1),
            cache: cache_capacity.map(LruParseCache::new),
            tracer,
            counts: Counts::default(),
        }
    }

    /// Replays one job; returns its reports in page order. The replay
    /// runs on a thread of its own, as `extract_batch_adaptive` runs a
    /// job's pages on its worker thread, so that mirrored pages and the
    /// extractor's job are timed on the same footing.
    pub fn run_job(&mut self, job: u64, pages: &[&str]) -> Vec<ExtractionReport> {
        std::thread::scope(|scope| {
            scope
                .spawn(|| self.replay(job, pages))
                .join()
                .expect("the mirror's replay does not panic")
        })
    }

    fn replay(&mut self, job: u64, pages: &[&str]) -> Vec<ExtractionReport> {
        let tracer = self.tracer.clone();
        tracer.set_req(job << 16);
        tracer.span("mirror", || {
            let base = self.base.clone();
            let mut session = base.session();
            let mut states = Vec::with_capacity(pages.len());
            for (i, html) in pages.iter().enumerate() {
                tracer.set_req(page_req(job, i));
                self.counts.pages += 1;
                let attempt = tracer.span("page", || self.attempt(&base, &mut session, html, true));
                states.push(attempt);
            }
            let mut round = base;
            for _ in 0..self.retries {
                let pending: Vec<usize> = (0..states.len())
                    .filter(|&i| matches!(states[i], Attempt::Budget(_)))
                    .collect();
                if pending.is_empty() {
                    break;
                }
                let cap = round.budgets().0.saturating_mul(self.growth as usize);
                round = round.max_instances(cap);
                let mut session = round.session();
                for i in pending {
                    tracer.set_req(page_req(job, i));
                    states[i] = tracer.span("page", || {
                        self.attempt(&round, &mut session, pages[i], false)
                    });
                }
            }
            states
                .into_iter()
                .enumerate()
                .map(|(i, state)| {
                    tracer.set_req(page_req(job, i));
                    match state {
                        Attempt::Done(report) => report,
                        Attempt::Budget(partial) => {
                            tracer.span("page", || self.settle(pages[i], Some(partial)))
                        }
                        Attempt::Empty => tracer.span("page", || self.settle(pages[i], None)),
                    }
                })
                .collect()
        })
    }

    fn front_end(&mut self, html: &str) -> Vec<Token> {
        let t = &self.tracer;
        let doc = t.span("html", || metaform_html::parse(html));
        let lay = t.span("layout", || layout_with(&doc, &LayoutOptions::default()));
        self.counts.frontend_runs += 1;
        t.span("tokenizer", || tokenize(&doc, &lay).tokens)
    }

    fn attempt(
        &mut self,
        ex: &FormExtractor,
        session: &mut ParseSession,
        html: &str,
        first: bool,
    ) -> Attempt {
        let tokens = self.front_end(html);
        if first {
            self.counts.tokens += tokens.len() as u64;
        }
        if tokens.is_empty() {
            return Attempt::Empty;
        }
        let t = self.tracer.clone();
        let grammar = ex.compiled();
        let mut seed = None;
        let fingerprint = match &self.cache {
            Some(cache) => {
                let fp = t.span("mirror.cache", || TokenFingerprint::of(&tokens));
                let hit = t
                    .span("mirror.cache", || cache.lookup(&fp))
                    .filter(|v| Arc::ptr_eq(&v.grammar, grammar) && v.tokens == tokens);
                if let Some(visit) = hit {
                    return Attempt::Done(visit.report.clone());
                }
                seed = t
                    .span("mirror.cache", || cache.nearest(&tokens))
                    .filter(|(v, shared)| {
                        Arc::ptr_eq(&v.grammar, grammar) && shared * 2 >= tokens.len()
                    })
                    .map(|(v, _)| v);
                Some(fp)
            }
            None => None,
        };
        let result = t.span("parser", || match &seed {
            Some(visit) => session.parse_seeded(&tokens, &visit.snapshot),
            None => session.parse(&tokens),
        });
        let stats = &result.stats;
        let completed = stats.budget == BudgetOutcome::Completed;
        self.counts.parses += 1;
        self.counts.truncated += u64::from(!completed);
        self.counts.created += stats.created as u64;
        self.counts.combos += stats.combos_enumerated;
        let phase = &stats.phase;
        for (sum, ns) in self.counts.phase_ns.iter_mut().zip([
            phase.alloc_ns,
            phase.instantiate_ns,
            phase.enforce_ns,
            phase.maximize_ns,
        ]) {
            *sum += ns;
        }
        let trees = stats.trees;
        let report = if completed {
            t.span("merger", || merge(&result.chart, &result.trees))
        } else {
            t.span("merger.salvage", || {
                salvage_merge(&result.chart, &result.trees)
            })
        };
        let g = ex.grammar();
        let (spans, roots) = t.span("residue", || {
            (
                pattern_spans(&result.chart, &result.trees, g),
                tree_symbols(&result.chart, &result.trees, g),
            )
        });
        match (&self.cache, fingerprint) {
            (Some(cache), Some(fp)) => match ChartSnapshot::take(result) {
                Ok(snapshot) => {
                    let visit = Arc::new(CachedVisit {
                        tokens: tokens.clone(),
                        report: report.clone(),
                        snapshot,
                        grammar: grammar.clone(),
                        pattern_spans: spans,
                        partial_roots: roots,
                    });
                    t.span("mirror.cache", || cache.store(fp, visit));
                }
                Err(result) => session.recycle(result),
            },
            _ => session.recycle(result),
        }
        if completed {
            Attempt::Done(report)
        } else {
            Attempt::Budget(Partial {
                report,
                tokens: tokens.len(),
                trees,
            })
        }
    }

    /// The ladder's last two rungs: the partial report when it
    /// dominates the proximity baseline, the baseline otherwise.
    fn settle(&mut self, html: &str, partial: Option<Partial>) -> ExtractionReport {
        let tokens = self.front_end(html);
        self.counts.baseline_calls += 1;
        let baseline = self.tracer.span("baseline", || extract_baseline(&tokens));
        let Some(partial) = partial else {
            return baseline;
        };
        self.tracer.span("ladder", || {
            let partial_claims = condition_coverage(&partial.report);
            let baseline_claims = condition_coverage(&baseline);
            if partial_claims * 2 < baseline_claims {
                return baseline;
            }
            let partial_key = (
                token_coverage(&partial.report, partial.tokens),
                partial_claims,
                partial.trees,
            );
            let baseline_key = (token_coverage(&baseline, tokens.len()), baseline_claims, 0);
            let dominates = match partial_key.cmp(&baseline_key) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Equal => partial.report.to_string() < baseline.to_string(),
            };
            if dominates {
                partial.report
            } else {
                baseline
            }
        })
    }
}

/// Per-name span totals: calls, summed duration, summed self time
/// (duration minus the time covered by child spans).
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub calls: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time per call in microseconds, 0 without calls.
    pub fn mean_self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }

    /// Mean duration per call in microseconds, 0 without calls.
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.dur_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Totals by span name.
pub fn totals(spans: &[Span]) -> HashMap<&'static str, Totals> {
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: HashMap<&'static str, Totals> = HashMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.dur_ns += s.dur_ns();
        t.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}
