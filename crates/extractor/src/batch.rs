//! Parallel batch extraction — the parse-many workload the
//! compile-once split exists for, with per-page fault isolation and an
//! adaptive retry ladder.
//!
//! [`FormExtractor::extract_batch_adaptive`] is the one batch entry
//! point. It makes one parallel pass over a slice of HTML pages: the
//! batch enters one `thread::scope`, the calling thread is worker 0 and
//! spawns the other workers (so a one-worker batch spawns no thread),
//! and each worker owns one
//! [`metaform_parser::ParseSession`] for the whole batch (recycling its
//! chart and scratch across every page it parses) while
//! all workers share the extractor's one `Arc<CompiledGrammar>`. Pages
//! are claimed in input order from a shared counter, so workers
//! self-balance; results are written back by input index, so the output
//! order is the input order and is identical to a sequential run —
//! parallelism changes wall-clock time, nothing else. With
//! [`AdaptiveOptions::max_retries`] 0 it is the plain one-pass batch,
//! and [`FormExtractor::extract`] is the same ladder for one page.
//!
//! **One ladder per page.** The worker that claims a page runs its
//! whole ladder, start to finish:
//!
//! 1. the front end (HTML → layout → tokens), once, behind the page's
//!    panic boundary — the tokens stay a local of the ladder;
//! 2. one parse, at the last rung's budgets: rung `k` runs at the
//!    configured budgets multiplied by
//!    [`AdaptiveOptions::budget_growth`]`ᵏ` (saturating), for `k` up to
//!    [`AdaptiveOptions::max_retries`];
//! 3. every earlier rung read off that one parse. The fix-point only
//!    adds instances, in schedule order, and the cap only decides where
//!    it stops, so a parse under cap `c` is the prefix of the parse
//!    under any larger cap: rung `k` is `Truncated` iff the parse
//!    created at least `cap·gᵏ` instances, else `Timeout` iff the parse
//!    timed out or ran past `d·gᵏ`. Such a rung is logged with the
//!    counters its own parse would have had and no time (no separate
//!    parse ran); the first rung that is not budget-limited, or else
//!    the last, takes the parse's own verdict and counters;
//! 4. settlement: a completed attempt is served as is; a failed one
//!    goes down the degradation ladder — the maximized partial
//!    grammar-path report when it dominates the proximity baseline
//!    ([`Provenance::PartialSalvage`]), the baseline otherwise.
//!
//! A page therefore pays for one parse and builds one extraction, and
//! its parse runs under the last rung's deadline `d·gʳ`.
//!
//! A budget failure is a verdict on the *budget*, not the page: the
//! same page parses fine under a larger instance cap or deadline.
//! `Panicked`, `EmptyForm` and `Cancelled` verdicts, and cache hits,
//! settle on the rung the parse reached (a bigger budget reproduces
//! the first two, and outgrowing a cancellation would fight the
//! caller). Every page that failed at least one rung is narrated by a
//! [`FailureRecord`]. Because the parser is deterministic and pages
//! are independent, a page's output is byte-identical to a one-shot
//! run at the budget of the rung it settled on, whatever the worker
//! count.
//!
//! **Fault isolation.** Each page runs behind its own panic boundary
//! and budget checks ([`crate::ExtractError`]): a poison page — one
//! that panics the pipeline, exhausts its instance cap, or blows its
//! wall-clock deadline — settles down the ladder while the other N−1
//! pages complete normally. No page can abort the batch.
//!
//! **Cancellation.** An extractor built with
//! [`FormExtractor::cancel_token`] threads the token into every parse;
//! firing it aborts in-flight parses at the next sampled budget poll
//! and makes workers skip pages not yet started. A cancelled parse
//! settles on the first rung it had not outgrown, the rungs below it
//! logged as budget-limited. Completed pages keep their results; the
//! rest settle down the ladder with a [`FailureOutcome::Cancelled`]
//! record (or `Salvaged`, when their partial dominated the baseline).

use crate::error::ExtractError;
use crate::pipeline::{token_coverage, Extraction, FormExtractor, Provenance, Verdict};
use crate::telemetry::{
    duration_to_ms, AttemptRecord, CacheOutcome, ErrorKind, FailureOutcome, FailureRecord,
};
use metaform_core::Token;
use metaform_parser::{BudgetOutcome, ParseSession, ParseStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Rollup of one [`FormExtractor::extract_batch_adaptive`] run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Pages extracted.
    pub pages: usize,
    /// Workers used, the calling thread included (0 for an empty
    /// batch — no worker runs when there is nothing to claim).
    pub workers: usize,
    /// Total tokens across all pages.
    pub tokens: usize,
    /// Total instances created across all parses.
    pub created: usize,
    /// Total instances invalidated by preference enforcement.
    pub invalidated: usize,
    /// Total maximal trees selected.
    pub trees: usize,
    /// Schedules built during the batch — 0 under the compile-once
    /// contract, since every session parses under the already-compiled
    /// grammar.
    pub schedules_built: usize,
    /// Pages whose pipeline panicked (caught at the page boundary).
    pub panicked: usize,
    /// Pages whose *final* attempt hit the instance cap.
    pub truncated: usize,
    /// Pages whose *final* attempt blew the wall-clock deadline.
    pub timed_out: usize,
    /// Pages that tokenized to nothing (no form content).
    pub empty: usize,
    /// Pages abandoned because the batch-level cancel token fired.
    pub cancelled: usize,
    /// Pages served by the proximity-baseline fallback instead of the
    /// grammar pipeline (every page that still failed after retries
    /// *and* whose salvaged partial did not dominate the baseline).
    pub degraded: usize,
    /// Pages whose final attempt was budget-limited or cancelled
    /// mid-parse but whose maximized partial grammar-path report
    /// dominated the proximity baseline and was served instead
    /// ([`Provenance::PartialSalvage`]).
    pub salvaged: usize,
    /// Rungs the page ladders climbed past their first (rungs, not
    /// pages: one page settling on its third rung counts 2). Every
    /// rung of a page is read off its one parse, so these are not
    /// parses. Always 0 at `max_retries` 0.
    pub retried: usize,
    /// Pages that failed their first rung but completed on the
    /// grammar path at an escalated one. Always 0 at `max_retries` 0.
    pub recovered: usize,
    /// Pages whose report was replayed from the parse cache without
    /// parsing ([`Provenance::CacheHit`]). Always 0 without an
    /// attached [`crate::ParseCache`].
    pub cache_hits: usize,
    /// Always 0. Held for perfbench's mirror; goes with the ROADMAP
    /// "One clock" item.
    pub cache_delta: usize,
    /// Pages that consulted the cache but parsed cold (grammar path
    /// with a cache attached). Always 0 without a cache.
    pub cache_misses: usize,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
}

impl BatchStats {
    /// Pages that failed the grammar path, by any cause (after
    /// retries, on the adaptive API).
    pub fn failed(&self) -> usize {
        self.panicked + self.truncated + self.timed_out + self.empty + self.cancelled
    }

    /// Sums one served page's counters into the rollup. Cache misses
    /// are counted only when a cache is attached — a plain grammar
    /// extraction is not a "miss" on an extractor that never consulted
    /// anything.
    fn add(&mut self, ex: &Extraction, cached: bool) {
        match ex.via {
            Provenance::BaselineFallback => self.degraded += 1,
            Provenance::PartialSalvage => self.salvaged += 1,
            Provenance::CacheHit => self.cache_hits += 1,
            Provenance::Grammar if cached => self.cache_misses += 1,
            Provenance::Grammar => {}
        }
        self.tokens += ex.stats.tokens;
        self.created += ex.stats.created;
        self.invalidated += ex.stats.invalidated;
        self.trees += ex.stats.trees;
        self.schedules_built += ex.stats.schedules_built;
    }

    /// Counts one page's failure story: its retries, and its recovery
    /// or the cause of its final failure.
    fn count(&mut self, record: &FailureRecord) {
        self.retried += record.attempts - 1;
        if record.outcome == FailureOutcome::Recovered {
            self.recovered += 1;
            return;
        }
        match record.error {
            ErrorKind::Panicked => self.panicked += 1,
            ErrorKind::Truncated => self.truncated += 1,
            ErrorKind::Timeout => self.timed_out += 1,
            ErrorKind::EmptyForm => self.empty += 1,
            ErrorKind::Cancelled => self.cancelled += 1,
        }
    }

    /// One-line summary for experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "pages={} workers={} tokens={} instances={} invalidated={} trees={} schedules_built={} panicked={} truncated={} timed_out={} empty={} cancelled={} degraded={} salvaged={} retried={} recovered={} cache_hits={} cache_misses={} time={:?}",
            self.pages,
            self.workers,
            self.tokens,
            self.created,
            self.invalidated,
            self.trees,
            self.schedules_built,
            self.panicked,
            self.truncated,
            self.timed_out,
            self.empty,
            self.cancelled,
            self.degraded,
            self.salvaged,
            self.retried,
            self.recovered,
            self.cache_hits,
            self.cache_misses,
            self.elapsed
        )
    }
}

/// Knobs of each page's bounded escalation ladder in
/// [`FormExtractor::extract_batch_adaptive`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveOptions {
    /// Rungs above a page's first (0 = first rung only: the plain
    /// batch, every failed page settled down the ladder and narrated
    /// by a [`FailureRecord`]). The ladder also ends at the first rung
    /// whose budgets no longer grow, since a rung at unchanged budgets
    /// repeats the verdict of the one below; so any value, up to
    /// `usize::MAX`, gives fewer than a hundred rungs.
    pub max_retries: usize,
    /// Multiplier applied to both per-page budgets (`max_instances`
    /// and `deadline`) at each rung, saturating. 0 and 1 leave the
    /// budgets unchanged, so the ladder has one rung.
    pub budget_growth: u32,
}

impl Default for AdaptiveOptions {
    /// Two retries at doubling budgets: a page must be 4× over its
    /// first budget to still fail its last attempt.
    fn default() -> Self {
        AdaptiveOptions {
            max_retries: 2,
            budget_growth: 2,
        }
    }
}

/// Result of one [`FormExtractor::extract_batch_adaptive`] run: the
/// per-page extractions (input order, infallible by degradation), the
/// batch rollup, and the machine-readable story of every page that
/// failed at least once.
#[derive(Clone, Debug, Default)]
pub struct AdaptiveBatch {
    /// One extraction per input page, in input order. Pages that
    /// exhausted their retries (or were cancelled) carry
    /// [`Provenance::PartialSalvage`] when their partial report
    /// dominated the proximity baseline,
    /// [`Provenance::BaselineFallback`] otherwise.
    pub extractions: Vec<Extraction>,
    /// The rollup, including retry/recovery/cancellation counters.
    pub stats: BatchStats,
    /// One record per page that failed at least once, ordered by page
    /// index. Empty for a clean batch.
    pub failures: Vec<FailureRecord>,
}

/// What one page's ladder settles to: the served extraction, and the
/// page's failure story when it failed at least once.
type Settled = (Extraction, Option<FailureRecord>);

impl FormExtractor {
    /// Extracts every page in one parallel pass, each page through its
    /// own ladder (see the module docs): rungs from the configured
    /// budgets up through [`AdaptiveOptions::max_retries`] more, with
    /// budgets multiplied by [`AdaptiveOptions::budget_growth`] at
    /// each, all read off one parse at the last rung's budgets, then
    /// settlement.
    /// Every page that failed at least one rung gets a [`FailureRecord`] in
    /// [`AdaptiveBatch::failures`], and every error and record names
    /// the page's index in the input slice.
    pub fn extract_batch_adaptive(&self, pages: &[&str], opts: &AdaptiveOptions) -> AdaptiveBatch {
        let started = Instant::now();
        if pages.is_empty() {
            return AdaptiveBatch::default();
        }
        let workers = self.batch_workers(pages.len());
        let mut slots: Vec<Option<Settled>> = Vec::new();
        slots.resize_with(pages.len(), || None);
        // Workers claim pages in input order; the counter publishes
        // nothing but the index, and results travel back through join
        // (or, for the calling thread, its return value).
        let next = AtomicUsize::new(0);
        let work = || {
            let mut session = self.session();
            let mut out = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&html) = pages.get(i) else {
                    break;
                };
                out.push((i, self.ladder(&mut session, i, html, opts)));
            }
            out
        };

        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            // Per-page panics are caught inside the ladder, so a
            // worker-level panic should be impossible; if one happens
            // anyway, on a spawned worker or on this one, its
            // claimed-but-unfilled slots are reported as Panicked below
            // rather than killing the batch here.
            let own = catch_unwind(AssertUnwindSafe(work));
            let joined = handles.into_iter().map(|handle| handle.join());
            for filled in [own].into_iter().chain(joined).flatten() {
                for (i, settled) in filled {
                    slots[i] = Some(settled);
                }
            }
        });

        let mut stats = BatchStats {
            pages: pages.len(),
            workers,
            ..Default::default()
        };
        let cached = self.cache().is_some();
        let mut extractions = Vec::with_capacity(pages.len());
        let mut failures = Vec::new();
        for (i, slot) in slots.into_iter().enumerate() {
            let (extraction, record) = slot.unwrap_or_else(|| {
                let message = "batch worker died outside the page boundary".to_string();
                let died = ExtractError::Panicked {
                    page_index: i,
                    message,
                };
                self.settle_unparsed(i, pages[i], died)
            });
            stats.add(&extraction, cached);
            if let Some(record) = record {
                stats.count(&record);
                failures.push(record);
            }
            extractions.push(extraction);
        }
        stats.elapsed = started.elapsed();
        AdaptiveBatch {
            extractions,
            stats,
            failures,
        }
    }

    /// One page's whole ladder on the worker that claimed it: the
    /// front end once, one attempt at the last rung's budgets, the
    /// earlier rungs read off it, then settlement (a completed attempt
    /// after a budget-limited rung is `Recovered`).
    pub(crate) fn ladder(
        &self,
        session: &mut ParseSession,
        page_index: usize,
        html: &str,
        opts: &AdaptiveOptions,
    ) -> Settled {
        let tokens = match self.page_tokens(page_index, html) {
            Ok(tokens) => tokens,
            Err(err) => return self.settle_unparsed(page_index, html, err),
        };
        let rungs = rungs(self.budgets(), opts);
        let (&last, below) = rungs.split_last().expect("a ladder has rung 0");
        let verdict = self.attempt(session, page_index, &tokens, last);
        let mut trail = Vec::new();
        // No parse ran (a panic, an empty form): rung 0 it is.
        let number = verdict
            .stats()
            .map_or(0, |stats| outgrow(&mut trail, below, stats));
        self.log_attempt(&mut trail, number, rungs[number], &verdict);
        match verdict {
            Verdict::Completed(mut extraction) => {
                extraction.tokens = tokens;
                let record = (!trail.is_empty())
                    .then(|| failure_record(page_index, trail, FailureOutcome::Recovered, None));
                (extraction, record)
            }
            Verdict::Failed(err, partial) => {
                self.settle(page_index, html, err, partial, Some(tokens), trail)
            }
        }
    }

    /// Settles a page on its final, failed attempt via
    /// [`FormExtractor::salvage_or_degrade`] — the salvaged partial
    /// grammar-path report when it dominates the proximity baseline,
    /// the baseline otherwise — and narrates it with the salvage
    /// coverage and the induction evidence.
    fn settle(
        &self,
        page_index: usize,
        html: &str,
        err: ExtractError,
        partial: Option<Extraction>,
        tokens: Option<Vec<Token>>,
        trail: Vec<AttemptRecord>,
    ) -> Settled {
        let settled = self.salvage_or_degrade(html, partial, tokens);
        let outcome = if settled.via == Provenance::PartialSalvage {
            FailureOutcome::Salvaged
        } else if matches!(err, ExtractError::Cancelled { .. }) {
            FailureOutcome::Cancelled
        } else {
            FailureOutcome::Degraded
        };
        let message = match err {
            ExtractError::Panicked { message, .. } => Some(message),
            _ => None,
        };
        let mut record = failure_record(page_index, trail, outcome, message);
        if settled.via == Provenance::PartialSalvage {
            record.salvage_covered = Some(token_coverage(&settled.report, settled.tokens.len()));
            record.salvage_tokens = Some(settled.tokens.len());
        }
        // Induction evidence: how far the partial parse got and which
        // token arrangements it left unexplained.
        record.partial_roots = settled.partial_roots.clone();
        record.arrangements = metaform_grammar::mine_page(
            &settled.tokens,
            &settled.report.missing,
            &settled.pattern_spans,
            &self.grammar().proximity,
        )
        .into_iter()
        .map(|a| a.signature)
        .collect();
        (settled, Some(record))
    }

    /// Settles a page that never reached a parse — its front end
    /// panicked, the batch was cancelled before it started, or its
    /// batch worker died — on its one failed attempt.
    fn settle_unparsed(&self, page_index: usize, html: &str, err: ExtractError) -> Settled {
        let mut trail = Vec::new();
        let unparsed = Verdict::Failed(err.clone(), None);
        self.log_attempt(&mut trail, 0, self.budgets(), &unparsed);
        self.settle(page_index, html, err, None, None, trail)
    }

    /// Appends one attempt's parse counters to the page's trail — but
    /// only once the page has failed: clean pages (the common case)
    /// allocate no telemetry at all, and a recovered page's final,
    /// clean attempt is logged because a failed one precedes it.
    fn log_attempt(
        &self,
        trail: &mut Vec<AttemptRecord>,
        number: usize,
        budgets: (usize, Option<Duration>),
        verdict: &Verdict,
    ) {
        let error = match verdict {
            Verdict::Completed(_) => None,
            Verdict::Failed(err, _) => Some(err),
        };
        let stats = verdict.stats();
        if error.is_none() && trail.is_empty() {
            return;
        }
        trail.push(AttemptRecord {
            attempt: number,
            max_instances: budgets.0,
            deadline_ms: duration_to_ms(budgets.1),
            error: error.map(ErrorKind::of),
            // None without a cache or on a failed attempt.
            cache: match (verdict, self.cache()) {
                (Verdict::Completed(ex), Some(_)) if ex.via == Provenance::CacheHit => {
                    Some(CacheOutcome::Hit)
                }
                (Verdict::Completed(_), Some(_)) => Some(CacheOutcome::Miss),
                _ => None,
            },
            tokens: stats.map_or(0, |s| s.tokens),
            created: stats.map_or(0, |s| s.created),
            elapsed_us: stats.map_or(0, |s| {
                u64::try_from(s.elapsed.as_micros()).unwrap_or(u64::MAX)
            }),
        });
    }

    /// Worker count for a batch of `pages` pages: the configured
    /// override or the machine's parallelism, capped by the page count.
    fn batch_workers(&self, pages: usize) -> usize {
        self.workers()
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .clamp(1, pages)
    }
}

/// A page's budgets per rung, `(max_instances, deadline)`: rung 0 at
/// `first`, each later rung both multiplied by the growth (saturating),
/// up to `max_retries` rungs above the first. Each step is one
/// saturating multiplication, and the ladder stops at the first rung
/// whose budgets no longer grow — a cap of at least 1 saturates within
/// 64 doublings, a deadline of at least 1 ns within 95 — so a huge
/// `max_retries` costs nothing. At growth 0 or 1 that is rung 0 alone:
/// a rung at unchanged budgets would read the same verdict off the
/// page's one parse.
fn rungs(
    first: (usize, Option<Duration>),
    opts: &AdaptiveOptions,
) -> Vec<(usize, Option<Duration>)> {
    let growth = opts.budget_growth.max(1);
    std::iter::successors(Some(first), move |&(cap, deadline)| {
        let next = (
            cap.saturating_mul(growth as usize),
            deadline.map(|d| d.saturating_mul(growth)),
        );
        (next != (cap, deadline)).then_some(next)
    })
    .take(opts.max_retries.saturating_add(1))
    .collect()
}

/// Logs each rung of `below` (the rungs under the last) that the
/// page's one parse, run at the last rung's budgets with counters
/// `stats`, outgrew, and returns the number of the first it did not —
/// `below.len()`, the last rung, when it outgrew them all. That rung
/// takes the parse's own verdict.
///
/// A parse under cap `c` is the prefix of the parse under a larger
/// cap, so it truncates iff the larger parse created at least `c`
/// instances, and then it created exactly `max(c, tokens)` (terminals
/// are seeded whatever the cap). Failing that, the rung timed out if
/// the parse did or ran past the rung's deadline. A rung read off the
/// parse records no time of its own.
fn outgrow(
    trail: &mut Vec<AttemptRecord>,
    below: &[(usize, Option<Duration>)],
    stats: &ParseStats,
) -> usize {
    for (number, &(cap, deadline)) in below.iter().enumerate() {
        let (error, created) = if stats.created >= cap {
            (ErrorKind::Truncated, cap.max(stats.tokens))
        } else if stats.budget == BudgetOutcome::DeadlineExceeded
            || deadline.is_some_and(|d| stats.elapsed > d)
        {
            (ErrorKind::Timeout, stats.created)
        } else {
            return number;
        };
        trail.push(AttemptRecord {
            attempt: number,
            max_instances: cap,
            deadline_ms: duration_to_ms(deadline),
            error: Some(error),
            cache: None,
            tokens: stats.tokens,
            created,
            elapsed_us: 0,
        });
    }
    below.len()
}

/// Seals a failed page's trail into the record handed to telemetry
/// consumers: the error is the last failed attempt's, the final budgets
/// the last attempt's.
fn failure_record(
    page_index: usize,
    trail: Vec<AttemptRecord>,
    outcome: FailureOutcome,
    message: Option<String>,
) -> FailureRecord {
    let last = trail
        .last()
        .expect("a failure record exists only for a page that failed");
    FailureRecord {
        page_index,
        error: trail
            .iter()
            .rev()
            .find_map(|a| a.error)
            .expect("a failure record exists only for a page that failed"),
        message,
        attempts: trail.len(),
        outcome,
        final_max_instances: last.max_instances,
        final_deadline_ms: last.deadline_ms,
        salvage_covered: None,
        salvage_tokens: None,
        partial_roots: Vec::new(),
        arrangements: Vec::new(),
        attempt_log: trail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::QAM;
    use crate::pipeline::{Fault, FaultPlan};

    fn pages() -> Vec<String> {
        (0..12)
            .map(|i| {
                format!(
                    "<form>Field{i} <input type=text name=f{i}>\
                     <input type=submit value=Go></form>"
                )
            })
            .chain(std::iter::once(QAM.to_string()))
            .collect()
    }

    /// The plain batch: one pass, no retries.
    fn one_pass(extractor: &FormExtractor, pages: &[&str]) -> AdaptiveBatch {
        let opts = AdaptiveOptions {
            max_retries: 0,
            ..Default::default()
        };
        extractor.extract_batch_adaptive(pages, &opts)
    }

    #[test]
    fn batch_matches_sequential_in_input_order() {
        let pages = pages();
        let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
        let extractor = FormExtractor::new().worker_threads(4);
        let sequential: Vec<Extraction> = refs.iter().map(|p| extractor.extract(p)).collect();
        let AdaptiveBatch {
            extractions: batch,
            stats,
            failures,
        } = one_pass(&extractor, &refs);
        assert!(failures.is_empty());
        assert_eq!(batch.len(), sequential.len());
        assert_eq!(stats.pages, refs.len());
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.schedules_built, 0, "compile-once violated");
        assert_eq!(stats.failed(), 0);
        assert_eq!(stats.degraded, 0);
        for (b, s) in batch.iter().zip(&sequential) {
            assert_eq!(format!("{:?}", b.report), format!("{:?}", s.report));
            assert_eq!(b.tokens, s.tokens);
            assert_eq!(b.stats.created, s.stats.created);
            assert_eq!(b.via, Provenance::Grammar);
        }
    }

    #[test]
    fn single_worker_and_empty_batch_are_fine() {
        let extractor = FormExtractor::new().worker_threads(1);
        let none = one_pass(&extractor, &[]);
        assert!(none.extractions.is_empty());
        assert!(none.failures.is_empty());
        assert_eq!(none.stats.pages, 0);
        assert_eq!(none.stats.workers, 0, "empty batch spawns no worker");
        let one = one_pass(&extractor, &["<form>A <input type=text name=a></form>"]).extractions;
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].report.conditions[0].attribute, "A");
    }

    #[test]
    fn worker_count_is_capped_by_page_count() {
        let extractor = FormExtractor::new().worker_threads(64);
        let batch = one_pass(&extractor, &["<form>A <input type=text name=a></form>"]);
        assert_eq!(batch.stats.workers, 1);
    }

    #[test]
    fn poison_page_is_isolated_and_counted() {
        let mut pages = pages();
        pages.insert(
            5,
            "<form>POISON <input type=text name=p></form>".to_string(),
        );
        let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
        let extractor = FormExtractor::new()
            .worker_threads(4)
            .fault_plan(FaultPlan::new().with(5, Fault::Panic));
        let AdaptiveBatch {
            extractions: batch,
            stats,
            failures,
        } = one_pass(&extractor, &refs);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].page_index, 5);
        assert_eq!(failures[0].error, ErrorKind::Panicked);
        assert_eq!(batch.len(), refs.len());
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.degraded, 1);
        assert_eq!(
            stats.truncated + stats.timed_out + stats.empty + stats.cancelled,
            0
        );
        assert_eq!(batch[5].via, Provenance::BaselineFallback);
        assert!(
            !batch[5].report.conditions.is_empty(),
            "the baseline still reads the poison page's form"
        );
    }

    #[test]
    fn adaptive_on_a_clean_batch_is_the_plain_batch() {
        let pages = pages();
        let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
        let extractor = FormExtractor::new().worker_threads(2);
        let plain = one_pass(&extractor, &refs).extractions;
        let adaptive = extractor.extract_batch_adaptive(&refs, &AdaptiveOptions::default());
        assert_eq!(adaptive.stats.retried, 0, "no failure, no retry");
        assert_eq!(adaptive.stats.recovered, 0);
        assert_eq!(adaptive.stats.failed(), 0);
        assert!(adaptive.failures.is_empty());
        assert_eq!(adaptive.extractions.len(), plain.len());
        for (a, p) in adaptive.extractions.iter().zip(&plain) {
            assert_eq!(format!("{:?}", a.report), format!("{:?}", p.report));
            assert_eq!(a.via, Provenance::Grammar);
        }
    }

    #[test]
    fn batch_counts_cache_outcomes() {
        use crate::cache::LruParseCache;
        let pages = pages();
        let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
        // Without a cache, the counters stay zero.
        let plain = FormExtractor::new().worker_threads(2);
        let stats = one_pass(&plain, &refs).stats;
        assert_eq!(
            (stats.cache_hits, stats.cache_delta, stats.cache_misses),
            (0, 0, 0)
        );
        // With one: the first pass misses everywhere, the revisit pass
        // hits everywhere, and the reports agree byte for byte.
        let extractor = FormExtractor::new()
            .worker_threads(2)
            .parse_cache(LruParseCache::shared());
        let AdaptiveBatch {
            extractions: first,
            stats: s1,
            ..
        } = one_pass(&extractor, &refs);
        assert_eq!(s1.cache_misses, refs.len());
        assert_eq!((s1.cache_hits, s1.cache_delta), (0, 0));
        let AdaptiveBatch {
            extractions: second,
            stats: s2,
            ..
        } = one_pass(&extractor, &refs);
        assert_eq!(s2.cache_hits, refs.len());
        assert_eq!((s2.cache_delta, s2.cache_misses), (0, 0));
        assert!(s2.summary().contains("cache_hits="));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.report.to_string(), b.report.to_string());
        }
    }

    #[test]
    fn adaptive_attempt_log_carries_cache_outcomes() {
        use crate::cache::LruParseCache;
        // QAM creates ~82 instances: a cap of 50 truncates the first
        // pass and the doubled retry budget recovers it.
        let extractor = FormExtractor::new()
            .worker_threads(1)
            .max_instances(50)
            .parse_cache(LruParseCache::shared());
        let adaptive = extractor.extract_batch_adaptive(&[QAM], &AdaptiveOptions::default());
        assert_eq!(adaptive.stats.recovered, 1, "escalation recovers QAM");
        let log = &adaptive.failures[0].attempt_log;
        assert_eq!(log.first().unwrap().cache, None, "failed attempt");
        assert_eq!(
            log.last().unwrap().cache,
            Some(CacheOutcome::Miss),
            "the recovering attempt parsed cold under a cache"
        );
    }

    #[test]
    fn zero_retries_still_reports_failures() {
        let extractor = FormExtractor::new().worker_threads(1).max_instances(3);
        let adaptive = extractor.extract_batch_adaptive(
            &[QAM],
            &AdaptiveOptions {
                max_retries: 0,
                budget_growth: 2,
            },
        );
        assert_eq!(adaptive.stats.retried, 0);
        assert_eq!(adaptive.stats.truncated, 1);
        assert_eq!(adaptive.extractions[0].via, Provenance::BaselineFallback);
        assert_eq!(adaptive.failures.len(), 1);
        let record = &adaptive.failures[0];
        assert_eq!(record.attempts, 1);
        assert_eq!(record.error, ErrorKind::Truncated);
        assert_eq!(record.outcome, FailureOutcome::Degraded);
        assert_eq!(record.final_max_instances, 3);
    }

    #[test]
    fn rungs_stop_where_the_budgets_stop_growing() {
        let unbounded = |budget_growth| AdaptiveOptions {
            max_retries: usize::MAX,
            budget_growth,
        };
        let caps = rungs((4, None), &unbounded(2));
        // 4·2ᵏ first overflows at k = usize::BITS − 2.
        assert_eq!(caps.len(), usize::BITS as usize - 1);
        assert_eq!(caps[5], (128, None));
        assert_eq!(caps.last(), Some(&(usize::MAX, None)));
        let both = rungs((4, Some(Duration::from_millis(1))), &unbounded(2));
        assert!(both.len() < 100, "{} rungs", both.len());
        assert_eq!(both.last(), Some(&(usize::MAX, Some(Duration::MAX))));
        for growth in [0, 1] {
            assert_eq!(rungs((4, None), &unbounded(growth)).len(), 1);
        }
    }

    #[test]
    fn unbounded_retries_settle_on_the_first_rung_that_fits() {
        // QAM creates ~82 instances: caps 4 to 64 truncate, 128 fits.
        let extractor = FormExtractor::new().worker_threads(1).max_instances(4);
        let adaptive = extractor.extract_batch_adaptive(
            &[QAM],
            &AdaptiveOptions {
                max_retries: usize::MAX,
                budget_growth: 2,
            },
        );
        let record = &adaptive.failures[0];
        assert_eq!(record.outcome, FailureOutcome::Recovered);
        assert_eq!(record.attempts, 6);
        assert_eq!(record.final_max_instances, 128);
        let (outgrown, settled) = record.attempt_log.split_at(5);
        for (k, rung) in outgrown.iter().enumerate() {
            assert_eq!(rung.max_instances, 4 << k);
            assert_eq!(rung.error, Some(ErrorKind::Truncated));
            assert_eq!(rung.created, rung.max_instances.max(rung.tokens));
            assert_eq!(rung.elapsed_us, 0, "read off the one parse");
        }
        assert_eq!(settled[0].error, None);
        let one_shot = FormExtractor::new().max_instances(128).extract(QAM);
        assert_eq!(one_shot.via, Provenance::Grammar);
        assert_eq!(adaptive.extractions[0].via, Provenance::Grammar);
        assert_eq!(
            adaptive.extractions[0].report.to_string(),
            one_shot.report.to_string()
        );
        assert_eq!(settled[0].created, one_shot.stats.created);
        assert_eq!(adaptive.stats.retried, 5);
    }

    #[test]
    fn a_saturated_last_deadline_parses_as_no_deadline() {
        // The last rung's deadline saturates at Duration::MAX, which no
        // Instant can hold: the parse runs unbounded instead of
        // panicking.
        let extractor = FormExtractor::new()
            .worker_threads(1)
            .page_deadline(Duration::from_millis(1));
        let adaptive = extractor.extract_batch_adaptive(
            &[QAM],
            &AdaptiveOptions {
                max_retries: usize::MAX,
                budget_growth: 2,
            },
        );
        assert_eq!(adaptive.extractions[0].via, Provenance::Grammar);
        assert_eq!(adaptive.stats.panicked, 0);
        for record in &adaptive.failures {
            assert_eq!(record.outcome, FailureOutcome::Recovered, "{record:?}");
        }
        let one_shot = FormExtractor::new().extract(QAM);
        assert_eq!(
            adaptive.extractions[0].report.to_string(),
            one_shot.report.to_string()
        );
    }

    #[test]
    fn growth_one_is_a_single_rung() {
        // A stalled page times out; at unchanged budgets there is no
        // rung above the first to read off its parse.
        let extractor = FormExtractor::new()
            .worker_threads(1)
            .page_deadline(Duration::from_secs(60))
            .fault_plan(FaultPlan::new().with(0, Fault::Stall));
        for budget_growth in [0, 1] {
            let adaptive = extractor.extract_batch_adaptive(
                &[QAM],
                &AdaptiveOptions {
                    max_retries: 5,
                    budget_growth,
                },
            );
            let record = &adaptive.failures[0];
            assert_eq!(record.attempts, 1);
            assert_eq!(record.error, ErrorKind::Timeout);
            assert_ne!(record.outcome, FailureOutcome::Recovered);
            assert_eq!(adaptive.stats.retried, 0);
        }
    }

    #[test]
    fn a_rung_the_parse_ran_past_is_a_timeout() {
        let rungs = [
            (40, Some(Duration::from_millis(1))),
            (80, Some(Duration::from_millis(2))),
        ];
        let stats = ParseStats {
            tokens: 10,
            created: 30,
            elapsed: Duration::from_micros(1500),
            budget: BudgetOutcome::Completed,
            ..Default::default()
        };
        let mut trail = Vec::new();
        assert_eq!(outgrow(&mut trail, &rungs, &stats), 1, "settles on rung 1");
        assert_eq!(trail.len(), 1);
        assert_eq!(trail[0].attempt, 0);
        assert_eq!(trail[0].error, Some(ErrorKind::Timeout));
        assert_eq!(trail[0].created, 30);
        assert_eq!(trail[0].elapsed_us, 0);
        // Past both deadlines, it outgrows every rung below the last.
        let slower = ParseStats {
            elapsed: Duration::from_millis(3),
            ..stats
        };
        trail.clear();
        assert_eq!(outgrow(&mut trail, &rungs, &slower), 2);
        assert_eq!(trail.len(), 2);
        assert!(trail.iter().all(|r| r.error == Some(ErrorKind::Timeout)));
        // Under both deadlines and caps, it settles on rung 0.
        let quick = ParseStats {
            elapsed: Duration::from_micros(500),
            ..stats
        };
        trail.clear();
        assert_eq!(outgrow(&mut trail, &rungs, &quick), 0);
        assert!(trail.is_empty());
    }
}
