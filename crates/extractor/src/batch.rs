//! Parallel batch extraction — the parse-many workload the
//! compile-once split exists for, with per-page fault isolation and an
//! adaptive retry driver.
//!
//! [`FormExtractor::extract_batch_adaptive`] is the one batch entry
//! point. It fans a slice of HTML pages out over scoped worker
//! threads. Each worker owns one [`metaform_parser::ParseSession`]
//! (recycling its chart and scratch across the pages it claims) while
//! all workers share the extractor's one `Arc<CompiledGrammar>`. Pages
//! are claimed in input order from a shared queue, so workers
//! self-balance; results are written back by input index, so the
//! output order is the input order and is identical to a sequential
//! run — parallelism changes wall-clock time, nothing else. With
//! [`AdaptiveOptions::max_retries`] 0 it is the plain one-pass batch.
//!
//! **Fault isolation.** Each page runs behind its own panic boundary
//! and budget checks ([`crate::ExtractError`]): a poison page — one
//! that panics the pipeline, exhausts its instance cap, or blows its
//! wall-clock deadline — is settled down the degradation ladder and
//! narrated by a [`FailureRecord`], while the other N−1 pages complete
//! normally. No page can abort the batch.
//!
//! **Adaptive escalation.** A budget failure is a verdict on the
//! *budget*, not the page: the same page parses fine under a larger
//! instance cap or deadline. The driver therefore runs a bounded
//! escalation loop — first pass under the configured budgets, then up
//! to [`AdaptiveOptions::max_retries`] retry rounds re-running *only*
//! the budget-limited pages (`Truncated`/`Timeout`) with both budgets
//! multiplied by [`AdaptiveOptions::budget_growth`] each round. A
//! retried page keeps the tokens of its first attempt — escalation
//! changes parser budgets only — so the HTML → layout → token front end
//! runs once per page, however many rungs the page descends.
//! `Panicked` and `EmptyForm` pages are never retried (a bigger budget
//! reproduces the same verdict) and neither are `Cancelled` ones
//! (retrying would fight the caller). Pages still failing after the
//! last round settle down the degradation ladder: the maximized
//! partial grammar-path report when it dominates the proximity
//! baseline ([`Provenance::PartialSalvage`]), the baseline otherwise.
//! Because the parser is deterministic, a retried page's output is
//! byte-identical to a one-shot run at the retry's budget.
//!
//! **Cancellation.** An extractor built with
//! [`FormExtractor::cancel_token`] threads the token into every parse;
//! firing it aborts in-flight parses at the next sampled budget poll
//! and makes the batch driver skip pages not yet started. Completed
//! pages keep their results; the rest settle down the ladder with a
//! [`FailureOutcome::Cancelled`] record (or `Salvaged`, when their
//! partial dominated the baseline).

use crate::error::ExtractError;
use crate::pipeline::{token_coverage, Attempt, Extraction, FormExtractor, Provenance};
use crate::telemetry::{
    duration_to_ms, AttemptRecord, CacheOutcome, ErrorKind, FailureOutcome, FailureRecord,
};
use metaform_core::Token;
use metaform_parser::CancelToken;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One page of a batch round: its index in the input, its HTML, and
/// its tokens when an earlier attempt already ran the front end.
type PageJob<'a> = (usize, &'a str, Option<Vec<Token>>);

/// Rollup of one [`FormExtractor::extract_batch_adaptive`] run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Pages extracted.
    pub pages: usize,
    /// Worker threads used (0 for an empty batch — no worker is
    /// spawned when there is nothing to claim).
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
    /// Retry attempts run by the adaptive driver (page-attempts, not
    /// pages: one page retried twice counts 2). Always 0 at
    /// `max_retries` 0.
    pub retried: usize,
    /// Pages that failed their first attempt but completed on the
    /// grammar path under an escalated budget. Always 0 at
    /// `max_retries` 0.
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
    /// Wall-clock time for the whole batch, retries included.
    pub elapsed: Duration,
}

impl BatchStats {
    /// Pages that failed the grammar path, by any cause (after
    /// retries, on the adaptive API).
    pub fn failed(&self) -> usize {
        self.panicked + self.truncated + self.timed_out + self.empty + self.cancelled
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

/// Knobs of the bounded escalation loop in
/// [`FormExtractor::extract_batch_adaptive`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveOptions {
    /// Retry rounds after the first pass (0 = first pass only: the
    /// plain batch, every failed page settled down the ladder and
    /// narrated by a [`FailureRecord`]).
    pub max_retries: usize,
    /// Multiplier applied to both per-page budgets (`max_instances`
    /// and `deadline`) each retry round, saturating. 0 is treated
    /// as 1 — budgets never shrink.
    pub budget_growth: u32,
}

impl Default for AdaptiveOptions {
    /// Two retries at doubling budgets: a page must be 4× over its
    /// first-pass budget to still fail the last round.
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

/// One page's in-progress story while the adaptive driver runs:
/// the latest attempt (verdict, stats, salvage candidate) plus the
/// attempt trail behind it.
struct PageState {
    attempt: Attempt,
    story: PageStory,
}

/// The telemetry half of a [`PageState`] — split out so the final
/// result can be moved out while the story is still sealed into a
/// [`FailureRecord`].
struct PageStory {
    attempts: Vec<AttemptRecord>,
    /// Kind of the most recent *failed* attempt — kept separately
    /// because a recovered page's final result is `Ok`.
    last_error: Option<ErrorKind>,
    message: Option<String>,
    final_budgets: (usize, Option<Duration>),
}

impl FormExtractor {
    /// The batch core every driver runs on: extracts each `(page_index,
    /// html, tokens)` job in parallel, returning one [`Attempt`] per
    /// job — verdict, per-attempt parse stats, the salvage candidate on
    /// budget failures, and the page's tokens — aligned with `jobs`.
    /// The page index travels *inside* the job, not as the slot
    /// position — retry rounds pass sparse subsets of the original
    /// batch, and every error and stat they produce must name the
    /// page's index in the original input, never its position in the
    /// subset. Retry rounds also hand each page the tokens its last
    /// attempt computed, which the job moves into
    /// [`FormExtractor::attempt_in`] so the front end is not run again.
    pub(crate) fn run_jobs(&self, jobs: Vec<PageJob<'_>>) -> Vec<Attempt> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let workers = self.batch_workers(jobs.len());
        let indices: Vec<usize> = jobs.iter().map(|&(page_index, _, _)| page_index).collect();
        let mut slots: Vec<Option<Attempt>> = Vec::new();
        slots.resize_with(jobs.len(), || None);
        // Workers claim jobs in input order from a shared queue; a job
        // is moved out whole, tokens included. The lock guards one
        // `next()` call, which cannot leave the queue half-updated, so
        // a poisoned lock is still safe to use.
        let queue = Mutex::new(jobs.into_iter().enumerate());

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut session = self.session();
                        let mut out = Vec::new();
                        loop {
                            let claimed =
                                queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                            let Some((slot, (page_index, html, tokens))) = claimed else {
                                break;
                            };
                            let attempt = self.attempt_in(&mut session, page_index, html, tokens);
                            out.push((slot, attempt));
                        }
                        out
                    })
                })
                .collect();
            for handle in handles {
                // Per-page panics are caught inside attempt_in, so a
                // worker-level panic should be impossible; if one
                // happens anyway, its claimed-but-unfilled slots are
                // reported as Panicked below rather than killing the
                // batch here.
                if let Ok(filled) = handle.join() {
                    for (slot, result) in filled {
                        slots[slot] = Some(result);
                    }
                }
            }
        });

        slots
            .into_iter()
            .zip(indices)
            .map(|(slot, page_index)| {
                slot.unwrap_or_else(|| {
                    Attempt::failed(
                        ExtractError::Panicked {
                            page_index,
                            message: "batch worker died outside the page boundary".to_string(),
                        },
                        None,
                    )
                })
            })
            .collect()
    }

    /// Extracts every page under the bounded escalation loop described
    /// in the module docs: first pass at the configured budgets, then
    /// up to [`AdaptiveOptions::max_retries`] rounds re-running only
    /// the budget-limited pages (`Truncated`/`Timeout`) with budgets
    /// multiplied by [`AdaptiveOptions::budget_growth`] each round.
    /// Pages still failing after the last round degrade to the
    /// proximity baseline. Every page that failed at least once gets a
    /// [`FailureRecord`] in [`AdaptiveBatch::failures`], and every
    /// error and record names the page's index in the *input* slice,
    /// however many retry subsets it passed through.
    pub fn extract_batch_adaptive(&self, pages: &[&str], opts: &AdaptiveOptions) -> AdaptiveBatch {
        let started = Instant::now();
        if pages.is_empty() {
            return AdaptiveBatch::default();
        }
        let workers = self.batch_workers(pages.len());
        let mut stats = BatchStats {
            pages: pages.len(),
            workers,
            ..Default::default()
        };

        // First pass: the whole batch at the configured budgets.
        let fresh = pages.iter().enumerate().map(|(i, &html)| (i, html, None));
        let first = self.run_jobs(fresh.collect());
        let mut states: Vec<PageState> = first
            .into_iter()
            .map(|attempt| {
                let mut state = PageState {
                    attempt,
                    story: PageStory {
                        attempts: Vec::new(),
                        last_error: None,
                        message: None,
                        final_budgets: self.budgets(),
                    },
                };
                let cache = self.attempt_cache_outcome(&state.attempt.result);
                state.log_attempt(0, self.budgets(), cache);
                state
            })
            .collect();

        // Escalation rounds: only budget failures are worth a bigger
        // budget. Cancellation ends the loop — pages not retried keep
        // their first verdict.
        let mut round_extractor = self.clone();
        for round in 1..=opts.max_retries {
            if self.cancel().is_some_and(CancelToken::is_cancelled) {
                break;
            }
            let pending: Vec<usize> = states
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    s.attempt
                        .result
                        .as_ref()
                        .is_err_and(ExtractError::is_budget_limited)
                })
                .map(|(i, _)| i)
                .collect();
            if pending.is_empty() {
                break;
            }
            round_extractor = round_extractor.escalated(opts.budget_growth);
            // A budget failure always carries its partial, and the
            // partial holds the page's tokens: the retry reuses them.
            let retry_jobs: Vec<PageJob<'_>> = pending
                .iter()
                .map(|&i| {
                    let partial = states[i].attempt.partial.as_mut();
                    (i, pages[i], partial.map(|p| std::mem::take(&mut p.tokens)))
                })
                .collect();
            stats.retried += retry_jobs.len();
            let retried = round_extractor.run_jobs(retry_jobs);
            for (&i, attempt) in pending.iter().zip(retried) {
                let state = &mut states[i];
                state.attempt = attempt;
                state.story.final_budgets = round_extractor.budgets();
                let cache = round_extractor.attempt_cache_outcome(&state.attempt.result);
                state.log_attempt(round, round_extractor.budgets(), cache);
            }
        }

        // Settle every page: salvage-or-degrade the still-failing
        // ones, collect the failure stories, count recoveries.
        let mut extractions = Vec::with_capacity(pages.len());
        let mut failures = Vec::new();
        for (i, state) in states.into_iter().enumerate() {
            let (attempt, story) = state.seal();
            match attempt.result {
                Ok(extraction) => {
                    if story.attempts.len() > 1 {
                        stats.recovered += 1;
                        failures.push(story.record(i, FailureOutcome::Recovered));
                    }
                    extractions.push(extraction);
                }
                Err(err) => {
                    let settled = self.settle_failed(
                        pages[i],
                        &err,
                        attempt.partial,
                        attempt.tokens,
                        &mut stats,
                    );
                    let outcome = if settled.via == Provenance::PartialSalvage {
                        FailureOutcome::Salvaged
                    } else if matches!(err, ExtractError::Cancelled { .. }) {
                        FailureOutcome::Cancelled
                    } else {
                        FailureOutcome::Degraded
                    };
                    let mut record = story.record(i, outcome);
                    if settled.via == Provenance::PartialSalvage {
                        record.salvage_covered =
                            Some(token_coverage(&settled.report, settled.tokens.len()));
                        record.salvage_tokens = Some(settled.tokens.len());
                    }
                    // Induction evidence: how far the partial parse got
                    // and which token arrangements it left unexplained.
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
                    extractions.push(settled);
                    failures.push(record);
                }
            }
        }
        self.roll_up(&extractions, &mut stats);
        stats.elapsed = started.elapsed();
        AdaptiveBatch {
            extractions,
            stats,
            failures,
        }
    }

    /// The single settlement site of the batch drivers for failed
    /// pages: counts the failure cause in `stats`, then serves the
    /// page via [`FormExtractor::salvage_or_degrade`] — the salvaged
    /// partial grammar-path report when it dominates the proximity
    /// baseline, the baseline otherwise — over the tokens the failed
    /// attempt already holds. The salvaged/degraded split itself is
    /// counted in `roll_up` from the provenance marks.
    fn settle_failed(
        &self,
        page: &str,
        err: &ExtractError,
        partial: Option<Extraction>,
        tokens: Option<Vec<Token>>,
        stats: &mut BatchStats,
    ) -> Extraction {
        match err {
            ExtractError::Panicked { .. } => stats.panicked += 1,
            ExtractError::Truncated { .. } => stats.truncated += 1,
            ExtractError::Timeout { .. } => stats.timed_out += 1,
            ExtractError::EmptyForm { .. } => stats.empty += 1,
            ExtractError::Cancelled { .. } => stats.cancelled += 1,
        }
        self.salvage_or_degrade(page, partial, tokens)
    }

    /// Sums per-page counters into the batch rollup (shared by the
    /// stats and adaptive drivers). Cache misses are counted only when
    /// a cache is actually attached — a plain grammar extraction is
    /// not a "miss" on an extractor that never consulted anything.
    fn roll_up(&self, extractions: &[Extraction], stats: &mut BatchStats) {
        let cached = self.cache().is_some();
        for ex in extractions {
            match ex.via {
                Provenance::BaselineFallback => stats.degraded += 1,
                Provenance::PartialSalvage => stats.salvaged += 1,
                Provenance::CacheHit => stats.cache_hits += 1,
                Provenance::Grammar if cached => stats.cache_misses += 1,
                Provenance::Grammar => {}
            }
            stats.tokens += ex.stats.tokens;
            stats.created += ex.stats.created;
            stats.invalidated += ex.stats.invalidated;
            stats.trees += ex.stats.trees;
            stats.schedules_built += ex.stats.schedules_built;
        }
    }

    /// The cache interaction of one settled attempt, for the per-page
    /// telemetry trail: `None` without a cache, on failures, and on
    /// degraded pages.
    fn attempt_cache_outcome(
        &self,
        result: &Result<Extraction, ExtractError>,
    ) -> Option<CacheOutcome> {
        self.cache()?;
        match result {
            Ok(ex) => match ex.via {
                Provenance::CacheHit => Some(CacheOutcome::Hit),
                Provenance::Grammar => Some(CacheOutcome::Miss),
                Provenance::BaselineFallback | Provenance::PartialSalvage => None,
            },
            Err(_) => None,
        }
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

impl PageState {
    /// Appends this round's attempt to the trail — but only once the
    /// page has failed at least once: clean pages (the common case)
    /// carry no telemetry at all, and a recovered page's final, clean
    /// attempt is logged because a failed one precedes it.
    fn log_attempt(
        &mut self,
        round: usize,
        budgets: (usize, Option<Duration>),
        cache: Option<CacheOutcome>,
    ) {
        let error = self.attempt.result.as_ref().err().map(ErrorKind::of);
        if error.is_none() && self.story.attempts.is_empty() {
            return;
        }
        if let Some(kind) = error {
            self.story.last_error = Some(kind);
        }
        if let Err(ExtractError::Panicked { message, .. }) = &self.attempt.result {
            self.story.message = Some(message.clone());
        }
        let (tokens, created, elapsed_us) = match &self.attempt.stats {
            Some(s) => (
                s.tokens,
                s.created,
                u64::try_from(s.elapsed.as_micros()).unwrap_or(u64::MAX),
            ),
            None => (0, 0, 0),
        };
        self.story.attempts.push(AttemptRecord {
            attempt: round,
            max_instances: budgets.0,
            deadline_ms: duration_to_ms(budgets.1),
            error,
            cache,
            tokens,
            created,
            covered: self.attempt.covered(),
            elapsed_us,
        });
    }

    /// Splits the final attempt from the telemetry trail.
    fn seal(self) -> (Attempt, PageStory) {
        (self.attempt, self.story)
    }
}

impl PageStory {
    /// Seals the story into the record handed to telemetry consumers.
    fn record(self, page_index: usize, outcome: FailureOutcome) -> FailureRecord {
        FailureRecord {
            page_index,
            error: self
                .last_error
                .expect("a failure record exists only for a page that failed"),
            message: self.message,
            attempts: self.attempts.len(),
            outcome,
            final_max_instances: self.final_budgets.0,
            final_deadline_ms: duration_to_ms(self.final_budgets.1),
            salvage_covered: None,
            salvage_tokens: None,
            partial_roots: Vec::new(),
            arrangements: Vec::new(),
            attempt_log: self.attempts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::QAM;

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
            .inject_panic_marker("POISON");
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

    /// Retry rounds hand pages the tokens of their earlier attempt,
    /// skipping the front end — but the cancel marker is still checked
    /// on such an attempt, fires the token, and the page keeps the
    /// tokens it was handed.
    #[test]
    fn retry_job_with_known_tokens_still_fires_the_cancel_marker() {
        let page = "<form>STOP <input type=text name=s><input type=submit value=Go></form>";
        let tokens = FormExtractor::new().extract(page).tokens;
        assert!(!tokens.is_empty());
        let cancel = CancelToken::new();
        let extractor = FormExtractor::new()
            .worker_threads(1)
            .cancel_token(cancel.clone())
            .inject_cancel_marker("STOP");
        let attempts = extractor.run_jobs(vec![(7, page, Some(tokens.clone()))]);
        assert!(cancel.is_cancelled(), "the retried marker page fired");
        let attempt = &attempts[0];
        assert!(matches!(
            attempt.result,
            Err(ExtractError::Cancelled { page_index: 7 })
        ));
        let partial = attempt.partial.as_ref().expect("cancelled mid-parse");
        assert_eq!(partial.tokens, tokens);

        // A page met after the cancellation is skipped whole and
        // still keeps its tokens for the baseline.
        let skipped = extractor.run_jobs(vec![(8, page, Some(tokens.clone()))]);
        assert!(matches!(
            skipped[0].result,
            Err(ExtractError::Cancelled { page_index: 8 })
        ));
        assert_eq!(skipped[0].tokens.as_ref(), Some(&tokens));
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
}
