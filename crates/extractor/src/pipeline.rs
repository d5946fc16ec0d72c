//! The form extractor pipeline (paper Figure 2):
//!
//! ```text
//! HTML query form → [layout engine] → [tokenizer] →
//!   [best-effort parser ⟲ 2P grammar] → [merger] → query capabilities
//! ```

use crate::batch::AdaptiveOptions;
use crate::cache::{CachedVisit, ParseCache};
use crate::error::{panic_message, ExtractError};
use metaform_core::{ExtractionReport, Token, TokenFingerprint};
use metaform_grammar::{global_compiled, CompiledGrammar, Grammar, GrammarError, PatternSpan};
use metaform_html::parse as parse_html;
use metaform_layout::layout;
use metaform_parser::{
    merge, salvage_merge, BudgetOutcome, CancelToken, ChartSnapshot, ParseSession, ParseStats,
    ParserOptions,
};
use metaform_tokenizer::tokenize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Which extractor produced a report — the provenance mark of the
/// graceful-degradation contract: when the grammar path fails or blows
/// a budget, the infallible APIs fall back to the pairwise-proximity
/// baseline ([`crate::extract_baseline`]) so the caller always gets
/// *some* capability description.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Provenance {
    /// The full hidden-syntax pipeline (layout → tokenize → 2P parse →
    /// merge).
    #[default]
    Grammar,
    /// The proximity-baseline heuristic, used because the grammar path
    /// failed (see [`ExtractError`] for why).
    BaselineFallback,
    /// The report was replayed from an attached [`ParseCache`] — the
    /// page's tokens matched a prior visit exactly, so no parse ran.
    CacheHit,
    /// The parse hit a budget (or was cancelled mid-flight), but the
    /// maximized partial trees it had already built interpret the form
    /// better than the proximity baseline would, so the partial
    /// grammar-path report is served instead of degrading all the way.
    /// The salvage rung of the degradation ladder: chosen iff the
    /// partial report *dominates* the baseline under the deterministic
    /// metric of [`token_coverage`] (tokens the report accounts for),
    /// then [`condition_coverage`] (tokens claimed by conditions),
    /// then tree count, then a lexicographic tie-break on the rendered
    /// report — gated on the partial claiming at least half as many
    /// tokens as the baseline, so a parse cut before any semantics
    /// materialized can never displace a claiming baseline.
    PartialSalvage,
}

/// Tokens the report accounts for — claimed by a condition or covered
/// by a maximal grammar-path tree (the page total minus the report's
/// `missing` list). The salvage dominance rule's primary axis: the
/// best-effort promise is to explain as much of the page as possible,
/// and a partial parse whose maximal trees reach tokens the proximity
/// pairing strands is a better interpretation even when both claim
/// the same conditions. On its own this metric would be gameable —
/// wide structural derivations span tokens without interpreting them
/// — which is why the dominance rule pairs it with
/// [`condition_coverage`] as the tie-break and the eligibility gate.
pub fn token_coverage(report: &ExtractionReport, total_tokens: usize) -> usize {
    total_tokens.saturating_sub(report.missing.len())
}

/// Tokens claimed by at least one extracted condition — the semantic
/// half of the salvage dominance metric. [`token_coverage`] alone
/// would be the wrong gate: bare structural trees "cover" tokens
/// while interpreting none of them, so claims gate eligibility and
/// break coverage ties. Only tokens a condition actually claims
/// measure how much of the form was *understood*.
pub fn condition_coverage(report: &ExtractionReport) -> usize {
    let mut claimed: Vec<metaform_core::TokenId> = report
        .conditions
        .iter()
        .flat_map(|c| c.tokens.iter().copied())
        .collect();
    claimed.sort_unstable();
    claimed.dedup();
    claimed.len()
}

/// One injectable fault — what goes wrong on a chosen page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The pipeline panics inside the tokenize stage, exactly where a
    /// real defect would (caught at the page boundary →
    /// [`ExtractError::Panicked`]).
    Panic,
    /// The page behaves as if it stalled until its wall-clock deadline
    /// passed: its parse runs under a zeroed deadline and ends at the
    /// first budget poll with [`ExtractError::Timeout`]. Deterministic —
    /// no sleeping, no timing race — while exercising the same code
    /// path a genuinely slow page would.
    Stall,
    /// The extractor's batch-level cancel token fires just before this
    /// page's parse starts (no-op without an attached
    /// [`FormExtractor::cancel_token`]), giving a deterministic
    /// mid-batch cancellation point.
    Cancel,
}

impl Fault {
    /// Stable spec-string name (see [`FaultPlan::parse`]).
    pub fn as_str(self) -> &'static str {
        match self {
            Fault::Panic => "panic",
            Fault::Stall => "stall",
            Fault::Cancel => "cancel",
        }
    }
}

/// A deterministic, option-gated fault plan: which batch page indices
/// fail, and how. Attached via [`FormExtractor::fault_plan`] (or
/// `metaformd --fault-plan`), it makes the whole degradation ladder —
/// panic isolation, retry escalation, salvage, cancellation — testable
/// without timing races or `cfg(test)`-only paths. Production
/// extractors simply never attach one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    entries: Vec<(usize, Fault)>,
}

impl FaultPlan {
    /// The empty plan (no page faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// This plan with `fault` injected at batch page `page_index`
    /// (builder style). A later entry for the same index replaces the
    /// earlier one.
    pub fn with(mut self, page_index: usize, fault: Fault) -> Self {
        self.entries.retain(|&(i, _)| i != page_index);
        self.entries.push((page_index, fault));
        self.entries.sort_unstable_by_key(|&(i, _)| i);
        self
    }

    /// A pseudo-random plan over `pages` page slots: each page faults
    /// with probability `rate_pct`/100, the kind chosen by the same
    /// hash. Fully determined by `seed` — two runs with the same seed
    /// build the same plan, so seeded chaos runs are reproducible.
    pub fn seeded(seed: u64, pages: usize, rate_pct: u32) -> Self {
        let mut plan = FaultPlan::new();
        for page in 0..pages {
            let h = splitmix64(seed ^ (page as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if (h % 100) < rate_pct as u64 {
                let fault = match (h >> 8) % 3 {
                    0 => Fault::Panic,
                    1 => Fault::Stall,
                    _ => Fault::Cancel,
                };
                plan = plan.with(page, fault);
            }
        }
        plan
    }

    /// Parses a flag-style spec: comma-separated `kind@page` entries,
    /// e.g. `panic@3,stall@5,cancel@7` — the format `metaformd
    /// --fault-plan` takes.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for entry in spec.split(',').filter(|e| !e.is_empty()) {
            let (kind, page) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault entry {entry:?} is not kind@page"))?;
            let fault = match kind {
                "panic" => Fault::Panic,
                "stall" => Fault::Stall,
                "cancel" => Fault::Cancel,
                other => return Err(format!("unknown fault kind {other:?}")),
            };
            let page: usize = page
                .parse()
                .map_err(|_| format!("bad page index {page:?} in fault entry {entry:?}"))?;
            plan = plan.with(page, fault);
        }
        Ok(plan)
    }

    /// The fault injected at `page_index`, if any.
    pub fn fault_for(&self, page_index: usize) -> Option<Fault> {
        self.entries
            .iter()
            .find(|&&(i, _)| i == page_index)
            .map(|&(_, f)| f)
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The planned faults, ordered by page index.
    pub fn entries(&self) -> &[(usize, Fault)] {
        &self.entries
    }
}

/// SplitMix64 — enough avalanche for reproducible fault sampling.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Result of extracting one query interface.
#[derive(Clone, Debug)]
pub struct Extraction {
    /// The semantic model plus conflict/missing reports.
    pub report: ExtractionReport,
    /// Parser counters (instances, pruning, timing).
    pub stats: ParseStats,
    /// The visual tokens the interface was reduced to.
    pub tokens: Vec<Token>,
    /// Which extractor produced [`Extraction::report`].
    pub via: Provenance,
    /// Which grammar pattern claimed which tokens, one entry per
    /// pattern-level instance in the maximal trees — the induction
    /// loop's mining evidence ([`metaform_parser::pattern_spans`]).
    /// Empty on the baseline path, where no grammar ran.
    pub pattern_spans: Vec<PatternSpan>,
    /// The maximal partial trees' root symbols — the coarse
    /// how-far-did-the-parse-get telemetry degraded pages record.
    pub partial_roots: Vec<String>,
}

/// End-to-end form extractor with a configurable grammar and parser.
///
/// The extractor holds its grammar in compiled form behind an `Arc`,
/// so it is `Send + Sync` and cheap to clone: every extraction reuses
/// the one validated schedule, and [`FormExtractor::extract_batch_adaptive`]
/// fans pages out across worker threads sharing the same artifact.
#[derive(Clone, Debug)]
pub struct FormExtractor {
    grammar: Arc<CompiledGrammar>,
    parser: ParserOptions,
    workers: Option<usize>,
    fault_plan: Option<Arc<FaultPlan>>,
    cache: Option<Arc<dyn ParseCache>>,
}

/// How one parse attempt ended. No extraction here holds the page's
/// tokens: they stay a local of the page's ladder, which moves them
/// into whichever extraction it serves.
pub(crate) enum Verdict {
    /// The parse completed or replayed a cached visit.
    Completed(Extraction),
    /// The parse failed, with the salvage candidate it built (`None`
    /// when no parse ran).
    Failed(ExtractError, Option<Extraction>),
}

impl Verdict {
    /// The counters of the parse behind this verdict (`None` when no
    /// parse ran).
    pub(crate) fn stats(&self) -> Option<&ParseStats> {
        match self {
            Verdict::Completed(ex) => Some(&ex.stats),
            Verdict::Failed(_, partial) => partial.as_ref().map(|ex| &ex.stats),
        }
    }
}

impl FormExtractor {
    /// Extractor over the derived global grammar (the configuration
    /// evaluated in the paper's experiments). Shares the process-wide
    /// compiled artifact — no grammar is built, validated, or
    /// scheduled here, however many extractors are created.
    pub fn new() -> Self {
        Self::with_compiled(global_compiled())
    }

    /// Extractor over a custom grammar — the extensibility story of
    /// §4.1: change the grammar, keep the machinery.
    ///
    /// Compiles the grammar, panicking on the (builder-rejected)
    /// unschedulable case; use [`FormExtractor::try_with_grammar`] to
    /// handle compilation errors — e.g. for grammars loaded from DSL
    /// files — without panicking.
    pub fn with_grammar(grammar: Grammar) -> Self {
        Self::try_with_grammar(grammar).expect("grammar compiles")
    }

    /// Fallible form of [`FormExtractor::with_grammar`]: surfaces the
    /// schedule-graph diagnostic instead of panicking.
    pub fn try_with_grammar(grammar: Grammar) -> Result<Self, GrammarError> {
        Ok(Self::with_compiled(Arc::new(grammar.compile()?)))
    }

    /// Extractor over an already-compiled grammar, sharing it with
    /// whatever else holds the `Arc`.
    pub fn with_compiled(grammar: Arc<CompiledGrammar>) -> Self {
        FormExtractor {
            grammar,
            parser: ParserOptions::default(),
            workers: None,
            fault_plan: None,
            cache: None,
        }
    }

    /// Overrides parser options (builder style).
    pub fn parser_options(mut self, parser: ParserOptions) -> Self {
        self.parser = parser;
        self
    }

    /// Replaces the compiled grammar while keeping every other knob —
    /// parser options, workers, fault plan, parse cache —
    /// untouched (builder style). This is how the daemon hot-adds
    /// induced productions: cache entries recorded under the old
    /// grammar degrade to misses automatically because cached visits
    /// are gated on `Arc::ptr_eq` with the live grammar.
    pub fn with_grammar_swapped(mut self, grammar: Arc<CompiledGrammar>) -> Self {
        self.grammar = grammar;
        self
    }

    /// Fixes the number of worker threads batch extraction uses
    /// (builder style), the calling thread included. Defaults to the
    /// machine's available parallelism, capped by the number of pages.
    pub fn worker_threads(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Sets the per-page wall-clock parse budget (builder style).
    /// A page whose parse exceeds it fails with
    /// [`ExtractError::Timeout`] on the fallible APIs and degrades to
    /// the proximity baseline on the infallible ones.
    pub fn page_deadline(mut self, deadline: Duration) -> Self {
        self.parser.deadline = Some(deadline);
        self
    }

    /// Caps the instances one page's parse may create (builder style) —
    /// the safety valve against adversarial, ambiguity-bomb forms.
    /// Exceeding it fails with [`ExtractError::Truncated`] on the
    /// fallible APIs and degrades to the baseline on the infallible
    /// ones.
    pub fn max_instances(mut self, cap: usize) -> Self {
        self.parser.max_instances = cap.max(1);
        self
    }

    /// Attaches a batch-level cancel token (builder style). Every
    /// parse run by this extractor polls the token at the parser's
    /// sampled budget check; calling [`CancelToken::cancel`] on any
    /// clone aborts in-flight parses with [`ExtractError::Cancelled`]
    /// and makes batch drivers skip pages not yet started — pages
    /// already completed keep their results.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.parser.cancel = Some(token);
        self
    }

    /// Attaches a deterministic fault plan (builder style): pages at
    /// the planned batch indices panic, stall past their deadline, or
    /// fire the cancel token, per [`FaultPlan`] — the one way to inject
    /// a fault. Index-addressed, so chaos suites plan faults without
    /// editing page HTML. Production extractors simply never attach
    /// one.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = (!plan.is_empty()).then(|| Arc::new(plan));
        self
    }

    /// Attaches a parse cache (builder style) — the revisit path for
    /// crawler-scale traffic. A page whose tokens match a cached visit
    /// exactly replays the cached report in O(hash)
    /// ([`Provenance::CacheHit`]), byte-identical to a cold parse (the
    /// cache-parity invariant); anything else parses cold and, when it
    /// completes on the grammar path, is stored for the next visit.
    /// The cache is shared: clones of this extractor, batch workers,
    /// and other extractors holding the same `Arc` all feed and serve
    /// from it. Entries from a different compiled grammar are ignored,
    /// so cross-grammar sharing is safe, just useless.
    pub fn parse_cache(mut self, cache: Arc<dyn ParseCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached parse cache, if any.
    pub fn cache(&self) -> Option<&Arc<dyn ParseCache>> {
        self.cache.as_ref()
    }

    /// The grammar in use.
    pub fn grammar(&self) -> &Grammar {
        self.grammar.grammar()
    }

    /// The configured worker-thread override, if any.
    pub(crate) fn workers(&self) -> Option<usize> {
        self.workers
    }

    /// The attached cancel token, if any.
    pub(crate) fn cancel(&self) -> Option<&CancelToken> {
        self.parser.cancel.as_ref()
    }

    /// The per-page budgets extractions currently run under:
    /// `(max_instances, deadline)`. Telemetry records these per
    /// attempt so a failure log names the budget that failed.
    pub fn budgets(&self) -> (usize, Option<Duration>) {
        (self.parser.max_instances, self.parser.deadline)
    }

    /// The compiled artifact extractions parse under.
    pub fn compiled(&self) -> &Arc<CompiledGrammar> {
        &self.grammar
    }

    /// A parse session over this extractor's grammar and parser
    /// options — for callers that drive parsing themselves.
    pub fn session(&self) -> ParseSession {
        ParseSession::with_options(self.grammar.clone(), self.parser.clone())
    }

    /// Runs the full pipeline on an HTML page containing a query form.
    ///
    /// Infallible by graceful degradation: a panic, budget blow-out, or
    /// empty form yields the salvaged partial report
    /// ([`Provenance::PartialSalvage`]) or a proximity-baseline report
    /// ([`Provenance::BaselineFallback`]) instead of an error — callers
    /// always get some capability description. This is the batch's
    /// per-page ladder at 0 retries; use [`FormExtractor::try_extract`]
    /// to observe the failure instead.
    pub fn extract(&self, html: &str) -> Extraction {
        let once = AdaptiveOptions {
            max_retries: 0,
            ..AdaptiveOptions::default()
        };
        self.ladder(&mut self.session(), 0, html, &once).0
    }

    /// Fallible form of [`FormExtractor::extract`]: the ladder's first
    /// attempt, unsettled. Surfaces the page's failure as a typed
    /// [`ExtractError`] (with `page_index` 0) instead of degrading.
    pub fn try_extract(&self, html: &str) -> Result<Extraction, ExtractError> {
        let tokens = self.page_tokens(0, html)?;
        match self.attempt(&mut self.session(), 0, &tokens, self.budgets()) {
            Verdict::Completed(extraction) => Ok(Extraction {
                tokens,
                ..extraction
            }),
            Verdict::Failed(err, _) => Err(err),
        }
    }

    /// The fault the attached plan injects at `page_index`, if any.
    fn fault_at(&self, page_index: usize) -> Option<Fault> {
        self.fault_plan.as_ref()?.fault_for(page_index)
    }

    /// The first step of a page's ladder: the front end (HTML → DOM →
    /// layout → tokens), run once per page behind the page's panic
    /// boundary. A page met after the batch's cancel token fired is
    /// skipped without running it, so pages not yet started cost
    /// nothing. A planned [`Fault::Panic`] fires here, exactly where a
    /// real defect would.
    pub(crate) fn page_tokens(
        &self,
        page_index: usize,
        html: &str,
    ) -> Result<Vec<Token>, ExtractError> {
        if self.cancel().is_some_and(CancelToken::is_cancelled) {
            return Err(ExtractError::Cancelled { page_index });
        }
        let fault = self.fault_at(page_index);
        catch_unwind(AssertUnwindSafe(|| {
            if fault == Some(Fault::Panic) {
                panic!("injected fault: plan panics page {page_index}");
            }
            self.front_end(html)
        }))
        .map_err(|payload| ExtractError::Panicked {
            page_index,
            message: panic_message(payload),
        })
    }

    /// One parse attempt over the page's tokens at `budgets`
    /// (`(max_instances, deadline)`), set on the caller's session, with
    /// the parse and report build behind the page's panic boundary.
    /// The ladder makes one attempt per page, at its last rung's
    /// budgets, and reads every earlier rung off it. Planned
    /// [`Fault::Stall`] and [`Fault::Cancel`] faults fire on that
    /// attempt. A panic mid-parse may leave the session's
    /// recycled chart un-recycled — that only costs the next parse a
    /// fresh allocation, never correctness, because
    /// `ParseSession::parse` resets the chart for each input.
    pub(crate) fn attempt(
        &self,
        session: &mut ParseSession,
        page_index: usize,
        tokens: &[Token],
        budgets: (usize, Option<Duration>),
    ) -> Verdict {
        if tokens.is_empty() {
            return Verdict::Failed(ExtractError::EmptyForm { page_index }, None);
        }
        let fault = self.fault_at(page_index);
        // A planned Cancel page fires the token right before its own
        // parse, which then observes the cancellation at its first poll.
        if let (Some(token), Some(Fault::Cancel)) = (self.cancel(), fault) {
            token.cancel();
        }
        // A stalled page parses under a zeroed deadline and ends at its
        // first budget poll — the deterministic equivalent of stalling
        // until the deadline passed.
        let deadline = match fault {
            Some(Fault::Stall) => Some(Duration::ZERO),
            _ => budgets.1,
        };
        session.set_budgets(budgets.0, deadline);
        catch_unwind(AssertUnwindSafe(|| {
            self.parse_tokens_in(session, page_index, tokens)
        }))
        .unwrap_or_else(|payload| {
            let message = panic_message(payload);
            Verdict::Failed(
                ExtractError::Panicked {
                    page_index,
                    message,
                },
                None,
            )
        })
    }

    /// The settlement site of the degradation ladder's last two rungs:
    /// serves the salvaged partial grammar-path report when it
    /// dominates the proximity baseline, the baseline otherwise. The
    /// dominance metric is deterministic and total — token coverage
    /// ([`token_coverage`]), then claimed tokens
    /// ([`condition_coverage`]), then maximal tree count, then a
    /// lexicographic tie-break on the rendered report, gated on the
    /// partial claiming at least half the baseline's tokens — so the
    /// choice is identical across worker counts and batch orders. This
    /// is the one place [`Provenance::PartialSalvage`] is constructed,
    /// as [`FormExtractor::degrade`] is for
    /// [`Provenance::BaselineFallback`]. The baseline reads the
    /// page's `tokens` from its ladder, and both candidates share that
    /// one token list, so it moves to whichever is served.
    pub(crate) fn salvage_or_degrade(
        &self,
        html: &str,
        partial: Option<Extraction>,
        tokens: Option<Vec<Token>>,
    ) -> Extraction {
        let mut baseline = self.degrade(html, tokens);
        let Some(mut partial) = partial else {
            return baseline;
        };
        let total = baseline.tokens.len();
        let partial_claims = condition_coverage(&partial.report);
        let baseline_claims = condition_coverage(&baseline.report);
        // Eligibility gate: structural trees cover tokens without
        // interpreting them, so a partial that claims less than half
        // of what the baseline claims never dominates, whatever its
        // raw coverage.
        if partial_claims * 2 < baseline_claims {
            return baseline;
        }
        let partial_key = (
            token_coverage(&partial.report, total),
            partial_claims,
            partial.stats.trees,
        );
        let baseline_key = (
            token_coverage(&baseline.report, total),
            baseline_claims,
            baseline.stats.trees,
        );
        let dominates = match partial_key.cmp(&baseline_key) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => partial.report.to_string() < baseline.report.to_string(),
        };
        if dominates {
            partial.tokens = std::mem::take(&mut baseline.tokens);
            partial.via = Provenance::PartialSalvage;
            partial
        } else {
            baseline
        }
    }

    /// The degradation path: runs the proximity baseline over the
    /// page's tokens, marking the provenance. The tokens are the ones
    /// the page's ladder already computed; only when there are none —
    /// the page's front end panicked, or a cancelled batch never
    /// started the page — does the front end run here, behind its own
    /// panic boundary. The parse counters are zeroed — the page-level
    /// reason lives in the [`ExtractError`] the fallible APIs return
    /// and in the [`crate::BatchStats`] failure counters.
    pub(crate) fn degrade(&self, html: &str, tokens: Option<Vec<Token>>) -> Extraction {
        let tokens = tokens.unwrap_or_else(|| {
            catch_unwind(AssertUnwindSafe(|| self.front_end(html))).unwrap_or_default()
        });
        let report = crate::baseline::extract_baseline(&tokens);
        Extraction {
            report,
            stats: ParseStats {
                tokens: tokens.len(),
                ..Default::default()
            },
            tokens,
            via: Provenance::BaselineFallback,
            pattern_spans: Vec::new(),
            partial_roots: Vec::new(),
        }
    }

    /// The front end: HTML → DOM → layout → the form's 2-D tokens. A
    /// pure function of the HTML, so each page runs it once and every
    /// rung of its ladder shares the result.
    fn front_end(&self, html: &str) -> Vec<Token> {
        let doc = parse_html(html);
        let lay = layout(&doc);
        tokenize(&doc, &lay).tokens
    }

    /// The parse + merge core; budget blow-outs and cancellation map
    /// to typed errors. The extraction's `tokens` are left empty: the
    /// caller owns the page's tokens and moves them in.
    fn parse_tokens_in(
        &self,
        session: &mut ParseSession,
        page_index: usize,
        tokens: &[Token],
    ) -> Verdict {
        // One fingerprint serves the exact-hit lookup and the store.
        let fingerprint = self.cache.as_ref().map(|_| TokenFingerprint::of(tokens));
        if let Some(hit) = self.replay_cached(tokens, fingerprint.as_ref()) {
            return Verdict::Completed(hit);
        }
        let result = session.parse(tokens);
        let error = match result.stats.budget {
            BudgetOutcome::Completed => None,
            BudgetOutcome::TruncatedInstances => Some(ExtractError::Truncated { page_index }),
            BudgetOutcome::DeadlineExceeded => Some(ExtractError::Timeout { page_index }),
            BudgetOutcome::Cancelled => Some(ExtractError::Cancelled { page_index }),
        };
        // A failed parse gets the salvage merge — the union over the
        // maximal trees plus the sweep that recovers conditions stranded
        // below the truncation point — as the salvage candidate.
        let report = match &error {
            None => merge(&result.chart, &result.trees),
            Some(_) => salvage_merge(&result.chart, &result.trees),
        };
        let grammar = self.grammar.grammar();
        let pattern_spans = metaform_parser::pattern_spans(&result.chart, &result.trees, grammar);
        let partial_roots = metaform_parser::tree_symbols(&result.chart, &result.trees, grammar);
        let extraction = Extraction {
            report,
            stats: result.stats.clone(),
            tokens: Vec::new(),
            via: Provenance::Grammar,
            pattern_spans,
            partial_roots,
        };
        if let Some(fingerprint) = fingerprint {
            self.store_visit(tokens, fingerprint, &extraction, &result);
        }
        session.recycle(result);
        match error {
            None => Verdict::Completed(extraction),
            Some(err) => Verdict::Failed(err, Some(extraction)),
        }
    }

    /// Replays the cached report when the page's tokens match
    /// a prior visit exactly. The fingerprint addresses the entry; the
    /// full token comparison rules out collisions. The synthesized
    /// stats carry only the token count — no parse ran.
    fn replay_cached(
        &self,
        tokens: &[Token],
        fingerprint: Option<&TokenFingerprint>,
    ) -> Option<Extraction> {
        let cache = self.cache.as_ref()?;
        let visit = cache.lookup(fingerprint?)?;
        (Arc::ptr_eq(&visit.grammar, &self.grammar) && visit.tokens == tokens).then(|| Extraction {
            report: visit.report.clone(),
            stats: ParseStats {
                tokens: tokens.len(),
                ..Default::default()
            },
            tokens: Vec::new(),
            via: Provenance::CacheHit,
            pattern_spans: visit.pattern_spans.clone(),
            partial_roots: visit.partial_roots.clone(),
        })
    }

    /// Retains a finished grammar-path parse for future revisits.
    /// Only completed parses are stored: [`ChartSnapshot::of`] refuses
    /// truncated, timed-out and cancelled ones, whose reports a cold
    /// parse at full budget would not reproduce.
    fn store_visit(
        &self,
        tokens: &[Token],
        fingerprint: TokenFingerprint,
        extraction: &Extraction,
        result: &metaform_parser::ParseResult,
    ) {
        let (Some(cache), Some(snapshot)) = (&self.cache, ChartSnapshot::of(result)) else {
            return;
        };
        cache.store(
            fingerprint,
            Arc::new(CachedVisit {
                tokens: tokens.to_vec(),
                report: extraction.report.clone(),
                snapshot,
                grammar: self.grammar.clone(),
                pattern_spans: extraction.pattern_spans.clone(),
                partial_roots: extraction.partial_roots.clone(),
            }),
        );
    }
}

impl Default for FormExtractor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use metaform_core::DomainKind;

    /// The paper's running example Qam (amazon.com, Figure 3(a)),
    /// reduced to its author/title/subject rows.
    pub const QAM: &str = r#"
    <form action="/search">
      <b>Author</b> <input type="text" name="query-0" size="30"><br>
      <input type="radio" name="field-0" value="1"> first name/initials and last name
      <input type="radio" name="field-0" value="2"> start of last name
      <input type="radio" name="field-0" value="3" checked> exact name<br>
      <b>Title</b> <input type="text" name="query-1" size="30"><br>
      <input type="radio" name="field-1" value="1"> title word(s)
      <input type="radio" name="field-1" value="2"> start(s) of title word(s)
      <input type="radio" name="field-1" value="3"> exact start of title<br>
      <b>Subject</b> <input type="text" name="query-2" size="30"><br>
      <input type="submit" value="Search Now">
    </form>"#;

    #[test]
    fn qam_extracts_three_operator_conditions() {
        let extraction = FormExtractor::new().extract(QAM);
        let conds = &extraction.report.conditions;
        assert_eq!(conds.len(), 3, "{:#?}", conds);
        assert_eq!(conds[0].attribute, "Author");
        assert_eq!(conds[0].operators.len(), 3);
        assert!(conds[0].operators[2].contains("exact name"));
        assert_eq!(conds[1].attribute, "Title");
        assert_eq!(conds[1].operators.len(), 3);
        assert_eq!(conds[2].attribute, "Subject");
        assert_eq!(conds[2].domain.kind, DomainKind::Text);
        assert!(
            extraction.report.missing.is_empty(),
            "submit covered by ActionRow"
        );
        assert!(extraction.report.conflicts.is_empty());
    }

    #[test]
    fn aa_style_flight_form() {
        // Paper Figure 3(b), Qaa: round-trip radios, city pairs, dates,
        // passenger count.
        let html = r#"
        <form>
          <input type="radio" name="trip" checked> Round Trip
          <input type="radio" name="trip"> One Way<br>
          <table>
            <tr><td>From</td><td><input type="text" name="orig" size="18"></td>
                <td>To</td><td><input type="text" name="dest" size="18"></td></tr>
          </table>
          Departing <select name="dm"><option>January<option>February<option>March<option>April<option>May<option>June<option>July<option>August<option>September<option>October<option>November<option>December</select>
          <select name="dd"><option>1<option>2<option>3<option>4<option>5<option>6<option>7<option>8<option>9<option>10<option>11<option>12<option>13<option>14<option>15<option>16<option>17<option>18<option>19<option>20<option>21<option>22<option>23<option>24<option>25<option>26<option>27<option>28<option>29<option>30<option>31</select><br>
          Number of passengers <select name="pax"><option>1<option>2<option>3<option>4<option>5<option>6</select><br>
          <input type="submit" value="GO">
        </form>"#;
        let extraction = FormExtractor::new().extract(html);
        let conds = &extraction.report.conditions;
        let attrs: Vec<&str> = conds.iter().map(|c| c.attribute.as_str()).collect();
        assert!(attrs.contains(&"From"), "{attrs:?}");
        assert!(attrs.contains(&"To"), "{attrs:?}");
        assert!(attrs.contains(&"Departing"), "{attrs:?}");
        assert!(attrs.contains(&"Number of passengers"), "{attrs:?}");
        let trip = conds
            .iter()
            .find(|c| c.domain.values.contains(&"Round Trip".to_string()))
            .expect("trip-type enumeration");
        assert_eq!(trip.domain.values.len(), 2);
        let dep = conds.iter().find(|c| c.attribute == "Departing").unwrap();
        assert_eq!(dep.domain.kind, DomainKind::Date);
        let pax = conds
            .iter()
            .find(|c| c.attribute == "Number of passengers")
            .unwrap();
        assert_eq!(pax.domain.kind, DomainKind::Numeric);
    }

    #[test]
    fn price_range_and_checkbox_form() {
        let html = r#"
        <form>
          Price range <input type="text" name="lo" size="6"> to <input type="text" name="hi" size="6"><br>
          Format: <input type="checkbox" name="hc"> Hardcover
                  <input type="checkbox" name="pb"> Paperback
                  <input type="checkbox" name="ab"> Audio<br>
          <input type="submit" value="Find">
        </form>"#;
        let extraction = FormExtractor::new().extract(html);
        let conds = &extraction.report.conditions;
        let range = conds
            .iter()
            .find(|c| c.attribute.contains("Price"))
            .expect("price range extracted");
        assert_eq!(range.domain.kind, DomainKind::Range);
        let format = conds
            .iter()
            .find(|c| c.attribute.starts_with("Format"))
            .expect("format enumeration");
        assert_eq!(format.domain.kind, DomainKind::Enumerated);
        assert_eq!(
            format.domain.values,
            vec!["Hardcover", "Paperback", "Audio"]
        );
    }

    #[test]
    fn custom_grammar_swaps_in() {
        let custom = metaform_grammar::paper_example_grammar();
        let ex = FormExtractor::with_grammar(custom)
            .extract("<form>Author <input type=text name=q></form>");
        assert_eq!(ex.report.conditions.len(), 1);
        assert_eq!(ex.report.conditions[0].attribute, "Author");
    }

    #[test]
    fn empty_form_is_fine() {
        let ex = FormExtractor::new().extract("<form></form>");
        assert!(ex.report.conditions.is_empty());
        assert!(ex.tokens.is_empty());
    }

    #[test]
    fn stats_flow_through() {
        let ex = FormExtractor::new().extract(QAM);
        assert!(ex.stats.created > ex.tokens.len());
        assert!(ex.stats.invalidated > 0, "preferences fired");
        assert_eq!(ex.via, Provenance::Grammar);
    }

    #[test]
    fn try_extract_names_the_failure() {
        let ex = FormExtractor::new();
        assert!(matches!(
            ex.try_extract("<form></form>"),
            Err(ExtractError::EmptyForm { page_index: 0 })
        ));
        let poisoned = FormExtractor::new().fault_plan(FaultPlan::new().with(0, Fault::Panic));
        match poisoned.try_extract("<form>POISON <input type=text name=q></form>") {
            Err(ExtractError::Panicked {
                page_index,
                message,
            }) => {
                assert_eq!(page_index, 0);
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        let rushed = FormExtractor::new().page_deadline(Duration::ZERO);
        assert!(matches!(
            rushed.try_extract(QAM),
            Err(ExtractError::Timeout { page_index: 0 })
        ));
        let capped = FormExtractor::new().max_instances(3);
        assert!(matches!(
            capped.try_extract(QAM),
            Err(ExtractError::Truncated { page_index: 0 })
        ));
        assert!(FormExtractor::new().try_extract(QAM).is_ok());
    }

    #[test]
    fn parse_cache_serves_exact_revisits_and_parses_edits_cold() {
        use crate::cache::LruParseCache;
        let cache = LruParseCache::shared();
        let extractor = FormExtractor::new().parse_cache(cache.clone());
        let cold = extractor.extract(QAM);
        assert_eq!(cold.via, Provenance::Grammar);
        assert_eq!(cache.len(), 1, "completed parse stored");
        // Unchanged revisit: replayed, not re-parsed.
        let hit = extractor.extract(QAM);
        assert_eq!(hit.via, Provenance::CacheHit);
        assert_eq!(hit.report.to_string(), cold.report.to_string());
        assert_eq!(hit.tokens, cold.tokens);
        assert_eq!(hit.stats.created, 0, "no parse ran");
        // Edited revisit: parsed cold, byte-identical to a cold parse
        // of the edited page.
        let edited = QAM.replace("<b>Subject</b>", "<b>Keywords</b>");
        let revisit = extractor.extract(&edited);
        assert_eq!(revisit.via, Provenance::Grammar);
        let cold_edited = FormExtractor::new().extract(&edited);
        assert_eq!(revisit.report.to_string(), cold_edited.report.to_string());
        // The edited visit was stored too: revisiting it hits.
        assert_eq!(extractor.extract(&edited).via, Provenance::CacheHit);
    }

    #[test]
    fn uncacheable_outcomes_are_not_stored() {
        use crate::cache::LruParseCache;
        let cache = LruParseCache::shared();
        // A truncated parse must not seed future revisits: its chart
        // is incomplete, and its baseline report is not a parse.
        let capped = FormExtractor::new()
            .max_instances(3)
            .parse_cache(cache.clone());
        let degraded = capped.extract(QAM);
        assert_eq!(degraded.via, Provenance::BaselineFallback);
        assert!(cache.is_empty(), "nothing cached from a failed parse");
    }

    #[test]
    fn failed_pages_degrade_to_nonempty_baseline_reports() {
        // Deadline blown: the infallible API still produces a usable
        // capability description, via the proximity baseline.
        let rushed = FormExtractor::new().page_deadline(Duration::ZERO);
        let degraded = rushed.extract(QAM);
        assert_eq!(degraded.via, Provenance::BaselineFallback);
        assert!(
            !degraded.report.conditions.is_empty(),
            "degraded but nonempty: the baseline still reads the form"
        );
        assert!(!degraded.tokens.is_empty());
        // Same for a panicking page.
        let poisoned = FormExtractor::new().fault_plan(FaultPlan::new().with(0, Fault::Panic));
        let degraded = poisoned.extract(QAM);
        assert_eq!(degraded.via, Provenance::BaselineFallback);
        assert!(!degraded.report.conditions.is_empty());
    }
}
