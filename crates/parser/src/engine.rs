//! The best-effort parser `2PParser` (paper Figure 11).
//!
//! ```text
//! Proc 2PParser(TS, G):
//!   Y = BldSchldGraph(G); find a topological order of symbols in Y
//!   for each symbol A in order:
//!     I += instantiate(A)                  // fix-point per symbol
//!     for each preference R involving A:
//!       F = enforce(R)                     // just-in-time pruning
//!       for each invalidated instance i ∈ F: Rollback(i)
//!   res = PRHandler()                      // partial tree maximization
//! ```

use crate::cancel::CancelToken;
use crate::instance::{Chart, InstId};
use crate::maximize::{maximize_with, MaxScratch};
use crate::stats::{BudgetOutcome, ParseStats};
use metaform_core::{BBox, Token};
use metaform_grammar::{
    CompiledGrammar, ConflictCond, DepthTerms, Grammar, Hoisted, Payload, PayloadTable, PrefId,
    ProdId, Production, Schedule, SlotTable, SymbolId, SymbolKind, WinCriteria,
};
use std::time::{Duration, Instant};

/// Order in which preferences are applied at each enforcement point —
/// §5.2's consistency probe: "different orders of applying the
/// preferences" must "yield the same result" for a well-formed
/// grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PreferenceOrder {
    /// Declaration order (the default).
    #[default]
    Scheduled,
    /// Reverse declaration order (for consistency checking).
    Reversed,
}

/// Fix-point scheduling strategy. Both schedules produce **identical
/// charts** — same instances in the same creation order, same
/// invalidations, same trees (the `seminaive_parity` suite asserts
/// this across the corpus); they differ only in how much redundant
/// work each round performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FixpointMode {
    /// Delta-driven (the default): each round of `apply_production`
    /// only enumerates component combinations containing at least one
    /// instance created since the production's previous application,
    /// and each preference sweep only tests winner/loser pairs where
    /// at least one side is new — the semi-naive evaluation of Datalog
    /// engines, applied to Figure 11's fix-point.
    #[default]
    SemiNaive,
    /// Re-enumerate the full cartesian product every round, relying on
    /// [`Chart::seen`] to discard repeats, and re-sweep every
    /// enforcement pair — the reference schedule the parity suite
    /// compares against.
    Naive,
}

/// Parser configuration. The defaults give the full best-effort
/// behaviour; the switches exist for the paper's ablations.
#[derive(Clone, Debug)]
pub struct ParserOptions {
    /// Enforce preferences (just-in-time pruning). Off = the basic
    /// "brute-force" fix-point of §4.2.1 that exhausts all
    /// interpretations.
    pub enforce_preferences: bool,
    /// Hard cap on created instances — a safety valve for the
    /// exponential brute-force mode (visual-language membership is
    /// NP-complete, §5.1). Hitting it ends the parse with
    /// [`BudgetOutcome::TruncatedInstances`].
    pub max_instances: usize,
    /// Wall-clock budget for one parse. `None` (the default) means
    /// unbounded; `Some(d)` aborts instantiation once `d` has elapsed,
    /// ending the parse with [`BudgetOutcome::DeadlineExceeded`]. Any
    /// `d` is accepted: one too long to add to the parse's start
    /// (`Duration::MAX`, say) is unbounded too.
    /// Whatever the chart holds at that point is still maximized into
    /// partial trees — the parse stays best-effort, just bounded.
    pub deadline: Option<Duration>,
    /// Preference application order (see [`PreferenceOrder`]).
    pub preference_order: PreferenceOrder,
    /// Fix-point scheduling strategy (see [`FixpointMode`]).
    pub fixpoint: FixpointMode,
    /// Batch-level cancel token, observed at the same sampled poll as
    /// the deadline. `None` (the default) means not cancellable. When
    /// the token fires, the parse stops at its next poll — at most one
    /// 64-step enumeration interval away — with
    /// [`BudgetOutcome::Cancelled`], still maximizing whatever the
    /// chart holds. Cancellation wins over the deadline when both
    /// trigger at one poll.
    pub cancel: Option<CancelToken>,
    /// Collect a per-phase wall-clock breakdown into
    /// [`ParseStats::phase`]. Off by default: the extra clock reads are
    /// cheap but not free, and benchmarks want their timed passes
    /// unperturbed — profile in a separate collection pass.
    pub profile: bool,
}

impl Default for ParserOptions {
    fn default() -> Self {
        ParserOptions {
            enforce_preferences: true,
            max_instances: 2_000_000,
            deadline: None,
            preference_order: PreferenceOrder::Scheduled,
            fixpoint: FixpointMode::SemiNaive,
            cancel: None,
            profile: false,
        }
    }
}

impl ParserOptions {
    /// The exhaustive baseline: no pruning at all.
    pub fn brute_force() -> Self {
        ParserOptions {
            enforce_preferences: false,
            ..Default::default()
        }
    }
}

/// A finished parse: the chart, the maximal partial trees, and stats.
#[derive(Clone, Debug)]
pub struct ParseResult {
    /// All instances created during parsing.
    pub chart: Chart,
    /// Roots of the maximal partial parse trees, largest span first.
    pub trees: Vec<InstId>,
    /// Counters.
    pub stats: ParseStats,
}

/// Parses tokens under a grammar with default options.
///
/// ```
/// use metaform_core::{BBox, Token, TokenKind};
/// use metaform_grammar::paper_example_grammar;
/// use metaform_parser::{merge, parse};
///
/// // "Author [textbox]" as two visual tokens.
/// let tokens = vec![
///     Token::text(0, "Author", BBox::new(10, 12, 52, 28)),
///     Token::widget(1, TokenKind::Textbox, "q", BBox::new(60, 8, 200, 28)),
/// ];
/// let grammar = paper_example_grammar();
/// let result = parse(&grammar, &tokens);
/// assert!(result.stats.complete);
///
/// let report = merge(&result.chart, &result.trees);
/// assert_eq!(report.conditions[0].attribute, "Author");
/// ```
pub fn parse(grammar: &Grammar, tokens: &[Token]) -> ParseResult {
    parse_with(grammar, tokens, &ParserOptions::default())
}

/// Parses tokens under a grammar with explicit options.
///
/// This is the one-shot path: it compiles the grammar
/// ([`CompiledGrammar::new`]) and parses through a fresh
/// [`crate::ParseSession`] on every call. Workloads that parse many
/// interfaces under one grammar should compile once
/// ([`metaform_grammar::Grammar::compile`]) and reuse a session
/// instead.
///
/// Grammars produced by `GrammarBuilder` are already validated, so
/// compiling cannot fail for them; should an invalid or unschedulable
/// grammar reach this function anyway, it degrades to an empty
/// best-effort result (no trees, no instances) rather than panicking.
/// The strict path is `Grammar::compile`, which surfaces the error.
pub fn parse_with(grammar: &Grammar, tokens: &[Token], opts: &ParserOptions) -> ParseResult {
    let Ok(compiled) = CompiledGrammar::new(grammar) else {
        return empty_result(grammar, tokens);
    };
    let mut session = crate::ParseSession::with_options(compiled.into(), opts.clone());
    let mut result = session.parse(tokens);
    result.stats.schedules_built = 1;
    result
}

/// The degenerate result for inputs no parse was attempted on.
fn empty_result(grammar: &Grammar, tokens: &[Token]) -> ParseResult {
    ParseResult {
        chart: Chart::new(tokens.to_vec(), grammar.symbols.len()),
        trees: Vec::new(),
        stats: ParseStats {
            tokens: tokens.len(),
            ..Default::default()
        },
    }
}

/// The parse core (paper Figure 11), run by [`crate::ParseSession`].
/// The caller provides the compiled grammar plus a chart targeted at
/// the tokens; `scratch` buffers are recycled across calls.
pub(crate) fn run_parse(
    compiled: &CompiledGrammar,
    chart: Chart,
    opts: &ParserOptions,
    scratch: &mut Scratch,
) -> ParseResult {
    let grammar = compiled.grammar();
    let schedule = compiled.schedule();
    let prefs_by_symbol = compiled.preference_index();
    let hoisted = compiled.hoisted();
    let slots = compiled.slots();
    let started = Instant::now();
    let token_count = chart.tokens().len();
    assert!(
        slots.max_arity() <= MAX_ARITY,
        "production arity {} exceeds the fixed enumeration buffers",
        slots.max_arity()
    );
    scratch.reset_for(grammar);
    let mut p = Parser {
        grammar,
        schedule,
        prefs_by_symbol,
        hoisted,
        slots,
        chart,
        opts,
        stats: ParseStats {
            tokens: token_count,
            ..Default::default()
        },
        // A deadline past what an `Instant` can hold never expires.
        deadline: opts.deadline.and_then(|d| started.checked_add(d)),
        deadline_tick: 0,
        scratch,
    };
    let profile = opts.profile;
    let t = profile.then(Instant::now);
    p.seed_terminals();
    if let Some(t) = t {
        p.stats.phase.alloc_ns += t.elapsed().as_nanos() as u64;
    }
    for i in 0..schedule.order.len() {
        // The cancel token and deadline are re-checked per symbol
        // (and, cheaply, inside the enumeration fix-point); once
        // either fires, instantiation stops and whatever the chart
        // holds is maximized below.
        if p.interrupted() {
            break;
        }
        let symbol = schedule.order[i];
        let t = profile.then(Instant::now);
        p.instantiate(symbol);
        if let Some(t) = t {
            p.stats.phase.instantiate_ns += t.elapsed().as_nanos() as u64;
        }
        if p.opts.enforce_preferences {
            let t = profile.then(Instant::now);
            p.enforce_involving(symbol);
            if let Some(t) = t {
                p.stats.phase.enforce_ns += t.elapsed().as_nanos() as u64;
            }
        }
    }
    // Final sweep: catches losers of rollback-mode preferences created
    // after the preference's last scheduled enforcement. Skipped past
    // the deadline or a cancellation — enforcement over a large chart
    // is itself costly, and a cancelled batch wants its threads back.
    if p.opts.enforce_preferences
        && !matches!(
            p.stats.budget,
            BudgetOutcome::DeadlineExceeded | BudgetOutcome::Cancelled
        )
    {
        let t = profile.then(Instant::now);
        p.enforce_all();
        if let Some(t) = t {
            p.stats.phase.enforce_ns += t.elapsed().as_nanos() as u64;
        }
    }
    let t = profile.then(Instant::now);
    let trees = maximize_with(&p.chart, &mut p.scratch.max);
    if let Some(t) = t {
        p.stats.phase.maximize_ns += t.elapsed().as_nanos() as u64;
    }
    p.stats.trees = trees.len();
    p.stats.complete =
        trees.len() == 1 && p.chart.span(trees[0]).count() == token_count && token_count > 0;
    p.stats.complete_parses = count_complete_parses(&p.chart, grammar);
    p.stats.temporary = count_temporary(&p.chart, &trees, p.scratch);
    p.stats.created = p.chart.len();
    p.stats.elapsed = started.elapsed();
    ParseResult {
        chart: p.chart,
        trees,
        stats: p.stats,
    }
}

/// Valid start-symbol instances covering every token.
fn count_complete_parses(chart: &Chart, grammar: &Grammar) -> usize {
    chart
        .of_symbol(grammar.start)
        .iter()
        .filter(|&&i| chart.is_valid(i) && chart.span(i).count() == chart.tokens().len())
        .count()
}

/// Instances not reachable from any selected tree, found with the
/// scratch's recycled bitmap and stack.
fn count_temporary(chart: &Chart, trees: &[InstId], scratch: &mut Scratch) -> usize {
    let (seen, stack) = (&mut scratch.seen, &mut scratch.stack);
    seen.clear();
    seen.resize(chart.len(), false);
    stack.clear();
    stack.extend_from_slice(trees);
    let mut used = 0;
    while let Some(cur) = stack.pop() {
        if !std::mem::replace(&mut seen[cur.index()], true) {
            used += 1;
            stack.extend_from_slice(chart.children(cur));
        }
    }
    chart.len() - used
}

/// Recycled working memory for the parse core: candidate lists and
/// delta bookkeeping for production enumeration, watermarks for
/// incremental enforcement, the deferred-creation buffers of one
/// enumeration pass and the maximizer's buffers. A
/// [`crate::ParseSession`] keeps one `Scratch` alive across parses so
/// the steady state allocates nothing here.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The combination being enumerated.
    combo: Vec<InstId>,
    /// Deferred creations of one enumeration pass: children flat,
    /// `arity` ids per accepted combo, parallel to `pending_payloads`.
    pending_children: Vec<InstId>,
    pending_payloads: Vec<Payload>,
    /// The conditions and caption lists the pending payloads index,
    /// pending behind the chart's table until the flush commits them.
    pending_table: PayloadTable,
    /// Per-production per-slot high-water marks: how many valid
    /// candidates the production saw at its previous application.
    /// Pinned at zero under [`FixpointMode::Naive`].
    prod_marks: Vec<Vec<u32>>,
    /// Per-production `(stamp, skipped)` of the last completed
    /// semi-naive application: the sum of its components'
    /// [`Chart::symbol_version`]s then, and the `combos_skipped_delta`
    /// an application at that stamp adds. `u64::MAX` = none yet.
    prod_stamps: Vec<(u64, u64)>,
    /// Per-production per-slot cached candidate lists: the valid ids
    /// of the slot's symbol that pass its hoisted unary predicates.
    /// Keyed by `slot_vers`; refreshed only when the symbol changed,
    /// and extended in place (not rebuilt) when the change was pure
    /// append. A slot with no predicate over a symbol with no invalid
    /// instance reads the chart's own list instead and leaves its
    /// cache alone.
    prod_cands: Vec<Vec<Vec<InstId>>>,
    /// The [`Chart::symbol_version`] each `prod_cands` list was built
    /// at (`u32::MAX` components = never built; a chart can't reach
    /// that many changes under any instance cap).
    slot_vers: Vec<Vec<(u32, u32)>>,
    /// Per-preference `(winner, loser)` index high-water marks over the
    /// chart's per-symbol lists. Pinned at zero under
    /// [`FixpointMode::Naive`].
    pref_marks: Vec<(u32, u32)>,
    /// `suffix_new[d]`: any slot in `d..` of the production being
    /// applied has candidates beyond its watermark.
    suffix_new: Vec<bool>,
    /// Saturating product of candidate-list lengths for slots `d..`.
    suffix_prod: Vec<u64>,
    /// Per-instance visited marks of [`count_temporary`], and the walk
    /// stack it shares with rollback.
    seen: Vec<bool>,
    stack: Vec<InstId>,
    /// The maximizer's buffers.
    max: MaxScratch,
}

/// Upper bound on production arity, sized for fixed enumeration
/// buffers (the widest global-grammar production has four components).
/// Checked at the start of every parse.
const MAX_ARITY: usize = 8;

impl Scratch {
    /// Re-targets the recycled buffers at `grammar` and zeroes all
    /// watermarks — called once per parse.
    fn reset_for(&mut self, grammar: &Grammar) {
        self.prod_marks.truncate(grammar.productions.len());
        for marks in &mut self.prod_marks {
            marks.clear();
        }
        self.prod_marks
            .resize_with(grammar.productions.len(), Vec::new);
        self.prod_stamps.clear();
        self.prod_stamps
            .resize(grammar.productions.len(), (u64::MAX, 0));
        self.prod_cands.truncate(grammar.productions.len());
        self.prod_cands
            .resize_with(grammar.productions.len(), Vec::new);
        // Clearing the slot versions (not the lists) is what
        // invalidates the candidate cache across parses: the sentinel
        // forces a refill on first application.
        self.slot_vers.truncate(grammar.productions.len());
        for vers in &mut self.slot_vers {
            vers.clear();
        }
        self.slot_vers
            .resize_with(grammar.productions.len(), Vec::new);
        self.pref_marks.clear();
        self.pref_marks.resize(grammar.preferences.len(), (0, 0));
        self.pending_children.clear();
        self.pending_payloads.clear();
    }
}

struct Parser<'a> {
    grammar: &'a Grammar,
    schedule: &'a Schedule,
    prefs_by_symbol: &'a [Vec<PrefId>],
    /// Per-production split of the constraint into per-slot unary
    /// predicates (applied once per candidate, filtering the lists
    /// before enumeration) and depth-grouped residual terms (checked
    /// at the shallowest enumeration depth where they are decidable)
    /// — see [`metaform_grammar::Constraint::hoist`].
    hoisted: &'a [Hoisted],
    /// Every production's component symbols and filtered-slot flags.
    slots: &'a SlotTable,
    chart: Chart,
    opts: &'a ParserOptions,
    stats: ParseStats,
    /// Absolute wall-clock deadline derived from
    /// [`ParserOptions::deadline`], if any.
    deadline: Option<Instant>,
    /// Enumeration steps since the last clock read — the deadline is
    /// polled every [`DEADLINE_POLL_MASK`]+1 steps to keep `Instant::now`
    /// off the inner-loop hot path.
    deadline_tick: u32,
    scratch: &'a mut Scratch,
}

/// Enumeration steps between deadline polls, minus one (used as a
/// bitmask).
const DEADLINE_POLL_MASK: u32 = 0x3F;

impl Parser<'_> {
    /// Creates terminal instances for every token.
    fn seed_terminals(&mut self) {
        for i in 0..self.chart.tokens().len() {
            let kind = self.chart.tokens()[i].kind;
            let sym = self.grammar.symbols.terminal(kind);
            self.chart.add_terminal_index(sym, i);
        }
    }

    /// Enforces the preferences involving `symbol`, in the order the
    /// options dictate — the just-in-time pruning step of Figure 11,
    /// driven by the pre-resolved per-symbol index instead of a scan
    /// over every preference in the grammar.
    fn enforce_involving(&mut self, symbol: SymbolId) {
        let prefs_by_symbol = self.prefs_by_symbol;
        let involving = &prefs_by_symbol[symbol.index()];
        match self.opts.preference_order {
            PreferenceOrder::Scheduled => {
                for &pref in involving.iter() {
                    self.enforce(pref);
                }
            }
            PreferenceOrder::Reversed => {
                for &pref in involving.iter().rev() {
                    self.enforce(pref);
                }
            }
        }
    }

    /// Enforces every preference once, in the configured order.
    fn enforce_all(&mut self) {
        let n = self.grammar.preferences.len() as u32;
        match self.opts.preference_order {
            PreferenceOrder::Scheduled => {
                for i in 0..n {
                    self.enforce(PrefId(i));
                }
            }
            PreferenceOrder::Reversed => {
                for i in (0..n).rev() {
                    self.enforce(PrefId(i));
                }
            }
        }
    }

    /// `instantiate(A)`: apply every production with head `A` until no
    /// new instance can be generated (paper Figure 11, `instantiate`).
    fn instantiate(&mut self, symbol: SymbolId) {
        debug_assert!(matches!(
            self.grammar.symbols.kind(symbol),
            SymbolKind::NonTerminal
        ));
        loop {
            self.stats.fixpoint_rounds += 1;
            let mut added = false;
            for &pid in self.grammar.productions_of(symbol) {
                if self.apply_production(pid) {
                    added = true;
                }
                if self.chart.len() >= self.opts.max_instances {
                    self.stats.budget = BudgetOutcome::TruncatedInstances;
                    return;
                }
                if self.interrupted() {
                    return;
                }
            }
            if !added {
                break;
            }
        }
    }

    /// Polls the batch-level cancel token and the wall-clock deadline
    /// (sets and latches [`BudgetOutcome::Cancelled`] /
    /// [`BudgetOutcome::DeadlineExceeded`]; cancellation wins when both
    /// fire). Truncation does not latch here: hitting the instance cap
    /// only stops *instantiation*, while enforcement still runs,
    /// matching the cap's original semantics.
    fn interrupted(&mut self) -> bool {
        if matches!(
            self.stats.budget,
            BudgetOutcome::DeadlineExceeded | BudgetOutcome::Cancelled
        ) {
            return true;
        }
        if let Some(cancel) = &self.opts.cancel {
            if cancel.is_cancelled() {
                self.stats.budget = BudgetOutcome::Cancelled;
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.stats.budget = BudgetOutcome::DeadlineExceeded;
                return true;
            }
        }
        false
    }

    /// Applies one production over all current valid combinations;
    /// returns whether anything new was created.
    ///
    /// Under [`FixpointMode::SemiNaive`] only combinations containing
    /// at least one candidate created since this production's previous
    /// application are enumerated (delta-driven); under
    /// [`FixpointMode::Naive`] the watermarks stay pinned at zero and
    /// the full product is re-walked. Either way, instance creation is
    /// *deferred*: the pass enumerates against an immutable chart
    /// (candidate lists are snapshots, so nothing created this pass
    /// can join a combination until the next round anyway) and flushes
    /// accepted combos afterwards in enumeration order — which lets
    /// one component-views buffer be reused across every combination
    /// of the pass.
    fn apply_production(&mut self, pid: ProdId) -> bool {
        let grammar = self.grammar;
        let prod = grammar.production(pid);
        let comps = self.slots.symbols(pid);
        let arity = comps.len();
        let delta = self.opts.fixpoint == FixpointMode::SemiNaive;

        // A production pays only when its page can fire it. A slot
        // whose symbol has no instance makes nothing runnable, and a
        // later application treats every candidate of that slot as new
        // either way, so the production returns before any refresh or
        // watermark work. The stamp sums the components' symbol
        // versions, each monotone, so an equal stamp means no
        // component changed since the last completed application: this
        // one would enumerate nothing and skip what that one skipped.
        let mut stamp = 0u64;
        for &s in comps {
            let (len, inv) = self.chart.symbol_version(s);
            if len == 0 {
                return false;
            }
            stamp += u64::from(len) + u64::from(inv);
        }
        let scratch = &mut *self.scratch;
        let (last_stamp, skipped) = scratch.prod_stamps[pid.index()];
        if delta && stamp == last_stamp {
            self.stats.combos_skipped_delta += skipped;
            return false;
        }

        // Refresh the per-slot cached candidate lists: valid ids that
        // pass the slot's hoisted unary predicates (a failing
        // candidate would fail the constraint in every combination,
        // so filtering here shrinks the cartesian product instead of
        // rediscovering the failure once per cell). The cache is
        // keyed by [`Chart::symbol_version`]: a slot whose symbol did
        // not change since its last refresh — by this production or a
        // previous application — keeps its list as-is, no copy and no
        // re-filter. A slot with no predicate over a symbol with no
        // invalid instance needs no list of its own: it enumerates the
        // chart's. Instances added mid-round are picked up by the
        // enclosing fix-point loop.
        let slot_preds = &self.hoisted[pid.index()].slot_preds;
        let filtered = self.slots.filtered(pid);
        let cands = &mut scratch.prod_cands[pid.index()];
        let slot_vers = &mut scratch.slot_vers[pid.index()];
        cands.resize_with(arity, Vec::new);
        slot_vers.resize(arity, (u32::MAX, u32::MAX));
        let mut in_place = [false; MAX_ARITY];
        for d in 0..arity {
            let s = comps[d];
            let (len, inv) = self.chart.symbol_version(s);
            if !filtered[d] && inv == 0 {
                in_place[d] = true;
                continue;
            }
            let (seen_len, seen_inv) = slot_vers[d];
            if (seen_len, seen_inv) == (len, inv) {
                continue;
            }
            let buf = &mut cands[d];
            let preds = &slot_preds[d];
            let keep = |chart: &Chart, id: InstId| -> bool {
                preds.iter().all(|p| p.eval(&chart.view(id)))
            };
            if seen_inv == inv && seen_len < len {
                // Pure append since the last refresh: everything past
                // the old length is valid, so the cached list extends
                // in place — O(new ids), not O(list).
                for &id in &self.chart.of_symbol(s)[seen_len as usize..] {
                    debug_assert!(self.chart.is_valid(id), "appended id already invalid");
                    if keep(&self.chart, id) {
                        buf.push(id);
                    }
                }
            } else {
                buf.clear();
                for &id in self.chart.of_symbol(s) {
                    if self.chart.is_valid(id) && keep(&self.chart, id) {
                        buf.push(id);
                    }
                }
            }
            slot_vers[d] = (len, inv);
        }
        let mut candidates: [&[InstId]; MAX_ARITY] = [&[]; MAX_ARITY];
        for d in 0..arity {
            candidates[d] = if in_place[d] {
                self.chart.of_symbol(comps[d])
            } else {
                &scratch.prod_cands[pid.index()][d]
            };
        }
        let candidates = &candidates[..arity];

        // Delta bookkeeping. `marks[d]` is the candidate count slot `d`
        // saw at the previous application (grammar validation
        // guarantees arity ≥ 1, so a production with no new candidates
        // has nothing left to contribute: every all-old combination was
        // already enumerated — created, deduped, or constraint-failed,
        // all of which are permanent verdicts over immutable spans).
        let marks = &mut scratch.prod_marks[pid.index()];
        marks.resize(arity, 0);
        scratch.suffix_new.clear();
        scratch.suffix_new.resize(arity + 1, false);
        scratch.suffix_prod.clear();
        scratch.suffix_prod.resize(arity + 1, 1);
        let mut lens = [0u32; MAX_ARITY];
        for d in (0..arity).rev() {
            lens[d] = candidates[d].len() as u32;
            scratch.suffix_new[d] = scratch.suffix_new[d + 1] || lens[d] > marks[d];
            scratch.suffix_prod[d] = scratch.suffix_prod[d + 1].saturating_mul(u64::from(lens[d]));
        }

        let runnable = !candidates.iter().any(|c| c.is_empty());
        if runnable && (!delta || scratch.suffix_new[0]) {
            scratch.pending_table.pend_after(self.chart.table());
            scratch.combo.clear();
            scratch.combo.resize(arity, InstId(0));
            let mut pass = EnumPass {
                chart: &self.chart,
                grammar,
                prod,
                by_depth: &self.hoisted[pid.index()].by_depth,
                pid,
                candidates,
                marks: &marks[..],
                suffix_new: &scratch.suffix_new,
                suffix_prod: &scratch.suffix_prod,
                combo: &mut scratch.combo,
                boxes: [BBox::new(0, 0, 0, 0); MAX_ARITY],
                pending_children: &mut scratch.pending_children,
                pending_payloads: &mut scratch.pending_payloads,
                pending_table: &mut scratch.pending_table,
                // In a delta pass every enumerated combination
                // contains at least one instance created after the
                // previous application (the all-old ones are skipped
                // wholesale), so the dedup probe cannot hit and is
                // elided.
                probe_dedup: !delta,
                stats: &mut self.stats,
                max_instances: self.opts.max_instances,
                deadline: self.deadline,
                cancel: self.opts.cancel.as_ref(),
                deadline_tick: &mut self.deadline_tick,
            };
            pass.enumerate(0, false);
        } else if runnable {
            // Semi-naive early out: nothing new in any slot.
            self.stats.combos_skipped_delta += scratch.suffix_prod[0];
        }
        let skipped = if runnable { scratch.suffix_prod[0] } else { 0 };

        // Flush the deferred creations in enumeration order. The
        // children `Vec` is materialized only here — i.e. only for
        // combinations that passed dedup and constraints.
        let added = !scratch.pending_payloads.is_empty();
        if added {
            self.chart.commit_payloads(&mut scratch.pending_table);
        }
        for (children, payload) in scratch
            .pending_children
            .chunks_exact(arity)
            .zip(scratch.pending_payloads.drain(..))
        {
            self.chart
                .add_nonterminal(prod.head, pid, children, payload);
        }
        scratch.pending_children.clear();

        // Advance the watermarks to the candidate counts this pass
        // saw, and stamp the application. Skipped once a budget cut
        // the pass short: nothing will ever be created again (every
        // later enumeration bails at entry), and freezing the marks
        // keeps them truthful about what was actually enumerated.
        if delta
            && self.stats.budget == BudgetOutcome::Completed
            && self.chart.len() < self.opts.max_instances
        {
            scratch.prod_marks[pid.index()].copy_from_slice(&lens[..arity]);
            scratch.prod_stamps[pid.index()] = (stamp, skipped);
        }

        added
    }

    /// `enforce(R)`: find conflicting (winner, loser) pairs and
    /// invalidate the losers, rolling back their false ancestors when
    /// this preference's r-edge had to be dropped from the schedule.
    ///
    /// Incremental: the chart's per-symbol id lists are append-only, so
    /// a pair where both sides sit below this preference's previous
    /// watermark re-derives a permanent verdict — spans and spreads are
    /// immutable, and validity only ever goes true→false, so a pair
    /// that invalidated then leaves its loser already invalid now, and
    /// a pair that didn't fire then cannot fire now. Old rows therefore
    /// skip old columns (`l_start`); new rows sweep every column. The
    /// row-major order over the tested pairs is exactly the naive
    /// order's subsequence, preserving the invalidation order (which
    /// matters when the winner and loser symbols coincide). Under
    /// [`FixpointMode::Naive`] the watermarks stay pinned at zero and
    /// every pair is re-tested.
    fn enforce(&mut self, pref_id: PrefId) {
        let pref = self.grammar.preference(pref_id);
        let (w_sym, l_sym) = (pref.winner, pref.loser);
        let w_len = self.chart.of_symbol(w_sym).len();
        let l_len = self.chart.of_symbol(l_sym).len();
        // No pairs: nothing to test, and no watermark to move — an
        // empty side's mark is zero, so its first instances make every
        // pair new either way.
        if w_len == 0 || l_len == 0 {
            return;
        }
        let (w_mark, l_mark) = self.scratch.pref_marks[pref_id.index()];
        let (w_mark, l_mark) = (w_mark as usize, l_mark as usize);
        self.stats.pairs_skipped_delta += w_mark as u64 * l_mark as u64;
        let needs_rollback = self.schedule.needs_rollback[pref_id.index()];
        if w_len > w_mark || l_len > l_mark {
            for wi in 0..w_len {
                let w = self.chart.of_symbol(w_sym)[wi];
                if !self.chart.is_valid(w) {
                    continue; // may have lost to a peer earlier in this pass
                }
                let l_start = if wi < w_mark { l_mark } else { 0 };
                self.stats.pairs_tested += (l_len - l_start) as u64;
                for li in l_start..l_len {
                    let l = self.chart.of_symbol(l_sym)[li];
                    if w == l || !self.chart.is_valid(l) || !self.chart.is_valid(w) {
                        continue;
                    }
                    if !self.conflicts(w, l, pref.condition) {
                        continue;
                    }
                    if !self.wins(w, l, pref.criteria) {
                        continue;
                    }
                    self.chart.invalidate(l);
                    self.stats.invalidated += 1;
                    if needs_rollback {
                        self.rollback(l);
                    }
                }
            }
        }
        if self.opts.fixpoint == FixpointMode::SemiNaive {
            self.scratch.pref_marks[pref_id.index()] = (w_len as u32, l_len as u32);
        }
    }

    fn conflicts(&self, w: InstId, l: InstId, cond: ConflictCond) -> bool {
        match cond {
            ConflictCond::Overlap => self.chart.span(w).intersects(self.chart.span(l)),
            ConflictCond::LoserSubsumed => self.chart.span(l).is_subset(self.chart.span(w)),
        }
    }

    fn wins(&self, w: InstId, l: InstId, criteria: WinCriteria) -> bool {
        match criteria {
            WinCriteria::Always => true,
            WinCriteria::WinnerLarger => self.chart.span(w).count() > self.chart.span(l).count(),
            WinCriteria::WinnerTighter => self.chart.spread(w) < self.chart.spread(l),
        }
    }

    /// `Rollback(i)`: erase the loser's false ancestors — instances
    /// that were built (transitively) on top of it before the
    /// preference could fire (paper §5.1: "false instances may
    /// participate in further instantiations and in turn generate more
    /// false parents").
    fn rollback(&mut self, loser: InstId) {
        let stack = &mut self.scratch.stack;
        stack.clear();
        stack.extend(self.chart.parents_of(loser));
        while let Some(p) = stack.pop() {
            if self.chart.invalidate(p) {
                self.stats.rolled_back += 1;
                stack.extend(self.chart.parents_of(p));
            }
        }
    }
}

/// One deferred enumeration pass of a production over an immutable
/// chart — the inner loop of [`Parser::apply_production`].
///
/// Holding the chart by shared reference is what lets component
/// [`View`]s be rebuilt on demand from stack buffers (no per-combo or
/// per-pass heap allocation): nothing is created until the pass ends,
/// so the borrows never conflict. Accepted combinations are buffered
/// flat in `pending_children`/`pending_payloads` and flushed by the
/// caller in enumeration order, which reproduces the eager creation
/// order exactly.
struct EnumPass<'a> {
    chart: &'a Chart,
    grammar: &'a Grammar,
    prod: &'a Production,
    /// Residual constraint terms (what is left after the unary
    /// predicates were hoisted into the candidate-list filters),
    /// grouped by the deepest slot they mention. `by_depth[d]` is
    /// checked the moment slot `d` is filled, pruning every deeper
    /// combination a failing partial prefix would have spawned.
    by_depth: &'a [DepthTerms],
    pid: ProdId,
    /// Valid candidates per component slot, snapshotted at pass start:
    /// a cached filtered list, or the chart's own list of the slot's
    /// symbol.
    candidates: &'a [&'a [InstId]],
    /// Per-slot watermarks: candidates below `marks[d]` predate the
    /// production's previous application. All zero under
    /// [`FixpointMode::Naive`].
    marks: &'a [u32],
    /// `suffix_new[d]`: some slot in `d..` has candidates at or beyond
    /// its watermark.
    suffix_new: &'a [bool],
    /// Saturating product of candidate counts for slots `d..`.
    suffix_prod: &'a [u64],
    /// The combination under construction (`arity` slots).
    combo: &'a mut Vec<InstId>,
    /// Bounding boxes of the combo prefix under construction — the
    /// geometry residual terms read these; no view is materialized
    /// for a candidate that fails them. Fixed-size so the pass setup
    /// costs zero heap allocations; only `..=depth` is ever live, and
    /// residual terms at `depth` index no deeper than that.
    boxes: [BBox; MAX_ARITY],
    /// Deferred creations, flat (`arity` ids per accepted combo).
    pending_children: &'a mut Vec<InstId>,
    pending_payloads: &'a mut Vec<Payload>,
    /// Where the constructors put the conditions and lists they build.
    pending_table: &'a mut PayloadTable,
    /// Whether completed combinations must be probed with
    /// [`Chart::seen`]. False only for delta passes, where every
    /// enumerated combination contains a fresh instance.
    probe_dedup: bool,
    stats: &'a mut ParseStats,
    max_instances: usize,
    deadline: Option<Instant>,
    /// The batch-level cancel token, polled on the same sampled tick
    /// as the deadline.
    cancel: Option<&'a CancelToken>,
    deadline_tick: &'a mut u32,
}

impl<'a> EnumPass<'a> {
    /// Would creating one more instance break the cap? Deferred
    /// creations count: `chart.len() + pending` is exactly the chart
    /// size the eager schedule would have at this point.
    fn over_budget(&self) -> bool {
        self.chart.len() + self.pending_payloads.len() >= self.max_instances
    }

    /// [`Parser::interrupted`], but only actually reading the clock
    /// and the cancel flag every few calls — cheap enough for the
    /// enumeration inner loop. A cancelled batch is therefore observed
    /// within one [`DEADLINE_POLL_MASK`]+1-step interval per worker.
    fn interrupted_sampled(&mut self) -> bool {
        if self.deadline.is_none() && self.cancel.is_none() {
            return false;
        }
        if matches!(
            self.stats.budget,
            BudgetOutcome::DeadlineExceeded | BudgetOutcome::Cancelled
        ) {
            return true;
        }
        *self.deadline_tick = self.deadline_tick.wrapping_add(1);
        if *self.deadline_tick & DEADLINE_POLL_MASK != 0 {
            return false;
        }
        if let Some(cancel) = self.cancel {
            if cancel.is_cancelled() {
                self.stats.budget = BudgetOutcome::Cancelled;
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.stats.budget = BudgetOutcome::DeadlineExceeded;
                return true;
            }
        }
        false
    }

    /// Walks the cartesian product of the candidate lists in
    /// lexicographic order, pruning non-disjoint prefixes.
    ///
    /// `has_new` records whether an earlier slot already picked a
    /// candidate beyond its watermark. While it is false and no later
    /// slot can supply one (`suffix_new[depth + 1]`), the current slot
    /// skips straight past its watermark: the skipped combinations are
    /// exactly the all-old ones, whose verdicts — dedup hit, constraint
    /// failure, or prior creation — are permanent. The visited
    /// combinations remain in lexicographic order, so creations happen
    /// in the same order the full walk would produce.
    fn enumerate(&mut self, depth: usize, has_new: bool) {
        if self.over_budget() || self.interrupted_sampled() {
            return;
        }
        if depth == self.candidates.len() {
            self.try_combo();
            return;
        }
        let mark = self.marks[depth] as usize;
        let start = if has_new || self.suffix_new[depth + 1] {
            0
        } else {
            mark
        };
        if start > 0 {
            self.stats.combos_skipped_delta += start as u64 * self.suffix_prod[depth + 1];
        }
        for i in start..self.candidates[depth].len() {
            let cand = self.candidates[depth][i];
            // Candidate lists were filtered to valid instances at pass
            // start, and nothing is invalidated during instantiation
            // (enforcement only runs between fix-points), so validity
            // needs no recheck here.
            debug_assert!(
                self.chart.is_valid(cand),
                "candidate invalidated mid-pass: enforcement ran during instantiate?"
            );
            // Distinctness and token-disjointness against earlier picks.
            if self.combo[..depth].iter().any(|&prev| {
                prev == cand || self.chart.span(prev).intersects(self.chart.span(cand))
            }) {
                continue;
            }
            self.combo[depth] = cand;
            self.boxes[depth] = self.chart.bbox(cand);
            // Residual terms whose deepest slot is `depth` are fully
            // determined now; a failure here rejects every completion
            // of this prefix without visiting the deeper slots. The
            // geometry-only terms run on the bare box stack — the
            // common case, leaving views unbuilt for the rejects.
            let terms = &self.by_depth[depth];
            if !terms
                .boxes_only
                .iter()
                .all(|c| c.eval_boxes(&self.boxes, &self.grammar.proximity))
            {
                continue;
            }
            if !terms.with_payload.is_empty() {
                let mut views = [self.chart.view(cand); MAX_ARITY];
                for (k, &c) in self.combo[..depth].iter().enumerate() {
                    views[k] = self.chart.view(c);
                }
                if !terms
                    .with_payload
                    .iter()
                    .all(|c| c.eval(&views[..=depth], &self.grammar.proximity))
                {
                    continue;
                }
            }
            self.enumerate(depth + 1, has_new || i >= mark);
        }
    }

    /// Dedup-probes the completed combination and runs the
    /// constructor. Every residual constraint term was already checked
    /// on the way down ([`Self::enumerate`] evaluates each at its
    /// decidable depth), so a combination reaching full depth has
    /// passed the whole constraint. Children are only materialized
    /// into an owned `Vec` at flush time, i.e. for accepted combos.
    fn try_combo(&mut self) {
        self.stats.combos_enumerated += 1;
        if self.probe_dedup {
            if self.chart.seen(self.pid, self.combo) {
                return;
            }
        } else {
            debug_assert!(
                !self.chart.seen(self.pid, self.combo),
                "delta pass re-enumerated an already-created combination"
            );
        }
        let arity = self.combo.len();
        let mut views = [self.chart.view(self.combo[0]); MAX_ARITY];
        for (k, &c) in self.combo[1..].iter().enumerate() {
            views[k + 1] = self.chart.view(c);
        }
        self.pending_payloads.push(
            self.prod
                .constructor
                .eval(&views[..arity], self.pending_table),
        );
        self.pending_children.extend_from_slice(self.combo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaform_core::{BBox, TokenKind};
    use metaform_grammar::paper_example_grammar;

    /// Tokens for the paper's Figure 5 fragment: one "Author" row —
    /// caption, textbox, three radio buttons with captions (8 tokens).
    fn author_row(y: i32, id0: u32) -> Vec<Token> {
        let mut t = Vec::new();
        t.push(Token::text(id0, "Author", BBox::new(10, y + 4, 52, y + 20)));
        t.push(Token::widget(
            id0 + 1,
            TokenKind::Textbox,
            "query-0",
            BBox::new(60, y, 200, y + 20),
        ));
        let captions = [
            "first name/initials and last name",
            "start of last name",
            "exact name",
        ];
        let mut x = 60;
        for (i, cap) in captions.iter().enumerate() {
            let rx = x;
            t.push(
                Token::widget(
                    id0 + 2 + 2 * i as u32,
                    TokenKind::Radiobutton,
                    "field-0",
                    BBox::new(rx, y + 26, rx + 13, y + 39),
                )
                .with_sval(format!("{i}")),
            );
            let w = cap.len() as i32 * 7;
            t.push(Token::text(
                id0 + 3 + 2 * i as u32,
                *cap,
                BBox::new(rx + 17, y + 25, rx + 17 + w, y + 41),
            ));
            x = rx + 17 + w + 12;
        }
        t
    }

    fn renumber(tokens: Vec<Token>) -> Vec<Token> {
        tokens
            .into_iter()
            .enumerate()
            .map(|(i, mut t)| {
                t.id = metaform_core::TokenId(i as u32);
                t
            })
            .collect()
    }

    #[test]
    fn parses_author_row_to_single_textop_tree() {
        let g = paper_example_grammar();
        let tokens = renumber(author_row(0, 0));
        let res = parse(&g, &tokens);
        assert_eq!(res.stats.tokens, 8);
        assert_eq!(res.trees.len(), 1, "one maximal tree");
        let root = res.trees[0];
        assert_eq!(g.symbols.name(res.chart.symbol(root)), "QI");
        assert_eq!(res.chart.span(root).count(), 8, "covers the whole row");
        let conds: Vec<_> = res.chart.conditions(root).collect();
        assert_eq!(conds.len(), 1);
        assert_eq!(conds[0].attribute, "Author");
        assert_eq!(conds[0].operators.len(), 3, "three radio operators");
        assert!(conds[0].operators.contains(&"exact name".to_string()));
        assert!(res.stats.complete);
    }

    #[test]
    fn two_rows_parse_into_one_interface() {
        let g = paper_example_grammar();
        let mut tokens = author_row(0, 0);
        // The second row starts right below the first (rows touch, as
        // flow layout renders them).
        tokens.extend(author_row(44, 8));
        // Relabel the second row's caption.
        tokens[8].sval = "Title".into();
        let tokens = renumber(tokens);
        let res = parse(&g, &tokens);
        assert_eq!(res.trees.len(), 1);
        let conds: Vec<_> = res.chart.conditions(res.trees[0]).collect();
        assert_eq!(conds.len(), 2);
        assert_eq!(conds[0].attribute, "Author");
        assert_eq!(conds[1].attribute, "Title");
        assert_eq!(res.stats.complete_parses, 1);
    }

    #[test]
    fn brute_force_explodes_where_pruning_does_not() {
        let g = paper_example_grammar();
        let tokens = renumber(author_row(0, 0));
        let pruned = parse(&g, &tokens);
        let brute = parse_with(&g, &tokens, &ParserOptions::brute_force());
        assert!(
            brute.stats.created > pruned.stats.created,
            "brute {} !> pruned {}",
            brute.stats.created,
            pruned.stats.created
        );
        assert!(
            brute.stats.complete_parses > 1,
            "global ambiguity yields multiple complete parses, got {}",
            brute.stats.complete_parses
        );
        assert_eq!(pruned.stats.complete_parses, 1);
        assert!(brute.stats.temporary > pruned.stats.temporary);
        assert!(pruned.stats.invalidated > 0);
        assert_eq!(brute.stats.invalidated, 0);
    }

    #[test]
    fn preference_r1_prunes_caption_attrs() {
        let g = paper_example_grammar();
        let tokens = renumber(author_row(0, 0));
        let res = parse(&g, &tokens);
        let attr_sym = g.symbols.lookup("Attr").unwrap();
        let valid_attrs = res.chart.valid_of_symbol(attr_sym);
        // Only "Author" should survive as an attribute; the three radio
        // captions are claimed by RBUs (paper Example 5).
        assert_eq!(valid_attrs.len(), 1);
        assert_eq!(res.chart.payload(valid_attrs[0]).text(), Some("Author"));
    }

    #[test]
    fn preference_r2_keeps_only_longest_rblist() {
        let g = paper_example_grammar();
        let tokens = renumber(author_row(0, 0));
        let res = parse(&g, &tokens);
        let rblist = g.symbols.lookup("RBList").unwrap();
        let valid: Vec<_> = res.chart.valid_of_symbol(rblist);
        assert_eq!(valid.len(), 1, "paper Figure 8: one list of length 3");
        assert_eq!(res.chart.span(valid[0]).count(), 6);
    }

    #[test]
    fn empty_input_yields_empty_result() {
        let g = paper_example_grammar();
        let res = parse(&g, &[]);
        assert_eq!(res.trees.len(), 0);
        assert!(!res.stats.complete);
        assert_eq!(res.stats.created, 0);

        // A grammar that fails validation (a production naming a symbol
        // outside the table) gets the same empty result, not a panic.
        let mut bad = g.clone();
        bad.productions[0].components[0] = SymbolId(bad.symbols.len() as u32);
        let res = parse(&bad, &renumber(author_row(0, 0)));
        assert_eq!(res.trees.len(), 0);
        assert_eq!(res.stats.created, 0);
        assert_eq!(res.stats.tokens, 8);
    }

    #[test]
    fn instance_cap_truncates_safely() {
        let g = paper_example_grammar();
        let tokens = renumber(author_row(0, 0));
        let res = parse_with(
            &g,
            &tokens,
            &ParserOptions {
                max_instances: 12,
                ..ParserOptions::brute_force()
            },
        );
        assert!(res.stats.truncated());
        assert_eq!(res.stats.budget, crate::BudgetOutcome::TruncatedInstances);
        assert!(res.stats.created <= 13);
    }

    #[test]
    fn zero_deadline_ends_parse_with_typed_outcome() {
        let g = paper_example_grammar();
        let tokens = renumber(author_row(0, 0));
        let res = parse_with(
            &g,
            &tokens,
            &ParserOptions {
                deadline: Some(std::time::Duration::ZERO),
                ..Default::default()
            },
        );
        assert!(res.stats.deadline_exceeded());
        assert_eq!(res.stats.budget, crate::BudgetOutcome::DeadlineExceeded);
        // Terminals are still seeded and maximization still runs: the
        // result is degraded, not poisoned.
        assert_eq!(res.stats.tokens, 8);
        let generous = parse_with(
            &g,
            &tokens,
            &ParserOptions {
                deadline: Some(std::time::Duration::from_secs(600)),
                ..Default::default()
            },
        );
        assert_eq!(generous.stats.budget, crate::BudgetOutcome::Completed);
        assert_eq!(generous.trees.len(), 1, "generous deadline changes nothing");
        let endless = parse_with(
            &g,
            &tokens,
            &ParserOptions {
                deadline: Some(std::time::Duration::MAX),
                ..Default::default()
            },
        );
        assert_eq!(endless.stats.budget, crate::BudgetOutcome::Completed);
        assert_eq!(
            endless.trees.len(),
            1,
            "an unrepresentable deadline is none"
        );
    }

    #[test]
    fn cancel_token_ends_parse_with_typed_outcome() {
        use crate::cancel::CancelToken;
        let g = paper_example_grammar();
        let tokens = renumber(author_row(0, 0));

        // A pre-cancelled token stops the parse at the first poll.
        let token = CancelToken::new();
        token.cancel();
        let res = parse_with(
            &g,
            &tokens,
            &ParserOptions {
                cancel: Some(token),
                ..Default::default()
            },
        );
        assert!(res.stats.cancelled());
        assert_eq!(res.stats.budget, crate::BudgetOutcome::Cancelled);
        // Terminals are still seeded and maximization still runs: the
        // result is degraded, not poisoned.
        assert_eq!(res.stats.tokens, 8);

        // A live token changes nothing versus no token at all.
        let live = parse_with(
            &g,
            &tokens,
            &ParserOptions {
                cancel: Some(CancelToken::new()),
                ..Default::default()
            },
        );
        let plain = parse(&g, &tokens);
        assert_eq!(live.stats.budget, crate::BudgetOutcome::Completed);
        assert_eq!(live.trees, plain.trees);
        assert_eq!(live.stats.created, plain.stats.created);
        assert_eq!(live.stats.invalidated, plain.stats.invalidated);
    }

    #[test]
    fn cancellation_wins_over_deadline() {
        use crate::cancel::CancelToken;
        let g = paper_example_grammar();
        let tokens = renumber(author_row(0, 0));
        let token = CancelToken::new();
        token.cancel();
        let res = parse_with(
            &g,
            &tokens,
            &ParserOptions {
                cancel: Some(token),
                deadline: Some(std::time::Duration::ZERO),
                ..Default::default()
            },
        );
        assert_eq!(res.stats.budget, crate::BudgetOutcome::Cancelled);
    }

    #[test]
    fn unparseable_tokens_become_trivial_trees_elsewhere() {
        // A lone radio button (no caption): no RBU can form; the token
        // remains uncovered by any nonterminal tree.
        let g = paper_example_grammar();
        let tokens = vec![Token::widget(
            0,
            TokenKind::Radiobutton,
            "r",
            BBox::new(0, 0, 13, 13),
        )];
        let res = parse(&g, &tokens);
        assert_eq!(res.trees.len(), 0);
        assert_eq!(
            res.chart.uncovered_tokens(&res.trees),
            vec![metaform_core::TokenId(0)]
        );
    }
}
