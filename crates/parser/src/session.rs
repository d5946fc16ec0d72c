//! Reusable parse sessions — the parse-many half of compile-once,
//! parse-many.
//!
//! A [`ParseSession`] pairs a shared [`CompiledGrammar`] with the
//! working memory one parse needs: the chart arena, candidate-list
//! pools, and enforcement worklists. The first parse allocates them;
//! every subsequent parse on the same session recycles them (call
//! [`ParseSession::recycle`] to hand the chart back too). Tokens are
//! borrowed, never cloned into an intermediate vector.
//!
//! Sessions are cheap to create and single-threaded by design — the
//! unit of parallelism is *one session per worker thread*, all sharing
//! one `Arc<CompiledGrammar>`:
//!
//! ```
//! use metaform_core::{BBox, Token, TokenKind};
//! use metaform_grammar::paper_example_grammar;
//! use metaform_parser::ParseSession;
//! use std::sync::Arc;
//!
//! let compiled = Arc::new(paper_example_grammar().compile().unwrap());
//! let mut session = ParseSession::new(compiled);
//! let tokens = vec![
//!     Token::text(0, "Author", BBox::new(10, 12, 52, 28)),
//!     Token::widget(1, TokenKind::Textbox, "q", BBox::new(60, 8, 200, 28)),
//! ];
//! for _ in 0..3 {
//!     let result = session.parse(&tokens);
//!     assert!(result.stats.complete);
//!     assert_eq!(result.stats.schedules_built, 0); // compiled once, outside
//!     session.recycle(result);
//! }
//! ```

use crate::engine::{run_parse, ParseResult, ParserOptions, Scratch};
use crate::instance::Chart;
use crate::stats::BudgetOutcome;
use metaform_core::Token;
use metaform_grammar::CompiledGrammar;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A reusable parser over a compiled grammar (see module docs).
pub struct ParseSession {
    grammar: Arc<CompiledGrammar>,
    opts: ParserOptions,
    /// Chart returned by [`ParseSession::recycle`], reused by the next
    /// parse.
    spare: Option<Chart>,
    scratch: Scratch,
}

impl ParseSession {
    /// Creates a session with default [`ParserOptions`].
    pub fn new(grammar: Arc<CompiledGrammar>) -> Self {
        Self::with_options(grammar, ParserOptions::default())
    }

    /// Creates a session with explicit options.
    pub fn with_options(grammar: Arc<CompiledGrammar>, opts: ParserOptions) -> Self {
        ParseSession {
            grammar,
            opts,
            spare: None,
            scratch: Scratch::default(),
        }
    }

    /// The compiled grammar this session parses under.
    pub fn compiled(&self) -> &Arc<CompiledGrammar> {
        &self.grammar
    }

    /// The options every parse of this session runs with.
    pub fn options(&self) -> &ParserOptions {
        &self.opts
    }

    /// Sets the per-parse budgets ([`ParserOptions::max_instances`]
    /// and [`ParserOptions::deadline`]) for the parses that follow.
    /// Budgets only bound a parse, so the session's recycled chart and
    /// scratch stay valid: an escalating retry reuses its session
    /// instead of building a new one.
    pub fn set_budgets(&mut self, max_instances: usize, deadline: Option<Duration>) {
        self.opts.max_instances = max_instances;
        self.opts.deadline = deadline;
    }

    /// Parses one token sequence. Borrows the tokens; the result owns
    /// its chart (hand it back with [`ParseSession::recycle`] to reuse
    /// the allocation). Infallible: the grammar was validated when it
    /// was compiled. Budgets ([`ParserOptions::max_instances`],
    /// [`ParserOptions::deadline`]) apply per parse and report their
    /// outcome in `ParseStats::budget` — a budget-limited parse still
    /// returns maximal partial trees over whatever was built.
    pub fn parse(&mut self, tokens: &[Token]) -> ParseResult {
        let t = self.opts.profile.then(Instant::now);
        let mut chart = self
            .spare
            .take()
            .unwrap_or_else(|| Chart::new(Vec::new(), 0));
        chart.reset_for(tokens, self.grammar.grammar().symbols.len());
        let setup_ns = t.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let mut result = run_parse(&self.grammar, chart, &self.opts, &mut self.scratch);
        result.stats.phase.alloc_ns += setup_ns;
        result
    }

    /// [`ParseSession::parse`]; the snapshot is ignored. Held for
    /// perfbench's mirror; goes with the ROADMAP "One clock" item.
    pub fn parse_seeded(&mut self, tokens: &[Token], _: &ChartSnapshot) -> ParseResult {
        self.parse(tokens)
    }

    /// Returns a finished parse's chart to the session's allocation
    /// pool. Optional — dropping the result instead is correct, just
    /// slower for the next parse.
    pub fn recycle(&mut self, result: ParseResult) {
        self.spare = Some(result.chart);
    }
}

/// A zero-sized witness that a parse ran to completion: the parse
/// cache stores a report only alongside one, so it never replays a
/// budget-truncated, timed-out or cancelled report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChartSnapshot(());

impl ChartSnapshot {
    /// The witness for `result`, or `None` unless the parse completed.
    pub fn of(result: &ParseResult) -> Option<Self> {
        (result.stats.budget == BudgetOutcome::Completed).then_some(ChartSnapshot(()))
    }

    /// [`ChartSnapshot::of`], consuming the result and handing it back
    /// when the parse did not complete. Held for perfbench's mirror;
    /// goes with the ROADMAP "One clock" item.
    #[allow(clippy::result_large_err)]
    pub fn take(result: ParseResult) -> Result<Self, ParseResult> {
        Self::of(&result).ok_or(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{parse_with, PreferenceOrder};
    use metaform_core::{BBox, TokenKind};
    use metaform_grammar::paper_example_grammar;

    fn author_row() -> Vec<Token> {
        vec![
            Token::text(0, "Author", BBox::new(10, 4, 52, 20)),
            Token::widget(1, TokenKind::Textbox, "q", BBox::new(60, 0, 200, 20)),
        ]
    }

    #[test]
    fn session_matches_one_shot_parse() {
        let g = paper_example_grammar();
        let tokens = author_row();
        let one_shot = parse_with(&g, &tokens, &ParserOptions::default());
        let mut session = ParseSession::new(Arc::new(g.compile().unwrap()));
        let via_session = session.parse(&tokens);
        assert_eq!(via_session.trees, one_shot.trees);
        assert_eq!(via_session.chart.len(), one_shot.chart.len());
        assert_eq!(via_session.stats.created, one_shot.stats.created);
        assert_eq!(via_session.stats.schedules_built, 0);
        assert_eq!(one_shot.stats.schedules_built, 1);
    }

    #[test]
    fn recycled_chart_yields_identical_results() {
        let compiled = Arc::new(paper_example_grammar().compile().unwrap());
        let mut session = ParseSession::new(compiled);
        let tokens = author_row();
        let first = session.parse(&tokens);
        let first_trees = first.trees.clone();
        let first_created = first.stats.created;
        session.recycle(first);
        // Interleave a different input to dirty the recycled chart.
        let second = session.parse(&[]);
        assert_eq!(second.trees.len(), 0);
        session.recycle(second);
        let third = session.parse(&tokens);
        assert_eq!(third.trees, first_trees);
        assert_eq!(third.stats.created, first_created);
    }

    #[test]
    fn session_budgets_apply_per_parse() {
        use crate::stats::BudgetOutcome;
        let compiled = Arc::new(paper_example_grammar().compile().unwrap());
        let tokens = author_row();
        let mut rushed = ParseSession::with_options(
            compiled.clone(),
            ParserOptions {
                deadline: Some(std::time::Duration::ZERO),
                ..Default::default()
            },
        );
        // Every parse of the session is bounded, and the outcome is
        // reported per parse — the session itself stays reusable.
        for _ in 0..3 {
            let result = rushed.parse(&tokens);
            assert_eq!(result.stats.budget, BudgetOutcome::DeadlineExceeded);
            rushed.recycle(result);
        }
        let mut unbounded = ParseSession::new(compiled);
        let result = unbounded.parse(&tokens);
        assert_eq!(result.stats.budget, BudgetOutcome::Completed);
    }

    #[test]
    fn changed_budgets_match_a_fresh_session_at_those_budgets() {
        let compiled = Arc::new(paper_example_grammar().compile().unwrap());
        let tokens: Vec<Token> = (0..3)
            .flat_map(|row| {
                let y = row as i32 * 40;
                [
                    Token::text(2 * row, "Author", BBox::new(10, y + 4, 52, y + 20)),
                    Token::widget(
                        2 * row + 1,
                        TokenKind::Textbox,
                        "q",
                        BBox::new(60, y, 200, y + 20),
                    ),
                ]
            })
            .collect();
        let unbounded = ParserOptions::default().max_instances;
        // Up, down and up again, so each parse follows one at other
        // budgets on the same recycled chart and scratch.
        let budgets = [
            (2, None),
            (5, None),
            (unbounded, None),
            (3, None),
            (unbounded, Some(Duration::ZERO)),
            (unbounded, None),
        ];
        let counters = |stats: &crate::ParseStats| crate::ParseStats {
            elapsed: Duration::ZERO,
            phase: Default::default(),
            ..stats.clone()
        };
        let mut reused = ParseSession::new(compiled.clone());
        let mut outcomes = Vec::new();
        for (cap, deadline) in budgets {
            reused.set_budgets(cap, deadline);
            let got = reused.parse(&tokens);
            let mut fresh = ParseSession::with_options(
                compiled.clone(),
                ParserOptions {
                    max_instances: cap,
                    deadline,
                    ..Default::default()
                },
            );
            let want = fresh.parse(&tokens);
            assert_eq!(
                counters(&got.stats),
                counters(&want.stats),
                "{cap} {deadline:?}"
            );
            assert_eq!(got.trees, want.trees, "{cap} {deadline:?}");
            assert_eq!(got.chart.len(), want.chart.len());
            outcomes.push(got.stats.budget);
            reused.recycle(got);
        }
        assert!(outcomes.contains(&BudgetOutcome::TruncatedInstances));
        assert!(outcomes.contains(&BudgetOutcome::DeadlineExceeded));
        assert!(outcomes.contains(&BudgetOutcome::Completed));
    }

    /// A caption and a group of `kind` buttons with their captions on
    /// one row: a page where the radio or checkbox rules can fire.
    fn button_group(kind: TokenKind) -> Vec<Token> {
        let mut tokens = vec![Token::text(0, "Format", BBox::new(10, 4, 60, 20))];
        for (i, caption) in ["Hardcover", "Paperback"].into_iter().enumerate() {
            let x = 70 + 92 * i as i32;
            let id = 1 + 2 * i as u32;
            tokens.push(Token::widget(id, kind, "f", BBox::new(x, 4, x + 13, 17)));
            tokens.push(Token::text(
                id + 1,
                caption,
                BBox::new(x + 17, 3, x + 80, 19),
            ));
        }
        tokens
    }

    #[test]
    fn recycling_across_live_rule_sets_matches_fresh_sessions() {
        // Each page fires a different subset of the global grammar's
        // rules, so the per-production stamps, candidate caches and
        // watermarks one page leaves behind are stale for the next.
        let compiled = metaform_grammar::global_compiled();
        let radio = button_group(TokenKind::Radiobutton);
        let checkbox = button_group(TokenKind::Checkbox);
        let plain = author_row();
        let pages = [&radio, &plain, &checkbox, &plain, &radio, &checkbox, &radio];
        let counters = |stats: &crate::ParseStats| crate::ParseStats {
            elapsed: Duration::ZERO,
            phase: Default::default(),
            ..stats.clone()
        };
        let conditions = |result: &ParseResult| -> Vec<String> {
            result
                .chart
                .ids()
                .flat_map(|id| result.chart.conditions(id))
                .map(|c| format!("{c} {:?}", c.tokens))
                .collect()
        };
        let mut reused = ParseSession::new(compiled.clone());
        for (i, tokens) in pages.into_iter().enumerate() {
            let got = reused.parse(tokens);
            let want = ParseSession::new(compiled.clone()).parse(tokens);
            assert_eq!(got.trees, want.trees, "page {i}");
            assert_eq!(counters(&got.stats), counters(&want.stats), "page {i}");
            assert_eq!(conditions(&got), conditions(&want), "page {i}");
            assert!(!conditions(&got).is_empty(), "page {i} extracts something");
            reused.recycle(got);
        }
    }

    #[test]
    fn snapshot_of_incomplete_parse_is_refused() {
        let compiled = Arc::new(paper_example_grammar().compile().unwrap());
        let mut rushed = ParseSession::with_options(
            compiled,
            ParserOptions {
                deadline: Some(std::time::Duration::ZERO),
                ..Default::default()
            },
        );
        let result = rushed.parse(&author_row());
        assert!(ChartSnapshot::of(&result).is_none());
    }

    #[test]
    fn session_honours_options() {
        let compiled = Arc::new(paper_example_grammar().compile().unwrap());
        let tokens = author_row();
        let mut pruned = ParseSession::new(compiled.clone());
        let mut brute = ParseSession::with_options(compiled.clone(), ParserOptions::brute_force());
        let mut reversed = ParseSession::with_options(
            compiled,
            ParserOptions {
                preference_order: PreferenceOrder::Reversed,
                ..Default::default()
            },
        );
        let p = pruned.parse(&tokens);
        let b = brute.parse(&tokens);
        let r = reversed.parse(&tokens);
        assert_eq!(b.stats.invalidated, 0, "brute force never prunes");
        assert!(b.stats.created >= p.stats.created);
        // Consistent grammar: enforcement order must not matter.
        assert_eq!(p.trees.len(), r.trees.len());
    }
}
