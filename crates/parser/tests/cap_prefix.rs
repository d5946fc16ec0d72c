//! The instance cap only decides where the fix-point stops: instances
//! are added in a fixed schedule order and never depend on the cap, so
//! a parse under cap `c` is the prefix of the parse under any larger
//! cap `C`. The extractor's retry ladder runs one parse at its last
//! rung's cap and reads every smaller rung off it, relying on three
//! facts checked here over the pinned pages:
//!
//! 1. the parse at `c` is truncated iff the parse at `C` created at
//!    least `c` instances;
//! 2. a truncated parse created exactly `max(c, tokens)` instances
//!    (terminals are seeded whatever the cap);
//! 3. otherwise both parses agree on every counter but the wall clock,
//!    on the maximal trees and on the merged report.

use metaform_datasets::pinned_pages;
use metaform_grammar::global_compiled;
use metaform_parser::{
    merge, render_tree, BudgetOutcome, ParseResult, ParseSession, ParseStats, PhaseBreakdown,
};
use std::time::Duration;

/// The `(c, C)` cap pairs: one doubling, two doublings, a doubling
/// below most pages' token counts, and six doublings.
const CAP_PAIRS: [(usize, usize); 4] = [(40, 80), (40, 160), (20, 40), (10, 640)];

fn tokens_of(html: &str) -> Vec<metaform_core::Token> {
    let doc = metaform_html::parse(html);
    let lay = metaform_layout::layout(&doc);
    metaform_tokenizer::tokenize(&doc, &lay).tokens
}

/// The parse's counters with the wall-clock fields zeroed.
fn counters(stats: &ParseStats) -> ParseStats {
    ParseStats {
        elapsed: Duration::ZERO,
        phase: PhaseBreakdown::default(),
        ..stats.clone()
    }
}

fn truncated(result: &ParseResult) -> bool {
    result.stats.budget == BudgetOutcome::TruncatedInstances
}

#[test]
fn a_smaller_cap_parse_is_read_off_a_larger_cap_parse() {
    let compiled = global_compiled();
    let grammar = compiled.grammar();
    let mut session = ParseSession::new(compiled.clone());
    let mut checked = 0;
    let mut truncated_pairs = 0;
    for (name, html) in pinned_pages() {
        let tokens = tokens_of(&html);
        for (small, large) in CAP_PAIRS {
            let label = format!("{name} at caps ({small}, {large})");
            session.set_budgets(small, None);
            let at_small = session.parse(&tokens);
            session.set_budgets(large, None);
            let at_large = session.parse(&tokens);
            assert_eq!(
                truncated(&at_small),
                at_large.stats.created >= small,
                "{label}: truncation at the small cap"
            );
            for (cap, result) in [(small, &at_small), (large, &at_large)] {
                if truncated(result) {
                    assert_eq!(
                        result.stats.created,
                        cap.max(tokens.len()),
                        "{label}: instances of a parse truncated at {cap}"
                    );
                }
            }
            if truncated(&at_small) {
                truncated_pairs += 1;
            } else {
                assert_eq!(
                    counters(&at_small.stats),
                    counters(&at_large.stats),
                    "{label}: counters"
                );
                assert_eq!(at_small.trees, at_large.trees, "{label}: trees");
                for (&a, &b) in at_small.trees.iter().zip(&at_large.trees) {
                    assert_eq!(
                        render_tree(&at_small.chart, grammar, a),
                        render_tree(&at_large.chart, grammar, b),
                        "{label}: tree"
                    );
                }
                assert_eq!(
                    merge(&at_small.chart, &at_small.trees).to_string(),
                    merge(&at_large.chart, &at_large.trees).to_string(),
                    "{label}: merged report"
                );
            }
            checked += 1;
            session.recycle(at_small);
            session.recycle(at_large);
        }
    }
    // Both branches must be exercised for the check to mean anything.
    assert!(truncated_pairs > 0 && truncated_pairs < checked);
}
