//! The semi-naive fix-point's hard invariant: the delta-driven
//! schedule must produce a chart **byte-identical** to the naive
//! reference — same instances in the same creation order, same
//! invalidations, same maximal trees, same merged report. Only the
//! redundancy counters (and timing) may differ.
//!
//! Checked instance-by-instance (symbol, production, children, token,
//! span, bbox, payload, conditions, validity) across the generated
//! corpus, under both preference orders, under brute force, and under
//! truncation and zero-deadline budgets. Every chart's maximal trees are also checked
//! against the all-pairs reference maximizer.

use metaform::paper_example_grammar;
use metaform_datasets::fixtures::figure5_fragment;
use metaform_datasets::{all_datasets, basic};
use metaform_parser::{
    maximize_naive, merge, parse_with, Chart, FixpointMode, InstId, ParseResult, ParseSession,
    ParserOptions, PreferenceOrder,
};
use std::sync::Arc;

fn tokens_of(html: &str) -> Vec<metaform::Token> {
    let doc = metaform_html::parse(html);
    let lay = metaform_layout::layout(&doc);
    metaform_tokenizer::tokenize(&doc, &lay).tokens
}

/// Every condition an instance carries, rendered with its tokens.
fn rendered_conditions(chart: &Chart, id: InstId) -> Vec<String> {
    chart
        .conditions(id)
        .map(|c| format!("{c} {:?}", c.tokens))
        .collect()
}

/// Instance-level chart equality plus everything downstream of it.
fn assert_identical(semi: &ParseResult, naive: &ParseResult, label: &str) {
    assert_eq!(
        semi.chart.len(),
        naive.chart.len(),
        "{label}: chart size diverged"
    );
    for (a, b) in semi.chart.ids().zip(naive.chart.ids()) {
        let (ca, cb) = (&semi.chart, &naive.chart);
        assert_eq!(ca.symbol(a), cb.symbol(b), "{label}/{a:?}: symbol");
        assert_eq!(ca.prod(a), cb.prod(b), "{label}/{a:?}: production");
        assert_eq!(ca.children(a), cb.children(b), "{label}/{a:?}: children");
        assert_eq!(ca.token(a), cb.token(b), "{label}/{a:?}: token");
        assert_eq!(ca.span(a), cb.span(b), "{label}/{a:?}: span");
        assert_eq!(ca.bbox(a), cb.bbox(b), "{label}/{a:?}: bbox");
        assert_eq!(ca.payload(a), cb.payload(b), "{label}/{a:?}: payload");
        // A collect instance's payload is only a marker; its conditions
        // are read off the chart, so compare them rendered.
        assert_eq!(
            rendered_conditions(ca, a),
            rendered_conditions(cb, b),
            "{label}/{a:?}: conditions"
        );
        assert_eq!(ca.is_valid(a), cb.is_valid(b), "{label}/{a:?}: validity");
    }
    assert_eq!(semi.trees, naive.trees, "{label}: maximal trees diverged");
    // The sweep maximizer against its all-pairs reference, on every
    // chart the suite builds.
    assert_eq!(
        semi.trees,
        maximize_naive(&semi.chart),
        "{label}: sweep and all-pairs maximizers diverged"
    );
    assert_eq!(
        merge(&semi.chart, &semi.trees),
        merge(&naive.chart, &naive.trees),
        "{label}: merged report diverged"
    );
    let (sa, sb) = (&semi.stats, &naive.stats);
    assert_eq!(sa.created, sb.created, "{label}: created");
    assert_eq!(sa.invalidated, sb.invalidated, "{label}: invalidated");
    assert_eq!(sa.rolled_back, sb.rolled_back, "{label}: rolled_back");
    assert_eq!(sa.trees, sb.trees, "{label}: tree count");
    assert_eq!(sa.complete, sb.complete, "{label}: complete");
    assert_eq!(
        sa.complete_parses, sb.complete_parses,
        "{label}: complete_parses"
    );
    assert_eq!(sa.temporary, sb.temporary, "{label}: temporary");
    assert_eq!(sa.budget, sb.budget, "{label}: budget outcome");
    // The schedules run the same number of rounds — only the work per
    // round differs.
    assert_eq!(
        sa.fixpoint_rounds, sb.fixpoint_rounds,
        "{label}: fixpoint rounds"
    );
    // The naive schedule never skips anything.
    assert_eq!(sb.combos_skipped_delta, 0, "{label}: naive skipped combos");
    assert_eq!(sb.pairs_skipped_delta, 0, "{label}: naive skipped pairs");
    assert!(
        sa.combos_enumerated <= sb.combos_enumerated,
        "{label}: semi-naive enumerated more ({} > {})",
        sa.combos_enumerated,
        sb.combos_enumerated
    );
}

/// Parses under both schedules and checks the invariant; returns the
/// `(semi, naive)` combos-enumerated counts for corpus-level rollups.
fn check_page(html: &str, opts: &ParserOptions, label: &str) -> (u64, u64) {
    let grammar = metaform::global_grammar();
    let tokens = tokens_of(html);
    let semi = parse_with(
        &grammar,
        &tokens,
        &ParserOptions {
            fixpoint: FixpointMode::SemiNaive,
            ..opts.clone()
        },
    );
    let naive = parse_with(
        &grammar,
        &tokens,
        &ParserOptions {
            fixpoint: FixpointMode::Naive,
            ..opts.clone()
        },
    );
    assert_identical(&semi, &naive, label);
    (semi.stats.combos_enumerated, naive.stats.combos_enumerated)
}

#[test]
fn charts_identical_across_basic_corpus() {
    let opts = ParserOptions::default();
    let (mut semi_total, mut naive_total) = (0u64, 0u64);
    for source in &basic().sources {
        let (s, n) = check_page(&source.html, &opts, &source.name);
        semi_total += s;
        naive_total += n;
    }
    // The headline claim: the delta schedule does strictly less
    // enumeration work over the corpus, not just equal work.
    assert!(
        semi_total < naive_total,
        "semi-naive did not reduce enumeration: {semi_total} vs {naive_total}"
    );
}

#[test]
fn charts_identical_across_remaining_datasets_sampled() {
    // The other three generated datasets, ~20 pages each: enough to
    // exercise their layout and vocabulary quirks without running the
    // full corpus twice per mode in a debug-profile test.
    let opts = ParserOptions::default();
    for ds in all_datasets() {
        if ds.name == "Basic" {
            continue;
        }
        for source in ds.sources.iter().take(20) {
            check_page(&source.html, &opts, &source.name);
        }
    }
}

#[test]
fn charts_identical_under_reversed_preference_order() {
    let opts = ParserOptions {
        preference_order: PreferenceOrder::Reversed,
        ..Default::default()
    };
    for source in basic().sources.iter().take(20) {
        check_page(&source.html, &opts, &format!("{}/reversed", source.name));
    }
}

#[test]
fn charts_identical_under_brute_force() {
    // No preference pruning: the chart blows up combinatorially, so
    // the delta machinery carries the whole fix-point. Checked on the
    // paper's 16-token Figure 5 fragment (the §4.2.1 fixture).
    let (semi, naive) = check_page(
        &figure5_fragment(),
        &ParserOptions::brute_force(),
        "figure5/brute",
    );
    assert!(
        semi < naive,
        "brute force must show the reduction: {semi} vs {naive}"
    );
}

#[test]
fn charts_identical_when_truncated() {
    // A tight instance cap cuts instantiation mid-pass; both schedules
    // must truncate at exactly the same instance.
    let opts = ParserOptions {
        max_instances: 120,
        ..Default::default()
    };
    for source in basic().sources.iter().take(20) {
        let (semi, naive) = (
            parse_with(
                &metaform::global_grammar(),
                &tokens_of(&source.html),
                &ParserOptions {
                    fixpoint: FixpointMode::SemiNaive,
                    ..opts.clone()
                },
            ),
            parse_with(
                &metaform::global_grammar(),
                &tokens_of(&source.html),
                &ParserOptions {
                    fixpoint: FixpointMode::Naive,
                    ..opts.clone()
                },
            ),
        );
        assert_identical(&semi, &naive, &format!("{}/truncated", source.name));
    }
}

#[test]
fn charts_identical_at_zero_deadline() {
    // A zero deadline is the only deterministic deadline: both
    // schedules must stop before instantiating anything.
    let opts = ParserOptions {
        deadline: Some(std::time::Duration::ZERO),
        ..Default::default()
    };
    let source = &basic().sources[0];
    let (semi, naive) = check_page(&source.html, &opts, &format!("{}/deadline", source.name));
    assert_eq!(semi, 0, "zero deadline must preclude enumeration");
    assert_eq!(naive, 0);
}

#[test]
fn session_recycling_resets_watermarks() {
    // A recycled ParseSession reuses one Scratch across parses; stale
    // watermarks from page N would silently skip work on page N+1, so
    // each session parse must match a fresh one-shot parse exactly.
    let grammar = paper_example_grammar();
    let compiled = Arc::new(grammar.clone().compile().expect("paper grammar compiles"));
    let mut session = ParseSession::with_options(compiled, ParserOptions::default());
    let naive_opts = ParserOptions {
        fixpoint: FixpointMode::Naive,
        ..Default::default()
    };
    for source in basic().sources.iter().take(10) {
        let tokens = tokens_of(&source.html);
        let fresh_naive = parse_with(&grammar, &tokens, &naive_opts);
        let recycled = session.parse(&tokens);
        assert_identical(&recycled, &fresh_naive, &format!("{}/session", source.name));
        session.recycle(recycled);
    }
}
