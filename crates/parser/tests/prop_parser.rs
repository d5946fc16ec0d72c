//! Property tests: best-effort parser invariants under randomized
//! token layouts.
//!
//! The defining property of a *best-effort* parser is totality: no
//! token arrangement, however chaotic, may be rejected or crash it —
//! "our parser cannot reject any input query form, even if not fully
//! parsed, as illegal" (paper §3.3).

use metaform_core::{BBox, Token, TokenKind};
use metaform_grammar::{global_grammar, paper_example_grammar, Grammar};
use metaform_parser::{parse, parse_with, ParserOptions};
use proptest::prelude::*;

/// Random token soup: text/widget tokens at arbitrary positions.
fn token_soup(max: usize) -> impl Strategy<Value = Vec<Token>> {
    let kinds = prop_oneof![
        Just(TokenKind::Text),
        Just(TokenKind::Textbox),
        Just(TokenKind::SelectionList),
        Just(TokenKind::Radiobutton),
        Just(TokenKind::Checkbox),
        Just(TokenKind::SubmitButton),
        Just(TokenKind::NumberList),
        Just(TokenKind::MonthList),
    ];
    proptest::collection::vec((kinds, 0i32..600, 0i32..400, "[a-zA-Z ]{0,20}"), 0..max).prop_map(
        |specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (kind, x, y, s))| {
                    let (w, h) = match kind {
                        TokenKind::Text => ((s.len() as i32 * 7).max(7), 16),
                        TokenKind::Radiobutton | TokenKind::Checkbox => (13, 13),
                        _ => (120, 20),
                    };
                    let mut t = Token {
                        id: metaform_core::TokenId(i as u32),
                        kind,
                        pos: BBox::at(x, y, w, h),
                        sval: s.into(),
                        name: format!("f{i}").into(),
                        options: metaform_core::empty_list(),
                        checked: false,
                    };
                    if kind == TokenKind::SelectionList {
                        t.options = ["alpha", "beta"].map(Into::into).into();
                    }
                    if kind == TokenKind::NumberList {
                        t.options = (1..=6).map(|n| n.to_string().into()).collect();
                    }
                    t
                })
                .collect()
        },
    )
}

fn check_invariants(g: &Grammar, tokens: &[Token]) -> Result<(), TestCaseError> {
    let res = parse(g, tokens);

    // Terminal seeding: exactly one terminal instance per token.
    let terminals = res
        .chart
        .ids()
        .filter(|&i| res.chart.prod(i).is_none())
        .count();
    prop_assert_eq!(terminals, tokens.len());

    // Every tree root is valid and nonterminal; spans within bounds.
    for &t in &res.trees {
        prop_assert!(res.chart.is_valid(t));
        prop_assert!(res.chart.prod(t).is_some());
        prop_assert!(res.chart.span(t).count() <= tokens.len());
        prop_assert!(!res.chart.span(t).is_empty());
    }

    // Maximality: no selected tree strictly subsumed by another valid
    // instance.
    for &t in &res.trees {
        let span = res.chart.span(t);
        for j in res.chart.ids() {
            if res.chart.is_valid(j) && res.chart.prod(j).is_some() {
                prop_assert!(
                    !span.is_strict_subset(res.chart.span(j)),
                    "tree {:?} subsumed by {:?}",
                    t,
                    j
                );
            }
        }
    }

    // Every instance's span equals the union of its children's spans.
    for i in res.chart.ids() {
        if res.chart.prod(i).is_some() {
            let mut union = metaform_parser::TokenSet::new(tokens.len());
            for &c in res.chart.children(i) {
                union.union_with(res.chart.span(c));
            }
            prop_assert_eq!(&union, res.chart.span(i), "instance {:?}", i);
            // Children are pairwise token-disjoint.
            let total: usize = res
                .chart
                .children(i)
                .iter()
                .map(|&c| res.chart.span(c).count())
                .sum();
            prop_assert_eq!(total, res.chart.span(i).count());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn paper_grammar_total_and_consistent(tokens in token_soup(12)) {
        check_invariants(&paper_example_grammar(), &tokens)?;
    }

    #[test]
    fn global_grammar_total_and_consistent(tokens in token_soup(10)) {
        check_invariants(&global_grammar(), &tokens)?;
    }

    #[test]
    fn pruning_never_creates_more_instances_than_brute_force(tokens in token_soup(8)) {
        let g = paper_example_grammar();
        let pruned = parse(&g, &tokens);
        let brute = parse_with(&g, &tokens, &ParserOptions::brute_force());
        prop_assert!(pruned.stats.created <= brute.stats.created);
        // Brute force never invalidates anything.
        prop_assert_eq!(brute.stats.invalidated, 0);
        prop_assert_eq!(brute.stats.rolled_back, 0);
    }

    #[test]
    fn merger_total(tokens in token_soup(10)) {
        let g = global_grammar();
        let res = parse(&g, &tokens);
        let report = metaform_parser::merge(&res.chart, &res.trees);
        // Condition tokens refer to real token ids.
        for c in &report.conditions {
            for t in &c.tokens {
                prop_assert!((t.index()) < tokens.len());
            }
        }
        // Missing + covered partitions the token set when there are no
        // overlaps... at minimum, missing tokens are real and unclaimed.
        for m in &report.missing {
            prop_assert!(m.index() < tokens.len());
            for tree in &res.trees {
                prop_assert!(!res.chart.span(*tree).contains(*m));
            }
        }
    }
}
