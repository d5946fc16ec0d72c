//! The merger (paper §3.4): combine partial parse trees into the final
//! semantic model and report errors.
//!
//! "Since our goal is to identify all the query conditions, the merger
//! combines multiple parse trees by taking the union of their extracted
//! conditions. … It reports two types of errors: a *conflict* occurs if
//! the same token is used by different conditions … a *missing element*
//! is a token not covered by any parse tree."

use crate::instance::{Chart, InstId};
use metaform_core::{Condition, Conflict, ExtractionReport, TokenId};
use std::collections::{HashMap, HashSet};

/// Merges maximal partial trees into an [`ExtractionReport`].
///
/// Trees are visited largest-span first, ties broken by span content
/// and then by the conditions themselves — never by instance id
/// ([`maximize()`](crate::maximize()) orders equal-span ties by id),
/// so the report does not depend on how the chart numbered its
/// instances. Conditions are unioned with
/// equivalence-level deduplication. When two *different* conditions
/// claim the same token, both stay in the model (the parser cannot
/// arbitrate — that is client-side work, §7), and a [`Conflict`]
/// records the claim pair with the earlier (larger-context) condition
/// as primary.
pub fn merge(chart: &Chart, trees: &[InstId]) -> ExtractionReport {
    let mut visit: Vec<InstId> = trees.to_vec();
    visit.sort_by_cached_key(|&t| {
        let span: Vec<u32> = chart.span(t).iter().map(|tok| tok.0).collect();
        let conds: Vec<(Vec<TokenId>, String)> = chart
            .payload(t)
            .conditions()
            .iter()
            .map(|c| (c.tokens.clone(), c.to_string()))
            .collect();
        (std::cmp::Reverse(span.len()), span, conds)
    });

    let mut conditions: Vec<Condition> = Vec::new();
    let mut claimed: HashMap<TokenId, usize> = HashMap::new();
    let mut conflicts: Vec<Conflict> = Vec::new();

    for &tree in &visit {
        for cond in chart.payload(tree).conditions() {
            if let Some(existing) = conditions.iter().position(|c| c.equivalent(cond)) {
                // Same condition extracted from an overlapping tree —
                // not a conflict, just overlap in coverage.
                let _ = existing;
                continue;
            }
            let idx = conditions.len();
            let mut conflicting_with: Vec<usize> = Vec::new();
            for &t in &cond.tokens {
                if let Some(&owner) = claimed.get(&t) {
                    if !conflicting_with.contains(&owner) {
                        conflicting_with.push(owner);
                        conflicts.push(Conflict {
                            token: t,
                            kept: owner,
                            dropped: idx,
                        });
                    }
                }
            }
            for &t in &cond.tokens {
                claimed.entry(t).or_insert(idx);
            }
            conditions.push(cond.clone());
        }
    }

    let missing = chart.uncovered_tokens(trees);
    ExtractionReport {
        conditions,
        conflicts,
        missing,
    }
}

/// Salvage-tier merge for budget-limited parses: the regular
/// [`merge`] over the maximal trees, then a sweep over *every* valid
/// charted instance that adds any condition claiming only
/// still-unclaimed tokens. A truncated fix-point often charted a
/// condition whose enclosing derivation was cut by the budget before
/// it reached a maximal tree — the sweep recovers those grammar-path
/// claims without disturbing anything the maximal trees already said
/// (added conditions are token-disjoint from the claimed set, so no
/// new conflicts arise). The sweep visits instances in the same
/// content order as [`merge`], so the result is deterministic across
/// chart histories. Completed parses never come through here — the
/// happy path stays byte-identical to [`merge`].
pub fn salvage_merge(chart: &Chart, trees: &[InstId]) -> ExtractionReport {
    let mut report = merge(chart, trees);
    let mut claimed: HashSet<TokenId> = report
        .conditions
        .iter()
        .flat_map(|c| c.tokens.iter().copied())
        .collect();
    let mut extras: Vec<InstId> = chart
        .ids()
        .filter(|&i| chart.is_valid(i) && chart.prod(i).is_some() && !chart.span(i).is_empty())
        .collect();
    extras.sort_by_cached_key(|&t| {
        let span: Vec<u32> = chart.span(t).iter().map(|tok| tok.0).collect();
        let conds: Vec<(Vec<TokenId>, String)> = chart
            .payload(t)
            .conditions()
            .iter()
            .map(|c| (c.tokens.clone(), c.to_string()))
            .collect();
        (std::cmp::Reverse(span.len()), span, conds)
    });
    for inst in extras {
        for cond in chart.payload(inst).conditions() {
            if cond.tokens.is_empty() || cond.tokens.iter().any(|t| claimed.contains(t)) {
                continue;
            }
            if report.conditions.iter().any(|c| c.equivalent(cond)) {
                continue;
            }
            claimed.extend(cond.tokens.iter().copied());
            report.missing.retain(|t| !cond.tokens.contains(t));
            report.conditions.push(cond.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::parse;
    use metaform_core::{BBox, DomainKind, Token, TokenKind};
    use metaform_grammar::paper_example_grammar;

    fn label_box_pair(id0: u32, label: &str, x: i32, y: i32) -> Vec<Token> {
        let w = label.len() as i32 * 7;
        vec![
            Token::text(id0, label, BBox::new(x, y + 4, x + w, y + 20)),
            Token::widget(
                id0 + 1,
                TokenKind::Textbox,
                "f",
                BBox::new(x + w + 8, y, x + w + 148, y + 20),
            ),
        ]
    }

    #[test]
    fn clean_merge_of_one_tree() {
        let g = paper_example_grammar();
        let mut tokens = label_box_pair(0, "Author", 10, 10);
        tokens.extend(label_box_pair(2, "Title", 10, 40));
        let res = parse(&g, &tokens);
        let report = merge(&res.chart, &res.trees);
        assert_eq!(report.conditions.len(), 2);
        assert!(report.is_clean());
        assert_eq!(report.conditions[0].attribute, "Author");
        assert_eq!(report.conditions[1].attribute, "Title");
        assert_eq!(report.conditions[0].domain.kind, DomainKind::Text);
    }

    #[test]
    fn union_across_disconnected_trees() {
        let g = paper_example_grammar();
        let mut tokens = label_box_pair(0, "Author", 10, 10);
        tokens.extend(label_box_pair(2, "Title", 500, 600));
        let res = parse(&g, &tokens);
        assert_eq!(res.trees.len(), 2);
        let report = merge(&res.chart, &res.trees);
        assert_eq!(report.conditions.len(), 2, "union enhances coverage");
        assert!(report.is_clean());
    }

    #[test]
    fn missing_elements_reported() {
        let g = paper_example_grammar();
        let mut tokens = vec![Token::widget(
            0,
            TokenKind::Checkbox, // no checkbox rules in grammar G
            "cb",
            BBox::new(10, 10, 23, 23),
        )];
        tokens.extend(label_box_pair(1, "Author", 10, 40));
        let res = parse(&g, &tokens);
        let report = merge(&res.chart, &res.trees);
        assert_eq!(report.conditions.len(), 1);
        assert_eq!(report.missing, vec![TokenId(0)]);
        assert!(!report.is_clean());
    }

    #[test]
    fn conflicting_claims_recorded_with_primary_first() {
        // Two trees claiming one token with *different* conditions:
        // build the Figure 14 situation synthetically by merging two
        // independent parses' trees over a shared chart is complex; the
        // unit here exercises merge() directly on a hand-built chart.
        use crate::tokenset::TokenSet;
        let _ = TokenSet::new(1); // module link sanity
        let g = paper_example_grammar();
        // "Adults [select]" where select is a textbox here for grammar G;
        // two labels compete for one box: "Passengers  Adults [box]".
        let tokens = vec![
            Token::text(0, "Passengers", BBox::new(10, 14, 80, 30)),
            Token::text(1, "Adults", BBox::new(90, 14, 132, 30)),
            Token::widget(2, TokenKind::Textbox, "n", BBox::new(140, 10, 200, 30)),
        ];
        let res = parse(&g, &tokens);
        let report = merge(&res.chart, &res.trees);
        // The tighter pairing (Adults) parses; Passengers stays either
        // uncovered or in a competing tree. Whatever the split, the
        // merger must not lose the Adults condition.
        assert!(report.conditions.iter().any(|c| c.attribute == "Adults"));
    }

    #[test]
    fn equivalent_conditions_deduplicate() {
        let g = paper_example_grammar();
        let tokens = label_box_pair(0, "Author", 10, 10);
        let res = parse(&g, &tokens);
        // Merge the same tree twice: the union must not duplicate.
        let twice: Vec<InstId> = res.trees.iter().chain(res.trees.iter()).copied().collect();
        let report = merge(&res.chart, &twice);
        assert_eq!(report.conditions.len(), 1);
        assert!(report.conflicts.is_empty());
    }
}
