//! The merger (paper §3.4): combine partial parse trees into the final
//! semantic model and report errors.
//!
//! "Since our goal is to identify all the query conditions, the merger
//! combines multiple parse trees by taking the union of their extracted
//! conditions. … It reports two types of errors: a *conflict* occurs if
//! the same token is used by different conditions … a *missing element*
//! is a token not covered by any parse tree."

use crate::instance::{Chart, InstId};
use crate::tokenset::TokenSet;
use metaform_core::{normalize_label, Condition, Conflict, DomainKind, ExtractionReport};

/// The key under which two conditions are
/// [equivalent](Condition::equivalent): the normalized attribute and
/// the domain shape.
type EquivalenceKey = (String, DomainKind);

fn equivalence_key(cond: &Condition) -> EquivalenceKey {
    (normalize_label(&cond.attribute), cond.domain.kind)
}

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
///
/// This is where conditions take their report form: each is built
/// once per tree, its token list read off the chart span of the
/// instance it was assembled at.
pub fn merge(chart: &Chart, trees: &[InstId]) -> ExtractionReport {
    merge_keyed(chart, trees).0
}

/// [`merge`], also returning the equivalence keys of the report's
/// conditions, parallel to them.
fn merge_keyed(chart: &Chart, trees: &[InstId]) -> (ExtractionReport, Vec<EquivalenceKey>) {
    let mut conditions: Vec<Condition> = Vec::new();
    let mut kept: Vec<EquivalenceKey> = Vec::new();
    // The condition that first claimed each token, by token index.
    let mut owners: Vec<Option<usize>> = vec![None; chart.tokens().len()];
    let mut conflicts: Vec<Conflict> = Vec::new();

    for tree_conds in in_visit_order(chart, trees.iter().copied(), |_| true) {
        for cond in tree_conds {
            let key = equivalence_key(&cond);
            if kept.contains(&key) {
                // Same condition extracted from an overlapping tree —
                // not a conflict, just overlap in coverage.
                continue;
            }
            let idx = conditions.len();
            let mut conflicting_with: Vec<usize> = Vec::new();
            for &t in &cond.tokens {
                if let Some(owner) = owners[t.index()] {
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
                owners[t.index()].get_or_insert(idx);
            }
            kept.push(key);
            conditions.push(cond);
        }
    }

    let missing = chart.uncovered_tokens(trees);
    let report = ExtractionReport {
        conditions,
        conflicts,
        missing,
    };
    (report, kept)
}

/// The report-form conditions of each instance that holds a condition
/// `serves` accepts (it is given the holding instance), instances
/// ordered by the merger's content key: span size (largest first),
/// span, then the conditions' token lists and rendering — rendered
/// once per instance, and only for instances whose span ties with
/// another's. An instance left out has no condition to add, and
/// leaving it out keeps the others in the same relative order.
fn in_visit_order(
    chart: &Chart,
    insts: impl Iterator<Item = InstId>,
    mut serves: impl FnMut(InstId) -> bool,
) -> Vec<Vec<Condition>> {
    let mut stack = Vec::new();
    let mut held = Vec::new();
    let mut visits: Vec<(InstId, Vec<Condition>)> = Vec::new();
    for inst in insts {
        held.clear();
        chart.conditions_at(inst, &mut stack, &mut held);
        if held.iter().any(|&(_, at)| serves(at)) {
            let conds = held.iter().map(|&(c, at)| chart.condition(c, at)).collect();
            visits.push((inst, conds));
        }
    }
    visits.sort_by(|(a, _), (b, _)| {
        let (a, b) = (chart.span(*a), chart.span(*b));
        b.count()
            .cmp(&a.count())
            .then_with(|| a.iter().cmp(b.iter()))
    });
    for tied in visits.chunk_by_mut(|(a, _), (b, _)| chart.span(*a) == chart.span(*b)) {
        if tied.len() > 1 {
            tied.sort_by_cached_key(|(_, conds)| {
                conds
                    .iter()
                    .map(|c| (c.tokens.clone(), c.to_string()))
                    .collect::<Vec<_>>()
            });
        }
    }
    visits.into_iter().map(|(_, conds)| conds).collect()
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
///
/// The sweep decides on chart spans before it builds anything: an
/// instance none of whose conditions is held over a non-empty span
/// disjoint from the trees' claims is dropped unbuilt. That is exact,
/// because the claimed set only grows during the sweep, so every
/// condition of such an instance would be skipped anyway.
pub fn salvage_merge(chart: &Chart, trees: &[InstId]) -> ExtractionReport {
    let (mut report, mut kept) = merge_keyed(chart, trees);
    let mut claimed = TokenSet::new(chart.tokens().len());
    for &t in report.conditions.iter().flat_map(|c| &c.tokens) {
        claimed.insert(t);
    }
    let extras = chart.ids().filter(|&i| {
        chart.is_valid(i)
            && chart.prod(i).is_some()
            && !chart.span(i).is_empty()
            && chart.payload(i).has_conditions()
    });
    let open = |at: InstId| {
        let span = chart.span(at);
        !span.is_empty() && !span.intersects(&claimed)
    };
    for cond in in_visit_order(chart, extras, open).into_iter().flatten() {
        if cond.tokens.is_empty() || cond.tokens.iter().any(|&t| claimed.contains(t)) {
            continue;
        }
        let key = equivalence_key(&cond);
        if kept.contains(&key) {
            continue;
        }
        for &t in &cond.tokens {
            claimed.insert(t);
        }
        report.missing.retain(|t| !cond.tokens.contains(t));
        kept.push(key);
        report.conditions.push(cond);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::parse;
    use metaform_core::{BBox, DomainKind, Token, TokenId, TokenKind};
    use metaform_grammar::{
        paper_example_grammar, Cond, Domain, Payload, ProdId, SymbolId, SymbolTable,
    };
    use std::sync::Arc;

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

    /// A chart over a caption and four textboxes on one row, with one
    /// terminal instance per token.
    fn row_chart() -> (Chart, SymbolId, Vec<InstId>) {
        let mut syms = SymbolTable::new();
        let text = syms.terminal(TokenKind::Text);
        let tb = syms.terminal(TokenKind::Textbox);
        let nt = syms.intern("CP");
        let mut tokens = vec![Token::text(0, "Author", BBox::new(0, 4, 42, 20))];
        tokens.extend((1..5).map(|i| {
            let x = i * 60;
            Token::widget(
                i as u32,
                TokenKind::Textbox,
                "q",
                BBox::new(x, 0, x + 50, 20),
            )
        }));
        let mut chart = Chart::new(tokens, syms.len());
        let terms = (0..5)
            .map(|i| chart.add_terminal_index(if i == 0 { text } else { tb }, i))
            .collect();
        (chart, nt, terms)
    }

    /// Adds an instance over `children` carrying one text condition.
    fn add_cond(chart: &mut Chart, nt: SymbolId, children: &[InstId], attr: &str) -> InstId {
        let payload = Payload::Cond(Arc::new(Cond {
            attribute: attr.into(),
            operators: metaform_core::empty_list(),
            domain: Domain::of(DomainKind::Text),
        }));
        chart.add_nonterminal(nt, ProdId(0), children, payload)
    }

    #[test]
    fn salvage_breaks_equal_span_ties_by_content_not_creation_order() {
        let report = |first: &str, second: &str| {
            let (mut chart, nt, t) = row_chart();
            add_cond(&mut chart, nt, &[t[0], t[1]], first);
            add_cond(&mut chart, nt, &[t[0], t[1]], second);
            salvage_merge(&chart, &[])
        };
        let (ab, ba) = (report("Alpha", "Beta"), report("Beta", "Alpha"));
        assert_eq!(ab, ba, "the report does not depend on chart history");
        let attrs: Vec<&str> = ab.conditions.iter().map(|c| &*c.attribute).collect();
        assert_eq!(
            attrs,
            ["Alpha"],
            "the rival over the same tokens is skipped"
        );
        assert_eq!(ab.missing, [TokenId(2), TokenId(3), TokenId(4)]);
    }

    #[test]
    fn salvage_adds_only_conditions_disjoint_from_the_trees_claims() {
        let (mut chart, nt, t) = row_chart();
        let tree = add_cond(&mut chart, nt, &[t[0], t[1]], "Author");
        let touching = add_cond(&mut chart, nt, &[t[1], t[2]], "Touching");
        let disjoint = add_cond(&mut chart, nt, &[t[3], t[4]], "Disjoint");
        let report = salvage_merge(&chart, &[tree]);
        let attrs: Vec<&str> = report.conditions.iter().map(|c| &*c.attribute).collect();
        assert_eq!(attrs, ["Author", "Disjoint"]);
        assert!(report.conflicts.is_empty());
        assert_eq!(report.missing, [TokenId(2)]);
        // The touching instance is dropped before it is built.
        let mut claimed = TokenSet::new(5);
        claimed.union_with(chart.span(tree));
        let built = in_visit_order(&chart, [touching, disjoint].into_iter(), |at| {
            !chart.span(at).intersects(&claimed)
        });
        assert_eq!(built.len(), 1);
        assert_eq!(built[0][0].attribute, "Disjoint");
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
