//! The merger (paper §3.4): combine partial parse trees into the final
//! semantic model and report errors.
//!
//! "Since our goal is to identify all the query conditions, the merger
//! combines multiple parse trees by taking the union of their extracted
//! conditions. … It reports two types of errors: a *conflict* occurs if
//! the same token is used by different conditions … a *missing element*
//! is a token not covered by any parse tree."
//!
//! The merger decides on the chart's conditions before it builds any
//! report form, and builds every vector of the report at its final
//! size, so on recycled working memory (a `MergeScratch` held by a
//! [`crate::ParseSession`]) a merge allocates exactly the heap blocks
//! the returned report owns.

use crate::instance::{Chart, InstId};
use crate::tokenset::TokenSet;
use metaform_core::{same_label, write_condition, Conflict, ExtractionReport};
use std::cmp::Ordering;

/// Sentinel for "no owner yet" in [`MergeScratch::owners`].
const NO_OWNER: u32 = u32::MAX;

/// Recycled working memory of the merger and of
/// [`crate::pattern_spans`]: walk stacks, the visit order, the kept
/// conditions and the token owner and visited marks.
#[derive(Debug, Default)]
pub(crate) struct MergeScratch {
    pub(crate) stack: Vec<InstId>,
    /// The conditions one instance holds: (table index, holder).
    held: Vec<(u32, InstId)>,
    /// A second holder list, for the tie-break's other side.
    other: Vec<(u32, InstId)>,
    /// Instances to visit, in the merger's content order, each with
    /// its position among the candidates.
    visits: Vec<(InstId, u32)>,
    /// The conditions the report keeps, in report order.
    kept: Vec<(u32, InstId)>,
    /// The kept condition that first claimed each token.
    owners: Vec<u32>,
    conflicts: Vec<Conflict>,
    /// Renderings of the two conditions a tie-break compares.
    rendered: [String; 2],
    /// Per instance, 1 + the index of the last tree whose walk reached
    /// it ([`crate::pattern_spans`]).
    pub(crate) visited: Vec<u32>,
    /// Per instance, whether it was exported as a pattern already.
    pub(crate) exported: Vec<bool>,
    /// The pattern instances to export, in export order.
    pub(crate) patterns: Vec<InstId>,
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
/// This is where conditions take their report form: each kept one is
/// built once, its token list read off the chart span of the instance
/// it was assembled at. [`crate::ParseSession::merge`] runs the same
/// merge on the session's recycled working memory.
pub fn merge(chart: &Chart, trees: &[InstId]) -> ExtractionReport {
    merge_in(chart, trees, &mut MergeScratch::default())
}

/// [`merge`] on the caller's recycled working memory.
pub(crate) fn merge_in(chart: &Chart, trees: &[InstId], s: &mut MergeScratch) -> ExtractionReport {
    keep_tree_conditions(chart, trees, s);
    report(chart, trees, s, 0)
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
    salvage_merge_in(chart, trees, &mut MergeScratch::default())
}

/// [`salvage_merge`] on the caller's recycled working memory.
pub(crate) fn salvage_merge_in(
    chart: &Chart,
    trees: &[InstId],
    s: &mut MergeScratch,
) -> ExtractionReport {
    keep_tree_conditions(chart, trees, s);
    let from_trees = s.kept.len();
    let mut claimed = TokenSet::new(chart.tokens().len());
    for &(_, at) in &s.kept {
        claimed.union_with(chart.span(at));
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
    visit_order(chart, extras, open, s);
    for v in 0..s.visits.len() {
        s.held.clear();
        chart.conditions_at(s.visits[v].0, &mut s.stack, &mut s.held);
        for &(cond, at) in &s.held {
            let span = chart.span(at);
            if span.is_empty() || span.intersects(&claimed) || is_kept(chart, &s.kept, cond) {
                continue;
            }
            claimed.union_with(span);
            s.kept.push((cond, at));
        }
    }
    report(chart, trees, s, from_trees)
}

/// Decides which conditions of the maximal trees the report keeps,
/// into `s.kept`, and the conflicts among them, into `s.conflicts`.
fn keep_tree_conditions(chart: &Chart, trees: &[InstId], s: &mut MergeScratch) {
    s.kept.clear();
    s.conflicts.clear();
    s.owners.clear();
    s.owners.resize(chart.tokens().len(), NO_OWNER);
    visit_order(chart, trees.iter().copied(), |_| true, s);
    for v in 0..s.visits.len() {
        s.held.clear();
        chart.conditions_at(s.visits[v].0, &mut s.stack, &mut s.held);
        for &(cond, at) in &s.held {
            if is_kept(chart, &s.kept, cond) {
                // Same condition extracted from an overlapping tree —
                // not a conflict, just overlap in coverage.
                continue;
            }
            let idx = s.kept.len() as u32;
            let first = s.conflicts.len();
            for t in chart.span(at).iter() {
                let owner = s.owners[t.index()];
                if owner == NO_OWNER {
                    s.owners[t.index()] = idx;
                } else if !s.conflicts[first..]
                    .iter()
                    .any(|c| c.kept == owner as usize)
                {
                    s.conflicts.push(Conflict {
                        token: t,
                        kept: owner as usize,
                        dropped: idx as usize,
                    });
                }
            }
            s.kept.push((cond, at));
        }
    }
}

/// Whether a kept condition is equivalent to condition `cond` of the
/// table: the same normalized attribute and domain shape.
fn is_kept(chart: &Chart, kept: &[(u32, InstId)], cond: u32) -> bool {
    let table = chart.table();
    let c = table.cond(cond);
    kept.iter().any(|&(k, _)| {
        let k = table.cond(k);
        k.domain.kind == c.domain.kind && same_label(&k.attribute, &c.attribute)
    })
}

/// The report of the kept conditions, every vector built at its final
/// size. A token is missing when no tree covers it and no condition
/// kept past the first `from_trees` (the salvage sweep's) claims it.
fn report(
    chart: &Chart,
    trees: &[InstId],
    s: &MergeScratch,
    from_trees: usize,
) -> ExtractionReport {
    let mut covered = TokenSet::new(chart.tokens().len());
    for &r in trees {
        covered.union_with(chart.span(r));
    }
    for &(_, at) in &s.kept[from_trees..] {
        covered.union_with(chart.span(at));
    }
    let uncovered = || {
        chart
            .tokens()
            .iter()
            .map(|t| t.id)
            .filter(|&t| !covered.contains(t))
    };
    let mut missing = Vec::with_capacity(uncovered().count());
    missing.extend(uncovered());
    ExtractionReport {
        conditions: s
            .kept
            .iter()
            .map(|&(cond, at)| chart.condition(cond, at))
            .collect(),
        conflicts: s.conflicts.clone(),
        missing,
    }
}

/// Fills `s.visits` with each instance of `insts` that holds a
/// condition `serves` accepts (it is given the holding instance),
/// ordered by the merger's content key: span size (largest first),
/// span, then the conditions' token lists and rendering — rendered
/// only for instances whose spans tie, into recycled buffers — then
/// the order of `insts`. An instance left out has no condition to
/// add, and leaving it out keeps the others in the same relative
/// order.
fn visit_order(
    chart: &Chart,
    insts: impl Iterator<Item = InstId>,
    mut serves: impl FnMut(InstId) -> bool,
    s: &mut MergeScratch,
) {
    s.visits.clear();
    for (inst, position) in insts.zip(0..) {
        s.held.clear();
        chart.conditions_at(inst, &mut s.stack, &mut s.held);
        if s.held.iter().any(|&(_, at)| serves(at)) {
            s.visits.push((inst, position));
        }
    }
    let MergeScratch {
        stack,
        held,
        other,
        visits,
        rendered,
        ..
    } = s;
    // The positions make the order total, so the in-place unstable
    // sort orders as a stable one would.
    visits.sort_unstable_by(|&(a, pa), &(b, pb)| {
        visit_cmp(chart, a, b, stack, held, other, rendered).then(pa.cmp(&pb))
    });
}

/// The merger's content order on two instances: larger span first,
/// then span, then the conditions they hold — token lists, then
/// renderings.
fn visit_cmp(
    chart: &Chart,
    a: InstId,
    b: InstId,
    stack: &mut Vec<InstId>,
    held: &mut Vec<(u32, InstId)>,
    other: &mut Vec<(u32, InstId)>,
    rendered: &mut [String; 2],
) -> Ordering {
    let (sa, sb) = (chart.span(a), chart.span(b));
    let by_span = sb
        .count()
        .cmp(&sa.count())
        .then_with(|| sa.iter().cmp(sb.iter()));
    if by_span != Ordering::Equal {
        return by_span;
    }
    held.clear();
    chart.conditions_at(a, stack, held);
    other.clear();
    chart.conditions_at(b, stack, other);
    for (&(ca, at_a), &(cb, at_b)) in held.iter().zip(other.iter()) {
        let by_tokens = chart.span(at_a).iter().cmp(chart.span(at_b).iter());
        if by_tokens != Ordering::Equal {
            return by_tokens;
        }
        let [ra, rb] = rendered;
        render(chart, ca, ra);
        render(chart, cb, rb);
        match ra.cmp(&rb) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    held.len().cmp(&other.len())
}

/// Writes condition `cond` of the chart's table as its report form
/// displays, into `out`.
fn render(chart: &Chart, cond: u32, out: &mut String) {
    let table = chart.table();
    let c = table.cond(cond);
    out.clear();
    write_condition(
        out,
        &c.attribute,
        table.texts(&c.operators),
        c.domain.kind,
        table.texts(&c.domain.values),
    )
    .expect("writing to a String cannot fail");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::parse;
    use metaform_core::{BBox, DomainKind, Token, TokenId, TokenKind};
    use metaform_grammar::{
        paper_example_grammar, Cond, Domain, ProdId, SymbolId, SymbolTable, Texts,
    };

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
        let payload = chart.table_mut().push_cond(Cond {
            attribute: attr.into(),
            operators: Texts::EMPTY,
            domain: Domain::of(DomainKind::Text),
        });
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
        let mut scratch = MergeScratch::default();
        let open = |at: InstId| !chart.span(at).intersects(&claimed);
        visit_order(&chart, [touching, disjoint].into_iter(), open, &mut scratch);
        assert_eq!(scratch.visits, [(disjoint, 1)]);
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
