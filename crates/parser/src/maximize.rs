//! Partial tree maximization (paper §5.3).
//!
//! "We use *maximum subsumption* to choose parse trees that assemble a
//! maximum set of tokens not subsumed by any other parse." A complete
//! parse is the special case of a single maximal tree covering all
//! tokens. Maximal trees may overlap (Figure 14 trees 2–4), which is
//! what the merger's conflict reporting is for.

use crate::instance::{Chart, InstId};
use std::cmp::Reverse;

/// Selects the maximal partial parse trees of a chart: valid
/// nonterminal instances whose token span is not strictly subsumed by
/// another valid instance's span. Among equal-span instances, only the
/// topmost of a unary derivation chain is kept (e.g. `QI ← HQI ← CP`
/// over the same tokens yields one tree rooted at `QI`).
///
/// Returned largest-span first (ties: lower instance id first) so the
/// merger visits broader context earlier.
///
/// Implementation: a subsumption-pruned sweep instead of the all-pairs
/// scan of [`maximize_naive`]. Candidates are visited largest span
/// first; each is tested only against the *already accepted* maximal
/// instances with strictly more tokens. That suffices by transitivity:
/// if some valid instance strictly subsumes `i`, then a *maximal* one
/// does too (follow strict supersets upward — token counts strictly
/// increase, so the chain ends at an accepted instance). Each test
/// runs the token-count and bbox-containment prefilters (an instance's
/// bbox is the union of its span's token boxes, so span containment
/// implies bbox containment) before the bitset subset test.
pub fn maximize(chart: &Chart) -> Vec<InstId> {
    maximize_with(chart, &mut MaxScratch::default())
}

/// The working buffers of [`maximize`], recycled across the parses of
/// a [`crate::ParseSession`] so that only the returned trees allocate.
#[derive(Default)]
pub(crate) struct MaxScratch {
    /// Candidates keyed by the sweep order: span size, largest first,
    /// then id.
    order: Vec<(Reverse<usize>, InstId)>,
    maximal: Vec<InstId>,
    snapshot: Vec<InstId>,
    stack: Vec<InstId>,
}

/// [`maximize`] over recycled buffers.
pub(crate) fn maximize_with(chart: &Chart, scratch: &mut MaxScratch) -> Vec<InstId> {
    let MaxScratch {
        order,
        maximal,
        snapshot,
        stack,
    } = scratch;
    order.clear();
    order.extend(
        chart
            .ids()
            .filter(|&i| chart.is_valid(i) && chart.prod(i).is_some() && !chart.span(i).is_empty())
            .map(|i| (Reverse(chart.span(i).count()), i)),
    );
    // Ids are unique, so the unstable sort orders exactly as a stable
    // one would, without a merge buffer.
    order.sort_unstable();

    // Sweep: accepted entries are maximal-so-far; only entries with
    // strictly more tokens can strictly subsume the current candidate,
    // and ties on count cannot subsume at all.
    maximal.clear();
    for &(Reverse(count), i) in order.iter() {
        let span = chart.span(i);
        let subsumed = maximal.iter().any(|&j| {
            chart.span(j).count() > count
                && chart.bbox(j).contains(&chart.bbox(i))
                && span.is_strict_subset(chart.span(j))
        });
        if !subsumed {
            maximal.push(i);
        }
    }

    // Equal-span chains: drop instances that are descendants of another
    // selected instance with the same span. Equal spans need equal
    // counts, and the sweep order groups equal counts contiguously, but
    // the snapshot semantics stay those of the naive pass: `j` ranges
    // over the pre-retain selection.
    snapshot.clone_from(maximal);
    maximal.retain(|&i| {
        !snapshot.iter().any(|&j| {
            j != i
                && chart.span(i).count() == chart.span(j).count()
                && chart.span(i) == chart.span(j)
                && chart.is_ancestor_in(j, i, stack)
        })
    });

    maximal.to_vec()
}

/// The reference all-pairs maximizer [`maximize`] is checked against:
/// every candidate is tested for strict subsumption against every
/// valid instance (O(n²) bitset tests). Kept for the parity suite;
/// produces identical output.
pub fn maximize_naive(chart: &Chart) -> Vec<InstId> {
    let valid: Vec<InstId> = chart
        .ids()
        .filter(|&i| chart.is_valid(i) && chart.prod(i).is_some() && !chart.span(i).is_empty())
        .collect();

    // Keep instances whose span is not strictly contained in another
    // valid instance's span.
    let mut maximal: Vec<InstId> = valid
        .iter()
        .copied()
        .filter(|&i| {
            let span = chart.span(i);
            !valid
                .iter()
                .any(|&j| j != i && span.is_strict_subset(chart.span(j)))
        })
        .collect();

    // Equal-span chains: drop instances that are descendants of another
    // selected instance with the same span.
    let snapshot = maximal.clone();
    maximal.retain(|&i| {
        !snapshot
            .iter()
            .any(|&j| j != i && chart.span(i) == chart.span(j) && chart.is_ancestor(j, i))
    });

    maximal.sort_by_key(|&i| (Reverse(chart.span(i).count()), i));
    maximal
}

#[cfg(test)]
mod tests {

    use crate::engine::parse;
    use metaform_core::{BBox, Token, TokenKind};
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
    fn complete_parse_is_single_maximal_tree() {
        let g = paper_example_grammar();
        let tokens = label_box_pair(0, "Author", 10, 10);
        let res = parse(&g, &tokens);
        assert_eq!(res.trees.len(), 1);
        let root = res.trees[0];
        assert_eq!(
            g.symbols.name(res.chart.symbol(root)),
            "QI",
            "topmost of the chain"
        );
        assert_eq!(res.chart.span(root).count(), 2);
    }

    #[test]
    fn disconnected_regions_yield_multiple_maximal_trees() {
        let g = paper_example_grammar();
        let mut tokens = label_box_pair(0, "Author", 10, 10);
        // Far below and not vertically stackable (x-disjoint, gap >
        // AboveWithin limit).
        tokens.extend(label_box_pair(2, "Title", 500, 600));
        let res = parse(&g, &tokens);
        assert_eq!(res.trees.len(), 2, "two partial interpretations");
        let spans: Vec<usize> = res
            .trees
            .iter()
            .map(|&t| res.chart.span(t).count())
            .collect();
        assert_eq!(spans, vec![2, 2]);
        // Union covers everything: nothing missing.
        assert!(res.chart.uncovered_tokens(&res.trees).is_empty());
    }

    #[test]
    fn decorative_text_left_uncovered() {
        let g = paper_example_grammar();
        let mut tokens = vec![Token::text(
            0,
            "this long banner headline is certainly not an attribute label at all",
            BBox::new(10, 0, 400, 16),
        )];
        tokens.extend(label_box_pair(1, "Author", 10, 40));
        let res = parse(&g, &tokens);
        assert_eq!(res.trees.len(), 1);
        let uncovered = res.chart.uncovered_tokens(&res.trees);
        assert_eq!(uncovered, vec![metaform_core::TokenId(0)]);
    }

    #[test]
    fn sweep_matches_naive_maximizer() {
        use super::{maximize, maximize_naive};
        use crate::engine::{parse_with, ParserOptions};
        let g = paper_example_grammar();
        // A brute-force chart (no pruning) is the densest: plenty of
        // overlapping and equal-span instances to disagree on.
        let mut tokens = label_box_pair(0, "Author", 10, 10);
        tokens.extend(label_box_pair(2, "Title", 10, 40));
        tokens.extend(label_box_pair(4, "Price", 600, 700));
        for opts in [ParserOptions::default(), ParserOptions::brute_force()] {
            let res = parse_with(&g, &tokens, &opts);
            assert_eq!(
                maximize(&res.chart),
                maximize_naive(&res.chart),
                "sweep and all-pairs maximizers diverged ({opts:?})"
            );
        }
    }

    #[test]
    fn ordering_is_largest_first() {
        let g = paper_example_grammar();
        let mut tokens = label_box_pair(0, "Author", 10, 10);
        tokens.extend(label_box_pair(2, "Title", 10, 40));
        // Third, disconnected pair far away.
        tokens.extend(label_box_pair(4, "Price", 600, 700));
        let res = parse(&g, &tokens);
        assert_eq!(res.trees.len(), 2);
        let first = res.chart.span(res.trees[0]).count();
        let second = res.chart.span(res.trees[1]).count();
        assert!(first >= second);
        assert_eq!(first, 4, "stacked Author+Title rows grouped into one QI");
    }
}
