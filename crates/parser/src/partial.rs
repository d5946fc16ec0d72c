//! Partial-tree export: the parser-side half of the induction loop's
//! **Collect** step.
//!
//! The merger reports *what* was extracted; induction also needs to
//! know *which pattern claimed which tokens* — a page built from a
//! withheld pattern usually parses "successfully" with its tokens
//! mis-claimed by the unlabeled fallback patterns, leaving nothing in
//! the `missing` list to mine from. These helpers walk the maximal
//! partial trees and export, per pattern-level instance (each `CP`
//! node's single child), the claiming symbol and its token span, in
//! the form `metaform_grammar::induce::mine_page` consumes.

use crate::instance::{Chart, InstId};
use metaform_grammar::induce::PatternSpan;
use metaform_grammar::Grammar;

/// One [`PatternSpan`] per pattern-level instance in the maximal
/// trees: every `CP` node's single child is a condition pattern
/// (`TextVal`, `KwVal`, …); its symbol name and covered token ids are
/// the mining evidence. Deterministic: trees are walked in maximal
/// order, nodes in DFS order, and shared instances export once.
pub fn pattern_spans(chart: &Chart, trees: &[InstId], grammar: &Grammar) -> Vec<PatternSpan> {
    let Some(cp) = grammar.symbols.lookup("CP") else {
        return Vec::new();
    };
    // `visited[i]` holds 1 + the index of the last tree whose walk
    // reached instance `i`; `exported[i]` marks pattern instances
    // already exported by an earlier node.
    let mut visited = vec![0u32; chart.len()];
    let mut exported = vec![false; chart.len()];
    let mut stack = Vec::new();
    let mut out = Vec::new();
    for (tree, &root) in (1u32..).zip(trees) {
        stack.clear();
        stack.push(root);
        while let Some(node) = stack.pop() {
            if std::mem::replace(&mut visited[node.index()], tree) == tree {
                continue;
            }
            stack.extend_from_slice(chart.children(node));
            if chart.symbol(node) != cp {
                continue;
            }
            let Some(&child) = chart.children(node).first() else {
                continue;
            };
            if std::mem::replace(&mut exported[child.index()], true) {
                continue;
            }
            let span = chart.span(child);
            let mut tokens = Vec::with_capacity(span.count());
            tokens.extend(span.iter());
            out.push(PatternSpan {
                symbol: grammar.symbols.name(chart.symbol(child)).to_string(),
                tokens,
            });
        }
    }
    out
}

/// The maximal partial trees' root symbols, in maximal order — the
/// coarse "how far did the parse get" telemetry degraded pages record
/// alongside the mined arrangements.
pub fn tree_symbols(chart: &Chart, trees: &[InstId], grammar: &Grammar) -> Vec<String> {
    trees
        .iter()
        .map(|&root| grammar.symbols.name(chart.symbol(root)).to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ParseSession;
    use metaform_core::{BBox, Token, TokenId, TokenKind};
    use metaform_grammar::global_compiled;

    #[test]
    fn exports_one_span_per_pattern_instance() {
        let tokens = vec![
            Token::text(0, "Author", BBox::new(0, 0, 48, 16)),
            Token::widget(1, TokenKind::Textbox, "a", BBox::new(60, 0, 140, 16)),
        ];
        let compiled = global_compiled();
        let mut session = ParseSession::new(compiled.clone());
        let result = session.parse(&tokens);
        let spans = pattern_spans(&result.chart, &result.trees, compiled.grammar());
        assert!(
            spans
                .iter()
                .any(|s| s.symbol == "TextVal" && s.tokens == vec![TokenId(0), TokenId(1)]),
            "{spans:?}"
        );
        let roots = tree_symbols(&result.chart, &result.trees, compiled.grammar());
        assert!(!roots.is_empty());
    }
}
