//! Parse-tree rendering, in the spirit of the paper's Figure 10:
//! indented derivation trees with grammar symbols and token leaves.

use crate::instance::{Chart, InstId};
use metaform_core::TokenKind;
use metaform_grammar::{Grammar, Payload};
use std::fmt::Write;

/// Renders the derivation tree rooted at `root` as indented text.
///
/// ```text
/// QI [8 tokens]
/// └─ HQI
///    └─ CP
///       └─ TextOp  ⇒ [Author; {exact name, …}; text]
///          ├─ Attr "Author"
///          │  └─ text t0 "Author"
///          …
/// ```
pub fn render_tree(chart: &Chart, grammar: &Grammar, root: InstId) -> String {
    let mut out = String::new();
    let span = chart.span(root).count();
    let _ = writeln!(
        out,
        "{} [{} token{}]",
        node_label(chart, grammar, root),
        span,
        if span == 1 { "" } else { "s" }
    );
    let children = chart.children(root);
    for (i, &c) in children.iter().enumerate() {
        render_into(chart, grammar, c, "", i + 1 == children.len(), &mut out);
    }
    out
}

fn render_into(
    chart: &Chart,
    grammar: &Grammar,
    node: InstId,
    prefix: &str,
    last: bool,
    out: &mut String,
) {
    let branch = if last { "└─ " } else { "├─ " };
    let _ = writeln!(out, "{prefix}{branch}{}", node_label(chart, grammar, node));
    let children = chart.children(node);
    let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
    for (i, &c) in children.iter().enumerate() {
        render_into(
            chart,
            grammar,
            c,
            &child_prefix,
            i + 1 == children.len(),
            out,
        );
    }
}

fn node_label(chart: &Chart, grammar: &Grammar, node: InstId) -> String {
    let name = grammar.symbols.name(chart.symbol(node));
    if let Some(tid) = chart.token(node) {
        let token = &chart.tokens()[tid.index()];
        return match token.kind {
            TokenKind::Text => format!("{name} {tid:?} {:?}", token.sval),
            _ => format!("{name} {tid:?}"),
        };
    }
    let table = chart.table();
    match chart.payload(node) {
        Payload::Cond(c) => format!(
            "{name}  ⇒ {}",
            table.cond(*c).to_condition(table, Vec::new())
        ),
        Payload::Attr(a) => format!("{name} {a:?}"),
        Payload::Text(t) => format!("{name} {t:?}"),
        Payload::Ops(ops) => format!("{name} [{}]", table.texts(ops).join(", ")),
        _ => name.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::parse;
    use metaform_core::{BBox, Token};
    use metaform_grammar::paper_example_grammar;

    fn tokens() -> Vec<Token> {
        vec![
            Token::text(0, "Author", BBox::new(10, 12, 52, 28)),
            Token::widget(1, TokenKind::Textbox, "q", BBox::new(60, 8, 200, 28)),
        ]
    }

    #[test]
    fn renders_full_derivation() {
        let g = paper_example_grammar();
        let res = parse(&g, &tokens());
        let tree = render_tree(&res.chart, &g, res.trees[0]);
        assert!(tree.starts_with("QI [2 tokens]"), "{tree}");
        assert!(tree.contains("TextVal"), "{tree}");
        assert!(tree.contains("⇒ [Author; {contains}; text]"), "{tree}");
        assert!(tree.contains("text t0 \"Author\""), "{tree}");
        assert!(tree.contains("textbox t1"), "{tree}");
        // Tree-drawing characters balance: exactly one root line.
        assert!(tree.lines().count() >= 6);
        assert!(tree.lines().skip(1).all(|l| l.contains("─ ")));
    }

    #[test]
    fn indentation_nests() {
        let g = paper_example_grammar();
        let res = parse(&g, &tokens());
        let tree = render_tree(&res.chart, &g, res.trees[0]);
        let depth_of = |needle: &str| {
            tree.lines()
                .find(|l| l.contains(needle))
                .map(|l| l.find("─ ").unwrap())
                .unwrap_or(usize::MAX)
        };
        assert!(depth_of("HQI") < depth_of("CP"));
        assert!(depth_of("CP") < depth_of("TextVal"));
        assert!(depth_of("TextVal") < depth_of("Attr"));
    }
}
