//! The 2P schedule graph in the style of the paper's Figure 12, as
//! Graphviz DOT. (The grammar's own text form is the `.2pg` DSL; see
//! [`crate::to_dsl`].)

use crate::grammar::Grammar;
use crate::schedule::Schedule;
use crate::symbol::SymbolId;
use std::fmt::Write;

/// Graphviz DOT rendering of the 2P schedule graph (paper Figure 12):
/// solid d-edges (component → head) and dashed r-edges (winner →
/// loser), with the scheduled order as node labels.
pub fn schedule_to_dot(grammar: &Grammar, schedule: &Schedule) -> String {
    let order_of = |s: SymbolId| {
        schedule
            .order
            .iter()
            .position(|&x| x == s)
            .map(|i| i.to_string())
            .unwrap_or_else(|| "-".into())
    };
    let mut out = String::from("digraph schedule {\n  rankdir=BT;\n");
    for &s in &schedule.order {
        let _ = writeln!(
            out,
            "  \"{}\" [label=\"{} ({})\"];",
            grammar.symbols.name(s),
            grammar.symbols.name(s),
            order_of(s)
        );
    }
    // d-edges: component → head, deduplicated, nonterminals only.
    let mut seen = std::collections::BTreeSet::new();
    for p in &grammar.productions {
        for &c in &p.components {
            if grammar.symbols.is_terminal(c) || c == p.head {
                continue;
            }
            if seen.insert((c, p.head)) {
                let _ = writeln!(
                    out,
                    "  \"{}\" -> \"{}\";",
                    grammar.symbols.name(c),
                    grammar.symbols.name(p.head)
                );
            }
        }
    }
    // r-edges: winner → loser, dashed.
    for (i, r) in grammar.preferences.iter().enumerate() {
        if r.winner == r.loser {
            continue;
        }
        let style = if schedule.needs_rollback[i] {
            "dotted"
        } else {
            "dashed"
        };
        let _ = writeln!(
            out,
            "  \"{}\" -> \"{}\" [style={style}, color=red, label=\"{}\"];",
            grammar.symbols.name(r.winner),
            grammar.symbols.name(r.loser),
            r.name
        );
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::paper_example_grammar;
    use crate::schedule::build_schedule;

    #[test]
    fn dot_export_has_both_edge_kinds() {
        let g = paper_example_grammar();
        let s = build_schedule(&g).unwrap();
        let dot = schedule_to_dot(&g, &s);
        assert!(dot.starts_with("digraph schedule {"));
        assert!(dot.contains("\"RBU\" -> \"RBList\";"), "d-edge");
        assert!(
            dot.contains("\"RBU\" -> \"Attr\" [style=dashed"),
            "r-edge: {dot}"
        );
        assert!(dot.trim_end().ends_with('}'));
    }
}
