//! The two shipped grammars.
//!
//! The paper derives a single grammar from the Basic dataset — "82
//! productions with 39 nonterminals and 16 terminals" summarizing the
//! 21 most common condition patterns (§6) — and publishes it. Ours is
//! published the same way: `grammars/global.2pg` *is* the derived
//! global grammar, compiled into the binary and parsed once per
//! process; there is no second copy in Rust. Likewise
//! `grammars/paper_g.2pg` is the 11-rule grammar *G* of paper Figure 6
//! ([`paper_example_grammar`]), used in walk-through examples and the
//! ambiguity experiments. Edit a rule by editing the `.2pg` file.

use crate::compiled::CompiledGrammar;
use crate::dsl::from_dsl;
use crate::grammar::Grammar;
use std::sync::{Arc, OnceLock};

/// Returns the compiled global grammar, built at most once per
/// process and shared behind an `Arc` (see [`CompiledGrammar`]).
/// Every caller — extractors, sessions, worker threads — gets a
/// handle to the same artifact; the grammar is constructed, validated,
/// and scheduled exactly once no matter how many times this is called.
pub fn global_compiled() -> Arc<CompiledGrammar> {
    static GLOBAL: OnceLock<Arc<CompiledGrammar>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let grammar = from_dsl(include_str!("../../../grammars/global.2pg"))
                .expect("grammars/global.2pg is a valid grammar");
            Arc::new(
                grammar
                    .compile()
                    .expect("derived global grammar is schedulable"),
            )
        })
        .clone()
}

/// Builds the global derived grammar used by the form extractor.
///
/// Kept for source compatibility: returns an owned clone of the
/// process-wide cached grammar. Callers that parse should prefer
/// [`global_compiled`], which shares the already-scheduled artifact
/// instead of cloning the description.
pub fn global_grammar() -> Grammar {
    global_compiled().grammar().clone()
}

/// The paper's Figure 6 example grammar *G* (11 rules, 16 productions
/// with alternatives split), loaded from `grammars/paper_g.2pg`. Used
/// for walk-throughs and the §4.2.1 ambiguity experiment.
pub fn paper_example_grammar() -> Grammar {
    from_dsl(include_str!("../../../grammars/paper_g.2pg"))
        .expect("grammars/paper_g.2pg is a valid grammar")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::build_schedule;

    #[test]
    fn global_grammar_builds_and_schedules() {
        let g = global_grammar();
        let s = build_schedule(&g).expect("schedulable");
        assert_eq!(s.order.len(), g.symbols.nonterminal_count());
        // No preference should require rollback in the shipped grammar.
        assert_eq!(s.rollback_prefs().count(), 0, "{:?}", s.needs_rollback);
    }

    #[test]
    fn global_grammar_scale_matches_paper_ballpark() {
        let g = global_grammar();
        assert!(
            g.productions.len() >= 60,
            "expected a rich pattern catalog, got {}",
            g.productions.len()
        );
        assert!(g.symbols.nonterminal_count() >= 25);
        assert!(g.preferences.len() >= 20);
        assert_eq!(g.symbols.len() - g.symbols.nonterminal_count(), 16);
    }

    #[test]
    fn schedule_respects_key_precedences() {
        let g = global_grammar();
        let s = build_schedule(&g).unwrap();
        let pos = |name: &str| {
            let id = g.symbols.lookup(name).unwrap();
            s.order.iter().position(|&x| x == id).unwrap()
        };
        assert!(pos("RBU") < pos("Attr"), "R1 just-in-time");
        assert!(pos("TextOp") < pos("TextVal"));
        assert!(pos("TextVal") < pos("KwVal"));
        assert!(pos("DateMDY") < pos("SelVal"));
        assert!(pos("RangeSel") < pos("NumCond"));
        assert!(pos("CP") < pos("HQI"));
        assert!(pos("HQI") < pos("QI"));
    }

    #[test]
    fn paper_grammar_matches_figure6() {
        let g = paper_example_grammar();
        assert_eq!(g.productions.len(), 16, "11 rules, with alternatives split");
        assert_eq!(g.preferences.len(), 4);
        let s = build_schedule(&g).unwrap();
        assert_eq!(s.order.len(), g.symbols.nonterminal_count());
    }

    #[test]
    fn start_symbols() {
        let g = global_grammar();
        assert_eq!(g.symbols.name(g.start), "QI");
        let pg = paper_example_grammar();
        assert_eq!(pg.symbols.name(pg.start), "QI");
    }
}
