//! The shipped grammar artifacts are the grammars' only source:
//! `grammars/global.2pg` (the derived global grammar) and
//! `grammars/paper_g.2pg` (Figure 6's *G*) are compiled into the
//! library. These tests keep each file canonical — with comment and
//! blank lines dropped it is exactly what `to_dsl` writes for the
//! grammar it loads, so a load/export round trip is a fixed point —
//! and check that a file loaded at run time parses like the built-in.

use metaform::{global_grammar, paper_example_grammar, Grammar};
use metaform_grammar::{build_schedule, from_dsl, to_dsl};

fn artifact(name: &str) -> String {
    let path = format!("{}/grammars/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The lines that carry meaning: no blank or comment lines.
fn rule_lines(src: &str) -> Vec<&str> {
    src.lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .collect()
}

fn assert_canonical(name: &str, grammar: &Grammar) {
    let src = artifact(name);
    let export = to_dsl(grammar);
    let (got, want) = (rule_lines(&src), rule_lines(&export));
    if let Some(at) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
        panic!(
            "grammars/{name} is not in canonical form; edit the .2pg file so its \
             rule line {} reads\n  {}\ninstead of\n  {}",
            at + 1,
            want.get(at).unwrap_or(&"(nothing)"),
            got.get(at).unwrap_or(&"(nothing)"),
        );
    }
}

#[test]
fn shipped_grammar_matches_builtin() {
    assert_canonical("global.2pg", &global_grammar());
}

#[test]
fn paper_grammar_matches_builtin() {
    assert_canonical("paper_g.2pg", &paper_example_grammar());
}

#[test]
fn shipped_grammar_loads_and_schedules() {
    let g = from_dsl(&artifact("global.2pg")).expect("artifact parses");
    assert_eq!(g.productions.len(), global_grammar().productions.len());
    let schedule = build_schedule(&g).expect("schedulable");
    assert_eq!(schedule.rollback_prefs().count(), 0);
}

#[test]
fn shipped_grammar_extracts_like_builtin() {
    let g = from_dsl(&artifact("global.2pg")).expect("artifact parses");
    let html = metaform_datasets::fixtures::qam().html;
    let builtin = metaform::FormExtractor::new().extract(&html);
    let loaded = metaform::FormExtractor::with_grammar(g).extract(&html);
    assert_eq!(builtin.report, loaded.report);
}

#[test]
fn every_rule_of_the_shipped_grammar_can_fire() {
    // Proofs over the productions alone, before any page is parsed:
    // every nonterminal lies on some derivation from the start symbol,
    // and every preference's winner and loser can derive a common
    // terminal kind, so they can share a token and conflict.
    let g = global_grammar();
    assert_eq!(
        g.unreachable_nonterminals(),
        Vec::<&str>::new(),
        "nonterminals unreachable from {}",
        g.symbols.name(g.start)
    );
    assert_eq!(
        g.disjoint_preferences(),
        Vec::<&str>::new(),
        "preferences whose winner and loser share no terminal kind never fire"
    );
}
