//! Exercises the rollback path end-to-end: when a preference's r-edge
//! cannot be scheduled (even after transformation), losers are pruned
//! *late* — after their parents already instantiated — and the parser
//! must erase those false ancestors (paper §5.1: "rollback is used to
//! remove all those false ancestors").

use metaform_core::{BBox, Token, TokenKind};
use metaform_grammar::{
    build_schedule, ConflictCond, Constraint, Constructor, Grammar, GrammarBuilder, WinCriteria,
};
use metaform_parser::parse;

/// A grammar engineered so the preference `C > B` cannot keep any
/// r-edge: `B`'s parent `P` feeds `C` (`A → B → P → C`), so both the
/// direct edge (C before B) and the transformed edge (C before P)
/// close cycles. The schedule must mark the preference for rollback.
fn rollback_grammar() -> Grammar {
    let mut b = GrammarBuilder::new("C");
    let text = b.t(TokenKind::Text);
    let textbox = b.t(TokenKind::Textbox);
    let a = b.nt("A");
    let bb = b.nt("B");
    let p = b.nt("P");
    let c = b.nt("C");
    b.production("A", a, vec![text], Constraint::True, Constructor::Group);
    b.production("B", bb, vec![a], Constraint::True, Constructor::Group);
    b.production("P", p, vec![bb], Constraint::True, Constructor::Group);
    b.production(
        "C",
        c,
        vec![p, textbox],
        Constraint::SameRow(0, 1),
        Constructor::Group,
    );
    b.preference("RC>B", c, bb, ConflictCond::Overlap, WinCriteria::Always);
    b.build().expect("valid grammar")
}

fn tokens() -> Vec<Token> {
    vec![
        Token::text(0, "Author", BBox::new(10, 10, 52, 26)),
        Token::widget(1, TokenKind::Textbox, "q", BBox::new(60, 8, 200, 28)),
    ]
}

#[test]
fn schedule_marks_the_preference_for_rollback() {
    let g = rollback_grammar();
    let s = build_schedule(&g).expect("schedulable");
    assert_eq!(s.rollback_prefs().count(), 1);
}

#[test]
fn rollback_erases_false_ancestors() {
    let g = rollback_grammar();
    let result = parse(&g, &tokens());
    assert!(result.stats.invalidated >= 1, "{:?}", result.stats);
    assert!(
        result.stats.rolled_back >= 1,
        "ancestors of the loser must be rolled back: {:?}",
        result.stats
    );
    // Consistency: no valid instance may rest on an invalid child.
    for id in result.chart.ids() {
        if result.chart.is_valid(id) {
            for &child in result.chart.children(id) {
                assert!(
                    result.chart.is_valid(child),
                    "valid {id:?} has invalid child {child:?}"
                );
            }
        }
    }
    // The loser symbol has no valid survivors.
    let b_sym = g.symbols.lookup("B").unwrap();
    assert!(result.chart.valid_of_symbol(b_sym).is_empty());
}
