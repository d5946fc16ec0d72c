//! Parse work as forms grow: exact, host-independent counters.
//!
//! For each generated form size this pins the instances created, the
//! winner/loser pairs preference enforcement visited (`pairs_tested`)
//! and the maximal trees, and asserts that enforcement stays within
//! [`PAIRS_PER_INSTANCE`] pairs per instance created. A preference
//! whose sweep grows faster than the chart — a `QI > QI` rule over the
//! quadratically many row runs, say — fails the bound long before it
//! shows up as wall-clock time.
//!
//! `synthetic_form(n)` has `n` label-and-textbox rows;
//! `mixed_form(g)` has four rows per group, so its sizes are given in
//! rows as `4 g`.

use metaform_bench::{mixed_form, synthetic_form};
use metaform_eval::timing::tokenize_source;
use metaform_grammar::global_compiled;
use metaform_parser::ParseSession;

/// The most enforcement pairs a parse may visit per instance created.
const PAIRS_PER_INSTANCE: u64 = 12;

/// `(rows, created, pairs_tested, trees)` per form size.
type Pin = (usize, usize, u64, usize);

const SYNTHETIC: [Pin; 4] = [
    (25, 555, 1927, 1),
    (50, 1730, 7602, 1),
    (100, 5955, 30202, 1),
    (200, 21905, 120402, 1),
];

const MIXED: [Pin; 4] = [
    (24, 464, 1730, 1),
    (48, 1247, 6842, 1),
    (100, 4055, 29527, 1),
    (200, 13730, 117802, 1),
];

fn check(form: &str, html_of: impl Fn(usize) -> String, pins: &[Pin]) {
    let mut session = ParseSession::new(global_compiled());
    let mut got = Vec::new();
    for &(rows, ..) in pins {
        let result = session.parse(&tokenize_source(&html_of(rows)));
        let s = &result.stats;
        assert!(!s.budget.exhausted(), "{form} at {rows} rows: {}", s.budget);
        assert!(
            s.pairs_tested <= PAIRS_PER_INSTANCE * s.created as u64,
            "{form} at {rows} rows: {} enforcement pairs for {} instances exceeds \
             {PAIRS_PER_INSTANCE} per instance",
            s.pairs_tested,
            s.created
        );
        got.push((rows, s.created, s.pairs_tested, s.trees));
        session.recycle(result);
    }
    assert_eq!(got, pins, "{form}: (rows, created, pairs_tested, trees)");
}

#[test]
fn synthetic_rows_enforce_within_a_linear_bound() {
    check("synthetic_form", synthetic_form, &SYNTHETIC);
}

#[test]
fn mixed_rows_enforce_within_a_linear_bound() {
    check("mixed_form", |rows| mixed_form(rows / 4), &MIXED);
}
