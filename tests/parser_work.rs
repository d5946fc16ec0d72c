//! Parser-work golden: the parser's deterministic work counters for
//! every pinned page, compared exactly.
//!
//! Wall-clock gates drift with the host; these counters do not. Each
//! line holds a page's name and, under the default options and again at
//! an instance cap of 40, the instances created, the combinations
//! enumerated, the combinations and preference pairs the semi-naive
//! schedule skipped, the fix-point rounds, the invalidations, the
//! rollbacks and the maximal trees. A mechanism that changes how much
//! work the parser does — a fix-point schedule that re-walks old
//! combinations, a pruning that stops pruning — moves a count here even
//! when every report stays the same. The pages are those of the token
//! golden (`front_end_tokens`).
//!
//! To regenerate after an intentional change to the parser's work:
//!
//! ```text
//! METAFORM_BLESS=1 cargo test --test parser_work
//! ```

#[path = "support/golden.rs"]
mod golden;
mod support;

use metaform_grammar::global_compiled;
use metaform_parser::{ParseSession, ParseStats, ParserOptions};
use support::{pinned_pages, tokens_of};

/// The instance cap of the starved budget row.
const STARVED_CAP: usize = 40;

fn counters(s: &ParseStats) -> String {
    format!(
        "created={} combos={} combos_skipped={} pairs_skipped={} rounds={} invalidated={} rolled_back={} trees={}",
        s.created,
        s.combos_enumerated,
        s.combos_skipped_delta,
        s.pairs_skipped_delta,
        s.fixpoint_rounds,
        s.invalidated,
        s.rolled_back,
        s.trees
    )
}

#[test]
fn parser_work_matches_the_golden_file() {
    let grammar = global_compiled();
    let mut full = ParseSession::new(grammar.clone());
    let mut starved = ParseSession::with_options(
        grammar,
        ParserOptions {
            max_instances: STARVED_CAP,
            ..ParserOptions::default()
        },
    );
    let mut rendered = String::new();
    for (name, html) in pinned_pages() {
        let tokens = tokens_of(&html);
        let a = full.parse(&tokens);
        let b = starved.parse(&tokens);
        rendered.push_str(&format!(
            "{name}\t{}\tcap{STARVED_CAP}: {}\n",
            counters(&a.stats),
            counters(&b.stats)
        ));
        full.recycle(a);
        starved.recycle(b);
    }
    golden::check("parser_work.txt", &rendered, |_, _| None);
}
