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

mod support;

use metaform_grammar::global_compiled;
use metaform_parser::{ParseSession, ParseStats, ParserOptions};
use std::path::PathBuf;
use support::{pinned_pages, tokens_of};

/// The instance cap of the starved budget row.
const STARVED_CAP: usize = 40;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/parser_work.txt")
}

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
    let mut lines = 0;
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
        lines += 1;
    }
    let path = golden_path();
    if std::env::var_os("METAFORM_BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("write golden file");
        println!("blessed {} ({lines} pages)", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n\
             (first run? bless it: METAFORM_BLESS=1 cargo test --test parser_work)",
            path.display()
        )
    });
    if rendered != golden {
        let first = golden
            .lines()
            .zip(rendered.lines())
            .enumerate()
            .find(|(_, (g, r))| g != r);
        let at = match first {
            Some((k, (blessed, now))) => format!("line {}\n-{blessed}\n+{now}", k + 1),
            None => format!(
                "the page count: golden {}, parsed {lines}",
                golden.lines().count()
            ),
        };
        panic!(
            "parser work drifted from the golden file at {at}\n\
             to accept the change: METAFORM_BLESS=1 cargo test --test parser_work"
        );
    }
}
