//! Beyond query forms (paper §7): "the navigational menus listing
//! available services are often regularly arranged at the top or left
//! hand side of entry pages in E-commerce Web sites. … by designing a
//! grammar that captures such structure regularities, we can employ
//! our parsing framework to extract the services available."
//!
//! This example does exactly that: a tiny 2P grammar for left-hand
//! navigation menus — left-aligned stacks of short text items — run
//! through the *unchanged* best-effort parser.
//!
//! ```text
//! cargo run --example menu_extraction
//! ```

use metaform::TokenKind;
use metaform_grammar::{Constraint as C, Constructor as K, GrammarBuilder, Pred};
use metaform_parser::ParseSession;
use std::sync::Arc;

fn main() {
    // A menu grammar: items are short texts; a menu is a left-aligned
    // vertical stack of items; the page may hold several menus.
    let mut b = GrammarBuilder::new("Page");
    let text = b.t(TokenKind::Text);
    let item = b.nt("MenuItem");
    let menu = b.nt("Menu");
    let page = b.nt("Page");

    b.production(
        "MenuItem",
        item,
        vec![text],
        C::all([C::Is(0, Pred::AttrLike), C::Is(0, Pred::MaxWords(3))]),
        K::TextOf(0),
    );
    b.production("Menu<-item", menu, vec![item], C::True, K::ListStart(0));
    b.production(
        "Menu<-stack",
        menu,
        vec![menu, item],
        C::all([C::AlignLeft(0, 1), C::AboveWithin(0, 1, 14)]),
        K::ListAppend { list: 0, unit: 1 },
    );
    b.production("Page", page, vec![menu], C::True, K::Inherit(0));
    b.preference(
        "Menu-longer",
        menu,
        menu,
        metaform_grammar::ConflictCond::LoserSubsumed,
        metaform_grammar::WinCriteria::WinnerLarger,
    );
    // Compile once: validation and scheduling are the grammar's only
    // fallible step, paid here and never again.
    let compiled = Arc::new(
        b.build()
            .expect("menu grammar is valid")
            .compile()
            .expect("menu grammar is schedulable"),
    );
    let grammar = compiled.grammar();
    println!("menu grammar: {}", grammar.stats());
    println!(
        "instantiation order: {:?}\n",
        compiled
            .schedule()
            .order
            .iter()
            .map(|&s| grammar.symbols.name(s))
            .collect::<Vec<_>>()
    );

    // An e-commerce entry page: a left-hand nav column next to body
    // copy (the long sentences fail the MenuItem predicate).
    let html = r#"
      <table><tr valign="top">
        <td>
          Books<br>Music<br>Movies<br>Toys<br>Electronics<br>Gift Cards<br>
        </td>
        <td>
          Welcome to MegaShop, the one store for absolutely everything you could ever need<br>
          Today only: free shipping on every order over fifty dollars while supplies last<br>
        </td>
      </tr></table>"#;

    let doc = metaform_html::parse(html);
    let layout = metaform_layout::layout(&doc);
    let tokens = metaform_tokenizer::tokenize(&doc, &layout).tokens;
    let result = ParseSession::new(compiled.clone()).parse(&tokens);

    println!(
        "{} tokens, {} maximal trees",
        tokens.len(),
        result.trees.len()
    );
    let mut services = Vec::new();
    for &tree in &result.trees {
        if let Some(items) = result.chart.ops(tree) {
            if items.len() >= 3 {
                services = items.iter().map(|s| s.to_string()).collect();
                println!(
                    "menu found ({} covering {} tokens):",
                    grammar.symbols.name(result.chart.symbol(tree)),
                    result.chart.span(tree).count()
                );
                for s in items {
                    println!("  • {s}");
                }
            }
        }
    }
    assert_eq!(
        services,
        vec![
            "Books",
            "Music",
            "Movies",
            "Toys",
            "Electronics",
            "Gift Cards"
        ]
    );
    println!("\nSame parser, different grammar — the framework generalizes (§7).");
}
