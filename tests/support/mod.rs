//! The fixed page set the token and parser-work goldens pin: the
//! survey corpus plus the 25 generator schemas × pages 0–7 at seed 1,
//! each under its evaluation profile.

use metaform_core::Token;
use metaform_datasets::dataset::generate_source;
use metaform_datasets::{domains, survey_corpus, GenParams};

/// `(name, html)` for every pinned page, in golden-file order.
pub fn pinned_pages() -> Vec<(String, String)> {
    let mut pages = survey_corpus();
    let schemas = [
        domains::books(),
        domains::automobiles(),
        domains::airfares(),
    ]
    .into_iter()
    .map(|s| (s, GenParams::basic()))
    .chain(
        domains::new_domains()
            .into_iter()
            .map(|s| (s, GenParams::new_domain())),
    )
    .chain(
        domains::random_pools()
            .into_iter()
            .map(|s| (s, GenParams::random())),
    );
    for (schema, params) in schemas {
        for page in 0..8 {
            let html = generate_source(&schema, page, 1, &params).html;
            pages.push((format!("{}/p{page}/s1", schema.name), html));
        }
    }
    pages
}

/// The page's 2-D token stream: DOM, layout, tokenizer.
pub fn tokens_of(html: &str) -> Vec<Token> {
    let doc = metaform_html::parse(html);
    let lay = metaform_layout::layout(&doc);
    metaform_tokenizer::tokenize(&doc, &lay).tokens
}
