//! The fixed page set the token and parser-work goldens pin (see
//! [`metaform_datasets::pinned_pages`]) and its token streams.

use metaform_core::Token;
pub use metaform_datasets::pinned_pages;

/// The page's 2-D token stream: DOM, layout, tokenizer.
pub fn tokens_of(html: &str) -> Vec<Token> {
    let doc = metaform_html::parse(html);
    let lay = metaform_layout::layout(&doc);
    metaform_tokenizer::tokenize(&doc, &lay).tokens
}
