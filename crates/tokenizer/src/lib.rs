//! # metaform-tokenizer
//!
//! The paper's tokenizer (§3.4): converts an HTML query form, after
//! layout, into a set of visual tokens — instances of the grammar's 16
//! terminals, each carrying a terminal type plus the attributes parsing
//! needs (`sval`, `pos`, widget name, option labels).
//!
//! Pipeline position: `metaform_html::parse` → `metaform_layout::layout`
//! → [`tokenize()`] → `metaform_parser`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod textrun;
pub mod tokenize;

pub use tokenize::{tokenize, tokenize_scope, Tokenized};
