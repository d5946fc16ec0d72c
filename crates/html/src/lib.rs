//! # metaform-html
//!
//! From-scratch HTML parsing substrate for the `metaform` form
//! extractor. The paper's tokenizer "builds on a layout engine for
//! rendering HTML" via Internet Explorer's DOM API (§3.4); this crate is
//! the first half of our replacement: a lenient lexer
//! ([`lexer::lex`]), a tree builder ([`parser::parse`]), and an
//! arena-based [`dom::Document`] the layout engine walks, which borrows
//! the page's text instead of copying it.
//!
//! The dialect covered is the one 2004-era query forms actually used:
//! tables, inline formatting, forms and their widgets, with
//! browser-style recovery for unclosed/mismatched tags.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dom;
pub mod entity;
pub mod lexer;
pub mod parser;

pub use dom::{Attr, AttrRange, Document, Node, NodeData, NodeId};
pub use parser::parse;
