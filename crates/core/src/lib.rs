//! # metaform-core
//!
//! Shared vocabulary of the `metaform` form extractor — a Rust
//! reproduction of *"Understanding Web Query Interfaces: Best-Effort
//! Parsing with Hidden Syntax"* (Zhang, He & Chang, SIGMOD 2004).
//!
//! This crate defines the types every other crate speaks:
//!
//! - [`geom::BBox`] — integer pixel bounding boxes (`pos` attributes);
//! - [`relations`] — the topological predicates (left/above adjacency,
//!   alignment) that 2P-grammar productions are written in;
//! - [`token::Token`] / [`token::TokenKind`] — visual tokens, the
//!   terminal alphabet;
//! - [`text::Text`] / [`text::TextList`] — shared strings, carried
//!   from a token into the parse payloads built over it;
//! - [`condition::Condition`] — the semantic model `[attribute;
//!   operators; domain]`;
//! - [`report::ExtractionReport`] — extractor output with conflict and
//!   missing-element errors;
//! - [`fingerprint::TokenFingerprint`] — content-addressed identity of
//!   a token stream, keying the revisit parse cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod condition;
pub mod fingerprint;
pub mod geom;
pub mod relations;
pub mod report;
pub mod text;
pub mod token;

pub use condition::{Condition, DomainKind, DomainSpec};
pub use fingerprint::TokenFingerprint;
pub use geom::BBox;
pub use relations::Proximity;
pub use report::{Conflict, ExtractionReport};
pub use text::{empty_list, empty_text, share, Text, TextList};
pub use token::{normalize_label, trim_label, Token, TokenId, TokenKind};
