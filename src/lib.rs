//! # metaform
//!
//! A from-scratch Rust reproduction of *"Understanding Web Query
//! Interfaces: Best-Effort Parsing with Hidden Syntax"* (Zhen Zhang,
//! Bin He, Kevin Chen-Chuan Chang — SIGMOD 2004).
//!
//! The deep Web hides its data behind HTML query forms. This library
//! extracts a form's *semantic model* — its query conditions
//! `[attribute; operators; domain]` — by treating query interfaces as
//! a **visual language** with a hypothesized *hidden syntax*: a
//! **2P grammar** (productions + preferences) drives a **best-effort
//! parser** (just-in-time pruning, rollback, partial-tree
//! maximization), whose maximal parses a **merger** unions into the
//! final capability description.
//!
//! ## Quick start
//!
//! ```
//! use metaform::FormExtractor;
//!
//! let html = r#"
//!   <form>
//!     Author <input type="text" name="author"><br>
//!     Price <input type="text" name="lo" size="6"> to
//!           <input type="text" name="hi" size="6"><br>
//!     <input type="submit" value="Search">
//!   </form>"#;
//! let extraction = FormExtractor::new().extract(html);
//! for condition in &extraction.report.conditions {
//!     println!("{condition}");
//! }
//! assert_eq!(extraction.report.conditions.len(), 2);
//! ```
//!
//! ## Compile once, parse many
//!
//! Grammar validation and scheduling happen once, in
//! [`Grammar::compile`] (the global grammar is compiled once per
//! process, shared via [`global_compiled`]); parsing then runs through
//! reusable [`ParseSession`]s that recycle their chart and scratch
//! buffers. [`FormExtractor`] rides on this split: it is `Send + Sync`,
//! clones share the compiled grammar, and
//! [`FormExtractor::extract_batch_adaptive`] extracts a whole corpus
//! across worker threads with deterministic, input-ordered results.
//!
//! ## Fault isolation
//!
//! Every page runs behind its own panic boundary and per-page budgets
//! (instance cap, wall-clock deadline). Failures surface as a typed
//! [`ExtractError`] on the fallible [`FormExtractor::try_extract`]
//! or degrade to the proximity baseline (marked
//! [`Provenance::BaselineFallback`]) on the infallible APIs — one
//! poison page never kills a batch.
//!
//! Corpus runs go further: `FormExtractor::extract_batch_adaptive`
//! retries budget-limited pages under escalating budgets
//! ([`AdaptiveOptions`]), a [`CancelToken`] aborts a whole batch
//! mid-flight while keeping completed pages, and every page that
//! failed at least once is narrated as a JSON/CSV-serializable
//! [`FailureRecord`]. [`BudgetPreset`] seeds the first-pass budgets
//! per survey domain.
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | geometry, tokens, conditions, reports |
//! | [`html`] | from-scratch HTML lexer + DOM |
//! | [`layout`] | deterministic visual layout engine |
//! | [`tokenizer`] | laid-out DOM → visual tokens |
//! | [`grammar`] | the 2P grammar mechanism + the derived global grammar |
//! | [`parser`] | the best-effort parser + merger |
//! | [`extractor`] | the end-to-end pipeline + proximity baseline |
//! | [`datasets`] | synthetic evaluation datasets with ground truth |
//! | [`eval`] | metrics and experiment harness |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use metaform_core as core;
pub use metaform_datasets as datasets;
pub use metaform_eval as eval;
pub use metaform_extractor as extractor;
pub use metaform_grammar as grammar;
pub use metaform_html as html;
pub use metaform_layout as layout;
pub use metaform_parser as parser;
pub use metaform_tokenizer as tokenizer;

pub use metaform_core::{Condition, DomainKind, DomainSpec, ExtractionReport, Token, TokenKind};
pub use metaform_datasets::BudgetPreset;
pub use metaform_extractor::{
    AdaptiveBatch, AdaptiveOptions, BatchStats, ExtractError, Extraction, FailureRecord,
    FormExtractor, Provenance,
};
pub use metaform_grammar::{
    global_compiled, global_grammar, paper_example_grammar, CompiledGrammar, Grammar,
    GrammarBuilder, GrammarError,
};
pub use metaform_parser::{
    parse, parse_with, BudgetOutcome, CancelToken, ParseSession, ParserOptions,
};
