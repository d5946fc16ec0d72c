//! # metaform-parser
//!
//! The **best-effort parser** for 2P grammars (paper §5): a fix-point
//! bottom-up parser that, instead of insisting on a single perfect
//! parse, (a) prunes wrong interpretations as much and as early as
//! possible — *just-in-time pruning* via the 2P schedule, with
//! *rollback* compensating dropped r-edges — and (b) interprets the
//! input as much as possible — *partial tree maximization* by maximum
//! subsumption. The companion **merger** unions the maximal trees'
//! conditions into the final semantic model and reports conflicts and
//! missing elements.
//!
//! The exhaustive baseline of §4.2.1 is available through
//! [`ParserOptions::brute_force`] for the ambiguity experiments.
//!
//! ## Compile once, parse many
//!
//! Parsing splits into a fallible *compile* step and an infallible
//! *parse* step. [`metaform_grammar::Grammar::compile`] validates and
//! schedules a grammar once, yielding an immutable
//! `CompiledGrammar`; a [`ParseSession`] then parses any number of
//! token sequences under it, recycling its chart and scratch buffers
//! between parses. The free functions [`parse`] and [`parse_with`]
//! are one-shot conveniences that compile the grammar and run a fresh
//! session per call — correct, but the wrong tool for batch workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod consistency;
pub mod display;
pub mod engine;
pub mod instance;
pub mod maximize;
pub mod merger;
pub mod partial;
pub mod session;
pub mod stats;
pub mod tokenset;

pub use cancel::CancelToken;
pub use consistency::{check_preferences, check_preferences_compiled, Consistency};
pub use display::render_tree;
pub use engine::{parse, parse_with, FixpointMode, ParseResult, ParserOptions, PreferenceOrder};
pub use instance::{Chart, InstId, ParentIter};
pub use maximize::{maximize, maximize_naive};
pub use merger::{merge, salvage_merge};
pub use partial::{pattern_spans, tree_symbols};
pub use session::{ChartSnapshot, ParseSession};
pub use stats::{BudgetOutcome, ParseStats, PhaseBreakdown};
pub use tokenset::{TokenSet, INLINE_TOKENS};
