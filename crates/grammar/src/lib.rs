//! # metaform-grammar
//!
//! The **2P grammar** mechanism (paper §4): a grammar is a 5-tuple
//! ⟨Σ, N, s, Pd, Pf⟩ where productions *Pd* declaratively capture
//! condition patterns via spatial constraints, and preferences *Pf*
//! capture their precedence for ambiguity resolution. This crate
//! provides:
//!
//! - the declarative machinery ([`Constraint`], [`Constructor`],
//!   [`Production`], [`Preference`], [`GrammarBuilder`]);
//! - the **2P schedule graph** ([`schedule::build_schedule`]): d-edges
//!   (children before parents) merged with r-edges (winners before
//!   losers), with the r-edge *transformation* of paper Figure 13 and
//!   greedy cycle avoidance;
//! - the **derived global grammar** ([`global::global_grammar`])
//!   reproducing the paper's 21-pattern catalog, and the Figure 6
//!   example grammar *G*, both loaded from their textual artifacts
//!   (`grammars/*.2pg`, see [`dsl`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod constraint;
pub mod constructor;
pub mod describe;
pub mod dsl;
pub mod global;
pub mod grammar;
pub mod induce;
pub mod payload;
pub mod preference;
pub mod production;
pub mod schedule;
pub mod symbol;

pub use compiled::{compile_count, CompiledGrammar, SlotTable};
pub use constraint::{Constraint, DepthTerms, Hoisted, Pred, View};
pub use constructor::Constructor;
pub use describe::schedule_to_dot;
pub use dsl::{from_dsl, to_dsl, DslError};
pub use global::{global_compiled, global_grammar, paper_example_grammar};
pub use grammar::{Grammar, GrammarBuilder, GrammarError};
pub use induce::{
    mine_page, synthesize, synthesize_all, Arrangement, ArrangementBook, Candidate, Cluster,
    PatternSpan,
};
pub use payload::{Cond, Domain, Payload, PayloadTable, Texts};
pub use preference::{ConflictCond, PrefId, Preference, WinCriteria};
pub use production::{ProdId, Production};
pub use schedule::{build_schedule, schedule_build_count, Schedule};
pub use symbol::{SymbolId, SymbolKind, SymbolTable};
