//! # metaform-datasets
//!
//! Seed-deterministic synthetic deep-Web sources with ground truth —
//! our substitute for the paper's TEL-8 / invisible-web.net collections
//! (see DESIGN.md §2 for the substitution argument). Provides:
//!
//! - the 25-entry condition-[`patterns`] catalog (21 in-grammar, 4
//!   withheld) with the survey's Zipf frequency profile;
//! - domain [`schema`]s for Books/Automobiles/Airfares, six NewDomain
//!   schemas, and 16 generic Random pools;
//! - page [`render`] templates (flow, table, staggered columns);
//! - the four evaluation [`dataset`]s: Basic (150), NewSource (30),
//!   NewDomain (42), Random (30);
//! - hand-written [`fixtures`] of the paper's Qam/Qaa figures;
//! - [`revisit`] scenarios: deterministic label-edit / row-insert /
//!   bbox-jitter mutations of the survey corpus, the workload for the
//!   parse-cache parity suite;
//! - the per-domain [`BudgetPreset`] table seeding the adaptive batch
//!   driver's first-pass parse budgets, with
//!   [`BudgetPreset::from_stats`] to recalibrate from a prior run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod domains;
pub mod fixtures;
pub mod patterns;
pub mod render;
pub mod revisit;
pub mod schema;
pub mod zipf;

pub use dataset::{
    all_datasets, basic, induction_split, new_domain, new_source, pinned_pages, random,
    survey_corpus, Dataset, GenParams, Source,
};
pub use domains::BudgetPreset;
pub use patterns::PatternId;
pub use revisit::{revisit_scenarios, MutationKind, RevisitScenario};
pub use schema::{Field, FieldKind, Schema};
