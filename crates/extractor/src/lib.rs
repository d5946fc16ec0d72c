//! # metaform-extractor
//!
//! The end-to-end **form extractor** (paper Figure 2): given an HTML
//! query form, produce its query capabilities — the set of conditions
//! `[attribute; operators; domain]` — by running the layout engine,
//! tokenizer, best-effort parser (under the derived 2P grammar), and
//! merger in sequence.
//!
//! ```
//! use metaform_extractor::FormExtractor;
//!
//! let html = "<form>Author <input type=text name=q>\
//!             <input type=submit value=Search></form>";
//! let extraction = FormExtractor::new().extract(html);
//! assert_eq!(extraction.report.conditions.len(), 1);
//! assert_eq!(extraction.report.conditions[0].attribute, "Author");
//! ```
//!
//! Also includes the pairwise-proximity [`baseline`] comparator used in
//! the evaluation.
//!
//! ## Compile once, parse many
//!
//! A `FormExtractor` compiles its grammar exactly once (the global
//! grammar is compiled once *per process*) and shares the artifact
//! behind an `Arc`. Single pages go through [`FormExtractor::extract`];
//! whole corpora go through [`FormExtractor::extract_batch_adaptive`],
//! which fans pages out over worker threads — one parse session per
//! worker, deterministic input-order results (see [`batch`]).
//!
//! ## Fault isolation and graceful degradation
//!
//! Extraction is best-effort end to end: every page runs behind its
//! own panic boundary and per-page budgets (instance cap and
//! wall-clock deadline). [`FormExtractor::try_extract`] surfaces a
//! failure as a typed [`ExtractError`]; the infallible APIs settle
//! failed pages down a degradation ladder and mark the provenance: the
//! maximized partial grammar-path report when it dominates the
//! proximity baseline ([`Provenance::PartialSalvage`], scored by
//! [`condition_coverage`]), the [`baseline`] extractor otherwise
//! ([`Provenance::BaselineFallback`]). One poison page never kills a
//! batch and callers always get *some* capability description. A
//! deterministic [`FaultPlan`] can inject panic/stall/cancel faults at
//! chosen page indices to exercise the whole ladder without timing
//! races.
//!
//! ## Adaptive retries, cancellation, telemetry
//!
//! Budget failures are verdicts on the budget, not the page:
//! [`FormExtractor::extract_batch_adaptive`] re-runs only the
//! `Truncated`/`Timeout` pages under escalating budgets
//! ([`AdaptiveOptions`]) before degrading the survivors. A
//! [`metaform_parser::CancelToken`] attached via
//! [`FormExtractor::cancel_token`] aborts a whole batch mid-flight
//! while keeping completed pages. Every page that failed at least once
//! is narrated as a [`FailureRecord`] — JSON/CSV-serializable via
//! [`telemetry`], over the workspace's one JSON codec ([`json`]) — so
//! corpus runs leave a machine-readable failure trail instead of log
//! lines.
//!
//! ## Revisit path: parse cache
//!
//! Crawler-scale deployments re-extract pages that are identical to a
//! prior visit. An extractor built with [`FormExtractor::parse_cache`]
//! replays an unchanged page's cached report in O(hash)
//! ([`Provenance::CacheHit`]) and parses every other page cold. A
//! replay is byte-identical to a cold parse — the cache-parity
//! invariant the `cache_parity` suite enforces — and [`BatchStats`]
//! counts hits/misses per batch (see [`cache`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod batch;
pub mod cache;
pub mod error;
pub mod json;
pub mod pipeline;
pub mod resolve;
pub mod telemetry;

pub use baseline::extract_baseline;
pub use batch::{AdaptiveBatch, AdaptiveOptions, BatchStats};
pub use cache::{CachedVisit, LruParseCache, ParseCache};
pub use error::ExtractError;
pub use pipeline::{
    condition_coverage, token_coverage, Extraction, Fault, FaultPlan, FormExtractor, Provenance,
};
pub use resolve::{attach_missing, resolve_conflicts, DomainKnowledge};
pub use telemetry::{
    failures_from_json, failures_to_csv, failures_to_json, stats_from_json, stats_to_json,
    AttemptRecord, CacheOutcome, ErrorKind, FailureOutcome, FailureRecord,
};
