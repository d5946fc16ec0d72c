//! The cache-parity invariant: a report served through the parse
//! cache is **byte-identical** to a cold parse of the same page. The
//! cache has one tier, the exact hit, so a revisit either replays a
//! completed parse of the same tokens or parses cold.
//!
//! Coverage:
//!
//! - every survey-corpus page, revisited unchanged (exact-hit tier);
//! - every deterministic revisit scenario (label edit, row insertion,
//!   bbox jitter) against a cache primed with the original, on the
//!   survey corpus and on generated pages of all 25 schemas;
//! - both fix-point schedules;
//! - random multi-edit mutation scripts (property test), because the
//!   hand-picked scenarios are single edits.

use metaform_datasets::revisit::{bbox_jitter, insert_row, label_edit};
use metaform_datasets::{
    dataset::generate_source, domains, revisit_scenarios, survey_corpus, GenParams,
};
use metaform_extractor::{FormExtractor, LruParseCache, Provenance};
use metaform_parser::{FixpointMode, ParserOptions};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

const MODES: [FixpointMode; 2] = [FixpointMode::SemiNaive, FixpointMode::Naive];

fn opts(mode: FixpointMode) -> ParserOptions {
    ParserOptions {
        fixpoint: mode,
        ..ParserOptions::default()
    }
}

fn cold_extractor(mode: FixpointMode) -> FormExtractor {
    FormExtractor::new().parser_options(opts(mode))
}

fn cached_extractor(mode: FixpointMode) -> FormExtractor {
    cold_extractor(mode).parse_cache(Arc::new(LruParseCache::new(256)))
}

/// Asserts the cached-path extraction matches the cold one byte for
/// byte — the report document *and* the typed report.
fn assert_parity(
    cold: &metaform_extractor::Extraction,
    warm: &metaform_extractor::Extraction,
    label: &str,
) {
    assert_eq!(
        cold.report.to_string(),
        warm.report.to_string(),
        "{label}: rendered reports diverged (warm via {:?})",
        warm.via
    );
    assert_eq!(cold.report, warm.report, "{label}: typed reports diverged");
}

#[test]
fn unchanged_revisits_replay_byte_identically() {
    for mode in MODES {
        let cold = cold_extractor(mode);
        let cached = cached_extractor(mode);
        for (name, html) in survey_corpus() {
            let label = format!("{name} [{mode:?}]");
            let first = cached.extract(&html);
            assert_parity(&cold.extract(&html), &first, &label);
            let revisit = cached.extract(&html);
            assert_eq!(
                revisit.via,
                Provenance::CacheHit,
                "{label}: unchanged revisit must hit"
            );
            assert_parity(&first, &revisit, &label);
        }
    }
}

#[test]
fn mutated_revisits_match_a_cold_parse() {
    let scenarios = revisit_scenarios();
    assert!(!scenarios.is_empty());
    for mode in MODES {
        let cold = cold_extractor(mode);
        for scenario in &scenarios {
            // A fresh cache per scenario holds only this scenario's
            // original visit.
            let cached = cached_extractor(mode);
            cached.extract(&scenario.original);
            let warm = cached.extract(&scenario.mutated);
            assert_ne!(
                warm.via,
                Provenance::BaselineFallback,
                "{}: revisit degraded",
                scenario.name
            );
            assert_parity(
                &cold.extract(&scenario.mutated),
                &warm,
                &format!("{} [{mode:?}]", scenario.name),
            );
        }
    }
}

/// The 25 generator schemas with their parameters: the three core
/// domains, the new domains and the random-topic pools.
fn generator_schemas() -> Vec<(metaform_datasets::Schema, GenParams)> {
    let core = [
        domains::books(),
        domains::automobiles(),
        domains::airfares(),
    ];
    core.into_iter()
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
        )
        .collect()
}

#[test]
fn generated_revisits_match_a_cold_parse() {
    // The survey corpus alone is too narrow: generated pages reach
    // layouts it never does. Every one-edit revisit of pages 0–7 of
    // every schema, under two seeds, primes a fresh cache with the
    // original and must then serve the edit exactly as a cold parse.
    let schemas = generator_schemas();
    assert_eq!(schemas.len(), 25);
    type Edit = fn(&str) -> Option<String>;
    let edits: [(&str, Edit); 3] = [
        ("insert_row", insert_row),
        ("label_edit", label_edit),
        ("bbox_jitter", bbox_jitter),
    ];
    let (mut pairs, mut diverged) = (0, Vec::new());
    for mode in MODES {
        let cold = cold_extractor(mode);
        for (schema, params) in &schemas {
            for seed in 1..=2 {
                for page in 0..8 {
                    let original = generate_source(schema, page, seed, params).html;
                    for (edit, apply) in edits {
                        let Some(mutated) = apply(&original) else {
                            continue;
                        };
                        let cached = cached_extractor(mode);
                        cached.extract(&original);
                        let (warm, cold) = (cached.extract(&mutated), cold.extract(&mutated));
                        if warm.report.to_string() != cold.report.to_string()
                            || warm.report != cold.report
                        {
                            diverged.push(format!(
                                "{} p{page} s{seed} {edit} [{mode:?}] via {:?}",
                                schema.name, warm.via
                            ));
                        }
                        pairs += 1;
                    }
                }
            }
        }
    }
    assert!(pairs >= 2000, "only {pairs} revisit pairs generated");
    assert!(
        diverged.is_empty(),
        "{} of {pairs} revisits differ from a cold parse:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}

proptest! {
    // Each case runs four parses per mode; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mutation scripts: compose 1–3 edits onto a corpus page,
    /// prime the cache with the original, and require the revisit to
    /// be byte-identical to a cold parse of the final form.
    #[test]
    fn random_mutation_scripts_preserve_parity(
        page in 0usize..33,
        script in vec(0usize..3, 1..4),
    ) {
        let corpus = survey_corpus();
        let (name, original) = &corpus[page % corpus.len()];
        let mut mutated = original.clone();
        for step in &script {
            let next = match step {
                0 => label_edit(&mutated),
                1 => insert_row(&mutated),
                _ => bbox_jitter(&mutated),
            };
            if let Some(next) = next {
                mutated = next;
            }
        }
        for mode in MODES {
            let cached = cached_extractor(mode);
            cached.extract(original);
            let warm = cached.extract(&mutated);
            let cold = cold_extractor(mode).extract(&mutated);
            prop_assert_eq!(
                cold.report.to_string(),
                warm.report.to_string(),
                "{} script {:?} [{:?}] diverged via {:?}",
                name, script, mode, warm.via
            );
        }
    }
}
