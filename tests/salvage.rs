//! Salvage-tier acceptance: the degradation ladder on the truncation
//! corpus (the E17 setup — 60 Basic pages, first-pass instance cap
//! pinned at the corpus's 25th percentile so most pages truncate), the
//! dominance rule's determinism, and the guarantee that salvage never
//! alters what a clean parse of the same page produces.

use metaform_datasets::dataset::generate_source;
use metaform_datasets::{basic, domains, survey_corpus, GenParams};
use metaform_extractor::{
    condition_coverage, extract_baseline, token_coverage, AdaptiveOptions, BatchStats,
    FailureOutcome, FormExtractor, Provenance,
};
use metaform_parser::{FixpointMode, ParserOptions};
use std::time::Duration;

/// The E17 truncation corpus and its starved first-pass cap.
fn corpus() -> (Vec<String>, usize) {
    let ds = basic();
    let pages: Vec<String> = ds.sources.iter().take(60).map(|s| s.html.clone()).collect();
    let ex = FormExtractor::new();
    let mut created: Vec<usize> = pages.iter().map(|p| ex.extract(p).stats.created).collect();
    created.sort_unstable();
    let cap = created[pages.len() / 4].max(2);
    (pages, cap)
}

fn starved_batch(
    pages: &[String],
    cap: usize,
    workers: Option<usize>,
    fixpoint: FixpointMode,
) -> metaform_extractor::AdaptiveBatch {
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
    let mut ex = FormExtractor::new()
        .parser_options(ParserOptions {
            fixpoint,
            ..ParserOptions::default()
        })
        .max_instances(cap);
    if let Some(workers) = workers {
        ex = ex.worker_threads(workers);
    }
    ex.extract_batch_adaptive(
        &refs,
        &AdaptiveOptions {
            max_retries: 0,
            budget_growth: 2,
        },
    )
}

/// The headline acceptance pin: on the truncation corpus at zero
/// retries — where pre-salvage every budget-limited page degraded to
/// the proximity baseline — at least half of those pages are now
/// served as `PartialSalvage`, each with strictly better token
/// coverage than the baseline it displaced.
#[test]
fn truncation_corpus_salvages_at_least_half_of_what_used_to_degrade() {
    let (pages, cap) = corpus();
    let batch = starved_batch(&pages, cap, None, FixpointMode::default());

    // The p25 cap starves most of the corpus (45/60 in the E17 table).
    let failed = batch.stats.salvaged + batch.stats.degraded;
    assert!(
        failed >= pages.len() / 2,
        "expected a starved corpus, got {failed} budget failures: {}",
        batch.stats.summary()
    );

    // ≥ half of what used to degrade now rides the salvage tier.
    assert!(
        batch.stats.salvaged * 2 >= failed,
        "salvaged {} of {failed} budget-limited pages: {}",
        batch.stats.salvaged,
        batch.stats.summary()
    );

    // Every salvaged page respects the dominance rule against the
    // baseline it displaced: token coverage no worse, and the claims
    // eligibility gate (at least half the baseline's claimed tokens)
    // held.
    for (i, e) in batch.extractions.iter().enumerate() {
        if e.via != Provenance::PartialSalvage {
            continue;
        }
        let baseline = extract_baseline(&e.tokens);
        assert!(
            token_coverage(&e.report, e.tokens.len()) >= token_coverage(&baseline, e.tokens.len()),
            "page {i}: salvage served below baseline token coverage"
        );
        assert!(
            condition_coverage(&e.report) * 2 >= condition_coverage(&baseline),
            "page {i}: salvage served through the claims eligibility gate"
        );
    }
    let strictly_better = batch
        .extractions
        .iter()
        .filter(|e| e.via == Provenance::PartialSalvage)
        .filter(|e| {
            token_coverage(&e.report, e.tokens.len())
                > token_coverage(&extract_baseline(&e.tokens), e.tokens.len())
        })
        .count();
    assert!(
        strictly_better * 2 >= failed,
        "{strictly_better} salvaged pages strictly beat the baseline, of {failed} failures"
    );

    // The failure records narrate the salvage: coverage fields are
    // present exactly on salvaged outcomes, and the outcome counts
    // match the rollup.
    for record in &batch.failures {
        let salvaged = record.outcome == FailureOutcome::Salvaged;
        assert_eq!(
            record.salvage_covered.is_some(),
            salvaged,
            "page {}",
            record.page_index
        );
        assert_eq!(
            record.salvage_tokens.is_some(),
            salvaged,
            "page {}",
            record.page_index
        );
        if let (Some(covered), Some(tokens)) = (record.salvage_covered, record.salvage_tokens) {
            assert!(
                covered <= tokens,
                "coverage ratio over 1 on page {}",
                record.page_index
            );
        }
    }
    assert_eq!(
        batch
            .failures
            .iter()
            .filter(|r| r.outcome == FailureOutcome::Salvaged)
            .count(),
        batch.stats.salvaged
    );
}

/// The dominance rule is a pure function of the page's chart-so-far:
/// worker counts shuffle scheduling, not results, and both fix-point
/// modes build the same chart at the same cap.
#[test]
fn salvage_selection_is_deterministic_across_workers_and_fixpoints() {
    let (pages, cap) = corpus();
    let mut reference: Option<Vec<(Provenance, String)>> = None;
    for fixpoint in [FixpointMode::SemiNaive, FixpointMode::Naive] {
        for workers in [1, 3, 8] {
            let batch = starved_batch(&pages, cap, Some(workers), fixpoint);
            let shape: Vec<(Provenance, String)> = batch
                .extractions
                .iter()
                .map(|e| (e.via, e.report.to_string()))
                .collect();
            match &reference {
                None => reference = Some(shape),
                Some(want) => {
                    assert_eq!(want, &shape, "{fixpoint:?} at {workers} workers diverged")
                }
            }
        }
    }
}

/// Salvage reads the chart it inherits, never writes it: a page that
/// was salvaged re-runs at an unbounded budget byte-identical to the
/// clean parse taken before any salvage machinery touched the corpus —
/// and pages that completed inside the cap are untouched by the ladder
/// (no salvage on the happy path).
#[test]
fn a_salvaged_page_rerun_unbounded_matches_the_clean_parse() {
    let (pages, cap) = corpus();
    let clean = FormExtractor::new();
    let before: Vec<String> = pages
        .iter()
        .map(|p| clean.extract(p).report.to_string())
        .collect();

    let batch = starved_batch(&pages, cap, None, FixpointMode::default());
    let mut salvaged_checked = 0;
    for (i, e) in batch.extractions.iter().enumerate() {
        match e.via {
            Provenance::PartialSalvage => {
                let rerun = clean.extract(&pages[i]);
                assert_eq!(rerun.via, Provenance::Grammar, "page {i}");
                assert_eq!(
                    rerun.report.to_string(),
                    before[i],
                    "page {i}: salvage altered the clean parse"
                );
                salvaged_checked += 1;
            }
            Provenance::Grammar => {
                assert_eq!(
                    e.report.to_string(),
                    before[i],
                    "page {i}: a page inside the cap must match the clean parse"
                );
            }
            _ => {}
        }
    }
    assert!(salvaged_checked > 0, "the corpus salvaged nothing");
}

/// The whole ladder with retries on, at corpus scale: the survey
/// corpus plus generated pages from every core and NewDomain schema,
/// at instance cap 40 with one doubling retry. Each page equals
/// single-page extraction — at cap 40 when its first attempt
/// completed, at cap 80 (the retry's budget, settled down the ladder
/// if it fails again) otherwise — and the reports, provenance and
/// normalized failure records are identical across worker counts and
/// fix-point modes.
#[test]
fn retried_ladder_matches_single_page_extraction_at_corpus_scale() {
    const CAP: usize = 40;
    let mut pages: Vec<String> = survey_corpus().into_iter().map(|(_, html)| html).collect();
    let schemas = [
        domains::books(),
        domains::automobiles(),
        domains::airfares(),
    ]
    .into_iter()
    .map(|s| (s, GenParams::basic()))
    .chain(
        domains::new_domains()
            .into_iter()
            .map(|s| (s, GenParams::new_domain())),
    );
    for (schema, params) in schemas {
        pages.extend((0..3).map(|index| generate_source(&schema, index, 7, &params).html));
    }
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
    let opts = AdaptiveOptions {
        max_retries: 1,
        budget_growth: 2,
    };

    let first = FormExtractor::new().max_instances(CAP);
    let retry = FormExtractor::new().max_instances(CAP * 2);
    let want: Vec<(Provenance, String)> = pages
        .iter()
        .map(|page| {
            let e = first
                .try_extract(page)
                .unwrap_or_else(|_| retry.extract(page));
            (e.via, e.report.to_string())
        })
        .collect();

    let mut reference = None;
    for fixpoint in [FixpointMode::SemiNaive, FixpointMode::Naive] {
        for workers in [1, 2, 3] {
            let batch = FormExtractor::new()
                .parser_options(ParserOptions {
                    fixpoint,
                    ..ParserOptions::default()
                })
                .max_instances(CAP)
                .worker_threads(workers)
                .extract_batch_adaptive(&refs, &opts);
            let shape: Vec<(Provenance, String)> = batch
                .extractions
                .iter()
                .map(|e| (e.via, e.report.to_string()))
                .collect();
            for (i, (got, want)) in shape.iter().zip(&want).enumerate() {
                assert_eq!(got, want, "page {i} at {workers} workers, {fixpoint:?}");
            }
            let records: Vec<_> = batch.failures.iter().map(|r| r.normalized()).collect();
            // Worker count and wall time are the only counters allowed
            // to differ between runs.
            let stats = BatchStats {
                workers: 0,
                elapsed: Duration::ZERO,
                ..batch.stats
            };
            match &reference {
                None => {
                    // The corpus exercises every rung of the ladder.
                    assert!(
                        stats.recovered > 0 && stats.salvaged > 0 && stats.degraded > 0,
                        "{}",
                        stats.summary()
                    );
                    reference = Some((stats, records));
                }
                Some(want) => {
                    assert_eq!(want, &(stats, records), "{workers} workers, {fixpoint:?}")
                }
            }
        }
    }
}
