//! Cross-thread determinism of `FormExtractor::extract_batch_adaptive`
//! (one pass, no retries): over
//! the Basic dataset, a parallel run with several workers must produce
//! byte-identical reports and tokens, in input order, to a sequential
//! run — parallelism may only change wall-clock time.

use metaform::{AdaptiveBatch, AdaptiveOptions, FormExtractor};
use metaform_datasets::basic;

/// The plain batch: one pass, no retries.
fn one_pass(extractor: &FormExtractor, pages: &[&str]) -> AdaptiveBatch {
    let opts = AdaptiveOptions {
        max_retries: 0,
        ..Default::default()
    };
    extractor.extract_batch_adaptive(pages, &opts)
}

#[test]
fn parallel_batch_is_byte_identical_to_sequential_over_basic() {
    let ds = basic();
    let pages: Vec<&str> = ds.sources.iter().map(|s| s.html.as_str()).collect();

    let extractor = FormExtractor::new().worker_threads(4);
    let sequential: Vec<_> = pages.iter().map(|p| extractor.extract(p)).collect();
    let AdaptiveBatch {
        extractions: parallel,
        stats,
        failures,
    } = one_pass(&extractor, &pages);
    assert!(failures.is_empty());

    assert!(
        stats.workers >= 2,
        "the determinism claim needs real parallelism"
    );
    assert_eq!(stats.pages, pages.len());
    assert_eq!(stats.schedules_built, 0, "compile-once violated");
    assert_eq!(
        stats.failed(),
        0,
        "no curated page fails: {}",
        stats.summary()
    );
    assert_eq!(stats.degraded, 0, "no curated page degrades");
    assert_eq!(parallel.len(), sequential.len());
    for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
        assert_eq!(
            format!("{}", p.report),
            format!("{}", s.report),
            "report of page {i} diverged"
        );
        assert_eq!(p.tokens, s.tokens, "tokens of page {i} diverged");
        assert_eq!(p.stats.trees, s.stats.trees, "trees of page {i} diverged");
        assert_eq!(p.stats.created, s.stats.created);
        assert_eq!(p.stats.invalidated, s.stats.invalidated);
    }

    // The rollup is itself deterministic (timing aside).
    let again = one_pass(&extractor, &pages).stats;
    assert_eq!(
        (stats.tokens, stats.created, stats.invalidated, stats.trees),
        (again.tokens, again.created, again.invalidated, again.trees)
    );
}

#[test]
fn worker_count_does_not_change_results() {
    let ds = basic();
    let pages: Vec<&str> = ds
        .sources
        .iter()
        .take(24)
        .map(|s| s.html.as_str())
        .collect();
    let one = one_pass(&FormExtractor::new().worker_threads(1), &pages);
    let many = one_pass(&FormExtractor::new().worker_threads(8), &pages);
    for (a, b) in one.extractions.iter().zip(&many.extractions) {
        assert_eq!(format!("{}", a.report), format!("{}", b.report));
    }
}
