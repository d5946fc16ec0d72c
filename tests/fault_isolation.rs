//! Fault isolation in batch extraction: one poison page — panicking,
//! over-budget, or empty — must not kill the batch. The other N−1
//! pages must come back byte-identical to a sequential run, and the
//! failure must be visible in the per-page failure records and in the
//! `BatchStats` failure accounting.

use metaform::{AdaptiveBatch, AdaptiveOptions, BatchStats, FormExtractor, Provenance};
use metaform_datasets::basic;
use metaform_extractor::{ErrorKind, FailureRecord, Fault, FaultPlan};
use std::time::Duration;

/// The plain batch: one pass, no retries.
fn one_pass(extractor: &FormExtractor, pages: &[&str]) -> AdaptiveBatch {
    let opts = AdaptiveOptions {
        max_retries: 0,
        ..Default::default()
    };
    extractor.extract_batch_adaptive(pages, &opts)
}

/// A batch of real pages from the Basic dataset with one poison page
/// spliced into the middle.
fn pages_with_poison(poison: &str, at: usize) -> Vec<String> {
    let ds = basic();
    let mut pages: Vec<String> = ds.sources.iter().take(20).map(|s| s.html.clone()).collect();
    pages.insert(at, poison.to_string());
    pages
}

const POISON_AT: usize = 7;

#[test]
fn panicking_page_yields_error_slot_and_leaves_others_byte_identical() {
    let poison = "<form>PANIC_MARKER <input type=text name=p></form>";
    let pages = pages_with_poison(poison, POISON_AT);
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();

    let clean = FormExtractor::new().worker_threads(4);
    let poisoned = FormExtractor::new()
        .worker_threads(4)
        .fault_plan(FaultPlan::new().with(POISON_AT, Fault::Panic));

    let run = one_pass(&poisoned, &refs);
    assert_eq!(run.extractions.len(), refs.len());
    match run.failures.as_slice() {
        [FailureRecord {
            page_index,
            error: ErrorKind::Panicked,
            message: Some(message),
            ..
        }] => {
            assert_eq!(*page_index, POISON_AT);
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("only the poison page may fail, with Panicked; got {other:?}"),
    }

    // Every other page: a grammar-path result byte-identical to a
    // sequential run on a clean extractor.
    for (i, (batch, page)) in run.extractions.iter().zip(&refs).enumerate() {
        if i == POISON_AT {
            continue;
        }
        let sequential = clean.extract(page);
        assert_eq!(
            format!("{}", batch.report),
            format!("{}", sequential.report),
            "report of page {i} diverged from the sequential run"
        );
        assert_eq!(batch.tokens, sequential.tokens, "tokens of page {i}");
        assert_eq!(batch.stats.created, sequential.stats.created);
        assert_eq!(batch.via, Provenance::Grammar);
    }
}

#[test]
fn infallible_batch_degrades_the_poison_page_and_counts_it() {
    let poison = "<form>PANIC_MARKER <input type=text name=p></form>";
    let pages = pages_with_poison(poison, POISON_AT);
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();

    let poisoned = FormExtractor::new()
        .worker_threads(4)
        .fault_plan(FaultPlan::new().with(POISON_AT, Fault::Panic));
    let AdaptiveBatch {
        extractions, stats, ..
    } = one_pass(&poisoned, &refs);

    assert_eq!(extractions.len(), refs.len(), "no page is dropped");
    assert_eq!(stats.panicked, 1, "exactly one panicked page");
    assert_eq!(stats.degraded, 1, "exactly one degraded page");
    assert_eq!(stats.truncated, 0);
    assert_eq!(stats.timed_out, 0);
    assert_eq!(stats.empty, 0);
    assert_eq!(stats.failed(), 1);
    assert_eq!(stats.schedules_built, 0, "compile-once still holds");

    // The poison page still gets a best-effort (baseline) description.
    assert_eq!(extractions[POISON_AT].via, Provenance::BaselineFallback);
    assert!(
        !extractions[POISON_AT].report.conditions.is_empty(),
        "baseline fallback reads the form the grammar path never reached"
    );
    for (i, ex) in extractions.iter().enumerate() {
        if i != POISON_AT {
            assert_eq!(ex.via, Provenance::Grammar, "page {i} must not degrade");
        }
    }

    // The summary line carries the failure accounting.
    let line = stats.summary();
    assert!(line.contains("panicked=1"), "{line}");
    assert!(line.contains("degraded=1"), "{line}");
}

#[test]
fn deadline_blown_page_degrades_to_nonempty_report() {
    let ds = basic();
    let pages: Vec<&str> = ds.sources.iter().take(6).map(|s| s.html.as_str()).collect();

    // A zero deadline fails every page's grammar parse; the batch
    // still returns a degraded-but-nonempty report per page.
    let rushed = FormExtractor::new()
        .worker_threads(2)
        .page_deadline(Duration::ZERO);
    let AdaptiveBatch {
        extractions,
        stats,
        failures,
    } = one_pass(&rushed, &pages);
    assert_eq!(failures.len(), pages.len());
    for (i, r) in failures.iter().enumerate() {
        assert!(
            matches!(r, FailureRecord { page_index, error: ErrorKind::Timeout, .. } if *page_index == i),
            "page {i}: expected Timeout, got {r:?}"
        );
    }
    assert_eq!(stats.timed_out, pages.len());
    assert_eq!(stats.degraded, pages.len());
    for (i, ex) in extractions.iter().enumerate() {
        assert_eq!(ex.via, Provenance::BaselineFallback);
        assert!(
            !ex.report.conditions.is_empty(),
            "page {i}: degraded report must still describe the form"
        );
    }

    // A generous deadline changes nothing versus no deadline at all.
    let relaxed = FormExtractor::new()
        .worker_threads(2)
        .page_deadline(Duration::from_secs(600));
    let unbounded = FormExtractor::new().worker_threads(2);
    let a = one_pass(&relaxed, &pages);
    let b = one_pass(&unbounded, &pages);
    assert_eq!(a.stats.failed(), 0);
    assert_eq!(b.stats.failed(), 0);
    for (x, y) in a.extractions.iter().zip(&b.extractions) {
        assert_eq!(format!("{}", x.report), format!("{}", y.report));
    }
}

#[test]
fn truncated_page_is_counted_not_fatal() {
    let ds = basic();
    let pages: Vec<&str> = ds.sources.iter().take(4).map(|s| s.html.as_str()).collect();
    let capped = FormExtractor::new().worker_threads(2).max_instances(5);
    let AdaptiveBatch {
        extractions, stats, ..
    } = one_pass(&capped, &pages);
    assert_eq!(stats.truncated, pages.len());
    assert_eq!(stats.degraded, pages.len());
    assert_eq!(extractions.len(), pages.len());
    assert!(extractions
        .iter()
        .all(|e| e.via == Provenance::BaselineFallback));
}

#[test]
fn empty_and_default_batch_stats_are_coherent() {
    let stats = BatchStats::default();
    assert_eq!(stats.failed(), 0);
    let AdaptiveBatch {
        extractions: none,
        stats: empty,
        failures,
    } = one_pass(&FormExtractor::new(), &[]);
    assert!(none.is_empty());
    assert!(failures.is_empty());
    assert_eq!(empty.workers, 0, "empty batch spawns no workers");
    assert_eq!(empty.failed(), 0);
}
