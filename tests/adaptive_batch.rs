//! Adaptive batch extraction: bounded retry escalation must recover
//! every budget-limited page that a bigger budget can parse, must
//! never retry pages a bigger budget cannot help, must degrade with
//! honest provenance when retries run out, and must stop cleanly —
//! keeping completed pages — when the batch-level cancel token fires.
//! The failure telemetry narrating all of this must round-trip through
//! its JSON serialization.

use metaform::{AdaptiveOptions, BudgetPreset, CancelToken, FormExtractor, Provenance};
use metaform_datasets::basic;
use metaform_extractor::{
    failures_from_json, failures_to_json, ErrorKind, FailureOutcome, Fault, FaultPlan,
};

/// A batch of real pages from the Basic dataset.
fn dataset_pages(n: usize) -> Vec<String> {
    basic()
        .sources
        .iter()
        .take(n)
        .map(|s| s.html.clone())
        .collect()
}

/// Instances a clean, unbounded parse of `page` creates — the basis
/// for picking caps that truncate on the first pass and complete after
/// one doubling.
fn created_unbounded(page: &str) -> usize {
    let ex = FormExtractor::new()
        .try_extract(page)
        .expect("page parses clean");
    ex.stats.created
}

#[test]
fn truncated_page_recovers_on_retry_byte_identical_to_one_shot() {
    // Seven tiny forms plus one rich dataset page: a cap pinned to the
    // rich page's needs truncates it alone.
    let rich = dataset_pages(1).remove(0);
    let target = 3;
    let mut pages: Vec<String> = (0..7)
        .map(|i| format!("<form>Field{i} <input type=text name=f{i}></form>"))
        .collect();
    pages.insert(target, rich);
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
    let n = created_unbounded(refs[target]);
    assert!(n > 4, "need a nontrivial page, got {n} instances");
    // A cap of n/2+1 truncates the target page (n >= cap); one 2×
    // escalation lifts the cap past n, so the retry completes. The
    // tiny pages must stay under the cap to keep the test focused.
    let cap = n / 2 + 1;
    for (i, page) in refs.iter().enumerate() {
        if i != target {
            assert!(
                created_unbounded(page) < cap,
                "page {i} would also truncate; the rich page is not rich enough"
            );
        }
    }

    let capped = FormExtractor::new().worker_threads(2).max_instances(cap);
    let batch = capped.extract_batch_adaptive(&refs, &AdaptiveOptions::default());

    assert_eq!(batch.stats.retried, 1, "only the truncated page re-runs");
    assert_eq!(batch.stats.recovered, 1);
    assert_eq!(batch.stats.failed(), 0, "recovery means no final failure");
    assert_eq!(batch.stats.degraded, 0);
    assert_eq!(batch.extractions[target].via, Provenance::Grammar);

    // The recovered page is byte-identical to a one-shot run at the
    // retry's budget (the parser is deterministic, and a retry is a
    // fresh full parse — not a resumed one).
    let one_shot = FormExtractor::new()
        .max_instances(cap * 2)
        .try_extract(refs[target])
        .expect("one-shot at the escalated budget completes");
    let recovered = &batch.extractions[target];
    assert_eq!(
        format!("{}", recovered.report),
        format!("{}", one_shot.report)
    );
    assert_eq!(recovered.tokens, one_shot.tokens);
    assert_eq!(recovered.stats.created, one_shot.stats.created);

    // The record narrates the whole story under the original index.
    assert_eq!(batch.failures.len(), 1);
    let record = &batch.failures[0];
    assert_eq!(record.page_index, target);
    assert_eq!(record.error, ErrorKind::Truncated);
    assert_eq!(record.outcome, FailureOutcome::Recovered);
    assert_eq!(record.attempts, 2);
    assert_eq!(record.final_max_instances, cap * 2);
    assert_eq!(record.attempt_log.len(), 2);
    assert_eq!(record.attempt_log[0].attempt, 0);
    assert_eq!(record.attempt_log[0].max_instances, cap);
    assert_eq!(record.attempt_log[0].error, Some(ErrorKind::Truncated));
    assert_eq!(record.attempt_log[0].created, cap, "truncated at the cap");
    assert_eq!(record.attempt_log[1].attempt, 1);
    assert_eq!(record.attempt_log[1].max_instances, cap * 2);
    assert_eq!(record.attempt_log[1].error, None);
    assert_eq!(record.attempt_log[1].created, n);
}

#[test]
fn panicked_and_empty_pages_are_never_retried() {
    let mut pages = dataset_pages(6);
    pages.insert(
        2,
        "<form>PANIC_MARKER <input type=text name=p></form>".into(),
    );
    pages.insert(4, "<form></form>".into());
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();

    let extractor = FormExtractor::new()
        .worker_threads(2)
        .fault_plan(FaultPlan::new().with(2, Fault::Panic));
    let batch = extractor.extract_batch_adaptive(
        &refs,
        &AdaptiveOptions {
            max_retries: 3,
            budget_growth: 2,
        },
    );

    assert_eq!(batch.stats.retried, 0, "nothing here is budget-limited");
    assert_eq!(batch.stats.recovered, 0);
    assert_eq!(batch.stats.panicked, 1);
    assert_eq!(batch.stats.empty, 1);
    assert_eq!(batch.stats.degraded, 2);
    assert_eq!(batch.failures.len(), 2);
    for record in &batch.failures {
        assert_eq!(record.attempts, 1, "exactly one attempt, never retried");
        assert_eq!(record.attempt_log.len(), 1);
        assert_eq!(record.outcome, FailureOutcome::Degraded);
    }
    let panicked = &batch.failures[0];
    assert_eq!(panicked.page_index, 2);
    assert_eq!(panicked.error, ErrorKind::Panicked);
    assert!(
        panicked
            .message
            .as_deref()
            .unwrap_or("")
            .contains("injected fault"),
        "{:?}",
        panicked.message
    );
    let empty = &batch.failures[1];
    assert_eq!(empty.page_index, 4);
    assert_eq!(empty.error, ErrorKind::EmptyForm);
    assert_eq!(batch.extractions[2].via, Provenance::BaselineFallback);
}

#[test]
fn exhausted_retries_degrade_with_baseline_provenance() {
    let pages = dataset_pages(4);
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
    // A cap of 3, escalated once to 6, is still far below what any
    // real page needs: every page exhausts its retries.
    let starved = FormExtractor::new().worker_threads(2).max_instances(3);
    let batch = starved.extract_batch_adaptive(
        &refs,
        &AdaptiveOptions {
            max_retries: 1,
            budget_growth: 2,
        },
    );

    assert_eq!(batch.stats.retried, refs.len(), "every page got its retry");
    assert_eq!(batch.stats.recovered, 0);
    assert_eq!(batch.stats.truncated, refs.len());
    assert_eq!(batch.stats.degraded, refs.len());
    assert_eq!(batch.failures.len(), refs.len());
    for (i, record) in batch.failures.iter().enumerate() {
        assert_eq!(record.page_index, i, "original index survives the subset");
        assert_eq!(record.outcome, FailureOutcome::Degraded);
        assert_eq!(record.attempts, 2);
        assert_eq!(record.final_max_instances, 6);
        assert_eq!(record.attempt_log[0].max_instances, 3);
        assert_eq!(record.attempt_log[1].max_instances, 6);
        assert_eq!(record.attempt_log[1].error, Some(ErrorKind::Truncated));
    }
    for ex in &batch.extractions {
        assert_eq!(ex.via, Provenance::BaselineFallback);
        assert!(
            !ex.report.conditions.is_empty(),
            "degraded pages still get a best-effort description"
        );
    }
}

#[test]
fn cancellation_mid_batch_keeps_completed_pages() {
    let mut pages = dataset_pages(8);
    // The planned Cancel page fires the token just before its own
    // parse; with one worker, everything before it is already complete
    // and everything after it is skipped by the pre-parse check. The
    // cancel page itself is rich enough that its parse is guaranteed
    // to reach a sampled poll and observe the cancellation.
    let cancel_page = 3;
    pages.insert(cancel_page, dataset_pages(1).remove(0));
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
    let plan = || FaultPlan::new().with(cancel_page, Fault::Cancel);

    let token = CancelToken::new();
    let extractor = FormExtractor::new()
        .worker_threads(1)
        .cancel_token(token.clone())
        .fault_plan(plan());
    let batch = extractor.extract_batch_adaptive(&refs, &AdaptiveOptions::default());
    assert!(token.is_cancelled(), "the cancel page fired the token");

    // Pages before the cancel page completed and keep their results.
    for i in 0..cancel_page {
        assert_eq!(batch.extractions[i].via, Provenance::Grammar, "page {i}");
    }
    // The cancel page and everything after it were cancelled, never
    // retried, and served by the baseline.
    let cancelled = refs.len() - cancel_page;
    assert_eq!(batch.stats.cancelled, cancelled);
    assert_eq!(batch.stats.degraded, cancelled);
    assert_eq!(batch.stats.retried, 0, "a cancelled batch never retries");
    assert_eq!(batch.stats.failed(), cancelled);
    assert_eq!(batch.failures.len(), cancelled);
    for (offset, record) in batch.failures.iter().enumerate() {
        assert_eq!(record.page_index, cancel_page + offset);
        assert_eq!(record.error, ErrorKind::Cancelled);
        assert_eq!(record.outcome, FailureOutcome::Cancelled);
        assert_eq!(record.attempts, 1);
    }
    for i in cancel_page..refs.len() {
        assert_eq!(batch.extractions[i].via, Provenance::BaselineFallback);
    }

    // A one-pass run tells the same story.
    let token2 = CancelToken::new();
    let extractor2 = FormExtractor::new()
        .worker_threads(1)
        .cancel_token(token2)
        .fault_plan(plan());
    let one_pass = AdaptiveOptions {
        max_retries: 0,
        ..Default::default()
    };
    let run = extractor2.extract_batch_adaptive(&refs, &one_pass);
    for i in 0..cancel_page {
        assert_eq!(
            run.extractions[i].via,
            Provenance::Grammar,
            "page {i} completed before the token fired"
        );
    }
    let failed: Vec<(usize, ErrorKind)> = run
        .failures
        .iter()
        .map(|r| (r.page_index, r.error))
        .collect();
    let expected: Vec<(usize, ErrorKind)> = (cancel_page..refs.len())
        .map(|i| (i, ErrorKind::Cancelled))
        .collect();
    assert_eq!(
        failed, expected,
        "every page from the cancel page on is Cancelled"
    );
}

#[test]
fn a_budget_failure_before_the_cancel_still_retries() {
    // One worker runs each page's whole ladder before claiming the
    // next: page 1 truncates at the cap and retries at twice the cap
    // before page 4 fires the token, so it recovers — and pages from 4
    // on are cancelled.
    let rich = dataset_pages(1).remove(0);
    let n = created_unbounded(&rich);
    let cap = n / 2 + 1;
    let tiny = |i: usize| format!("<form>Field{i} <input type=text name=f{i}></form>");
    let pages = [
        tiny(0),
        rich.clone(),
        tiny(2),
        tiny(3),
        rich,
        tiny(5),
        tiny(6),
    ];
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
    for i in [0, 2, 3] {
        assert!(
            created_unbounded(refs[i]) < cap,
            "page {i} must fit the cap"
        );
    }

    let token = CancelToken::new();
    let batch = FormExtractor::new()
        .worker_threads(1)
        .max_instances(cap)
        .cancel_token(token.clone())
        .fault_plan(FaultPlan::new().with(4, Fault::Cancel))
        .extract_batch_adaptive(
            &refs,
            &AdaptiveOptions {
                max_retries: 1,
                budget_growth: 2,
            },
        );
    assert!(token.is_cancelled(), "page 4 fired the token");

    let recovered = &batch.failures[0];
    assert_eq!(recovered.page_index, 1);
    assert_eq!(recovered.outcome, FailureOutcome::Recovered);
    assert_eq!(recovered.attempts, 2);
    assert_eq!(recovered.attempt_log[0].error, Some(ErrorKind::Truncated));
    assert_eq!(recovered.attempt_log[1].max_instances, cap * 2);
    assert_eq!(batch.extractions[1].via, Provenance::Grammar);
    assert_eq!(batch.stats.recovered, 1);
    assert_eq!(batch.stats.retried, 1);

    let cancelled: Vec<(usize, ErrorKind, FailureOutcome)> = batch.failures[1..]
        .iter()
        .map(|r| (r.page_index, r.error, r.outcome))
        .collect();
    let expected: Vec<(usize, ErrorKind, FailureOutcome)> = (4..refs.len())
        .map(|i| (i, ErrorKind::Cancelled, FailureOutcome::Cancelled))
        .collect();
    assert_eq!(cancelled, expected);
    assert_eq!(batch.stats.cancelled, refs.len() - 4);
    for i in [0, 2, 3] {
        assert_eq!(batch.extractions[i].via, Provenance::Grammar, "page {i}");
    }
}

#[test]
fn adaptive_results_are_deterministic_across_worker_counts() {
    let pages = dataset_pages(10);
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
    let target = 5;
    let cap = created_unbounded(refs[target]) / 2 + 1;

    let run = |workers: usize| {
        FormExtractor::new()
            .worker_threads(workers)
            .max_instances(cap)
            .extract_batch_adaptive(&refs, &AdaptiveOptions::default())
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.extractions.len(), four.extractions.len());
    for (a, b) in one.extractions.iter().zip(&four.extractions) {
        assert_eq!(format!("{}", a.report), format!("{}", b.report));
        assert_eq!(a.via, b.via);
        assert_eq!(a.stats.created, b.stats.created);
    }
    // Telemetry agrees too, up to wall-clock noise.
    let normalize = |batch: &metaform::AdaptiveBatch| {
        batch
            .failures
            .iter()
            .map(|r| r.normalized())
            .collect::<Vec<_>>()
    };
    assert_eq!(normalize(&one), normalize(&four));
    assert_eq!(one.stats.retried, four.stats.retried);
    assert_eq!(one.stats.recovered, four.stats.recovered);
}

#[test]
fn real_failure_records_round_trip_through_json() {
    let mut pages = dataset_pages(5);
    pages.push("<form>PANIC_MARKER <input type=text name=p></form>".into());
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
    let cap = created_unbounded(refs[1]) / 2 + 1;
    let batch = FormExtractor::new()
        .worker_threads(2)
        .max_instances(cap)
        .fault_plan(FaultPlan::new().with(refs.len() - 1, Fault::Panic))
        .extract_batch_adaptive(&refs, &AdaptiveOptions::default());
    assert!(
        !batch.failures.is_empty(),
        "the batch was built to produce telemetry"
    );

    let json = failures_to_json(&batch.failures);
    let parsed = failures_from_json(&json).expect("serializer output parses");
    assert_eq!(parsed, batch.failures, "lossless round trip");
}

#[test]
fn budget_presets_calibrated_from_a_run_keep_the_rerun_clean() {
    let pages = dataset_pages(10);
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();

    // Observe a clean run, derive a preset, and rerun under it: the
    // derived budgets carry enough headroom that the first pass
    // completes without a single retry.
    let one_pass = AdaptiveOptions {
        max_retries: 0,
        ..Default::default()
    };
    let observed = FormExtractor::new()
        .worker_threads(2)
        .extract_batch_adaptive(&refs, &one_pass)
        .stats;
    let preset = BudgetPreset::from_stats(&observed);
    assert!(preset.max_instances >= 1_000);

    let calibrated = preset.apply(FormExtractor::new().worker_threads(2));
    assert_eq!(
        calibrated.budgets(),
        (preset.max_instances, preset.deadline)
    );
    let batch = calibrated.extract_batch_adaptive(&refs, &AdaptiveOptions::default());
    assert_eq!(batch.stats.retried, 0, "calibrated budgets need no retry");
    assert_eq!(batch.stats.failed(), 0);
    assert!(batch.failures.is_empty());

    // The static per-domain table applies the same way.
    let books = BudgetPreset::for_domain("Books").apply(FormExtractor::new());
    assert_eq!(books.budgets().0, 50_000);
}
