//! E4 (§5.1): the paper's batch measurement — parsing 120 interfaces
//! of average size ≈22 (paper: <100 s on 2004 hardware) — in three
//! regimes:
//!
//! * `cold_compile_per_interface` — the one-shot [`parse`] path, which
//!   rebuilds the schedule and preference index for every interface;
//! * `warm_shared_compiled` — one process-wide `CompiledGrammar`, one
//!   recycled `ParseSession` for the whole batch;
//! * `parallel_extract_batch` — `FormExtractor::extract_batch_adaptive`
//!   over the raw HTML pages, scoped worker threads sharing the
//!   compiled grammar; on a clean corpus the escalation loop runs zero
//!   retries.
//!
//! The warm and parallel variants run under the compile-once contract,
//! asserted here via the process-wide `schedule_build_count` /
//! `compile_count` counters and the per-parse `schedules_built` stat.

use criterion::{criterion_group, criterion_main, Criterion};
use metaform_bench::tokens_of;
use metaform_core::Token;
use metaform_datasets::basic;
use metaform_extractor::{AdaptiveOptions, FormExtractor};
use metaform_grammar::{compile_count, global_compiled, schedule_build_count};
use metaform_parser::{parse, FixpointMode, ParseSession, ParserOptions};

fn bench_batch(c: &mut Criterion) {
    let ds = basic();
    let pages: Vec<&str> = ds
        .sources
        .iter()
        .take(120)
        .map(|s| s.html.as_str())
        .collect();
    let batch: Vec<Vec<Token>> = pages.iter().map(|p| tokens_of(p)).collect();
    let avg: f64 = batch.iter().map(Vec::len).sum::<usize>() as f64 / batch.len() as f64;
    eprintln!("batch_120: {} interfaces, avg {avg:.1} tokens", batch.len());

    let compiled = global_compiled();
    let grammar = compiled.grammar().clone();

    let mut group = c.benchmark_group("batch_120");
    group.sample_size(10);

    // Cold: schedule + preference index rebuilt for every interface.
    group.bench_function("cold_compile_per_interface", |b| {
        b.iter(|| {
            let mut trees = 0usize;
            for tokens in &batch {
                trees += parse(&grammar, tokens).trees.len();
            }
            trees
        })
    });

    // Warm: one shared compiled grammar, one recycled session.
    let schedules_before = schedule_build_count();
    group.bench_function("warm_shared_compiled", |b| {
        let mut session = ParseSession::new(compiled.clone());
        b.iter(|| {
            let mut trees = 0usize;
            for tokens in &batch {
                let result = session.parse(tokens);
                assert_eq!(result.stats.schedules_built, 0, "compile-once violated");
                trees += result.trees.len();
                session.recycle(result);
            }
            trees
        })
    });
    assert_eq!(
        schedule_build_count(),
        schedules_before,
        "warm variant must not rebuild any schedule"
    );

    // Warm, naive fix-point: same session, but every round re-walks
    // the full cartesian product and every enforcement sweep re-tests
    // every pair. The gap to `warm_shared_compiled` is the redundancy
    // the semi-naive schedule eliminates.
    group.bench_function("warm_naive_fixpoint", |b| {
        let opts = ParserOptions {
            fixpoint: FixpointMode::Naive,
            ..Default::default()
        };
        let mut session = ParseSession::with_options(compiled.clone(), opts);
        b.iter(|| {
            let mut trees = 0usize;
            for tokens in &batch {
                let result = session.parse(tokens);
                trees += result.trees.len();
                session.recycle(result);
            }
            trees
        })
    });

    // Parallel: the batch driver over the raw pages, end to end. On a
    // clean batch the escalation loop and telemetry bookkeeping cost
    // ~nothing: no page fails, so no retry runs.
    let opts = AdaptiveOptions::default();
    group.bench_function("parallel_extract_batch", |b| {
        let extractor = FormExtractor::new();
        b.iter(|| {
            let batch = extractor.extract_batch_adaptive(&pages, &opts);
            assert_eq!(batch.stats.retried, 0, "clean batch must not retry");
            assert!(batch.failures.is_empty());
            batch.extractions.len()
        })
    });
    let stats = FormExtractor::new()
        .extract_batch_adaptive(&pages, &opts)
        .stats;
    assert_eq!(
        stats.schedules_built, 0,
        "batch path must reuse the compiled grammar"
    );
    assert_eq!(
        stats.failed(),
        0,
        "no curated page may fail or degrade: {}",
        stats.summary()
    );
    assert_eq!(stats.degraded, 0, "every page served by the grammar path");
    assert_eq!(
        compile_count(),
        1,
        "the global grammar compiles exactly once per process"
    );

    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
