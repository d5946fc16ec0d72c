//! Allocation budget of the cold path: heap allocations per page for a
//! fixed generated page set, counted by a global allocator, for the
//! whole path and for each layer.
//!
//! The set is the 25 generator schemas × pages 0–7 at seed 1, each
//! under its evaluation profile. The whole-path row runs the set
//! through `extract_batch_adaptive` in 32-page jobs on one worker — the
//! shape of a cold crawl — and covers the whole page pass (DOM, layout,
//! tokens, parse, merge, induction evidence and the batch
//! bookkeeping). Every count repeats exactly from run to run, so a
//! change that starts copying on the cold path again fails here
//! whatever the host's speed.
//!
//! Each layer has a row of its own, run the way a batch worker runs
//! it, on working memory recycled from page to page:
//!
//! - the DOM borrows the page's text, and its nodes, attributes and
//!   child lists are one arena each;
//! - layout (`layout_in`) allocates its node table and one fragment
//!   arena, and a fragment borrows its text from the DOM;
//! - the tokenizer (`tokenize_in`) allocates the token list and the
//!   texts its tokens carry, one per caption, name and option label;
//! - the parse (`ParseSession::parse`) keeps conditions and caption
//!   lists in its chart's payload table, so it allocates little beyond
//!   the list of maximal trees;
//! - the merge (`ParseSession::merge`) allocates exactly the heap
//!   blocks the report it returns owns, counted by walking the report;
//! - the induction evidence (`ParseSession::pattern_spans` and
//!   `tree_symbols`) allocates its two lists and one token list per
//!   pattern, naming symbols by the grammar's shared names.
//!
//! The starved ladder (instance cap 40, one retry at growth 2, the same
//! pages and jobs) has a bound of its own: most of those pages
//! truncate, a page is meant to parse once (at the last rung's cap) and
//! build one report, and the salvage merge is meant to build report
//! conditions only for what it can still add.
//!
//! This binary holds exactly one test: the allocator counts every
//! thread of the process, and a second test running beside it would
//! leak into the figure.

use metaform_core::ExtractionReport;
use metaform_datasets::dataset::generate_source;
use metaform_datasets::{domains, GenParams};
use metaform_extractor::{AdaptiveOptions, FormExtractor};
use metaform_layout::{layout_in, LayoutOptions, LayoutScratch};
use metaform_parser::{tree_symbols, ParseSession};
use metaform_tokenizer::{tokenize_in, TokenizeScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations (`alloc` and `realloc` calls) since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a relaxed atomic with no effect on the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per page the whole cold path may spend on the set.
const BUDGET_PER_PAGE: f64 = 130.0;

/// Allocations per page `metaform_html::parse` may spend on the set.
const DOM_BUDGET_PER_PAGE: f64 = 4.0;

/// Allocations per page `layout_in` may spend on the set.
const LAYOUT_BUDGET_PER_PAGE: f64 = 5.0;

/// Allocations per page `tokenize_in` may spend on the set: one text
/// per caption, control name and option label comes to 46.8.
const TOKENIZER_BUDGET_PER_PAGE: f64 = 48.0;

/// Allocations per page `ParseSession::parse` may spend on the set.
const PARSE_BUDGET_PER_PAGE: f64 = 12.0;

/// Allocations per page the induction evidence may spend on the set.
const EVIDENCE_BUDGET_PER_PAGE: f64 = 8.0;

/// Allocations per page the starved ladder may spend on the set.
const STARVED_BUDGET_PER_PAGE: f64 = 170.0;

/// Instance cap of the starved pass: with one retry at growth 2 it
/// leaves pages on all three ladder outcomes.
const STARVED_CAP: usize = 40;

/// Pages per batch job, as in a crawl's job queue.
const JOB: usize = 32;

/// Allocations `f` makes, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// Prints a row's allocations per page and checks them against `bound`.
fn row(label: &str, spent: u64, pages: usize, bound: f64) {
    let per_page = spent as f64 / pages as f64;
    println!("{per_page:.1} {label} allocations per page ({spent} over {pages} pages)");
    assert!(
        per_page <= bound,
        "{per_page:.1} {label} allocations per page exceeds the budget of {bound}"
    );
}

/// The heap blocks a report owns: each of its vectors, and each
/// condition's attribute, operator list, operators, value list, values
/// and token list, that holds any capacity.
fn blocks(report: &ExtractionReport) -> u64 {
    let held = |capacity: usize| u64::from(capacity > 0);
    let strings = |list: &[String]| list.iter().map(|s| held(s.capacity())).sum::<u64>();
    let conditions: u64 = report
        .conditions
        .iter()
        .map(|c| {
            held(c.attribute.capacity())
                + held(c.operators.capacity())
                + strings(&c.operators)
                + held(c.domain.values.capacity())
                + strings(&c.domain.values)
                + held(c.tokens.capacity())
        })
        .sum();
    held(report.conditions.capacity())
        + held(report.conflicts.capacity())
        + held(report.missing.capacity())
        + conditions
}

#[test]
fn cold_path_stays_within_its_allocation_budget() {
    let schemas: Vec<_> = [
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
    )
    .chain(
        domains::random_pools()
            .into_iter()
            .map(|s| (s, GenParams::random())),
    )
    .collect();
    assert_eq!(schemas.len(), 25);
    let pages: Vec<String> = schemas
        .iter()
        .flat_map(|(schema, params)| {
            (0..8).map(move |page| generate_source(schema, page, 1, params).html)
        })
        .collect();
    let n = pages.len();
    let jobs: Vec<Vec<&str>> = pages
        .chunks(JOB)
        .map(|job| job.iter().map(String::as_str).collect())
        .collect();

    let (spent, ()) = counted(|| {
        for page in &pages {
            drop(metaform_html::parse(page));
        }
    });
    row("DOM", spent, n, DOM_BUDGET_PER_PAGE);

    // The front end's layers, each on scratch warmed by the first page.
    let docs: Vec<_> = pages.iter().map(|p| metaform_html::parse(p)).collect();
    let opts = LayoutOptions::default();
    let mut layout_scratch = LayoutScratch::default();
    let mut token_scratch = TokenizeScratch::default();
    let warm = layout_in(&docs[0], &opts, &mut layout_scratch);
    tokenize_in(&docs[0], &warm, &mut token_scratch);
    let (spent, layouts) = counted(|| {
        docs.iter()
            .map(|doc| layout_in(doc, &opts, &mut layout_scratch))
            .collect::<Vec<_>>()
    });
    // Less the vector that holds the layouts.
    row("layout", spent - 1, n, LAYOUT_BUDGET_PER_PAGE);
    let (spent, tokens) = counted(|| {
        docs.iter()
            .zip(&layouts)
            .map(|(doc, lay)| tokenize_in(doc, lay, &mut token_scratch).tokens)
            .collect::<Vec<_>>()
    });
    row("tokenizer", spent - 1, n, TOKENIZER_BUDGET_PER_PAGE);

    let mut session = ParseSession::new(metaform_grammar::global_compiled());
    // Warm-up parse: the session's first-parse buffers are one-off.
    let warm = session.parse(&tokens[0]);
    drop(session.merge(&warm));
    drop(session.pattern_spans(&warm));
    session.recycle(warm);
    let (spent, ()) = counted(|| {
        for page in &tokens {
            let result = session.parse(page);
            session.recycle(result);
        }
    });
    row("parse", spent, n, PARSE_BUDGET_PER_PAGE);

    // The merge is held to exactness, so its working memory is first
    // warmed on every page: a second pass then allocates only what the
    // reports and the evidence own.
    let (mut merged, mut owned, mut evidence) = (0, 0, 0);
    let grammar = metaform_grammar::global_compiled();
    for pass in 0..2 {
        for page in &tokens {
            let result = session.parse(page);
            let (spent, report) = counted(|| session.merge(&result));
            let (evidence_spent, _) = counted(|| {
                (
                    session.pattern_spans(&result),
                    tree_symbols(&result.chart, &result.trees, grammar.grammar()),
                )
            });
            if pass == 1 {
                merged += spent;
                owned += blocks(&report);
                evidence += evidence_spent;
            }
            session.recycle(result);
        }
    }
    println!(
        "{:.1} merge allocations per page ({merged} over {n} pages; the reports own {owned} blocks)",
        merged as f64 / n as f64
    );
    assert_eq!(
        merged, owned,
        "the merge allocates exactly the blocks of the reports it returns"
    );
    row("induction evidence", evidence, n, EVIDENCE_BUDGET_PER_PAGE);

    let extractor = FormExtractor::new().worker_threads(1);
    let opts = AdaptiveOptions::default();
    // Warm-up job: the grammar compile and the session's first-parse
    // buffers are one-off costs, not per-page ones.
    extractor.extract_batch_adaptive(&jobs[0], &opts);
    let (spent, served) = counted(|| {
        jobs.iter()
            .map(|job| {
                extractor
                    .extract_batch_adaptive(job, &opts)
                    .extractions
                    .len()
            })
            .sum::<usize>()
    });
    assert_eq!(served, n);
    row("whole cold path", spent, n, BUDGET_PER_PAGE);

    let starved = FormExtractor::new()
        .worker_threads(1)
        .max_instances(STARVED_CAP);
    let opts = AdaptiveOptions {
        max_retries: 1,
        budget_growth: 2,
    };
    starved.extract_batch_adaptive(&jobs[0], &opts);
    let (spent, failed) = counted(|| {
        jobs.iter()
            .map(|job| starved.extract_batch_adaptive(job, &opts).failures.len())
            .sum::<usize>()
    });
    assert!(failed > 0, "the starved cap truncates some pages");
    row("starved ladder", spent, n, STARVED_BUDGET_PER_PAGE);
}
