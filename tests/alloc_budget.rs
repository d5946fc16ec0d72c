//! Allocation budget of the cold path: heap allocations per page for a
//! fixed generated page set, counted by a global allocator.
//!
//! The set is the 25 generator schemas × pages 0–7 at seed 1, each
//! under its evaluation profile, run through `extract_batch_adaptive`
//! in 32-page jobs on one worker — the shape of a cold crawl. The count
//! covers the whole page pass (DOM, layout, tokens, parse, merge and
//! the batch bookkeeping) and repeats exactly from run to run, so a
//! change that starts copying on the cold path again fails here
//! whatever the host's speed. The DOM alone is held to a few
//! allocations a page: it borrows the page's text, and its nodes,
//! attributes and child lists are one arena each. The parse alone
//! (`ParseSession::parse` on a recycled session, over the same pages'
//! tokens) has its own bound: its fixed cost is meant to follow the
//! rules a page can fire, and condition lists are read off the chart
//! rather than built per instance. The starved ladder (instance cap
//! 40, one retry at growth 2, the same pages and jobs) has a bound of
//! its own: most of those pages truncate, a page is meant to parse
//! once (at the last rung's cap) and build one report, and the salvage
//! merge is meant to build report conditions only for what it can
//! still add.
//!
//! This binary holds exactly one test: the allocator counts every
//! thread of the process, and a second test running beside it would
//! leak into the figure.

use metaform_datasets::dataset::generate_source;
use metaform_datasets::{domains, GenParams};
use metaform_extractor::{AdaptiveOptions, FormExtractor};
use metaform_parser::ParseSession;
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

/// Allocations per page the cold path may spend on the fixed set.
const BUDGET_PER_PAGE: f64 = 240.0;

/// Allocations per page `metaform_html::parse` may spend on the set.
const DOM_BUDGET_PER_PAGE: f64 = 4.0;

/// Allocations per page `ParseSession::parse` may spend on the set.
const PARSE_BUDGET_PER_PAGE: f64 = 35.0;

/// Allocations per page the starved ladder may spend on the set.
const STARVED_BUDGET_PER_PAGE: f64 = 250.0;

/// Instance cap of the starved pass: with one retry at growth 2 it
/// leaves pages on all three ladder outcomes.
const STARVED_CAP: usize = 40;

/// Pages per batch job, as in a crawl's job queue.
const JOB: usize = 32;

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
    let jobs: Vec<Vec<&str>> = pages
        .chunks(JOB)
        .map(|job| job.iter().map(String::as_str).collect())
        .collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for page in &pages {
        drop(metaform_html::parse(page));
    }
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let dom_per_page = spent as f64 / pages.len() as f64;
    println!(
        "{dom_per_page:.1} DOM allocations per page ({spent} over {} pages)",
        pages.len()
    );
    assert!(
        dom_per_page <= DOM_BUDGET_PER_PAGE,
        "{dom_per_page:.1} DOM allocations per page exceeds the budget of {DOM_BUDGET_PER_PAGE}"
    );

    let tokens: Vec<_> = pages
        .iter()
        .map(|page| {
            let doc = metaform_html::parse(page);
            let lay = metaform_layout::layout(&doc);
            metaform_tokenizer::tokenize(&doc, &lay).tokens
        })
        .collect();
    let mut session = ParseSession::new(metaform_grammar::global_compiled());
    // Warm-up parse: the session's first-parse buffers are one-off.
    let warm = session.parse(&tokens[0]);
    session.recycle(warm);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for page in &tokens {
        let result = session.parse(page);
        session.recycle(result);
    }
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let parse_per_page = spent as f64 / pages.len() as f64;
    println!(
        "{parse_per_page:.1} parse allocations per page ({spent} over {} pages)",
        pages.len()
    );
    assert!(
        parse_per_page <= PARSE_BUDGET_PER_PAGE,
        "{parse_per_page:.1} parse allocations per page exceeds the budget of {PARSE_BUDGET_PER_PAGE}"
    );

    let extractor = FormExtractor::new().worker_threads(1);
    let opts = AdaptiveOptions::default();
    // Warm-up job: the grammar compile and the session's first-parse
    // buffers are one-off costs, not per-page ones.
    extractor.extract_batch_adaptive(&jobs[0], &opts);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut served = 0;
    for job in &jobs {
        served += extractor
            .extract_batch_adaptive(job, &opts)
            .extractions
            .len();
    }
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(served, pages.len());
    let per_page = spent as f64 / pages.len() as f64;
    println!(
        "{per_page:.1} allocations per page ({spent} over {} pages)",
        pages.len()
    );
    assert!(
        per_page <= BUDGET_PER_PAGE,
        "{per_page:.1} allocations per page exceeds the budget of {BUDGET_PER_PAGE}"
    );

    let starved = FormExtractor::new()
        .worker_threads(1)
        .max_instances(STARVED_CAP);
    let opts = AdaptiveOptions {
        max_retries: 1,
        budget_growth: 2,
    };
    starved.extract_batch_adaptive(&jobs[0], &opts);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut failed = 0;
    for job in &jobs {
        failed += starved.extract_batch_adaptive(job, &opts).failures.len();
    }
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(failed > 0, "the starved cap truncates some pages");
    let starved_per_page = spent as f64 / pages.len() as f64;
    println!(
        "{starved_per_page:.1} starved allocations per page ({spent} over {} pages)",
        pages.len()
    );
    assert!(
        starved_per_page <= STARVED_BUDGET_PER_PAGE,
        "{starved_per_page:.1} starved allocations per page exceeds the budget of {STARVED_BUDGET_PER_PAGE}"
    );
}
