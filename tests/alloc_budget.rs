//! Allocation budget of the cold path: heap allocations per page for a
//! fixed generated page set, counted by a global allocator.
//!
//! The set is the 25 generator schemas × pages 0–7 at seed 1, each
//! under its evaluation profile, run through `extract_batch_adaptive`
//! in 32-page jobs on one worker — the shape of a cold crawl. The count
//! covers the whole page pass (DOM, layout, tokens, parse, merge and
//! the batch bookkeeping) and repeats exactly from run to run, so a
//! change that starts copying on the cold path again fails here
//! whatever the host's speed.
//!
//! This binary holds exactly one test: the allocator counts every
//! thread of the process, and a second test running beside it would
//! leak into the figure.

use metaform_datasets::dataset::generate_source;
use metaform_datasets::{domains, GenParams};
use metaform_extractor::{AdaptiveOptions, FormExtractor};
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
const BUDGET_PER_PAGE: f64 = 750.0;

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
}
