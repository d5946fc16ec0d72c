//! Revisit-path benchmark: cold parses vs the parse cache's exact-hit
//! replay over the survey corpus. Run as:
//!
//! ```text
//! cargo run --release -p metaform-bench --bin bench_revisit [-- <out.json>]
//! ```
//!
//! Writes `BENCH_revisit.json` (or `<out.json>`) with the median
//! wall-clock time of two legs over pre-tokenized pages:
//!
//! - `cold`: every corpus page, no cache;
//! - `exact_hit`: every corpus page re-extracted against a primed
//!   cache (all replays).
//!
//! Every replayed report is asserted byte-identical to its cold
//! counterpart — the bench refuses to publish numbers for a cache
//! that changes answers. Timing claims live in the JSON, not in
//! asserts: the headline ratio is `exact_hit_speedup`
//! (cold / exact_hit).

use metaform_bench::tokens_of;
use metaform_core::Token;
use metaform_datasets::survey_corpus;
use metaform_extractor::{Extraction, FormExtractor, LruParseCache, Provenance};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timing iterations per leg (median taken; one extra warm-up).
const ITERATIONS: usize = 7;

/// Cache big enough that the exact-hit leg never evicts.
const CACHE_CAPACITY: usize = 256;

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort();
    times[times.len() / 2]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times one pass of `extractor` over `batch`.
fn pass(extractor: &FormExtractor, batch: &[Vec<Token>]) -> Duration {
    let started = Instant::now();
    for tokens in batch {
        let _ = extractor.extract_tokens(tokens);
    }
    started.elapsed()
}

/// A cache-backed extractor primed with every page in `originals`.
fn primed(originals: &[Vec<Token>]) -> FormExtractor {
    let extractor = FormExtractor::new().parse_cache(Arc::new(LruParseCache::new(CACHE_CAPACITY)));
    for tokens in originals {
        let _ = extractor.extract_tokens(tokens);
    }
    extractor
}

fn assert_parity(cold: &Extraction, warm: &Extraction, label: &str) {
    assert_eq!(
        cold.report.to_string(),
        warm.report.to_string(),
        "{label}: cached report diverged from cold (via {:?})",
        warm.via
    );
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_revisit.json".into());

    let corpus: Vec<(String, Vec<Token>)> = survey_corpus()
        .iter()
        .map(|(name, html)| (name.clone(), tokens_of(html)))
        .collect();
    let corpus_tokens: Vec<Vec<Token>> = corpus.iter().map(|(_, t)| t.clone()).collect();
    eprintln!(
        "bench_revisit: {} corpus pages, {} timing iterations per leg",
        corpus.len(),
        ITERATIONS
    );

    let cold = FormExtractor::new();
    let cold_reports: Vec<Extraction> = corpus_tokens
        .iter()
        .map(|t| cold.extract_tokens(t))
        .collect();

    // Exact-hit leg: prime once, verify every revisit replays and
    // matches cold, then time the replay passes.
    let warm = primed(&corpus_tokens);
    for (i, tokens) in corpus_tokens.iter().enumerate() {
        let hit = warm.extract_tokens(tokens);
        assert_eq!(
            hit.via,
            Provenance::CacheHit,
            "{}: unchanged revisit must replay from the cache",
            corpus[i].0
        );
        assert_parity(&cold_reports[i], &hit, &corpus[i].0);
    }

    pass(&cold, &corpus_tokens); // warm-up: fault in buffers
    let cold_median = median(
        (0..ITERATIONS)
            .map(|_| pass(&cold, &corpus_tokens))
            .collect(),
    );
    let hit_median = median(
        (0..ITERATIONS)
            .map(|_| pass(&warm, &corpus_tokens))
            .collect(),
    );

    let exact_hit_speedup = cold_median.as_secs_f64() / hit_median.as_secs_f64().max(1e-9);
    eprintln!(
        "  cold         median {:>9.3} ms  ({} pages)",
        ms(cold_median),
        corpus.len()
    );
    eprintln!(
        "  exact_hit    median {:>9.3} ms  speedup {exact_hit_speedup:.1}x",
        ms(hit_median)
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": \"survey_revisit\",\n",
            "  \"interfaces\": {},\n",
            "  \"iterations\": {},\n",
            "{},\n",
            "  \"legs\": {{\n",
            "    \"cold\": {{ \"pages\": {}, \"median_ms\": {:.3} }},\n",
            "    \"exact_hit\": {{ \"pages\": {}, \"median_ms\": {:.3} }}\n",
            "  }},\n",
            "  \"exact_hit_speedup\": {:.3}\n",
            "}}\n"
        ),
        corpus.len(),
        ITERATIONS,
        metaform_bench::metadata_json("  "),
        corpus.len(),
        ms(cold_median),
        corpus.len(),
        ms(hit_median),
        exact_hit_speedup,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("{json}");
    eprintln!("wrote {out_path}");
}
