//! Large-scale extraction: run the form extractor over the Random
//! dataset (30 heterogeneous sources, as in paper §6) — in parallel,
//! via [`FormExtractor::extract_batch_adaptive`] — and print the per-source and
//! overall precision/recall. The grammar is compiled once; every
//! worker thread shares the artifact and recycles one parse session.
//!
//! ```text
//! cargo run --release --example batch_extraction
//! ```

use metaform::{AdaptiveOptions, FormExtractor};
use metaform_datasets::random;
use metaform_eval::{metrics, TextTable};

fn main() {
    let dataset = random();
    let extractor = FormExtractor::new();

    // One call, all sources: pages fan out over worker threads, and
    // the results come back in input order (identical to a sequential
    // run — parallelism only changes wall-clock time).
    let pages: Vec<&str> = dataset.sources.iter().map(|s| s.html.as_str()).collect();
    let one_pass = AdaptiveOptions {
        max_retries: 0,
        ..Default::default()
    };
    let batch = extractor.extract_batch_adaptive(&pages, &one_pass);
    let (extractions, stats) = (batch.extractions, batch.stats);
    println!("{}\n", stats.summary());
    assert_eq!(stats.schedules_built, 0, "compile-once violated");

    let mut table = TextTable::new(&["source", "domain", "truth", "extracted", "P", "R"]);
    let mut scores = Vec::new();
    for (source, extraction) in dataset.sources.iter().zip(&extractions) {
        let score = metrics::score_extraction(source, extraction);
        table.row(&[
            score.name.clone(),
            score.domain.clone(),
            score.truth.to_string(),
            score.extracted.to_string(),
            format!("{:.2}", score.precision()),
            format!("{:.2}", score.recall()),
        ]);
        scores.push(score);
    }
    println!("{}", table.render());

    let ds = metaform_eval::DatasetScore {
        name: dataset.name.clone(),
        sources: scores,
    };
    println!(
        "overall: Pa={:.3} Ra={:.3} accuracy={:.3}  (paper Random: Pa=0.80 Ra=0.89)",
        ds.overall_precision(),
        ds.overall_recall(),
        ds.accuracy()
    );
}
