//! Golden-corpus regression test: the survey corpus's extraction
//! reports, pinned byte-for-byte.
//!
//! The parser is deterministic, so any diff against the golden file is
//! a behavior change — intended ones are re-blessed, unintended ones
//! are regressions caught here. To regenerate after an intentional
//! change:
//!
//! ```text
//! METAFORM_BLESS=1 cargo test --test golden_corpus
//! ```
//!
//! then review the diff of `tests/golden/survey_reports.txt` like any
//! other code change.
//!
//! `survey_ladder.txt` pins the retry ladder itself: the corpus under
//! two escalating budgets, with each page's failure record.

#[path = "support/golden.rs"]
mod golden;

use metaform_datasets::survey_corpus;
use metaform_eval::ablation::{one_pass, render_reports};
use metaform_extractor::{failures_to_json, AdaptiveOptions, FormExtractor};

/// The instance cap the starved fixture runs under — tight enough to
/// truncate most survey pages, so the fixture pins which rung of the
/// degradation ladder (grammar / salvage / baseline) serves each page
/// and what the salvaged partial reports look like.
const STARVED_CAP: usize = 40;

/// Renders the whole corpus the way the golden file stores it: one
/// `== name ==` header per page, the report's `Display` output, the
/// provenance when degraded, and a blank separator line.
fn render_corpus() -> String {
    render_with(FormExtractor::new())
}

/// The same corpus under the starved instance cap: most pages
/// truncate, and the fixture pins whether the salvage tier or the
/// baseline serves each one.
fn render_starved_corpus() -> String {
    render_with(FormExtractor::new().max_instances(STARVED_CAP))
}

fn render_with(extractor: FormExtractor) -> String {
    let corpus = survey_corpus();
    let pages: Vec<&str> = corpus.iter().map(|(_, html)| html.as_str()).collect();
    let extractions = one_pass(&extractor, &pages);
    render_reports(
        corpus
            .iter()
            .map(|(name, _)| name.as_str())
            .zip(&extractions),
    )
}

/// The retrying ladders the ladder fixture runs, as `(first cap,
/// retries)` at growth 2: one retry from the starved cap, and three
/// from a cap so tight that pages climb several rungs.
const LADDERS: [(usize, usize); 2] = [(STARVED_CAP, 1), (10, 3)];

/// The corpus under each retrying ladder: per page the served report
/// with its provenance, then its failure record (wall clock masked) as
/// JSON, or `failure: none` for a page clean on its first attempt.
fn render_ladders() -> String {
    let corpus = survey_corpus();
    let pages: Vec<&str> = corpus.iter().map(|(_, html)| html.as_str()).collect();
    let mut out = String::new();
    for (cap, max_retries) in LADDERS {
        out.push_str(&format!(
            "#### cap {cap}, max_retries {max_retries}, growth 2\n\n"
        ));
        let batch = FormExtractor::new()
            .worker_threads(1)
            .max_instances(cap)
            .extract_batch_adaptive(
                &pages,
                &AdaptiveOptions {
                    max_retries,
                    budget_growth: 2,
                },
            );
        for (i, ((name, _), extraction)) in corpus.iter().zip(&batch.extractions).enumerate() {
            out.push_str(&render_reports([(name.as_str(), extraction)]));
            out.push_str(&format!("via: {:?}\n", extraction.via));
            match batch.failures.iter().find(|r| r.page_index == i) {
                Some(record) => {
                    out.push_str("failure: ");
                    out.push_str(&failures_to_json(&[record.normalized()]));
                    out.push('\n');
                }
                None => out.push_str("failure: none\n"),
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn survey_corpus_reports_match_the_golden_file() {
    golden::check("survey_reports.txt", &render_corpus(), |_, _| None);
}

#[test]
fn budget_starved_corpus_matches_its_golden_file() {
    golden::check(
        "survey_starved_reports.txt",
        &render_starved_corpus(),
        |_, _| None,
    );
}

#[test]
fn retrying_ladders_match_their_golden_file() {
    golden::check("survey_ladder.txt", &render_ladders(), |_, _| None);
}

#[test]
fn divergence_report_pinpoints_the_first_differing_line() {
    let golden = "a\nb\nc\nd\ne\n";
    let rendered = "a\nb\nC\nd\ne\n";
    let report = golden::divergence_report(golden, rendered);
    assert!(
        report.contains("METAFORM_BLESS=1 cargo test --test golden_corpus"),
        "{report}"
    );
    assert!(report.contains("first divergence at line 3"), "{report}");
    assert!(report.contains("-c\n"), "{report}");
    assert!(report.contains("+C\n"), "{report}");
    // Context line before the divergence is carried unprefixed.
    assert!(report.contains(" b\n"), "{report}");
    // Pure append: divergence sits past the common prefix.
    let longer = golden::divergence_report("a\n", "a\nb\n");
    assert!(longer.contains("first divergence at line 2"), "{longer}");
    assert!(longer.contains("+b\n"), "{longer}");
    assert!(longer.contains("line counts differ"), "{longer}");
}

#[test]
fn golden_rendering_is_deterministic() {
    assert_eq!(render_corpus(), render_corpus());
}
