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

use metaform_datasets::survey_corpus;
use metaform_eval::ablation::{one_pass, render_reports};
use metaform_extractor::FormExtractor;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/survey_reports.txt")
}

fn starved_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/survey_starved_reports.txt")
}

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

/// The shared bless-or-compare core: regenerates `path` under
/// `METAFORM_BLESS=1`, otherwise compares and panics with a focused
/// diff on drift.
fn check_golden(rendered: &str, path: &PathBuf) {
    if std::env::var_os("METAFORM_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
        std::fs::write(path, rendered).expect("write golden file");
        println!("blessed {} ({} bytes)", path.display(), rendered.len());
        return;
    }
    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n\
             (first run? bless it: METAFORM_BLESS=1 cargo test --test golden_corpus)",
            path.display()
        )
    });
    if rendered != golden {
        panic!("{}", divergence_report(&golden, rendered));
    }
}

#[test]
fn survey_corpus_reports_match_the_golden_file() {
    check_golden(&render_corpus(), &golden_path());
}

#[test]
fn budget_starved_corpus_matches_its_golden_file() {
    check_golden(&render_starved_corpus(), &starved_golden_path());
}

/// A focused mismatch report: the one-line regen hint, then a unified
/// diff hunk around the first diverging line (golden as `-`, rendered
/// as `+`), so the failure is actionable without rerunning anything.
fn divergence_report(golden: &str, rendered: &str) -> String {
    const CONTEXT: usize = 3;
    let golden_lines: Vec<&str> = golden.lines().collect();
    let rendered_lines: Vec<&str> = rendered.lines().collect();
    let first = golden_lines
        .iter()
        .zip(&rendered_lines)
        .position(|(g, r)| g != r)
        .unwrap_or_else(|| golden_lines.len().min(rendered_lines.len()));
    let start = first.saturating_sub(CONTEXT);
    let g_end = golden_lines.len().min(first + 1 + CONTEXT);
    let r_end = rendered_lines.len().min(first + 1 + CONTEXT);
    let mut out = String::from(
        "survey corpus reports drifted from the golden file\n\
         to accept the change: METAFORM_BLESS=1 cargo test --test golden_corpus\n",
    );
    out.push_str(&format!(
        "--- golden   (blessed file)\n\
         +++ rendered (current engine output)\n\
         @@ -{},{} +{},{} @@ first divergence at line {}\n",
        start + 1,
        g_end - start,
        start + 1,
        r_end - start,
        first + 1,
    ));
    for line in &golden_lines[start..first.min(g_end)] {
        out.push(' ');
        out.push_str(line);
        out.push('\n');
    }
    for line in &golden_lines[first.min(g_end)..g_end] {
        out.push('-');
        out.push_str(line);
        out.push('\n');
    }
    for line in &rendered_lines[first.min(r_end)..r_end] {
        out.push('+');
        out.push_str(line);
        out.push('\n');
    }
    if golden_lines.len() != rendered_lines.len() {
        out.push_str(&format!(
            "(line counts differ: golden {}, rendered {})\n",
            golden_lines.len(),
            rendered_lines.len()
        ));
    }
    out
}

#[test]
fn divergence_report_pinpoints_the_first_differing_line() {
    let golden = "a\nb\nc\nd\ne\n";
    let rendered = "a\nb\nC\nd\ne\n";
    let report = divergence_report(golden, rendered);
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
    let longer = divergence_report("a\n", "a\nb\n");
    assert!(longer.contains("first divergence at line 2"), "{longer}");
    assert!(longer.contains("+b\n"), "{longer}");
    assert!(longer.contains("line counts differ"), "{longer}");
}

#[test]
fn golden_rendering_is_deterministic() {
    assert_eq!(render_corpus(), render_corpus());
}
