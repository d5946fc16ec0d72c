//! Tier-1 pins for the grammar induction loop (Collect → Infer →
//! Validate, DESIGN.md §12): after a bounded number of rounds over the
//! withheld-pattern split, Random-domain accuracy strictly improves
//! toward Basic; the golden survey corpus stays byte-identical; and
//! the whole trajectory is deterministic across worker counts. (That
//! the parser's semi-naive and naive fix-points build the same charts
//! and reports is pinned by `seminaive_parity`, `cache_parity` and
//! `salvage`.)
//!
//! The per-round trajectory is additionally pinned byte-for-byte in
//! `tests/golden/induction_rounds.txt`. To regenerate after an
//! intentional change:
//!
//! ```text
//! METAFORM_BLESS=1 cargo test --test induction
//! ```
//!
//! then review the diff like any other code change.

#[path = "support/golden.rs"]
mod golden;

use metaform_datasets::{basic, survey_corpus};
use metaform_eval::{
    frozen_corpus, run_induction, score_dataset, InductionConfig, InductionGate, InductionOutcome,
    RejectReason,
};
use metaform_extractor::{AdaptiveOptions, FormExtractor};
use metaform_grammar::{
    global_compiled, synthesize, Cluster, CompiledGrammar, Constraint, Constructor, Pred,
    Production, SymbolId,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

/// One full default-config induction run, shared by every test in this
/// file (the loop is deterministic, so sharing changes nothing but
/// wall-clock).
fn default_outcome() -> &'static InductionOutcome {
    static OUTCOME: OnceLock<InductionOutcome> = OnceLock::new();
    OUTCOME.get_or_init(|| run_induction(&InductionConfig::default()))
}

fn extractor_for(grammar: Arc<CompiledGrammar>, workers: Option<usize>) -> FormExtractor {
    let mut ex = FormExtractor::with_compiled(grammar);
    if let Some(w) = workers {
        ex = ex.worker_threads(w);
    }
    ex
}

/// Renders a trajectory the way the golden file stores it: the
/// baseline line, then one line per round with its acceptances
/// indented beneath it. Accuracies at six decimals — the metrics are
/// exact rational counts, so this is stable, not flaky float prose.
fn render_trajectory(outcome: &InductionOutcome) -> String {
    let mut out = format!(
        "baseline holdout={:.6} random={:.6}\n",
        outcome.baseline_holdout, outcome.baseline_random
    );
    for round in &outcome.rounds {
        out.push_str(&format!(
            "round {}: mined={} proposed={} accepted={} holdout={:.6} random={:.6}\n",
            round.round,
            round.mined,
            round.proposed.len(),
            round.accepted.len(),
            round.holdout_accuracy,
            round.random_accuracy,
        ));
        for cand in &round.accepted {
            out.push_str(&format!(
                "  + {} [{}] support={}\n",
                cand.name, cand.signature, cand.support
            ));
        }
    }
    out
}

#[test]
fn random_accuracy_strictly_improves_toward_basic() {
    let outcome = default_outcome();
    assert!(
        !outcome.accepted.is_empty(),
        "the withheld-pattern split supports at least one accepted production"
    );
    assert!(
        outcome.rounds.len() <= InductionConfig::default().rounds,
        "the loop stops at its round bound"
    );
    assert!(
        outcome.final_holdout() > outcome.baseline_holdout,
        "held-out accuracy strictly improves: {} -> {}",
        outcome.baseline_holdout,
        outcome.final_holdout()
    );
    assert!(
        outcome.final_random() > outcome.baseline_random,
        "Random-domain accuracy strictly improves: {} -> {}",
        outcome.baseline_random,
        outcome.final_random()
    );

    // Convergence toward Basic, the ROADMAP metric: the Basic↔Random
    // accuracy gap must shrink, and Basic itself must not pay for it.
    let basic_ds = basic();
    let base = extractor_for(global_compiled(), None);
    let extended = extractor_for(outcome.grammar.clone(), None);
    let basic_before = score_dataset(&base, &basic_ds).accuracy();
    let basic_after = score_dataset(&extended, &basic_ds).accuracy();
    let gap_before = basic_before - outcome.baseline_random;
    let gap_after = basic_after - outcome.final_random();
    assert!(
        gap_after < gap_before,
        "Basic↔Random gap shrinks: {gap_before:.6} -> {gap_after:.6}"
    );
    assert!(
        basic_after >= basic_before,
        "induction never trades Basic accuracy away: {basic_before:.6} -> {basic_after:.6}"
    );
}

#[test]
fn frozen_survey_pages_are_byte_identical_under_the_extended_grammar() {
    // The gate's zero-regression clause, verified end-to-end: every
    // frozen page (hand fixtures + fully in-grammar NewSource pages)
    // renders the same bytes under the converged grammar as under the
    // hand grammar. Withheld-pattern pages are exempt — changing those
    // is the point.
    let outcome = default_outcome();
    let base = extractor_for(global_compiled(), None);
    let extended = extractor_for(outcome.grammar.clone(), None);
    for (name, html) in frozen_corpus() {
        assert_eq!(
            base.extract(&html).report.to_string(),
            extended.extract(&html).report.to_string(),
            "frozen page {name} must not change"
        );
    }
}

#[test]
fn induction_leaves_the_global_grammar_untouched() {
    // Induction returns a *new* compiled artifact; the process-global
    // grammar every other extractor uses is never mutated. Pinned by
    // rendering the survey corpus under `FormExtractor::new()` after a
    // full induction run and comparing against the blessed golden
    // file byte-for-byte.
    let _ = default_outcome();
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/survey_reports.txt");
    let golden = std::fs::read_to_string(&golden).expect("blessed survey golden exists");
    let corpus = survey_corpus();
    let pages: Vec<&str> = corpus.iter().map(|(_, html)| html.as_str()).collect();
    let one_pass = AdaptiveOptions {
        max_retries: 0,
        ..Default::default()
    };
    let extractions = FormExtractor::new()
        .extract_batch_adaptive(&pages, &one_pass)
        .extractions;
    let mut rendered = String::new();
    for ((name, _), extraction) in corpus.iter().zip(&extractions) {
        rendered.push_str("== ");
        rendered.push_str(name);
        rendered.push_str(" ==\n");
        match extraction.via {
            metaform_extractor::Provenance::BaselineFallback => {
                rendered.push_str("(via proximity-baseline fallback)\n")
            }
            metaform_extractor::Provenance::PartialSalvage => {
                rendered.push_str("(via salvaged partial parse)\n")
            }
            _ => {}
        }
        rendered.push_str(&extraction.report.to_string());
        rendered.push('\n');
    }
    assert_eq!(
        rendered, golden,
        "survey corpus under the base grammar drifted after induction ran"
    );
}

#[test]
fn trajectory_is_identical_across_worker_counts() {
    let want = render_trajectory(default_outcome());
    for workers in [Some(1), Some(2)] {
        let outcome = run_induction(&InductionConfig {
            workers,
            ..InductionConfig::default()
        });
        assert_eq!(
            render_trajectory(&outcome),
            want,
            "trajectory diverged at workers={workers:?}"
        );
    }
}

#[test]
fn trajectory_matches_the_golden_file() {
    let rendered = render_trajectory(default_outcome());
    golden::check("induction_rounds.txt", &rendered, |_, _| None);
}

#[test]
fn rejected_candidate_leaves_survey_corpus_byte_identical() {
    // A candidate the gate deterministically refuses (the worded-range
    // shape cannot fire on holdout pages — the tokenizer merges label
    // and connector text — so it never improves accuracy): rejection
    // must leave the grammar the caller keeps producing the same bytes
    // on the whole survey corpus.
    let base = global_compiled();
    let before = render_survey(&extractor_for(base.clone(), Some(1)));
    let cluster = Cluster {
        descriptors: ["attr", "conn", "tb", "conn", "tb"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        pages: ["a", "b"].iter().map(|s| s.to_string()).collect(),
        occurrences: 2,
        max_gaps: vec![8, 8, 8, 8],
    };
    let cand = synthesize("attr conn tb conn tb", &cluster, 2).expect("known shape");
    let mut gate = InductionGate::new(&base, Some(1));
    let verdict = gate.admit(&cand, &base);
    assert_eq!(verdict.err(), Some(RejectReason::NoImprovement));
    let after = render_survey(&extractor_for(base, Some(1)));
    assert_eq!(before, after, "rejection must not perturb parse output");
}

fn render_survey(extractor: &FormExtractor) -> String {
    let mut out = String::new();
    for (name, html) in survey_corpus() {
        out.push_str(&name);
        out.push('\n');
        out.push_str(&extractor.extract(&html).report.to_string());
        out.push('\n');
    }
    out
}

/// The shared gate/baseline for the property tests below — built once,
/// cloned per case (cloning copies the frozen reports, not the work of
/// rendering them).
fn master_gate() -> &'static Mutex<InductionGate> {
    static GATE: OnceLock<Mutex<InductionGate>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(InductionGate::new(&global_compiled(), Some(1))))
}

fn survey_baseline() -> &'static String {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| render_survey(&extractor_for(global_compiled(), Some(1))))
}

/// The descriptor sequences `synthesize` knows, by strategy index.
const SHAPES: [&[&str]; 4] = [
    &["tb", "attr"],
    &["sel", "attr"],
    &["attr", "tb", "sep", "tb", "sep", "tb"],
    &["attr", "conn", "tb", "conn", "tb"],
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Induction safety, clause 1: a grammar description corrupted with
    // an arbitrary machine-assembled production — out-of-range symbol
    // ids, bogus constraint slots, bogus constructor indices, empty
    // component lists — flows through `Grammar::compile` (the single
    // fallible entry point) as a clean `Err`, never a panic.
    #[test]
    fn compile_never_panics_on_corrupted_productions(
        head in 0u32..200,
        comps in vec(0u32..200, 0..7),
        slots in (0usize..8, 0usize..8),
        gap in -50i32..500,
        ctor in 0usize..3,
    ) {
        let (slot_a, slot_b) = slots;
        let constructor = match ctor {
            0 => Constructor::Group,
            1 => Constructor::Inherit(slot_a),
            _ => Constructor::MakeAttr(slot_b),
        };
        let production = Production {
            name: "PropCorrupt".to_string(),
            head: SymbolId(head),
            components: comps.into_iter().map(SymbolId).collect(),
            constraint: Constraint::And(vec![
                Constraint::LeftWithin(slot_a, slot_b, gap),
                Constraint::Is(slot_b, Pred::LowercaseText),
            ]),
            constructor,
        };
        let mut description = global_compiled().grammar().clone();
        description.productions.push(production);
        // Ok or Err are both acceptable; reaching here without a panic
        // is the property.
        let _ = description.compile();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Induction safety, end to end: an arbitrary synthesized candidate
    // compiles or rejects without panicking, and whenever the gate
    // refuses it, the grammar the caller kept still renders the survey
    // corpus byte-identically.
    #[test]
    fn arbitrary_candidates_never_panic_and_rejections_change_nothing(
        shape in 0usize..4,
        gaps in vec(-30i32..300, 0..6),
        extra_pages in 0usize..4,
    ) {
        let mut pages: BTreeSet<String> = BTreeSet::new();
        for i in 0..(2 + extra_pages) {
            pages.insert(format!("prop-page-{i}"));
        }
        let descriptors: Vec<String> =
            SHAPES[shape].iter().map(|s| s.to_string()).collect();
        let signature = descriptors.join(" ");
        let cluster = Cluster {
            occurrences: pages.len(),
            max_gaps: gaps,
            descriptors,
            pages,
        };
        let Some(cand) = synthesize(&signature, &cluster, 2) else {
            return Err(TestCaseError::fail("known shapes always synthesize"));
        };
        let base = global_compiled();
        // Never panics, whatever the generalized gaps turned into.
        let _ = cand.apply(base.grammar()).compile();
        let mut gate = master_gate().lock().expect("gate lock").clone();
        if gate.admit(&cand, &base).is_err() {
            let after = render_survey(&extractor_for(base, Some(1)));
            prop_assert_eq!(survey_baseline(), &after);
        }
    }
}
