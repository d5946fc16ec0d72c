//! The grammar induction loop: Collect → Infer → **Validate**.
//!
//! `metaform_grammar::induce` mines recurring unparsed arrangements
//! and synthesizes candidate productions; this module is the half that
//! decides whether a candidate *enters* the grammar. The gate is
//! deliberately conservative — a candidate is accepted only when all
//! three hold:
//!
//! 1. **It compiles.** [`Candidate::apply`] yields a description;
//!    `Grammar::compile` — the lifecycle's single fallible entry
//!    point — must validate and schedule it. Nothing reaches a parser
//!    any other way.
//! 2. **Zero regression on the frozen corpus.** Every page of the
//!    golden survey corpus whose patterns the hand grammar already
//!    covers must produce a byte-identical report under the extended
//!    grammar. Induction may only *add* understanding, never perturb
//!    what works.
//! 3. **Strict held-out improvement.** Accuracy on the
//!    `InduceHoldout` slice — pages the miner never saw — must
//!    strictly increase. A candidate that merely matches its own
//!    training pages is overfit geometry and is rejected.
//!
//! Accepted candidates re-baseline the gate, so each further candidate
//! must improve on the *extended* grammar: the loop converges instead
//! of oscillating. [`run_induction`] drives the whole loop over the
//! induction split and reports a per-round trajectory;
//! [`InductionGate`] is the reusable gate the `metaformd` refit hook
//! drives with arrangements mined from live traffic.

use crate::metrics::score_dataset;
use metaform_datasets::{induction_split, new_source, random, Dataset};
use metaform_extractor::FormExtractor;
use metaform_grammar::{
    global_compiled, synthesize_all, ArrangementBook, Candidate, CompiledGrammar,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Knobs for one induction run.
#[derive(Clone, Debug)]
pub struct InductionConfig {
    /// Maximum Collect → Infer → Validate rounds (the loop also stops
    /// at the first round that accepts nothing — its fix-point).
    pub rounds: usize,
    /// Minimum distinct supporting pages for a cluster to synthesize.
    pub min_support: usize,
    /// Worker threads for batch extraction (`None` = machine default).
    pub workers: Option<usize>,
}

impl Default for InductionConfig {
    fn default() -> Self {
        InductionConfig {
            rounds: 4,
            min_support: 2,
            workers: None,
        }
    }
}

/// A candidate that passed the gate, reduced to its stable identity —
/// what the golden fixture and the daemon's metrics report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AcceptedCandidate {
    /// The induced nonterminal's name (`Ind…`).
    pub name: String,
    /// The mined arrangement signature it generalizes.
    pub signature: String,
    /// Distinct training pages that supported it.
    pub support: usize,
}

/// One round of the loop, for the trajectory report.
#[derive(Clone, Debug)]
pub struct RoundOutcome {
    /// Round index (0-based).
    pub round: usize,
    /// Distinct arrangement signatures mined this round.
    pub mined: usize,
    /// Candidate names synthesized this round (pre-gate).
    pub proposed: Vec<String>,
    /// Candidates the gate admitted this round.
    pub accepted: Vec<AcceptedCandidate>,
    /// Held-out accuracy after this round's acceptances.
    pub holdout_accuracy: f64,
    /// Random-dataset accuracy after this round's acceptances — the
    /// convergence-toward-Basic metric.
    pub random_accuracy: f64,
}

/// The whole run: the trajectory plus the grammar it converged to.
#[derive(Clone, Debug)]
pub struct InductionOutcome {
    /// Per-round trajectory, in order.
    pub rounds: Vec<RoundOutcome>,
    /// Every accepted candidate, in acceptance order.
    pub accepted: Vec<AcceptedCandidate>,
    /// Held-out accuracy of the unextended grammar.
    pub baseline_holdout: f64,
    /// Random-dataset accuracy of the unextended grammar.
    pub baseline_random: f64,
    /// The compiled grammar after the final accepted candidate (the
    /// unextended artifact when nothing was accepted).
    pub grammar: Arc<CompiledGrammar>,
}

impl InductionOutcome {
    /// Held-out accuracy after the last round (baseline when no round
    /// ran).
    pub fn final_holdout(&self) -> f64 {
        self.rounds
            .last()
            .map_or(self.baseline_holdout, |r| r.holdout_accuracy)
    }

    /// Random-dataset accuracy after the last round.
    pub fn final_random(&self) -> f64 {
        self.rounds
            .last()
            .map_or(self.baseline_random, |r| r.random_accuracy)
    }
}

/// Why the gate refused a candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// `Candidate::apply` changed nothing (symbols missing, or the
    /// nonterminal already exists).
    Inapplicable,
    /// `Grammar::compile` rejected the extended description.
    CompileError(String),
    /// A frozen-corpus page's report changed (page name inside).
    FrozenRegression(String),
    /// Held-out accuracy did not strictly improve.
    NoImprovement,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Inapplicable => write!(f, "candidate applies to nothing"),
            RejectReason::CompileError(e) => write!(f, "does not compile: {e}"),
            RejectReason::FrozenRegression(page) => {
                write!(f, "regresses frozen page {page}")
            }
            RejectReason::NoImprovement => write!(f, "no held-out improvement"),
        }
    }
}

/// The survey pages induction must never change: the hand-written
/// fixtures plus every NewSource page built entirely from in-grammar
/// patterns. Pages carrying a withheld pattern are exempt — changing
/// *those* is the point of induction.
pub fn frozen_corpus() -> Vec<(String, String)> {
    let qam = metaform_datasets::fixtures::qam();
    let qaa = metaform_datasets::fixtures::qaa();
    let mut corpus = vec![
        ("qam".to_string(), qam.html),
        ("qaa".to_string(), qaa.html),
        (
            "qaa-column".to_string(),
            metaform_datasets::fixtures::qaa_column_variant(),
        ),
    ];
    corpus.extend(
        new_source()
            .sources
            .into_iter()
            .filter(|s| s.patterns.iter().all(|p| p.in_grammar()))
            .map(|s| (s.name, s.html)),
    );
    corpus
}

fn extractor_for(grammar: Arc<CompiledGrammar>, workers: Option<usize>) -> FormExtractor {
    let mut ex = FormExtractor::with_compiled(grammar);
    if let Some(w) = workers {
        ex = ex.worker_threads(w);
    }
    ex
}

/// The validation gate, holding the frozen corpus with its baseline
/// reports and the running held-out accuracy bar. Construct once per
/// loop (or per daemon refit) and [`InductionGate::admit`] candidates
/// against it; acceptance re-baselines the bar.
#[derive(Clone, Debug)]
pub struct InductionGate {
    frozen: Vec<(String, String)>,
    frozen_reports: Vec<String>,
    holdout: Dataset,
    /// Current held-out accuracy bar (baseline at construction,
    /// re-baselined on every acceptance).
    pub holdout_accuracy: f64,
    workers: Option<usize>,
}

impl InductionGate {
    /// Builds the gate around `base`: renders the frozen corpus's
    /// baseline reports and scores the held-out slice under it.
    pub fn new(base: &Arc<CompiledGrammar>, workers: Option<usize>) -> Self {
        let extractor = extractor_for(base.clone(), workers);
        let frozen = frozen_corpus();
        let frozen_reports = frozen
            .iter()
            .map(|(_, html)| extractor.extract(html).report.to_string())
            .collect();
        let (_, holdout) = induction_split();
        let holdout_accuracy = score_dataset(&extractor, &holdout).accuracy();
        InductionGate {
            frozen,
            frozen_reports,
            holdout,
            holdout_accuracy,
            workers,
        }
    }

    /// Runs one candidate through the three-clause gate against the
    /// `current` grammar. `Ok` carries the extended compiled artifact
    /// and has already raised the held-out bar to its accuracy.
    pub fn admit(
        &mut self,
        candidate: &Candidate,
        current: &Arc<CompiledGrammar>,
    ) -> Result<Arc<CompiledGrammar>, RejectReason> {
        let description = candidate.apply(current.grammar());
        if description.productions.len() == current.grammar().productions.len() {
            return Err(RejectReason::Inapplicable);
        }
        // Clause 1: the single fallible entry point.
        let compiled = description
            .compile()
            .map(Arc::new)
            .map_err(|e| RejectReason::CompileError(e.to_string()))?;
        let extractor = extractor_for(compiled.clone(), self.workers);
        // Clause 2: zero regression on the frozen corpus.
        for ((name, html), want) in self.frozen.iter().zip(&self.frozen_reports) {
            if extractor.extract(html).report.to_string() != *want {
                return Err(RejectReason::FrozenRegression(name.clone()));
            }
        }
        // Clause 3: strict held-out improvement.
        let accuracy = score_dataset(&extractor, &self.holdout).accuracy();
        if accuracy <= self.holdout_accuracy {
            return Err(RejectReason::NoImprovement);
        }
        self.holdout_accuracy = accuracy;
        Ok(compiled)
    }
}

/// One **Validate** pass over an already-collected book: synthesizes
/// candidates and greedily admits them in signature order, skipping
/// names in `seen` (previously accepted or rejected — a daemon carries
/// this across refits so a rejected candidate is not re-tried every
/// N jobs). Returns the possibly-extended grammar and what was
/// accepted. This is the entry point the `metaformd --induce-every`
/// hook drives.
pub fn refit_grammar(
    book: &ArrangementBook,
    current: Arc<CompiledGrammar>,
    min_support: usize,
    gate: &mut InductionGate,
    seen: &mut BTreeSet<String>,
) -> (Arc<CompiledGrammar>, Vec<AcceptedCandidate>) {
    let mut grammar = current;
    let mut accepted = Vec::new();
    for candidate in synthesize_all(book, min_support) {
        if !seen.insert(candidate.name.clone()) {
            continue;
        }
        match gate.admit(&candidate, &grammar) {
            Ok(extended) => {
                grammar = extended;
                accepted.push(AcceptedCandidate {
                    name: candidate.name.clone(),
                    signature: candidate.signature.clone(),
                    support: candidate.support,
                });
            }
            Err(_) => {
                // `seen` already records it; never re-proposed.
            }
        }
    }
    (grammar, accepted)
}

/// Drives the full Collect → Infer → Validate loop over the induction
/// split, starting from the global grammar. Deterministic end to end:
/// the split is seed-fixed, mining and clustering are order-stable,
/// candidates are admitted in signature order, and the gate's metrics
/// are exact counts — so the trajectory is identical across worker
/// counts (pinned by `tests/induction.rs`).
pub fn run_induction(config: &InductionConfig) -> InductionOutcome {
    let (train, _) = induction_split();
    let random_ds = random();
    let mut grammar = global_compiled();
    let mut gate = InductionGate::new(&grammar, config.workers);
    let baseline_holdout = gate.holdout_accuracy;
    let baseline_random = {
        let extractor = extractor_for(grammar.clone(), config.workers);
        score_dataset(&extractor, &random_ds).accuracy()
    };
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut accepted_all = Vec::new();
    let mut rounds = Vec::new();

    for round in 0..config.rounds {
        let extractor = extractor_for(grammar.clone(), config.workers);
        // Collect: mine the training slice's parse residue.
        let proximity = extractor.grammar().proximity;
        let mut book = ArrangementBook::new();
        for src in &train.sources {
            let extraction = extractor.extract(&src.html);
            book.absorb_page(
                &src.name,
                &extraction.tokens,
                &extraction.report.missing,
                &extraction.pattern_spans,
                &proximity,
            );
        }
        // Infer: what the book supports this round (pre-gate, also
        // reported for the trajectory).
        let proposed: Vec<String> = synthesize_all(&book, config.min_support)
            .iter()
            .map(|c| c.name.clone())
            .collect();
        // Validate: greedy admission in signature order.
        let (extended, accepted) =
            refit_grammar(&book, grammar, config.min_support, &mut gate, &mut seen);
        grammar = extended;
        accepted_all.extend(accepted.iter().cloned());

        let extractor = extractor_for(grammar.clone(), config.workers);
        let random_accuracy = score_dataset(&extractor, &random_ds).accuracy();
        let stop = accepted.is_empty();
        rounds.push(RoundOutcome {
            round,
            mined: book.len(),
            proposed,
            accepted,
            holdout_accuracy: gate.holdout_accuracy,
            random_accuracy,
        });
        if stop {
            break;
        }
    }

    InductionOutcome {
        rounds,
        accepted: accepted_all,
        baseline_holdout,
        baseline_random,
        grammar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_corpus_keeps_only_fully_covered_pages() {
        let frozen = frozen_corpus();
        let names: Vec<&str> = frozen.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"qam"));
        assert!(names.contains(&"qaa"));
        assert!(names.contains(&"qaa-column"));
        // Pages carrying withheld patterns are exempt from freezing.
        let withheld: Vec<String> = new_source()
            .sources
            .iter()
            .filter(|s| s.patterns.iter().any(|p| !p.in_grammar()))
            .map(|s| s.name.clone())
            .collect();
        assert!(!withheld.is_empty(), "split exercises incompleteness");
        for name in &withheld {
            assert!(!names.contains(&name.as_str()), "{name} must not freeze");
        }
        assert_eq!(frozen.len(), 3 + 30 - withheld.len());
    }

    #[test]
    fn gate_rejects_inapplicable_candidates() {
        use metaform_grammar::{synthesize, Cluster};
        let base = global_compiled();
        let mut gate = InductionGate::new(&base, Some(1));
        let cluster = Cluster {
            descriptors: vec!["tb".into(), "attr".into()],
            pages: ["a", "b"].iter().map(|s| s.to_string()).collect(),
            occurrences: 2,
            max_gaps: vec![10],
        };
        let cand = synthesize("tb attr", &cluster, 2).expect("known shape");
        // Applying onto a grammar that already has the nonterminal is
        // a no-op, which the gate maps to Inapplicable.
        let extended = Arc::new(cand.apply(base.grammar()).compile().expect("compiles"));
        assert_eq!(
            gate.admit(&cand, &extended).err(),
            Some(RejectReason::Inapplicable)
        );
    }
}
