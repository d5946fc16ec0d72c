//! Ablation studies beyond the paper's headline experiments.
//!
//! - **Grammar sweep** (validates §3.1's "a few frequent ones will
//!   likely pay off"): re-run extraction with only the top-k condition
//!   patterns enabled in the grammar.
//! - **Rule probe**: remove one rule (production or preference) at a
//!   time and measure what changes — every report, the accuracies and
//!   the parser's work ([`RuleProbe`]).
//! - **Parser ablations**: preferences off (brute force), maximization
//!   off (complete parses only).

use crate::metrics::{score_extraction, DatasetScore};
use metaform_core::Token;
use metaform_datasets::{
    all_datasets, induction_split, pinned_pages, survey_corpus, Dataset, PatternId,
};
use metaform_extractor::{AdaptiveOptions, Extraction, FormExtractor, Provenance};
use metaform_grammar::{global_grammar, Grammar, GrammarBuilder};
use metaform_parser::{ParseSession, ParserOptions};
use std::sync::Arc;

/// Production names implementing each generator pattern in the global
/// grammar (empty = the pattern rides on another pattern's rules).
pub fn productions_for(pattern: PatternId) -> &'static [&'static str] {
    use PatternId::*;
    match pattern {
        TextLeft => &["TextVal:left"],
        TextAbove => &["TextVal:above"],
        TextBelow => &["TextVal:below"],
        SelLeft => &["SelVal:left", "SelVal:year", "SelVal:month", "SelVal:day"],
        SelAbove => &["SelVal:above"],
        KeywordBare => &["KwVal<-textbox", "KwVal<-textarea"],
        EnumRadioLabeled => &["EnumRB:left", "EnumRB:above"],
        EnumRadioBare => &["EnumRB:bare"],
        EnumCheckLabeled => &["EnumCB:left", "EnumCB:above"],
        BoolCheck => &["BoolCB"],
        DateMdy => &["DateMDY:left", "DateMDY:above"],
        DateMd => &["DateMD:left", "DateMD:above"],
        RangeTextConnector => &["RangeTB:connector", "RangeTB:bare"],
        RangeSelect => &["RangeSel:connector", "RangeSel:bare"],
        YearRangePair => &["YearRange:connector", "YearRange:bare"],
        NumSel => &["NumCond:left", "NumCond:above"],
        TextOpRadio => &["TextOp:attr-left", "TextOp:attr-above"],
        TextOpSelect => &["TextOpSel:op-first", "TextOpSel:op-last"],
        UnitText => &["UnitTB"],
        TextAreaCond => &[], // rides on TextVal + Val<-textarea
        SelPlaceholder => &["SelfSel<-select", "SelfSel<-number"],
        TwoBoxDate | RightLabel | BetweenRange | SelRight => &[],
    }
}

/// Rebuilds a grammar without the named rules, productions and
/// preferences alike. Preferences whose winner or loser ends up with no
/// productions are dropped too (they can never fire and their r-edges
/// would constrain scheduling for nothing).
pub fn filter_grammar(g: &Grammar, disabled: &[&str]) -> Grammar {
    let start_name = g.symbols.name(g.start).to_string();
    let mut b = GrammarBuilder::new(&start_name);
    b.proximity(g.proximity);

    // Map old symbol ids to the new builder's ids (terminals share the
    // same pre-registered layout; nonterminals are re-interned).
    let mut map = vec![None; g.symbols.len()];
    for s in g.symbols.ids() {
        let name = g.symbols.name(s).to_string();
        let new = if g.symbols.is_terminal(s) {
            match g.symbols.kind(s) {
                metaform_grammar::SymbolKind::Terminal(k) => b.t(k),
                metaform_grammar::SymbolKind::NonTerminal => unreachable!(),
            }
        } else {
            b.nt(&name)
        };
        map[s.index()] = Some(new);
    }
    let remap = |s: metaform_grammar::SymbolId| map[s.index()].expect("mapped");

    let mut has_rules = vec![false; g.symbols.len()];
    for p in &g.productions {
        if disabled.contains(&p.name.as_str()) {
            continue;
        }
        has_rules[p.head.index()] = true;
        b.production(
            &p.name,
            remap(p.head),
            p.components.iter().map(|&c| remap(c)).collect(),
            p.constraint.clone(),
            p.constructor.clone(),
        );
    }
    for r in &g.preferences {
        let alive =
            |s: metaform_grammar::SymbolId| g.symbols.is_terminal(s) || has_rules[s.index()];
        if alive(r.winner) && alive(r.loser) && !disabled.contains(&r.name.as_str()) {
            b.preference(
                &r.name,
                remap(r.winner),
                remap(r.loser),
                r.condition,
                r.criteria,
            );
        }
    }
    b.build().expect("filtering preserves validity")
}

/// The global grammar restricted to the top-k generator patterns
/// (grammar-sweep x-axis). The structural rules (units, lists, CP/HQI/QI)
/// always stay.
pub fn global_grammar_top_k(k: usize) -> Grammar {
    let full = global_grammar();
    let disabled: Vec<&'static str> = PatternId::ALL
        .iter()
        .filter(|p| p.in_grammar() && p.rank() as usize > k)
        .flat_map(|p| productions_for(*p).iter().copied())
        .collect();
    filter_grammar(&full, &disabled)
}

/// The instance cap of the starved survey run, as in the starved
/// survey golden.
const STARVED_CAP: usize = 40;

/// The corpora whose reports a [`Footprint`] renders, in its order.
pub const FOOTPRINT_CORPORA: [&str; 7] = [
    "survey",
    "survey@cap40",
    "Basic",
    "NewSource",
    "NewDomain",
    "Random",
    "holdout",
];

/// What one grammar does on the rule probe's corpora.
#[derive(Clone, Debug)]
pub struct Footprint {
    /// Every rendered report, one string per corpus of
    /// [`FOOTPRINT_CORPORA`].
    pub reports: Vec<String>,
    /// Accuracy on the four datasets and the induction holdout, in
    /// [`FOOTPRINT_CORPORA`] order.
    pub accuracy: Vec<f64>,
    /// Instances created, combinations enumerated, instances
    /// invalidated and preference pairs tested, summed over the pinned
    /// pages at the default budget.
    pub work: [u64; 4],
    /// Instances each production created on the pinned pages, indexed
    /// by production id.
    pub fired: Vec<u64>,
}

/// The leave-one-out rule probe: the survey corpus, the four datasets,
/// the induction holdout and the tokens of the pinned pages, loaded
/// once and measured under any number of grammars.
pub struct RuleProbe {
    survey: Vec<(String, String)>,
    datasets: Vec<Dataset>,
    pinned: Vec<Vec<Token>>,
}

impl RuleProbe {
    /// Generates the corpora and tokenizes the pinned pages.
    pub fn load() -> Self {
        let mut datasets = all_datasets();
        datasets.push(induction_split().1);
        RuleProbe {
            survey: survey_corpus(),
            datasets,
            pinned: pinned_pages()
                .iter()
                .map(|(_, html)| crate::timing::tokenize_source(html))
                .collect(),
        }
    }

    /// Extracts and parses every corpus under `grammar`.
    pub fn footprint(&self, grammar: Grammar) -> Footprint {
        let compiled = Arc::new(grammar.compile().expect("a filtered grammar schedules"));
        let ex = FormExtractor::with_compiled(compiled.clone());
        let names: Vec<&str> = self.survey.iter().map(|(name, _)| name.as_str()).collect();
        let pages: Vec<&str> = self.survey.iter().map(|(_, html)| html.as_str()).collect();
        let starved = ex.clone().max_instances(STARVED_CAP);
        let mut reports = vec![
            render_reports(names.iter().copied().zip(&one_pass(&ex, &pages))),
            render_reports(names.iter().copied().zip(&one_pass(&starved, &pages))),
        ];
        let mut accuracy = Vec::new();
        for ds in &self.datasets {
            let pages: Vec<&str> = ds.sources.iter().map(|s| s.html.as_str()).collect();
            let extractions = one_pass(&ex, &pages);
            let score = DatasetScore {
                name: ds.name.clone(),
                sources: ds
                    .sources
                    .iter()
                    .zip(&extractions)
                    .map(|(src, e)| score_extraction(src, e))
                    .collect(),
            };
            accuracy.push(score.accuracy());
            let names = ds.sources.iter().map(|s| s.name.as_str());
            reports.push(render_reports(names.zip(&extractions)));
        }
        let mut work = [0u64; 4];
        let mut fired = vec![0u64; compiled.grammar().productions.len()];
        let mut session = ParseSession::new(compiled);
        for tokens in &self.pinned {
            let result = session.parse(tokens);
            let s = &result.stats;
            work[0] += s.created as u64;
            work[1] += s.combos_enumerated;
            work[2] += s.invalidated as u64;
            work[3] += s.pairs_tested;
            for p in result.chart.ids().filter_map(|id| result.chart.prod(id)) {
                fired[p.index()] += 1;
            }
            session.recycle(result);
        }
        Footprint {
            reports,
            accuracy,
            work,
            fired,
        }
    }
}

/// One pass of the batch ladder with no retries, as the survey goldens
/// run it.
pub fn one_pass(ex: &FormExtractor, pages: &[&str]) -> Vec<Extraction> {
    let opts = AdaptiveOptions {
        max_retries: 0,
        ..Default::default()
    };
    ex.extract_batch_adaptive(pages, &opts).extractions
}

/// Renders named reports the way the survey goldens store them: one
/// `== name ==` header per page, the rung that served it when that is
/// not the grammar, the report's `Display` output, and a blank line.
pub fn render_reports<'a>(pages: impl IntoIterator<Item = (&'a str, &'a Extraction)>) -> String {
    let mut out = String::new();
    for (name, e) in pages {
        out.push_str("== ");
        out.push_str(name);
        out.push_str(" ==\n");
        match e.via {
            Provenance::BaselineFallback => out.push_str("(via proximity-baseline fallback)\n"),
            Provenance::PartialSalvage => out.push_str("(via salvaged partial parse)\n"),
            _ => {}
        }
        out.push_str(&e.report.to_string());
        out.push('\n');
    }
    out
}

/// Parser configurations for the parser-ablation experiment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParserMode {
    /// Full best-effort behaviour.
    Full,
    /// Preferences disabled (exhaustive §4.2.1 baseline).
    NoPreferences,
    /// Maximal partial trees discarded: only complete parses count.
    NoMaximization,
}

impl ParserMode {
    /// All modes, report order.
    pub const ALL: [ParserMode; 3] = [
        ParserMode::Full,
        ParserMode::NoPreferences,
        ParserMode::NoMaximization,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ParserMode::Full => "full",
            ParserMode::NoPreferences => "no-preferences",
            ParserMode::NoMaximization => "no-maximization",
        }
    }
}

/// Builds an extractor for a parser mode. `NoMaximization` is applied
/// at scoring time via [`complete_only`].
pub fn extractor_for(mode: ParserMode) -> FormExtractor {
    let opts = match mode {
        ParserMode::NoPreferences => ParserOptions {
            // Brute force with a budget so pathological forms terminate.
            max_instances: 200_000,
            ..ParserOptions::brute_force()
        },
        _ => ParserOptions::default(),
    };
    FormExtractor::new().parser_options(opts)
}

/// Scores a source counting only conditions from a complete parse
/// (`NoMaximization` mode): if no single tree covers every token, the
/// extraction is empty.
pub fn complete_only(
    extractor: &FormExtractor,
    src: &metaform_datasets::Source,
) -> crate::metrics::SourceScore {
    let extraction = extractor.extract(&src.html);
    let conditions = if extraction.stats.complete {
        extraction.report.conditions.clone()
    } else {
        Vec::new()
    };
    crate::metrics::SourceScore {
        name: src.name.clone(),
        domain: src.domain.clone(),
        matched: crate::metrics::match_count(&src.truth, &conditions),
        extracted: conditions.len(),
        truth: src.truth.len(),
        tokens: extraction.tokens.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{score_source, DatasetScore};
    use metaform_datasets::fixtures::qam;

    #[test]
    fn every_in_grammar_pattern_maps_to_live_productions() {
        let g = global_grammar();
        let names: Vec<&str> = g.productions.iter().map(|p| p.name.as_str()).collect();
        for p in PatternId::ALL.iter().filter(|p| p.in_grammar()) {
            for prod in productions_for(*p) {
                assert!(names.contains(prod), "{prod} missing for {p:?}");
            }
        }
    }

    #[test]
    fn filter_removes_named_productions() {
        let g = global_grammar();
        let filtered = filter_grammar(&g, &["TextVal:left", "TextVal:above", "TextVal:below"]);
        assert_eq!(filtered.productions.len(), g.productions.len() - 3);
        assert!(filtered
            .productions
            .iter()
            .all(|p| !p.name.starts_with("TextVal")));
        // Preferences on TextVal dropped with it.
        assert!(filtered
            .preferences
            .iter()
            .all(|r| !r.name.contains("TextVal")));
        assert!(filtered.preferences.len() < g.preferences.len());
    }

    #[test]
    fn filter_removes_named_preferences_and_nothing_else() {
        let g = global_grammar();
        let dsl = metaform_grammar::to_dsl;
        assert_eq!(dsl(&filter_grammar(&g, &[])), dsl(&g));
        let name = g.preferences[0].name.clone();
        let filtered = filter_grammar(&g, &[&name]);
        assert_eq!(filtered.productions.len(), g.productions.len());
        assert_eq!(filtered.preferences.len(), g.preferences.len() - 1);
        assert!(filtered.preferences.iter().all(|r| r.name != name));
    }

    #[test]
    fn top_k_grammar_shrinks_with_k() {
        let k3 = global_grammar_top_k(3);
        let k21 = global_grammar_top_k(21);
        assert!(k3.productions.len() < k21.productions.len());
        assert_eq!(k21.productions.len(), global_grammar().productions.len());
    }

    #[test]
    fn removing_textop_degrades_qam() {
        let full = FormExtractor::new();
        let full_score = score_source(&full, &qam());
        let degraded = FormExtractor::with_grammar(global_grammar_top_k(5));
        let degraded_score = score_source(&degraded, &qam());
        // Top-5 lacks TextOpRadio (rank 10): operators are lost, but the
        // plain TextVal reading keeps attribute extraction working.
        assert!(degraded_score.matched <= full_score.matched);
        assert_eq!(full_score.matched, 5);
    }

    #[test]
    fn complete_only_mode_zeroes_partial_parses() {
        let ex = extractor_for(ParserMode::Full);
        // A form with a stray unparseable token cannot complete.
        let src = metaform_datasets::Source {
            name: "x".into(),
            domain: "d".into(),
            // The captionless radio button cannot be covered by any
            // production, so no complete parse exists.
            html: "<form><input type=radio name=up> <br>Author <input type=text name=a></form>"
                .into(),
            truth: vec![metaform_core::Condition::new(
                "Author",
                vec![],
                metaform_core::DomainSpec::text(),
                vec![],
            )],
            patterns: vec![],
        };
        let normal = score_source(&ex, &src);
        assert!(normal.matched >= 1, "best-effort still finds Author");
        let strict = complete_only(&ex, &src);
        assert_eq!(strict.extracted, 0, "no complete parse, no output");
        let ds = DatasetScore {
            name: "t".into(),
            sources: vec![strict],
        };
        assert_eq!(ds.overall_recall(), 0.0);
    }

    #[test]
    fn modes_enumerate() {
        assert_eq!(ParserMode::ALL.len(), 3);
        assert_eq!(ParserMode::NoPreferences.name(), "no-preferences");
    }
}
