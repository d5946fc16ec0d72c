//! Source generation and the four evaluation datasets.
//!
//! Substitution note (see DESIGN.md §2): the paper evaluates on
//! manually collected Web sources (TEL-8, invisible-web.net). Those
//! pages no longer exist in 2004 form, so we generate synthetic sources
//! that reproduce the forces the evaluation measures: a shared,
//! Zipf-skewed pattern vocabulary; layout templates of the era;
//! held-out (unseen) patterns; decorative noise; and opaque control
//! names. All generation is seed-deterministic.

use crate::domains;
use crate::patterns::{render, PatternId};
use crate::render::{render_form, Chrome, Template};
use crate::schema::Schema;
use crate::zipf::pick_by_rank;
use metaform_core::Condition;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One generated deep-Web source.
#[derive(Clone, Debug)]
pub struct Source {
    /// Stable identifier, e.g. `books-017`.
    pub name: String,
    /// Domain name.
    pub domain: String,
    /// The query-interface page.
    pub html: String,
    /// Ground-truth semantic model.
    pub truth: Vec<Condition>,
    /// Patterns used, one per condition (survey metadata for Figure 4).
    pub patterns: Vec<PatternId>,
}

/// A named set of sources.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Dataset name (`Basic`, `NewSource`, `NewDomain`, `Random`).
    pub name: String,
    /// The sources.
    pub sources: Vec<Source>,
}

/// Generation knobs per dataset.
#[derive(Clone, Copy, Debug)]
pub struct GenParams {
    /// Minimum conditions per source.
    pub min_conditions: usize,
    /// Maximum conditions per source.
    pub max_conditions: usize,
    /// Probability a field uses an unseen (out-of-grammar) pattern.
    pub unseen_prob: f64,
    /// Probability an unlabeled widget gets an opaque control name.
    pub opaque_name_prob: f64,
    /// Probability the source carries decorative noise text.
    pub noise_prob: f64,
    /// Weights for (flow, table, columns) templates.
    pub template_weights: (u32, u32, u32),
}

impl GenParams {
    /// Profile for the Basic dataset: complex forms (the paper notes
    /// its survey was biased toward complex interfaces).
    pub fn basic() -> Self {
        GenParams {
            min_conditions: 3,
            max_conditions: 8,
            unseen_prob: 0.05,
            opaque_name_prob: 0.25,
            noise_prob: 0.20,
            template_weights: (3, 6, 1),
        }
    }

    /// Profile for NewSource: simpler, more "random" collections.
    pub fn new_source() -> Self {
        GenParams {
            min_conditions: 2,
            max_conditions: 5,
            unseen_prob: 0.03,
            opaque_name_prob: 0.20,
            noise_prob: 0.12,
            template_weights: (4, 6, 0),
        }
    }

    /// Profile for NewDomain.
    pub fn new_domain() -> Self {
        GenParams {
            min_conditions: 3,
            max_conditions: 6,
            unseen_prob: 0.05,
            opaque_name_prob: 0.25,
            noise_prob: 0.18,
            template_weights: (3, 6, 1),
        }
    }

    /// Profile for the induction split: withheld patterns injected at
    /// an order of magnitude above survey rates, so a small batch
    /// yields enough recurring unparsed arrangements to mine, and
    /// table-dominated layout, where each condition renders as its own
    /// visual row (the flow template concatenates a withheld pattern's
    /// label and connector text into one token, destroying the
    /// arrangement evidence at the token granularity mining works at).
    pub fn induction() -> Self {
        GenParams {
            min_conditions: 2,
            max_conditions: 5,
            unseen_prob: 0.55,
            opaque_name_prob: 0.20,
            noise_prob: 0.10,
            template_weights: (2, 8, 0),
        }
    }

    /// Profile for Random: highest heterogeneity.
    pub fn random() -> Self {
        GenParams {
            min_conditions: 2,
            max_conditions: 7,
            unseen_prob: 0.10,
            opaque_name_prob: 0.30,
            noise_prob: 0.25,
            template_weights: (4, 5, 1),
        }
    }
}

/// Meaningful control name derived from a label ("Reader age" →
/// `reader_age`), which the extractor's unlabeled fallback can recover.
fn meaningful_control(label: &str) -> String {
    metaform_core::normalize_label(label).replace(' ', "_")
}

/// Generates one source from a schema.
pub fn generate_source(schema: &Schema, index: usize, seed: u64, params: &GenParams) -> Source {
    let mut hash = seed;
    for b in schema.name.bytes() {
        hash = hash.wrapping_mul(0x100000001B3).wrapping_add(u64::from(b));
    }
    let mut rng = StdRng::seed_from_u64(hash ^ ((index as u64) << 32) ^ 0x5EED);

    let want = rng
        .gen_range(params.min_conditions..=params.max_conditions)
        .min(schema.fields.len());
    // Pick fields Zipf-weighted by schema position (early = popular).
    let mut remaining: Vec<usize> = (0..schema.fields.len()).collect();
    let mut picked = Vec::with_capacity(want);
    while picked.len() < want {
        let ranks: Vec<u32> = remaining.iter().map(|&i| i as u32 + 1).collect();
        let at = pick_by_rank(&mut rng, &ranks);
        picked.push(remaining.remove(at));
    }
    picked.sort_unstable(); // render in schema order, as sources do

    let mut items = Vec::with_capacity(want);
    let mut truth = Vec::with_capacity(want);
    let mut patterns = Vec::with_capacity(want);
    for (slot, &fi) in picked.iter().enumerate() {
        let field = &schema.fields[fi];
        let (seen, unseen) = PatternId::compatible(&field.kind);
        let pattern = if !unseen.is_empty() && rng.gen_bool(params.unseen_prob) {
            unseen[rng.gen_range(0..unseen.len())]
        } else {
            let ranks: Vec<u32> = seen.iter().map(|p| p.rank()).collect();
            seen[pick_by_rank(&mut rng, &ranks)]
        };
        let control = if rng.gen_bool(params.opaque_name_prob) {
            format!("f{slot}")
        } else {
            meaningful_control(&field.label)
        };
        items.push(render(pattern, field, &control, &mut rng));
        truth.push(field.truth());
        patterns.push(pattern);
    }

    let template = {
        let (wf, wt, wc) = params.template_weights;
        let total = wf + wt + wc;
        let roll = rng.gen_range(0..total);
        if roll < wf {
            Template::Flow
        } else if roll < wf + wt {
            Template::Table
        } else {
            Template::Columns
        }
    };

    let mut chrome = Chrome {
        title: Some(format!("{} Search", schema.name)),
        submit: ["Search", "Go", "Find", "Submit Query"][rng.gen_range(0..4usize)].to_string(),
        reset: rng.gen_bool(0.4),
        hidden: rng.gen_bool(0.3),
        notes: Vec::new(),
    };
    if rng.gen_bool(params.noise_prob) && !items.is_empty() {
        let at = rng.gen_range(0..items.len());
        let note = [
            "e.g. Tom Clancy<br>\n",
            "New!<br>\n",
            "Advanced options below<br>\n",
            "All fields are optional and may be combined freely<br>\n",
            "<img src=\"spacer.gif\" width=\"120\" height=\"8\"><br>\n",
            "<hr>\n",
        ][rng.gen_range(0..6usize)];
        chrome.notes.push((at, note.to_string()));
    }

    let html = render_form(&items, template, &chrome);
    Source {
        name: format!("{}-{index:03}", schema.name.to_lowercase()),
        domain: schema.name.clone(),
        html,
        truth,
        patterns,
    }
}

fn generate_many(schemas: &[Schema], per: usize, seed: u64, params: &GenParams) -> Vec<Source> {
    let mut out = Vec::with_capacity(schemas.len() * per);
    for schema in schemas {
        for i in 0..per {
            out.push(generate_source(schema, i, seed, params));
        }
    }
    out
}

/// The Basic dataset: 150 sources, 50 per core domain (paper §3.1).
pub fn basic() -> Dataset {
    let schemas = [
        domains::books(),
        domains::automobiles(),
        domains::airfares(),
    ];
    Dataset {
        name: "Basic".into(),
        sources: generate_many(&schemas, 50, 0xB001C, &GenParams::basic()),
    }
}

/// NewSource: 10 extra interfaces per core domain (30 total).
pub fn new_source() -> Dataset {
    let schemas = [
        domains::books(),
        domains::automobiles(),
        domains::airfares(),
    ];
    Dataset {
        name: "NewSource".into(),
        sources: generate_many(&schemas, 10, 0x9E1500, &GenParams::new_source()),
    }
}

/// NewDomain: ~7 sources from each of six unseen domains (42 total).
pub fn new_domain() -> Dataset {
    Dataset {
        name: "NewDomain".into(),
        sources: generate_many(
            &domains::new_domains(),
            7,
            0xD033A1,
            &GenParams::new_domain(),
        ),
    }
}

/// Random: 30 sources sampled over 16 heterogeneous pools.
pub fn random() -> Dataset {
    let pools = domains::random_pools();
    let mut rng = StdRng::seed_from_u64(0x4A11D0);
    let params = GenParams::random();
    let mut sources = Vec::with_capacity(30);
    for i in 0..30 {
        let pool = &pools[rng.gen_range(0..pools.len())];
        sources.push(generate_source(pool, i, 0x4A11D0, &params));
    }
    Dataset {
        name: "Random".into(),
        sources,
    }
}

/// The grammar-induction split: one withheld-pattern-heavy pool over
/// the three core domains, divided page-wise into a mining slice
/// (`InduceTrain`, even indices) and a held-out validation slice
/// (`InduceHoldout`, odd indices).
///
/// The split is page-wise rather than domain-wise on purpose: a
/// candidate production is synthesized from *train* arrangements, but
/// the validation gate demands it improve accuracy on *holdout* pages
/// it never saw — same pattern vocabulary, different pages — which is
/// exactly the generalization the paper's hidden-syntax hypothesis
/// predicts and overfit candidates (one page's accidental geometry)
/// fail. Seed-deterministic and disjoint from every evaluation
/// dataset's seed.
pub fn induction_split() -> (Dataset, Dataset) {
    let schemas = [
        domains::books(),
        domains::automobiles(),
        domains::airfares(),
    ];
    let pool = generate_many(&schemas, 16, 0x1D0CE5, &GenParams::induction());
    let (mut train, mut holdout) = (Vec::new(), Vec::new());
    for (i, src) in pool.into_iter().enumerate() {
        if i % 2 == 0 {
            train.push(src);
        } else {
            holdout.push(src);
        }
    }
    (
        Dataset {
            name: "InduceTrain".into(),
            sources: train,
        },
        Dataset {
            name: "InduceHoldout".into(),
            sources: holdout,
        },
    )
}

/// All four datasets in evaluation order.
pub fn all_datasets() -> Vec<Dataset> {
    vec![basic(), new_source(), new_domain(), random()]
}

/// The named `(name, html)` corpus the end-to-end serving tests run:
/// the two hand-written paper fixtures, the Figure 14 column variant,
/// and the whole NewSource dataset. Seed-deterministic, so golden
/// reports and HTTP-vs-in-process differential comparisons over it are
/// byte-stable across runs and machines.
pub fn survey_corpus() -> Vec<(String, String)> {
    let mut corpus = vec![
        ("qam".to_string(), crate::fixtures::qam().html),
        ("qaa".to_string(), crate::fixtures::qaa().html),
        (
            "qaa-column".to_string(),
            crate::fixtures::qaa_column_variant(),
        ),
    ];
    corpus.extend(new_source().sources.into_iter().map(|s| (s.name, s.html)));
    corpus
}

/// The fixed page set the token and parser-work goldens pin, and the
/// rule probe of `experiments rules` measures: the survey corpus plus
/// the 25 generator schemas × pages 0–7 at seed 1, each under its
/// evaluation profile. `(name, html)` in golden-file order.
pub fn pinned_pages() -> Vec<(String, String)> {
    let mut pages = survey_corpus();
    let schemas = [
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
    );
    for (schema, params) in schemas {
        for page in 0..8 {
            let html = generate_source(&schema, page, 1, &params).html;
            pages.push((format!("{}/p{page}/s1", schema.name), html));
        }
    }
    pages
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_sizes_match_paper() {
        assert_eq!(basic().sources.len(), 150);
        assert_eq!(new_source().sources.len(), 30);
        assert_eq!(new_domain().sources.len(), 42);
        assert_eq!(random().sources.len(), 30);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = basic();
        let b = basic();
        assert_eq!(a.sources[17].html, b.sources[17].html);
        assert_eq!(a.sources[99].truth.len(), b.sources[99].truth.len());
    }

    #[test]
    fn sources_have_truth_and_valid_html() {
        for src in basic().sources.iter().take(20) {
            assert!(!src.truth.is_empty());
            assert_eq!(src.truth.len(), src.patterns.len());
            assert!(src.html.contains("<form"));
            assert!(src.html.contains("submit"));
            // HTML must survive our own parser.
            let doc = metaform_html::parse(&src.html);
            assert!(!doc.elements_by_tag(doc.root(), "form").is_empty());
        }
    }

    #[test]
    fn basic_spans_three_domains() {
        let d = basic();
        let mut domains: Vec<&str> = d.sources.iter().map(|s| s.domain.as_str()).collect();
        domains.sort_unstable();
        domains.dedup();
        assert_eq!(domains, vec!["Airfares", "Automobiles", "Books"]);
    }

    #[test]
    fn pattern_usage_is_zipf_skewed() {
        use std::collections::HashMap;
        let mut counts: HashMap<PatternId, usize> = HashMap::new();
        for src in basic().sources {
            for p in src.patterns {
                *counts.entry(p).or_default() += 1;
            }
        }
        let top = counts.get(&PatternId::TextLeft).copied().unwrap_or(0)
            + counts.get(&PatternId::SelLeft).copied().unwrap_or(0);
        let total: usize = counts.values().sum();
        assert!(
            top * 4 > total,
            "top-2 patterns should account for over a quarter of uses: {top}/{total}"
        );
        let rank1 = counts.get(&PatternId::TextLeft).copied().unwrap_or(0);
        let rank21 = counts.get(&PatternId::TextBelow).copied().unwrap_or(0);
        assert!(
            rank1 > 5 * rank21.max(1),
            "rank-1 must dwarf rank-21: {rank1} vs {rank21}"
        );
        // Unseen patterns appear, but rarely.
        let unseen: usize = counts
            .iter()
            .filter(|(p, _)| !p.in_grammar())
            .map(|(_, c)| c)
            .sum();
        assert!(unseen > 0, "incompleteness must be exercised");
        assert!(unseen * 8 < total, "but stay rare: {unseen}/{total}");
    }

    #[test]
    fn random_dataset_covers_many_pools() {
        let d = random();
        let mut names: Vec<&str> = d.sources.iter().map(|s| s.domain.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert!(names.len() >= 10, "{names:?}");
    }

    #[test]
    fn survey_corpus_is_deterministic_and_named() {
        let a = survey_corpus();
        let b = survey_corpus();
        assert_eq!(a.len(), 33, "3 fixtures + 30 NewSource pages");
        assert_eq!(a[0].0, "qam");
        let names: std::collections::BTreeSet<&str> = a.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names.len(), a.len(), "names are unique");
        for ((an, ah), (bn, bh)) in a.iter().zip(&b) {
            assert_eq!(an, bn);
            assert_eq!(ah, bh);
        }
    }

    #[test]
    fn induction_split_is_deterministic_and_withheld_heavy() {
        let (train, holdout) = induction_split();
        let (train2, _) = induction_split();
        assert_eq!(train.sources.len(), 24);
        assert_eq!(holdout.sources.len(), 24);
        assert_eq!(train.sources[5].html, train2.sources[5].html);
        let names: std::collections::BTreeSet<&str> = train
            .sources
            .iter()
            .chain(&holdout.sources)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names.len(), 48, "slices are disjoint");
        // Both slices must exercise withheld patterns — train to mine
        // from, holdout for the validation gate to measure against.
        for slice in [&train, &holdout] {
            let withheld = slice
                .sources
                .iter()
                .flat_map(|s| &s.patterns)
                .filter(|p| !p.in_grammar())
                .count();
            assert!(withheld >= 8, "{}: only {withheld} withheld", slice.name);
        }
    }

    #[test]
    fn meaningful_controls_round_trip() {
        assert_eq!(meaningful_control("Reader age"), "reader_age");
        assert_eq!(meaningful_control("Price:"), "price");
    }
}
