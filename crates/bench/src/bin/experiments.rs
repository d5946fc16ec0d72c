//! Regenerates every table and figure of the paper's evaluation, plus
//! this reproduction's ablations. Run as:
//!
//! ```text
//! cargo run --release -p metaform-bench --bin experiments [-- <which>...]
//! ```
//!
//! where `<which>` ∈ {fig4a, fig4b, ambiguity, timing, fig14, fig15,
//! grammar-sweep, parser-ablation, baseline, resolve, domains,
//! adaptive, rules, all} (default: all).

use metaform_datasets::{all_datasets, basic, fixtures, new_source};
use metaform_eval::table::{bar, f3, pct, TextTable};
use metaform_eval::{
    ablation, distribution, metrics, timing, vocabulary, DatasetScore, ParserMode, THRESHOLDS,
};
use metaform_extractor::{AdaptiveOptions, Fault, FaultPlan, FormExtractor};
use metaform_grammar::{global_compiled, global_grammar, paper_example_grammar};
use metaform_parser::{merge, ParseSession, ParserOptions};
use std::sync::Arc;

/// Output sink: prints tables and optionally mirrors them as CSV files
/// under `--csv <dir>` for external plotting.
struct Out {
    csv_dir: Option<std::path::PathBuf>,
}

impl Out {
    fn table(&self, name: &str, t: &TextTable) {
        println!("{}", t.render());
        if let Some(dir) = &self.csv_dir {
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = std::fs::write(&path, t.to_csv()) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
    }
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let csv_dir = raw.iter().position(|a| a == "--csv").map(|at| {
        raw.remove(at);
        if at < raw.len() {
            std::path::PathBuf::from(raw.remove(at))
        } else {
            eprintln!("--csv needs a directory");
            std::process::exit(2);
        }
    });
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let out = Out { csv_dir };
    let args = raw;
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");

    println!("metaform experiments — reproduction of Zhang, He & Chang, SIGMOD 2004");
    // Compiled once here; every experiment below shares this artifact
    // (FormExtractor::new() taps the same process-wide cache).
    let compiled = global_compiled();
    println!("global grammar: {}\n", compiled.grammar().stats());

    if want("fig4a") {
        fig4a(&out);
    }
    if want("fig4b") {
        fig4b(&out);
    }
    if want("ambiguity") {
        ambiguity(&out);
    }
    if want("timing") {
        timing_experiment();
    }
    if want("fig14") {
        fig14();
    }
    if want("fig15") {
        fig15(&out);
    }
    if want("grammar-sweep") {
        grammar_sweep(&out);
    }
    if want("parser-ablation") {
        parser_ablation(&out);
    }
    if want("baseline") {
        baseline(&out);
    }
    if want("resolve") {
        resolve(&out);
    }
    if want("domains") {
        domains(&out);
    }
    if want("adaptive") {
        adaptive(&out);
    }
    if want("rules") {
        rules(&out);
    }
}

/// Figure 4(a): vocabulary growth over sources.
fn fig4a(out: &Out) {
    println!("== Figure 4(a): vocabulary growth over the Basic dataset ==");
    let ds = basic();
    let curve = vocabulary::growth_curve(&ds);
    let marks = [0usize, 9, 24, 49, 74, 99, 124, 149];
    let mut t = TextTable::new(&["sources seen", "distinct patterns"]);
    for &m in &marks {
        t.row(&[format!("{}", m + 1), format!("{}", curve[m])]);
    }
    out.table("fig4a_growth", &t);
    let occ = vocabulary::occurrences(&ds);
    println!(
        "occurrence matrix: {} '+' marks over {} sources x {} patterns",
        occ.len(),
        ds.sources.len(),
        curve.last().copied().unwrap_or(0)
    );
    println!("paper: 25 patterns overall, 21 more-than-once, curve flattens rapidly\n");
}

/// Figure 4(b): pattern frequencies over ranks.
fn fig4b(out: &Out) {
    println!("== Figure 4(b): pattern frequencies over ranks (Basic) ==");
    let ds = basic();
    let rf = vocabulary::ranked_frequencies(&ds);
    let mut headers = vec!["rank", "pattern", "total"];
    let domain_names: Vec<&str> = rf.domains.iter().map(String::as_str).collect();
    headers.extend(domain_names);
    let mut t = TextTable::new(&headers);
    let max = rf.rows.first().map(|r| r.2).unwrap_or(0) as f64;
    for (i, (p, per, total)) in rf.rows.iter().enumerate() {
        let mut row = vec![
            format!("{}", i + 1),
            p.name().to_string(),
            format!("{total}"),
        ];
        row.extend(per.iter().map(|c| format!("{c}")));
        t.row(&row);
    }
    out.table("fig4b_frequencies", &t);
    println!("profile (Zipf head):");
    for (p, _, total) in rf.rows.iter().take(8) {
        println!("{}", bar(p.name(), *total as f64, max, 40));
    }
    println!("paper: characteristic Zipf distribution\n");
}

/// §4.2.1: ambiguity blow-up — brute force vs just-in-time pruning on
/// the Figure 5 fragment (grammar G).
fn ambiguity(out: &Out) {
    println!("== Section 4.2.1: inherent ambiguity (grammar G, Figure 5 fragment) ==");
    let g = Arc::new(
        paper_example_grammar()
            .compile()
            .expect("paper grammar is schedulable"),
    );
    let tokens = timing::tokenize_source(&fixtures::figure5_fragment());
    let pruned = ParseSession::new(g.clone()).parse(&tokens);
    let brute = ParseSession::with_options(g, ParserOptions::brute_force()).parse(&tokens);
    let mut t = TextTable::new(&[
        "mode",
        "tokens",
        "instances",
        "temporary",
        "invalidated",
        "complete parses",
        "maximal trees",
    ]);
    for (name, r) in [("just-in-time pruning", &pruned), ("brute force", &brute)] {
        t.row(&[
            name.to_string(),
            format!("{}", r.stats.tokens),
            format!("{}", r.stats.created),
            format!("{}", r.stats.temporary),
            format!("{}", r.stats.invalidated),
            format!("{}", r.stats.complete_parses),
            format!("{}", r.stats.trees),
        ]);
    }
    out.table("ambiguity", &t);
    println!(
        "paper (16-token fragment): correct parse 42 instances / 1 tree; \
         brute force 25 trees, 773 instances (645 temporary)\n"
    );
}

/// §5.1: parse timing.
fn timing_experiment() {
    println!("== Section 5.1: parse timing ==");
    let ex = FormExtractor::new();
    let ds = basic();
    let single = timing::single_interface(&ex, &ds, 25);
    println!(
        "interface of size {} (tokens): parse time {:?}, {} instances",
        single.tokens, single.parse_time, single.instances
    );
    let batch = timing::batch(&ex, &ds, 120);
    println!(
        "{} interfaces (avg size {:.1}): total parse time {:?}",
        batch.interfaces, batch.avg_tokens, batch.total_parse_time
    );
    let pages: Vec<&str> = ds
        .sources
        .iter()
        .take(120)
        .map(|s| s.html.as_str())
        .collect();
    let one_pass = AdaptiveOptions {
        max_retries: 0,
        ..Default::default()
    };
    let stats = ex.extract_batch_adaptive(&pages, &one_pass).stats;
    assert_eq!(stats.schedules_built, 0, "compile-once violated");
    assert_eq!(stats.failed(), 0, "curated pages must not fail");
    println!("parallel end-to-end batch: {}", stats.summary());

    // Fault isolation: splice one poison page (injected panic) into
    // the batch — the other pages must be unaffected, the failure
    // accounted per cause.
    let mut poisoned_pages = pages.clone();
    poisoned_pages.push("<form>__POISON__ <input type=text name=p></form>");
    let poisoned =
        FormExtractor::new().fault_plan(FaultPlan::new().with(pages.len(), Fault::Panic));
    // The injected panic is caught at the page boundary; silence the
    // default hook so the demo's output is the accounting line, not a
    // backtrace.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let fault_stats = poisoned
        .extract_batch_adaptive(&poisoned_pages, &one_pass)
        .stats;
    std::panic::set_hook(hook);
    assert_eq!(fault_stats.panicked, 1);
    assert_eq!(fault_stats.degraded, 1);
    println!(
        "fault isolation ({} pages + 1 poison): panicked={} truncated={} \
         timed_out={} degraded={} — batch completed",
        pages.len(),
        fault_stats.panicked,
        fault_stats.truncated,
        fault_stats.timed_out,
        fault_stats.degraded
    );
    println!(
        "paper (P4 1.8GHz, 2004): ~1 s for a 25-token interface; \
         120 interfaces (avg 22) < 100 s\n"
    );
}

/// Figure 14: partial trees and the merger's conflict report on the
/// column-major Qaa variant.
fn fig14() {
    println!("== Figure 14: partial trees under an uncaptured form pattern ==");
    let html = fixtures::qaa_column_variant();
    let compiled = global_compiled();
    let tokens = timing::tokenize_source(&html);
    let result = ParseSession::new(compiled.clone()).parse(&tokens);
    println!(
        "tokens={} maximal partial trees={} (complete parse: {})",
        tokens.len(),
        result.trees.len(),
        result.stats.complete
    );
    for (i, &tr) in result.trees.iter().enumerate() {
        println!(
            "  tree {}: {} covering {} tokens",
            i + 1,
            compiled.grammar().symbols.name(result.chart.symbol(tr)),
            result.chart.span(tr).count()
        );
    }
    let report = merge(&result.chart, &result.trees);
    println!("merged semantic model:");
    print!("{report}");
    println!(
        "paper: three partial parses whose union covers the interface; \
         the number selection list is contested\n"
    );
}

/// Figure 15(a–d): precision/recall over the four datasets.
fn fig15(out: &Out) {
    println!("== Figure 15: precision and recall over the four datasets ==");
    let ex = FormExtractor::new();
    let scores: Vec<DatasetScore> = all_datasets()
        .iter()
        .map(|ds| metrics::score_dataset(&ex, ds))
        .collect();

    println!("-- (a) source distribution over precision (cumulative %) --");
    dist_table(
        out,
        "fig15a_precision_distribution",
        &scores,
        distribution::precision_distribution,
    );
    println!("-- (b) source distribution over recall (cumulative %) --");
    dist_table(
        out,
        "fig15b_recall_distribution",
        &scores,
        distribution::recall_distribution,
    );

    println!("-- (c) average per-source precision and recall --");
    let mut t = TextTable::new(&["dataset", "avg precision", "avg recall"]);
    for s in &scores {
        t.row(&[s.name.clone(), f3(s.avg_precision()), f3(s.avg_recall())]);
    }
    out.table("fig15c_average", &t);

    println!("-- (d) overall precision and recall --");
    let mut t = TextTable::new(&["dataset", "Pa", "Ra", "accuracy"]);
    for s in &scores {
        t.row(&[
            s.name.clone(),
            f3(s.overall_precision()),
            f3(s.overall_recall()),
            f3(s.accuracy()),
        ]);
    }
    out.table("fig15d_overall", &t);
    println!(
        "paper: ~0.85 overall P/R on Basic/NewSource/NewDomain; \
         Random Pa=0.80 Ra=0.89 (accuracy 0.85); NewSource best\n"
    );
}

fn dist_table(
    out: &Out,
    name: &str,
    scores: &[DatasetScore],
    f: impl Fn(&DatasetScore) -> [f64; 6],
) {
    let mut headers = vec!["dataset".to_string()];
    headers.extend(THRESHOLDS.iter().map(|t| format!(">={t}")));
    let hs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = TextTable::new(&hs);
    for s in scores {
        let dist = f(s);
        let mut row = vec![s.name.clone()];
        row.extend(dist.iter().map(|v| pct(*v)));
        t.row(&row);
    }
    out.table(name, &t);
}

/// Ablation E11: accuracy with only the top-k patterns in the grammar.
fn grammar_sweep(out: &Out) {
    println!("== Ablation: grammar restricted to the top-k condition patterns ==");
    let ds = new_source();
    let mut t = TextTable::new(&["k", "productions", "Pa", "Ra", "accuracy"]);
    for k in [1, 3, 5, 8, 12, 16, 21] {
        let g = ablation::global_grammar_top_k(k);
        let prods = g.productions.len();
        let ex = FormExtractor::with_grammar(g);
        let s = metrics::score_dataset(&ex, &ds);
        t.row(&[
            format!("{k}"),
            format!("{prods}"),
            f3(s.overall_precision()),
            f3(s.overall_recall()),
            f3(s.accuracy()),
        ]);
    }
    out.table("grammar_sweep", &t);
    println!(
        "expectation (§3.1): a few frequent patterns already pay off; \
         the tail adds the rest\n"
    );
}

/// Ablation E12: parser components on/off.
fn parser_ablation(out: &Out) {
    println!("== Ablation: parser components (Random dataset) ==");
    let ds = metaform_datasets::random();
    let mut t = TextTable::new(&["mode", "Pa", "Ra", "accuracy"]);
    for mode in ParserMode::ALL {
        let ex = ablation::extractor_for(mode);
        let score = match mode {
            ParserMode::NoMaximization => DatasetScore {
                name: ds.name.clone(),
                sources: ds
                    .sources
                    .iter()
                    .map(|s| ablation::complete_only(&ex, s))
                    .collect(),
            },
            _ => metrics::score_dataset(&ex, &ds),
        };
        t.row(&[
            mode.name().to_string(),
            f3(score.overall_precision()),
            f3(score.overall_recall()),
            f3(score.accuracy()),
        ]);
    }
    out.table("parser_ablation", &t);
    println!(
        "expectation: preferences mainly buy speed and precision; \
         maximization buys recall on imperfect forms\n"
    );
}

/// Comparison E13: best-effort parser vs pairwise-proximity baseline.
fn baseline(out: &Out) {
    println!("== Comparison: hidden-syntax parser vs proximity baseline ==");
    let ex = FormExtractor::new();
    let mut t = TextTable::new(&["dataset", "parser Pa/Ra", "baseline Pa/Ra"]);
    for ds in all_datasets() {
        let p = metrics::score_dataset(&ex, &ds);
        let b = metrics::score_dataset_baseline(&ds);
        t.row(&[
            ds.name.clone(),
            format!("{}/{}", f3(p.overall_precision()), f3(p.overall_recall())),
            format!("{}/{}", f3(b.overall_precision()), f3(b.overall_recall())),
        ]);
    }
    out.table("baseline", &t);
    println!("expectation: global parsing dominates pairwise heuristics (§2)\n");
}

/// Extension (paper §7): resolving conflicts and missing elements with
/// cross-source domain knowledge and textual similarity.
fn resolve(out: &Out) {
    println!("== Extension (§7): client-side error resolution with domain knowledge ==");
    let ex = FormExtractor::new();
    let ds = basic();

    // Pass 1: extract everything, learn each domain's attribute
    // vocabulary from the non-conflicting conditions.
    use std::collections::BTreeMap;
    let mut knowledge: BTreeMap<&str, metaform_extractor::DomainKnowledge> = BTreeMap::new();
    let mut raw = Vec::with_capacity(ds.sources.len());
    for src in &ds.sources {
        let extraction = ex.extract(&src.html);
        knowledge
            .entry(src.domain.as_str())
            .or_default()
            .learn(&extraction.report);
        raw.push(extraction);
    }

    // Pass 2: refine each source's report with its domain's knowledge.
    let mut t = TextTable::new(&["model", "Pa", "Ra", "accuracy", "conflicts", "missing"]);
    for (label, refine) in [("raw merger output", false), ("with §7 resolution", true)] {
        let mut matched = 0usize;
        let mut extracted = 0usize;
        let mut truth = 0usize;
        let mut conflicts = 0usize;
        let mut missing = 0usize;
        for (src, extraction) in ds.sources.iter().zip(&raw) {
            let report = if refine {
                let k = &knowledge[src.domain.as_str()];
                let resolved = metaform_extractor::resolve_conflicts(&extraction.report, k);
                metaform_extractor::attach_missing(&resolved, &extraction.tokens, k)
            } else {
                extraction.report.clone()
            };
            matched += metrics::match_count(&src.truth, &report.conditions);
            extracted += report.conditions.len();
            truth += src.truth.len();
            conflicts += report.conflicts.len();
            missing += report.missing.len();
        }
        let pa = matched as f64 / extracted.max(1) as f64;
        let ra = matched as f64 / truth.max(1) as f64;
        t.row(&[
            label.to_string(),
            f3(pa),
            f3(ra),
            f3((pa + ra) / 2.0),
            conflicts.to_string(),
            missing.to_string(),
        ]);
    }
    out.table("resolve", &t);
    println!(
        "expectation: conflicts consumed, some missing labels re-attached, \
         accuracy nudged upward — the paper's proposed client-side loop\n"
    );
}

/// E17: adaptive retry — recovery rate as a function of the retry
/// budget, on a corpus whose per-page instance cap is pinned low
/// enough that most pages truncate on the first pass. Each retry
/// doubles the budget, so `max_retries = r` recovers exactly the pages
/// whose unbounded parse fits within `cap × 2^r` instances.
fn adaptive(out: &Out) {
    println!("== Adaptive retry: recovery rate vs retry budget (Basic, 60 pages) ==");
    let ds = basic();
    let pages: Vec<&str> = ds
        .sources
        .iter()
        .take(60)
        .map(|s| s.html.as_str())
        .collect();
    // Pin the first-pass cap at the corpus's 25th percentile of
    // observed instance counts: three quarters of the pages truncate
    // on the first pass and need escalation.
    let ex = FormExtractor::new();
    let mut created: Vec<usize> = pages.iter().map(|p| ex.extract(p).stats.created).collect();
    created.sort_unstable();
    let cap = created[pages.len() / 4].max(2);
    println!("first-pass cap: {cap} instances (25th percentile of the corpus)");

    let capped = FormExtractor::new().max_instances(cap);
    let mut t = TextTable::new(&[
        "max_retries",
        "failed first pass",
        "retried",
        "recovered",
        "salvaged",
        "degraded",
        "recovery rate",
        "salvage rate",
    ]);
    for max_retries in 0..=3 {
        let batch = capped.extract_batch_adaptive(
            &pages,
            &AdaptiveOptions {
                max_retries,
                budget_growth: 2,
            },
        );
        let first_pass_failures = batch.failures.len();
        let rate = 100.0 * batch.stats.recovered as f64 / first_pass_failures.max(1) as f64;
        // Of the pages retries could not save, how many were still
        // served a partial grammar-path report instead of the baseline.
        let lost = batch.stats.salvaged + batch.stats.degraded;
        let salvage_rate = 100.0 * batch.stats.salvaged as f64 / lost.max(1) as f64;
        t.row(&[
            format!("{max_retries}"),
            format!("{first_pass_failures}"),
            format!("{}", batch.stats.retried),
            format!("{}", batch.stats.recovered),
            format!("{}", batch.stats.salvaged),
            format!("{}", batch.stats.degraded),
            pct(rate),
            pct(salvage_rate),
        ]);
    }
    out.table("adaptive_retry", &t);
    println!(
        "expectation: recovery climbs with the retry budget as each doubling \
         clears the next slice of the instance-count distribution; the pages \
         no retry budget saves are mostly salvaged, not degraded\n"
    );
}

/// Per-domain breakdown within the Basic dataset (the granularity of
/// paper Figure 4(b)'s domain columns, applied to accuracy).
fn domains(out: &Out) {
    println!("== Per-domain accuracy (Basic dataset) ==");
    let ex = FormExtractor::new();
    let score = metrics::score_dataset(&ex, &basic());
    let mut names: Vec<String> = score.sources.iter().map(|s| s.domain.clone()).collect();
    names.sort();
    names.dedup();
    let mut t = TextTable::new(&["domain", "sources", "Pa", "Ra", "accuracy"]);
    for name in names {
        let subset: Vec<_> = score
            .sources
            .iter()
            .filter(|s| s.domain == name)
            .cloned()
            .collect();
        let n = subset.len();
        let ds = DatasetScore {
            name: name.clone(),
            sources: subset,
        };
        t.row(&[
            name,
            n.to_string(),
            f3(ds.overall_precision()),
            f3(ds.overall_recall()),
            f3(ds.accuracy()),
        ]);
    }
    out.table("domains", &t);
    println!("expectation: generic patterns carry all three domains evenly\n");
}

/// E18: every rule of the global grammar removed alone. Each row gives
/// the instances a production creates on the pinned pages (`fired`),
/// which corpora's reports change without the rule, how accuracy moves
/// on the four datasets and the induction holdout, and how the
/// parser's work on the pinned pages moves; the verdict is the first
/// that holds of:
///
/// - `dead (proof)`: the rule cannot fire whatever the page — its
///   head is unreachable from the start symbol, or a preference's
///   winner and loser share no terminal kind;
/// - `accuracy`, `report`: removing it moves an accuracy, or changes
///   a report;
/// - `work`: removing it makes the parser create, enumerate or test
///   more on the pinned pages;
/// - `unexercised`: a production no report needs — on the pinned pages
///   it fires nothing, or only instances that lose. Its pattern stays,
///   and a hand page in `tests/end_to_end.rs` reads it;
/// - `idle`: a preference none of the above holds for — it settles no
///   ambiguity the corpora show, so it costs pair tests and buys
///   nothing.
fn rules(out: &Out) {
    println!("== E18: each rule of the global grammar removed alone ==");
    let g = global_grammar();
    let probe = ablation::RuleProbe::load();
    let base = probe.footprint(g.clone());
    let unreachable = g.unreachable_nonterminals();
    let disjoint = g.disjoint_preferences();
    let delta = |d: f64| {
        if d == 0.0 {
            "0".to_string()
        } else {
            format!("{d:+.4}")
        }
    };
    let mut t = TextTable::new(&[
        "rule",
        "fired",
        "reports changed",
        "Δaccuracy B/NS/ND/R",
        "Δholdout",
        "Δcreated",
        "Δcombos",
        "Δinvalidated",
        "Δpairs_tested",
        "verdict",
    ]);
    let rules = g
        .productions
        .iter()
        .enumerate()
        .map(|(i, p)| {
            (
                p.name.as_str(),
                Some(i),
                unreachable.contains(&g.symbols.name(p.head)),
            )
        })
        .chain(
            g.preferences
                .iter()
                .map(|r| (r.name.as_str(), None, disjoint.contains(&r.name.as_str()))),
        );
    let mut verdicts = std::collections::BTreeMap::<&str, usize>::new();
    for (name, production, dead) in rules {
        let fp = probe.footprint(ablation::filter_grammar(&g, &[name]));
        let changed: Vec<&str> = ablation::FOOTPRINT_CORPORA
            .iter()
            .zip(fp.reports.iter().zip(&base.reports))
            .filter(|(_, (a, b))| a != b)
            .map(|(&label, _)| label)
            .collect();
        let d_acc: Vec<f64> = fp
            .accuracy
            .iter()
            .zip(&base.accuracy)
            .map(|(a, b)| a - b)
            .collect();
        let d_work: Vec<i64> = fp
            .work
            .iter()
            .zip(&base.work)
            .map(|(&a, &b)| a as i64 - b as i64)
            .collect();
        let verdict = if dead {
            "dead (proof)"
        } else if d_acc.iter().any(|&d| d != 0.0) {
            "accuracy"
        } else if !changed.is_empty() {
            "report"
        } else if d_work[0] > 0 || d_work[1] > 0 || d_work[3] > 0 {
            "work"
        } else if production.is_some() {
            "unexercised"
        } else {
            "idle"
        };
        *verdicts.entry(verdict).or_default() += 1;
        let mut row = vec![
            name.to_string(),
            production.map_or("-".to_string(), |i| base.fired[i].to_string()),
            match changed.len() {
                0 => "none".to_string(),
                n if n == ablation::FOOTPRINT_CORPORA.len() => "all".to_string(),
                _ => changed.join(", "),
            },
            d_acc[..4]
                .iter()
                .map(|&d| delta(d))
                .collect::<Vec<_>>()
                .join("/"),
            delta(d_acc[4]),
        ];
        row.extend(d_work.iter().map(|d| format!("{d:+}")));
        row.push(verdict.to_string());
        t.row(&row);
    }
    out.table("rules", &t);
    let summary: Vec<String> = verdicts.iter().map(|(v, n)| format!("{v} {n}")).collect();
    println!(
        "{} productions, {} preferences: {}",
        g.productions.len(),
        g.preferences.len(),
        summary.join(", ")
    );
    println!(
        "expectation (§3.1, §4): each production pays by report, accuracy or work, or \
         covers a pattern only hand pages show; each preference settles real ambiguity\n"
    );
}
