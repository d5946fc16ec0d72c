//! `metaform` — command-line form extractor.
//!
//! ```text
//! metaform <page.html>...       extract and print the semantic model(s)
//! metaform - < page.html       read the page from stdin
//! metaform --tokens <page>     also print the visual tokens
//! metaform --ascii <page>      draw the rendered layout as ASCII art
//! metaform --trees <page>      also print the maximal parse trees
//! metaform --page-deadline-ms <n>  wall-clock parse budget per page
//! metaform --max-instances <n>     parser instance cap per page
//! metaform --adaptive          batch mode with bounded retry escalation
//! metaform --max-retries <n>   retry rounds after the first pass (default 2)
//! metaform --cancel-after-ms <n>  fire the batch cancel token after n ms
//! metaform --failures-json <f> write per-page failure telemetry as JSON
//! metaform --failures-csv <f>  write per-page failure telemetry as CSV
//! metaform --export-grammar    print the grammar in its textual (.2pg) form
//! metaform --grammar-file <f>  parse with a grammar loaded from a .2pg file
//! metaform --schedule-dot      print the 2P schedule graph as DOT
//! metaform induce              run the grammar induction loop
//!   --rounds <n>                 max Collect→Infer→Validate rounds (default 4)
//!   --min-support <n>            min distinct pages per candidate (default 2)
//!   --workers <n>                extraction worker threads
//!   --export <f.2pg>             write the extended grammar to a file
//! ```
//!
//! All inputs are extracted as one batch, one pipeline run per page.
//! Extraction is best-effort end to end: a page that panics the
//! pipeline or blows a budget prints a per-page failure line on
//! stderr, naming the rung that served it, and the served (salvaged
//! partial or proximity-baseline) report on stdout — it never aborts
//! the run or the remaining pages. `--adaptive` (implied by
//! `--max-retries` and `--failures-json`/`--failures-csv`) re-runs
//! budget-limited pages under doubled budgets before settling them,
//! prints the batch rollup, and can leave a machine-readable failure
//! trail (see README.md for the JSON schema).

use metaform::{
    global_compiled, global_grammar, AdaptiveOptions, CancelToken, FormExtractor, Provenance,
};
use metaform_extractor::{failures_to_csv, failures_to_json, FailureOutcome};
use metaform_grammar::schedule_to_dot;
use std::io::Read;
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    show_tokens: bool,
    show_trees: bool,
    show_ascii: bool,
    grammar_file: Option<String>,
    page_deadline: Option<Duration>,
    max_instances: Option<usize>,
    adaptive: bool,
    max_retries: Option<usize>,
    cancel_after: Option<Duration>,
    failures_json: Option<String>,
    failures_csv: Option<String>,
    inputs: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: metaform [--tokens] [--trees] [--ascii] [--grammar-file <f.2pg>]\n\
         \x20               [--page-deadline-ms <n>] [--max-instances <n>]\n\
         \x20               [--adaptive] [--max-retries <n>] [--cancel-after-ms <n>]\n\
         \x20               [--failures-json <f>] [--failures-csv <f>] <page.html...| ->\n\
         \x20      metaform --export-grammar | --schedule-dot\n\
         \x20      metaform induce [--rounds <n>] [--min-support <n>] [--workers <n>]\n\
         \x20                      [--export <f.2pg>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut opts = Options {
        show_tokens: false,
        show_trees: false,
        show_ascii: false,
        grammar_file: None,
        page_deadline: None,
        max_instances: None,
        adaptive: false,
        max_retries: None,
        cancel_after: None,
        failures_json: None,
        failures_csv: None,
        inputs: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "induce" if opts.inputs.is_empty() => return run_induce(args),
            "--export-grammar" => {
                print!("{}", metaform_grammar::to_dsl(&global_grammar()));
                return ExitCode::SUCCESS;
            }
            "--grammar-file" => {
                let Some(path) = args.next() else {
                    eprintln!("--grammar-file needs a path");
                    return usage();
                };
                opts.grammar_file = Some(path);
            }
            "--schedule-dot" => {
                // The compiled artifact already carries the schedule.
                let compiled = global_compiled();
                print!(
                    "{}",
                    schedule_to_dot(compiled.grammar(), compiled.schedule())
                );
                return ExitCode::SUCCESS;
            }
            "--tokens" => opts.show_tokens = true,
            "--ascii" => opts.show_ascii = true,
            "--trees" => opts.show_trees = true,
            "--page-deadline-ms" => {
                let Some(ms) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("--page-deadline-ms needs a number of milliseconds");
                    return usage();
                };
                opts.page_deadline = Some(Duration::from_millis(ms));
            }
            "--max-instances" => {
                let Some(cap) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--max-instances needs a number");
                    return usage();
                };
                opts.max_instances = Some(cap);
            }
            "--adaptive" => opts.adaptive = true,
            "--max-retries" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--max-retries needs a number");
                    return usage();
                };
                opts.max_retries = Some(n);
                opts.adaptive = true;
            }
            "--cancel-after-ms" => {
                let Some(ms) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("--cancel-after-ms needs a number of milliseconds");
                    return usage();
                };
                opts.cancel_after = Some(Duration::from_millis(ms));
            }
            "--failures-json" => {
                let Some(path) = args.next() else {
                    eprintln!("--failures-json needs a path");
                    return usage();
                };
                opts.failures_json = Some(path);
                opts.adaptive = true;
            }
            "--failures-csv" => {
                let Some(path) = args.next() else {
                    eprintln!("--failures-csv needs a path");
                    return usage();
                };
                opts.failures_csv = Some(path);
                opts.adaptive = true;
            }
            "--help" | "-h" => {
                let _ = usage();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown option: {other}");
                return usage();
            }
            path => opts.inputs.push(path.to_string()),
        }
    }
    if opts.inputs.is_empty() {
        return usage();
    }

    let mut extractor = match &opts.grammar_file {
        Some(path) => {
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let grammar = match metaform_grammar::from_dsl(&src) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Compilation is the fallible step: a grammar whose
            // schedule graph cycles is reported as a diagnostic, not
            // a panic.
            match FormExtractor::try_with_grammar(grammar) {
                Ok(extractor) => extractor,
                Err(e) => {
                    eprintln!("error: {path}: grammar does not compile: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => FormExtractor::new(),
    };
    if let Some(deadline) = opts.page_deadline {
        extractor = extractor.page_deadline(deadline);
    }
    if let Some(cap) = opts.max_instances {
        extractor = extractor.max_instances(cap);
    }
    if let Some(after) = opts.cancel_after {
        // Batch-level kill switch: a detached timer fires the shared
        // token; parses in flight stop at their next sampled poll,
        // pages already finished keep their results.
        let token = CancelToken::new();
        extractor = extractor.cancel_token(token.clone());
        std::thread::spawn(move || {
            std::thread::sleep(after);
            token.cancel();
        });
    }

    run_batch(&extractor, &opts)
}

/// The `induce` subcommand: the Collect → Infer → Validate loop over
/// the induction split, printing the per-round trajectory and the
/// accepted production signatures. Exit code 0 whether or not any
/// candidate was accepted — an empty round is a finding, not an error.
fn run_induce(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut config = metaform_eval::InductionConfig::default();
    let mut export: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rounds" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--rounds needs a number");
                    return usage();
                };
                config.rounds = n;
            }
            "--min-support" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--min-support needs a number");
                    return usage();
                };
                config.min_support = n;
            }
            "--workers" => {
                let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--workers needs a number");
                    return usage();
                };
                config.workers = Some(n);
            }
            "--export" => {
                let Some(path) = args.next() else {
                    eprintln!("--export needs a path");
                    return usage();
                };
                export = Some(path);
            }
            other => {
                eprintln!("unknown induce option: {other}");
                return usage();
            }
        }
    }
    let outcome = metaform_eval::run_induction(&config);
    println!(
        "baseline: holdout {:.4}, random {:.4}",
        outcome.baseline_holdout, outcome.baseline_random
    );
    for round in &outcome.rounds {
        println!(
            "round {}: mined {} signature(s), proposed {}, accepted {} -> holdout {:.4}, random {:.4}",
            round.round,
            round.mined,
            round.proposed.len(),
            round.accepted.len(),
            round.holdout_accuracy,
            round.random_accuracy
        );
        for accepted in &round.accepted {
            println!(
                "  + {} [{}] ({} supporting pages)",
                accepted.name, accepted.signature, accepted.support
            );
        }
    }
    if outcome.accepted.is_empty() {
        println!("no candidates accepted; grammar unchanged");
    }
    if let Some(path) = export {
        let dsl = metaform_grammar::to_dsl(outcome.grammar.grammar());
        if let Err(e) = std::fs::write(&path, dsl) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("extended grammar written to {path}");
    }
    ExitCode::SUCCESS
}

/// One input page: a file path, or `-` for stdin.
fn read_page(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|_| "stdin is not valid UTF-8".to_string())?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    }
}

/// The stage that served a page, named as the per-page report line
/// names it.
fn rung(outcome: FailureOutcome) -> &'static str {
    match outcome {
        FailureOutcome::Recovered => "grammar parse",
        FailureOutcome::Salvaged => "salvaged partial parse",
        FailureOutcome::Degraded | FailureOutcome::Cancelled => "proximity-baseline fallback",
    }
}

/// All inputs as one `extract_batch_adaptive` run — retry escalation
/// for budget-limited pages only under `--adaptive` — with per-page
/// reports on stdout in input order, failure warnings on stderr, and
/// under `--adaptive` the batch rollup and optional machine-readable
/// failure telemetry on disk.
fn run_batch(extractor: &FormExtractor, opts: &Options) -> ExitCode {
    let mut pages = Vec::with_capacity(opts.inputs.len());
    for path in &opts.inputs {
        match read_page(path) {
            Ok(html) => pages.push(html),
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        }
    }
    let refs: Vec<&str> = pages.iter().map(String::as_str).collect();
    let max_retries = match (opts.adaptive, opts.max_retries) {
        (false, _) => 0,
        (true, retries) => retries.unwrap_or(AdaptiveOptions::default().max_retries),
    };
    let adaptive_opts = AdaptiveOptions {
        max_retries,
        ..AdaptiveOptions::default()
    };
    let batch = extractor.extract_batch_adaptive(&refs, &adaptive_opts);

    let many = opts.inputs.len() > 1;
    for (page_index, (path, extraction)) in opts.inputs.iter().zip(&batch.extractions).enumerate() {
        if many {
            println!("== {path} ==");
        }
        if opts.show_ascii {
            let doc = metaform_html::parse(&pages[page_index]);
            let lay = metaform_layout::layout(&doc);
            println!("{}", metaform_layout::ascii_render(&doc, &lay));
        }
        if opts.show_tokens {
            println!("tokens ({}):", extraction.tokens.len());
            for t in &extraction.tokens {
                let extra = if t.kind == metaform::TokenKind::Text {
                    format!(" {:?}", t.sval)
                } else if !t.name.is_empty() {
                    format!(" name={}", t.name)
                } else {
                    String::new()
                };
                println!("  {:?} {} {:?}{extra}", t.id, t.kind, t.pos);
            }
            println!();
        }
        if opts.show_trees && extraction.via == Provenance::Grammar {
            println!("parse: {}", extraction.stats.summary());
            // Re-parse through the extractor's own compiled grammar —
            // no rebuild, no re-validation.
            let result = extractor.session().parse(&extraction.tokens);
            for (i, &tree) in result.trees.iter().enumerate() {
                println!("\nmaximal tree {}:", i + 1);
                print!(
                    "{}",
                    metaform_parser::render_tree(&result.chart, extractor.grammar(), tree)
                );
            }
            println!();
        }
        if extraction.via == Provenance::PartialSalvage {
            println!("(via salvaged partial parse, page {page_index})");
        }
        if extraction.via == Provenance::BaselineFallback {
            println!("(via proximity-baseline fallback, page {page_index})");
        }
        print!("{}", extraction.report);
        if many && page_index + 1 < opts.inputs.len() {
            println!();
        }
    }
    for record in &batch.failures {
        eprintln!(
            "warning: {}: {} after {} attempt(s) -> {} (via {}, page {})",
            opts.inputs[record.page_index],
            record.error.as_str(),
            record.attempts,
            record.outcome.as_str(),
            rung(record.outcome),
            record.page_index
        );
    }
    if let Some(path) = &opts.failures_json {
        if let Err(e) = std::fs::write(path, failures_to_json(&batch.failures)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.failures_csv {
        if let Err(e) = std::fs::write(path, failures_to_csv(&batch.failures)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if opts.adaptive {
        eprintln!("batch: {}", batch.stats.summary());
    }
    ExitCode::SUCCESS
}
