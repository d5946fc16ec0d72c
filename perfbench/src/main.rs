//! metaform's benchmark of record.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see [`workload::Kind`]) for `--seconds` of
//! measured time, checks every output, prints each metric on its own
//! line with its unit and sample count, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, and the span log is written to
//! `perfbench/out/spans-<workload>.tsv`. Exits 1 when any output check
//! fails, 2 on bad arguments.

mod corpus;
mod trace;
mod workload;

use metaform_grammar::Grammar;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::{totals, Mirror, Tracer};
use workload::{check, check_mirror, set_up, Engine, Kind, Outcomes, Output, References};

/// Pages per timed window: outputs are checked between windows, with
/// the clock stopped, so a window's outputs are all the run holds.
const WINDOW_PAGES: usize = 64;
/// Set-ups per run, spread evenly over it; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// One-page batch calls, and as many single-page extractions, timed
/// for `batch.overhead_us_per_job`.
const OVERHEAD_REPS: usize = 201;
/// Pages sent, unmeasured but checked, before the clock starts, so the
/// parse cache is full and lazily built state exists. A page count
/// rather than a time, so the measured stretch of a job sequence
/// starts at the same job on every run of a seed.
const WARMUP_PAGES: usize = 2048;

const USAGE: &str = "usage: perfbench --workload <crawl_cold|revisit_zipf|starved_ladder|\
service_dispatch> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::from_name(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite());
                seconds.ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count or basis, printed beside the value.
    basis: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, basis: impl Into<String>) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        basis: basis.into(),
    }
}

/// One measured window: pages, its wall time, each job's latency, the
/// time the traced mirror took to replay its jobs, and the peak
/// resident set in MB while it ran.
struct Window {
    pages: usize,
    wall_s: f64,
    job_s: Vec<f64>,
    mirror_s: f64,
    peak_rss_mb: f64,
}

/// Pages per second of mirror replay time.
fn mirror_rate(windows: &[Window]) -> f64 {
    let pages: usize = windows.iter().map(|w| w.pages).sum();
    let busy: f64 = windows.iter().map(|w| w.mirror_s).sum();
    pages as f64 / busy
}

/// Sends jobs in order, one at a time, and checks each window's
/// outputs after the window's clock has stopped. Between windows it
/// also times the set-ups, spread over the run so that `setup_s` sees
/// the machine as the measured windows do.
struct Runner<'a> {
    kind: Kind,
    grammar: &'a Grammar,
    probe: &'a str,
    inputs: &'a corpus::Inputs,
    refs: &'a References,
    engine: Engine,
    mirror: Option<Mirror>,
    tracer: Arc<Tracer>,
    traced: bool,
    cursor: usize,
    seq: u64,
    /// `(compile, whole set-up)` seconds of each set-up so far.
    setups: Vec<(f64, f64)>,
    /// Window wall time so far, and between set-ups.
    elapsed_s: f64,
    setup_every_s: f64,
    errors: Vec<String>,
}

impl<'a> Runner<'a> {
    /// Sets the workload up (the first timed set-up) and, in a traced
    /// run, the mirror that replays it.
    fn new(
        args: &Args,
        grammar: &'a Grammar,
        probe: &'a str,
        inputs: &'a corpus::Inputs,
        refs: &'a References,
    ) -> Self {
        let tracer = Arc::new(Tracer::new());
        let (engine, output, compile, total) =
            set_up(args.kind, grammar, probe, &tracer, args.trace);
        let mut runner = Runner {
            kind: args.kind,
            grammar,
            probe,
            inputs,
            refs,
            engine,
            mirror: None,
            tracer,
            traced: args.trace,
            cursor: 0,
            seq: 0,
            setups: Vec::new(),
            elapsed_s: 0.0,
            setup_every_s: args.seconds / SETUP_REPS as f64,
            errors: Vec::new(),
        };
        runner.record_set_up(None, output, compile, total);
        if runner.traced {
            // Replays the set-up's page, so the mirror's cache holds
            // what the extractor's does.
            let mut mirror = runner.engine.mirror(runner.tracer.clone());
            mirror.run_job(u64::MAX >> 16, &[probe]);
            runner.mirror = Some(mirror);
        }
        runner
    }

    /// Checks a set-up's first page like any output and keeps its
    /// times. `engine` is the set-up's own system, when it is not the
    /// one the run uses.
    fn record_set_up(&mut self, engine: Option<&Engine>, output: Output, compile: f64, total: f64) {
        let refs = self.refs;
        let reference = |_| refs.render(&[self.probe]).remove(0);
        if let Err(e) = check(&[refs.probe], &output, &mut Outcomes::default(), reference) {
            self.errors.push(format!("set-up page: {e}"));
        }
        engine.unwrap_or(&self.engine).forget(&output);
        self.setups.push((compile, total));
    }

    fn mirror_mut(&mut self) -> &mut Mirror {
        self.mirror.as_mut().expect("traced runs have a mirror")
    }

    /// Times the set-ups still due at this point of the run (all of
    /// them when `finish`).
    fn set_ups_due(&mut self, finish: bool) {
        let traced = self.tracer.is_on();
        self.tracer.set_on(false);
        while self.setups.len() < SETUP_REPS
            && (finish || self.elapsed_s >= self.setups.len() as f64 * self.setup_every_s)
        {
            let (engine, output, compile, total) = set_up(
                self.kind,
                self.grammar,
                self.probe,
                &self.tracer,
                self.traced,
            );
            self.record_set_up(Some(&engine), output, compile, total);
        }
        self.tracer.set_on(traced);
    }

    fn window(&mut self, outcomes: &mut Outcomes) -> Window {
        let inputs = self.inputs;
        let mut done = Vec::new();
        let mut job_s = Vec::new();
        let mut mirror_s = 0.0;
        let mut pages = 0;
        // Checked once per run in `run`.
        reset_peak_rss().ok();
        let start = Instant::now();
        while pages < WINDOW_PAGES {
            let job = self.cursor;
            self.cursor = (self.cursor + 1) % inputs.jobs.len();
            let html: Vec<&str> = inputs.jobs[job]
                .iter()
                .map(|&doc| inputs.html[doc].as_str())
                .collect();
            self.tracer.set_req(self.seq << 16);
            let sent = Instant::now();
            let output = self.engine.run(&html, &self.tracer);
            job_s.push(sent.elapsed().as_secs_f64());
            self.engine.forget(&output);
            pages += html.len();
            let replayed = Instant::now();
            let mirrored = self.mirror.as_mut().map(|m| m.run_job(self.seq, &html));
            mirror_s += replayed.elapsed().as_secs_f64();
            done.push((job, output, mirrored));
            self.seq += 1;
        }
        let wall_s = start.elapsed().as_secs_f64();
        let peak_rss_mb = peak_rss_mb();
        for (job, output, mirrored) in done {
            let refs = self.refs;
            let pages: Vec<&str> = inputs.jobs[job]
                .iter()
                .map(|&doc| inputs.html[doc].as_str())
                .collect();
            let reference = |i: usize| refs.render(&pages).swap_remove(i);
            let checked = check(&refs.expected(inputs, job), &output, outcomes, reference)
                .and_then(|got| match &mirrored {
                    Some(mirror) => check_mirror(&got, mirror),
                    None => Ok(()),
                })
                .map_err(|e| format!("job {job}: {e}"));
            if let Err(e) = checked {
                self.errors.push(e);
            }
        }
        self.elapsed_s += wall_s;
        self.set_ups_due(false);
        Window {
            pages,
            wall_s,
            job_s,
            mirror_s,
            peak_rss_mb,
        }
    }

    /// Runs windows until `seconds` of window wall time have passed.
    fn run_for(&mut self, seconds: f64, outcomes: &mut Outcomes) -> Vec<Window> {
        let mut windows = Vec::new();
        let mut elapsed = 0.0;
        while elapsed < seconds {
            let w = self.window(outcomes);
            elapsed += w.wall_s;
            windows.push(w);
        }
        windows
    }
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Pins the process, and every thread it starts from here on, to the
/// first CPU it may run on. The workloads run one extractor worker,
/// which each batch call starts afresh on a new thread; left free, the
/// scheduler puts the caller and the worker on either core from one
/// job to the next. On a shared two-vCPU Xeon VM, six pinned and six
/// free `crawl_cold` runs, alternated, spread over 3451–4240 and
/// 2904–3944 pages/s.
fn pin_to_one_cpu() -> Result<usize, String> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a writable cpu_set_t-sized buffer.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error().to_string());
        }
        let cpu = (0..size * 8)
            .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .ok_or("no CPU in the affinity mask")?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a cpu_set_t-sized buffer naming one allowed CPU.
        if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error().to_string());
        }
        Ok(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    Err("pinning needs Linux".to_string())
}

/// Hands the heap memory the process has freed back to the system, so
/// that the resident set the timed run starts from holds what is live
/// (inputs, references, the system under test) and not the leftovers
/// of the reference pass, whose amount varies with the pages.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the process's peak resident set mark (VmHWM) to its present
/// resident set, so that the peak read later is that of what ran since.
fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The process's peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// What one run found.
struct RunResult {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn run(args: &Args) -> RunResult {
    match pin_to_one_cpu() {
        Ok(cpu) => println!("pinned to cpu {cpu}"),
        Err(e) => eprintln!("running unpinned, figures spread more: {e}"),
    }
    let kind = args.kind;
    let mut inputs = kind.inputs(args.seed);
    let grammar = metaform_grammar::global_grammar();
    let probe = corpus::probe_page();
    let refs = References::build(
        kind,
        &mut inputs,
        &probe,
        &metaform_grammar::global_compiled(),
    );
    let mut errors = Vec::new();
    let mut unmeasured = Outcomes::default();
    let mut runner = Runner::new(args, &grammar, &probe, &inputs, &refs);
    let tracer = runner.tracer.clone();
    let mut warm = 0;
    while warm < WARMUP_PAGES {
        warm += runner.window(&mut unmeasured).pages;
    }
    runner.elapsed_s = 0.0;
    trim_heap();
    if let Err(e) = reset_peak_rss() {
        errors.push(format!("resetting the peak resident set mark: {e}"));
    }

    let mut outcomes = Outcomes::default();
    let metrics = if args.trace {
        // Traced and untraced windows alternate, so drift over the run
        // falls on both sides of `trace.overhead_ratio` alike. Only the
        // traced windows feed the per-layer metrics.
        let mut traced_outcomes = Outcomes::default();
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        runner.mirror_mut().counts = trace::Counts::default();
        let mut elapsed = 0.0;
        while elapsed < args.seconds {
            let counts = runner.mirror_mut().counts.clone();
            let window = runner.window(&mut outcomes);
            runner.mirror_mut().counts = counts;
            elapsed += window.wall_s;
            untraced.push(window);
            tracer.set_on(true);
            let window = runner.window(&mut traced_outcomes);
            tracer.set_on(false);
            elapsed += window.wall_s;
            traced.push(window);
        }
        runner.set_ups_due(true);
        let spans = tracer.take();
        let path = std::path::Path::new("perfbench/out").join(format!("spans-{}.tsv", kind.name()));
        match trace::write_spans(&path, &spans) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => errors.push(format!("writing {}: {e}", path.display())),
        }
        let overhead = mirror_rate(&traced) / mirror_rate(&untraced);
        let batch_us = workload::batch_overhead_us(&probe, OVERHEAD_REPS);
        let compile_ms = median(&runner.setups.iter().map(|s| s.0).collect::<Vec<_>>()) * 1e3;
        let m = layer_metrics(
            kind,
            &spans,
            &runner.mirror_mut().counts,
            &traced_outcomes,
            compile_ms,
            overhead,
            batch_us,
        );
        outcomes.pages += traced_outcomes.pages;
        outcomes.failed += traced_outcomes.failed;
        non_degenerate(kind, &traced_outcomes, &mut errors);
        m
    } else {
        let windows = runner.run_for(args.seconds, &mut outcomes);
        runner.set_ups_due(true);
        println!("outcomes: {outcomes:?}");
        non_degenerate(kind, &outcomes, &mut errors);
        let setup_s: Vec<f64> = runner.setups.iter().map(|s| s.1).collect();
        end_to_end(&windows, &outcomes, &refs, &setup_s)
    };
    errors.append(&mut runner.errors);
    if outcomes.failed > 0 {
        errors.push(format!(
            "{} of {} pages failed (panicked, empty, or in a non-2xx job)",
            outcomes.failed, outcomes.pages
        ));
    }
    RunResult {
        metrics,
        attempted: outcomes.pages,
        failed: outcomes.failed,
        errors,
    }
}

/// The workload-shape invariants the metrics rely on: a cache-less
/// crawl consults no cache, re-visits both hit and miss, the starved
/// ladder reaches all three outcomes, dispatch writes to its cache.
fn non_degenerate(kind: Kind, o: &Outcomes, errors: &mut Vec<String>) {
    let consulted = o.cache_hits + o.cache_delta + o.cache_misses;
    let broken = match kind {
        Kind::CrawlCold => (consulted > 0).then_some("crawl_cold consulted a parse cache"),
        Kind::RevisitZipf => (o.cache_hits == 0 || o.cache_delta + o.cache_misses == 0)
            .then_some("revisit_zipf needs both cache hits and delta/miss visits"),
        Kind::StarvedLadder => (o.recovered == 0 || o.salvaged == 0 || o.degraded == 0)
            .then_some("starved_ladder needs recovered, salvaged and baseline pages"),
        Kind::ServiceDispatch => {
            (o.cache_misses == 0).then_some("service_dispatch never wrote to its cache")
        }
    };
    if let Some(why) = broken {
        errors.push(format!("degenerate workload: {why} ({o:?})"));
    }
}

fn end_to_end(
    windows: &[Window],
    outcomes: &Outcomes,
    refs: &References,
    setup_s: &[f64],
) -> Vec<Metric> {
    let job_ms: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.job_s.iter().map(|s| s * 1e3))
        .collect();
    let jobs = format!("{} jobs", job_ms.len());
    let wall: f64 = windows.iter().map(|w| w.wall_s).sum();
    vec![
        metric(
            "pages_per_s",
            outcomes.pages as f64 / wall,
            "1/s",
            format!("{} pages in {wall:.3} s", outcomes.pages),
        ),
        metric("job_p50_ms", quantile(&job_ms, 0.5), "ms", &jobs),
        metric("job_p90_ms", quantile(&job_ms, 0.9), "ms", &jobs),
        metric(
            "job_p99_ms",
            quantile(&job_ms, 0.99),
            "ms",
            format!("{jobs}; not gated"),
        ),
        metric(
            "accuracy",
            refs.accuracy,
            "ratio",
            format!("{} generated pages", refs.scored_pages),
        ),
        metric(
            "failed_ratio",
            ratio(outcomes.failed, outcomes.pages),
            "ratio",
            format!(
                "{} of {} pages; also the result's failed/attempted",
                outcomes.failed, outcomes.pages
            ),
        ),
        metric(
            "setup_s",
            median(setup_s),
            "s",
            format!("median of {} set-ups", setup_s.len()),
        ),
        metric(
            "peak_rss_mb",
            median(&windows.iter().map(|w| w.peak_rss_mb).collect::<Vec<_>>()),
            "MB",
            format!(
                "median over {} windows of the window's VmHWM; includes the inputs",
                windows.len()
            ),
        ),
    ]
}

fn layer_metrics(
    kind: Kind,
    spans: &[trace::Span],
    c: &trace::Counts,
    o: &Outcomes,
    compile_ms: f64,
    overhead: f64,
    batch_us: f64,
) -> Vec<Metric> {
    let t = totals(spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let page = get("page");
    let share = |names: &[&str]| {
        let ns: u64 = names.iter().map(|n| get(n).self_ns).sum();
        ratio(ns, page.dur_ns)
    };
    let per_page = |n: u64| ratio(n, c.pages);
    let calls = |name: &str| format!("{} calls", get(name).calls);
    let phase_total: u64 = c.phase_ns.iter().sum();
    let consulted = o.cache_hits + o.cache_delta + o.cache_misses;

    // The extractor's own job span: the batch call, or `run_job` inside
    // a service round trip.
    let job_name = if kind == Kind::ServiceDispatch {
        "service.run_job"
    } else {
        "job"
    };
    let cache_ns: u64 = ["cache.lookup", "cache.nearest", "cache.store"]
        .iter()
        .map(|n| get(n).dur_ns)
        .sum();
    let extractor_ns = get(job_name).dur_ns;
    let round_trip = get("service.round_trip");
    let service_share = if round_trip.calls == 0 {
        0.0
    } else {
        1.0 - ratio(extractor_ns, round_trip.dur_ns)
    };
    let mirrored = format!("{} mirrored pages", c.pages);
    vec![
        metric(
            "html.parse_us",
            get("html").mean_self_us(),
            "us",
            calls("html"),
        ),
        metric(
            "layout.us",
            get("layout").mean_self_us(),
            "us",
            calls("layout"),
        ),
        metric(
            "tokenizer.us",
            get("tokenizer").mean_self_us(),
            "us",
            calls("tokenizer"),
        ),
        metric("html.share", share(&["html"]), "ratio", "of page time"),
        metric("layout.share", share(&["layout"]), "ratio", "of page time"),
        metric(
            "tokenizer.share",
            share(&["tokenizer"]),
            "ratio",
            "of page time",
        ),
        metric(
            "tokenizer.tokens_per_page",
            per_page(c.tokens),
            "count",
            &mirrored,
        ),
        metric(
            "frontend.runs_per_page",
            per_page(c.frontend_runs),
            "count",
            &mirrored,
        ),
        metric(
            "parser.parse_us",
            get("parser").mean_self_us(),
            "us",
            calls("parser"),
        ),
        metric("parser.share", share(&["parser"]), "ratio", "of page time"),
        metric(
            "parser.parses_per_page",
            per_page(c.parses),
            "count",
            &mirrored,
        ),
        metric(
            "parser.instances_per_page",
            per_page(c.created),
            "count",
            &mirrored,
        ),
        metric(
            "parser.combos_per_page",
            per_page(c.combos),
            "count",
            &mirrored,
        ),
        metric(
            "parser.alloc_share",
            ratio(c.phase_ns[0], phase_total),
            "ratio",
            "of parser phase time",
        ),
        metric(
            "parser.instantiate_share",
            ratio(c.phase_ns[1], phase_total),
            "ratio",
            "of parser phase time",
        ),
        metric(
            "parser.enforce_share",
            ratio(c.phase_ns[2], phase_total),
            "ratio",
            "of parser phase time",
        ),
        metric(
            "parser.maximize_share",
            ratio(c.phase_ns[3], phase_total),
            "ratio",
            "of parser phase time",
        ),
        metric(
            "parser.truncated_ratio",
            ratio(c.truncated, c.parses),
            "ratio",
            format!("{} parses", c.parses),
        ),
        metric(
            "merger.merge_us",
            get("merger").mean_self_us(),
            "us",
            calls("merger"),
        ),
        metric(
            "merger.salvage_us",
            get("merger.salvage").mean_self_us(),
            "us",
            calls("merger.salvage"),
        ),
        metric("merger.share", share(&["merger"]), "ratio", "of page time"),
        metric(
            "merger.salvage_share",
            share(&["merger.salvage"]),
            "ratio",
            "of page time",
        ),
        metric(
            "baseline.us",
            get("baseline").mean_self_us(),
            "us",
            calls("baseline"),
        ),
        metric(
            "baseline.share",
            share(&["baseline"]),
            "ratio",
            "of page time",
        ),
        metric(
            "baseline.calls_per_page",
            per_page(c.baseline_calls),
            "count",
            &mirrored,
        ),
        metric(
            "ladder.recovered_ratio",
            ratio(o.recovered, o.pages),
            "ratio",
            format!("{} pages", o.pages),
        ),
        metric(
            "ladder.salvaged_ratio",
            ratio(o.salvaged, o.pages),
            "ratio",
            format!("{} pages", o.pages),
        ),
        metric(
            "ladder.baseline_ratio",
            ratio(o.degraded, o.pages),
            "ratio",
            format!("{} pages", o.pages),
        ),
        metric(
            "cache.lookup_us",
            get("cache.lookup").mean_us(),
            "us",
            calls("cache.lookup"),
        ),
        metric(
            "cache.nearest_us",
            get("cache.nearest").mean_us(),
            "us",
            calls("cache.nearest"),
        ),
        metric(
            "cache.store_us",
            get("cache.store").mean_us(),
            "us",
            calls("cache.store"),
        ),
        metric(
            "cache.hit_ratio",
            ratio(o.cache_hits, consulted),
            "ratio",
            format!("{consulted} cache outcomes"),
        ),
        metric(
            "cache.delta_ratio",
            ratio(o.cache_delta, consulted),
            "ratio",
            format!("{consulted} cache outcomes"),
        ),
        metric(
            "cache.miss_ratio",
            ratio(o.cache_misses, consulted),
            "ratio",
            format!("{consulted} cache outcomes"),
        ),
        metric(
            "cache.share",
            ratio(cache_ns, extractor_ns),
            "ratio",
            format!("of {job_name} time"),
        ),
        metric(
            "batch.overhead_us_per_job",
            batch_us,
            "us",
            format!("median one-page batch call less extract, {OVERHEAD_REPS} of each"),
        ),
        metric(
            "service.submit_us",
            get("service.submit").mean_us(),
            "us",
            calls("service.submit"),
        ),
        metric(
            "service.queue_us",
            get("service.queue").mean_us(),
            "us",
            calls("service.queue"),
        ),
        metric(
            "service.run_job_ms",
            get("service.run_job").mean_us() / 1e3,
            "ms",
            calls("service.run_job"),
        ),
        metric(
            "service.results_us",
            get("service.results").mean_us(),
            "us",
            calls("service.results"),
        ),
        metric(
            "service.results_bytes_per_page",
            ratio(
                o.results_bytes,
                if round_trip.calls == 0 { 0 } else { o.pages },
            ),
            "bytes",
            format!("{} round trips", round_trip.calls),
        ),
        metric(
            "service.share",
            service_share,
            "ratio",
            "of round-trip time outside run_job",
        ),
        metric(
            "grammar.compile_ms",
            compile_ms,
            "ms",
            format!("median of {SETUP_REPS} compiles"),
        ),
        metric(
            "trace.overhead_ratio",
            overhead,
            "ratio",
            "traced / untraced mirror pages per second",
        ),
    ]
}

/// The per-layer metrics the result line carries. The per-call times
/// of layers some workloads bypass (salvage, baseline) read 0 on those
/// workloads on every run, so the result line carries those layers as
/// shares and ratios; their per-call times are printed above it and
/// are in the span file. The cache and service metrics read 0 on every
/// workload BENCHMARK.json lists, so they are printed only.
const RESULT_LAYER_METRICS: &[&str] = &[
    "html.parse_us",
    "layout.us",
    "tokenizer.us",
    "html.share",
    "layout.share",
    "tokenizer.share",
    "tokenizer.tokens_per_page",
    "frontend.runs_per_page",
    "parser.parse_us",
    "parser.share",
    "parser.parses_per_page",
    "parser.instances_per_page",
    "parser.combos_per_page",
    "parser.alloc_share",
    "parser.instantiate_share",
    "parser.enforce_share",
    "parser.maximize_share",
    "parser.truncated_ratio",
    "merger.merge_us",
    "merger.share",
    "merger.salvage_share",
    "baseline.share",
    "baseline.calls_per_page",
    "ladder.recovered_ratio",
    "ladder.salvaged_ratio",
    "ladder.baseline_ratio",
    "batch.overhead_us_per_job",
    "grammar.compile_ms",
    "trace.overhead_ratio",
];

/// The end-to-end metrics the result line carries. `failed_ratio` is 0
/// on a correct run, so it travels as the result's `failed` over
/// `attempted` instead. The slowest 1% of jobs are mostly the ones a
/// neighbour on the shared machine slowed down, so `job_p99_ms` follows
/// the machine more than the program; it is printed only.
const RESULT_END_TO_END: &[&str] = &[
    "pages_per_s",
    "job_p50_ms",
    "job_p90_ms",
    "accuracy",
    "setup_s",
    "peak_rss_mb",
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = run(&args);
    let carried = if args.trace {
        RESULT_LAYER_METRICS
    } else {
        RESULT_END_TO_END
    };
    let mut json = Vec::new();
    for m in &result.metrics {
        println!(
            "{:<32} {:>14.6} {:<6} ({})",
            m.name, m.value, m.unit, m.basis
        );
        if carried.contains(&m.name) {
            json.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
    }
    for e in &result.errors {
        eprintln!("check failed: {e}");
    }
    let correct = result.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends the first `jobs` jobs of `kind`'s seed-1 inputs through a
    /// freshly set-up system, replaying each through a mirror; returns
    /// the outcome counts and whether every mirrored report matched.
    fn drive(kind: Kind, jobs: usize) -> (Outcomes, bool) {
        let inputs = kind.inputs(1);
        let tracer = Arc::new(Tracer::new());
        let grammar = metaform_grammar::global_grammar();
        let compiled = Arc::new(grammar.compile().expect("compiles"));
        let engine = Engine::new(kind, compiled, Some(&tracer));
        let mut mirror = engine.mirror(tracer.clone());
        let mut outcomes = Outcomes::default();
        let mut mirrored = true;
        for (seq, job) in inputs.jobs.iter().take(jobs).enumerate() {
            let html: Vec<&str> = job.iter().map(|&d| inputs.html[d].as_str()).collect();
            let output = engine.run(&html, &tracer);
            engine.forget(&output);
            let mirror_reports = mirror.run_job(seq as u64, &html);
            let (got, _) = workload::read(&output, html.len() as u64, &mut outcomes)
                .expect("a readable job result");
            mirrored &= check_mirror(&got, &mirror_reports).is_ok();
        }
        (outcomes, mirrored)
    }

    fn degenerate(kind: Kind, o: &Outcomes) -> bool {
        let mut errors = Vec::new();
        non_degenerate(kind, o, &mut errors);
        !errors.is_empty()
    }

    #[test]
    fn crawl_cold_never_consults_a_cache() {
        let (o, mirrored) = drive(Kind::CrawlCold, 2);
        assert_eq!(o.cache_hits + o.cache_delta + o.cache_misses, 0);
        assert!(!degenerate(Kind::CrawlCold, &o));
        assert!(mirrored, "the mirror reproduces the extractor");
    }

    #[test]
    fn revisit_zipf_both_hits_and_misses_its_cache() {
        let (o, mirrored) = drive(Kind::RevisitZipf, 24);
        assert!(o.cache_hits > 0, "{o:?}");
        assert!(o.cache_delta + o.cache_misses > 0, "{o:?}");
        assert!(!degenerate(Kind::RevisitZipf, &o));
        assert!(
            mirrored,
            "the mirror's cache keeps step with the extractor's"
        );
    }

    #[test]
    fn starved_ladder_reaches_all_three_outcomes() {
        let (o, mirrored) = drive(Kind::StarvedLadder, 4);
        assert!(o.recovered > 0 && o.salvaged > 0 && o.degraded > 0, "{o:?}");
        assert!(!degenerate(Kind::StarvedLadder, &o));
        assert!(
            mirrored,
            "the mirror settles the ladder as the extractor does"
        );
    }

    #[test]
    fn service_dispatch_writes_its_cache() {
        let (o, _) = drive(Kind::ServiceDispatch, 4);
        assert_eq!(o.failed, 0, "{o:?}");
        assert!(o.cache_misses > 0, "{o:?}");
        assert!(!degenerate(Kind::ServiceDispatch, &o));
    }
}

#[cfg(test)]
mod record_tests {
    use super::*;

    /// The metric names listed under `section` in BENCHMARK.json.
    fn listed(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..start + text[start..].find(']').expect("list ends")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("quoted")].to_string())
            .collect()
    }

    #[test]
    fn the_result_line_carries_exactly_the_metrics_benchmark_json_lists() {
        assert_eq!(listed("end_to_end"), RESULT_END_TO_END);
        assert_eq!(listed("per_layer"), RESULT_LAYER_METRICS);
    }
}
