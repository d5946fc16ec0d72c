//! Machine-readable failure telemetry for corpus-scale batch runs.
//!
//! [`FailureRecord`] is the whole story of one page that failed at
//! least once under `FormExtractor::extract_batch_adaptive`: which
//! page, what went wrong, how many rungs of its ladder it climbed,
//! under what final budgets, and the parse counters of every rung. A
//! page runs one parse, at its last rung's budgets; each earlier rung
//! it outgrew is read off that parse and logs no time of its own. The records
//! serialize to JSON ([`failures_to_json`]) and CSV
//! ([`failures_to_csv`]) next to the experiment `--csv` output, and
//! parse back with [`failures_from_json`] so triage tooling (and the
//! round-trip test in `scripts/check.sh`) can consume them without a
//! JSON dependency. The writers here are hand-rolled for a stable,
//! pretty field layout; parsing goes through the workspace's one
//! codec, [`crate::json::JsonValue`], whose nesting cap keeps hostile
//! input from overflowing the stack.
//!
//! JSON schema (one array of records):
//!
//! ```json
//! [{
//!   "page_index": 7,
//!   "error": "truncated",
//!   "message": null,
//!   "attempts": 2,
//!   "outcome": "recovered",
//!   "final_max_instances": 4000,
//!   "final_deadline_ms": null,
//!   "salvage_covered": null,
//!   "salvage_tokens": null,
//!   "partial_roots": ["HQI"],
//!   "arrangements": ["tb attr"],
//!   "attempt_log": [{
//!     "attempt": 0, "max_instances": 2000, "deadline_ms": null,
//!     "error": "truncated", "cache": null, "tokens": 22,
//!     "created": 2000, "elapsed_us": 0
//!   }]
//! }]
//! ```
//!
//! `salvage_covered`/`salvage_tokens` are present (non-null) exactly
//! when `outcome` is `"salvaged"`: the page was served its partial
//! grammar-path report (`Provenance::PartialSalvage`), and the pair
//! gives its token coverage (`crate::token_coverage`: tokens the
//! report accounts for) over the page's tokens.
//!
//! `partial_roots`/`arrangements` are the grammar-induction evidence
//! of salvaged and degraded pages: the maximal partial trees' root
//! symbols, and the recurring unparsed token arrangements
//! (`metaform_grammar::induce` signatures) mined from the served
//! report's residue. Both are empty for recovered pages.

use crate::batch::BatchStats;
use crate::error::ExtractError;
use crate::json::{push_json_str, JsonValue};
use std::fmt::Write as _;
use std::time::Duration;

/// The failure taxonomy as a flat kind — [`ExtractError`] without the
/// page attribution, for records that carry the index separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The pipeline panicked (caught at the page boundary).
    Panicked,
    /// The parse hit the instance cap.
    Truncated,
    /// The parse blew its wall-clock deadline.
    Timeout,
    /// The page tokenized to nothing.
    EmptyForm,
    /// The batch-level cancel token fired.
    Cancelled,
}

impl ErrorKind {
    /// The kind of a typed extraction error.
    pub fn of(err: &ExtractError) -> Self {
        match err {
            ExtractError::Panicked { .. } => ErrorKind::Panicked,
            ExtractError::Truncated { .. } => ErrorKind::Truncated,
            ExtractError::Timeout { .. } => ErrorKind::Timeout,
            ExtractError::EmptyForm { .. } => ErrorKind::EmptyForm,
            ExtractError::Cancelled { .. } => ErrorKind::Cancelled,
        }
    }

    /// Stable serialization name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Panicked => "panicked",
            ErrorKind::Truncated => "truncated",
            ErrorKind::Timeout => "timeout",
            ErrorKind::EmptyForm => "empty_form",
            ErrorKind::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`ErrorKind::as_str`].
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "panicked" => ErrorKind::Panicked,
            "truncated" => ErrorKind::Truncated,
            "timeout" => ErrorKind::Timeout,
            "empty_form" => ErrorKind::EmptyForm,
            "cancelled" => ErrorKind::Cancelled,
            other => return Err(format!("unknown error kind {other:?}")),
        })
    }
}

/// How one attempt interacted with the extractor's attached
/// [`crate::ParseCache`] — absent entirely when no cache is attached
/// or the attempt never produced a grammar-path result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Exact fingerprint hit: the cached report was replayed, no parse
    /// ran ([`crate::Provenance::CacheHit`]).
    Hit,
    /// The cache was consulted but the page parsed cold
    /// ([`crate::Provenance::Grammar`] with a cache attached).
    Miss,
}

impl CacheOutcome {
    /// Stable serialization name.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }

    /// Inverse of [`CacheOutcome::as_str`].
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "hit" => CacheOutcome::Hit,
            "miss" => CacheOutcome::Miss,
            other => return Err(format!("unknown cache outcome {other:?}")),
        })
    }
}

/// How a failed page's story ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureOutcome {
    /// A retry under a larger budget succeeded; the final extraction
    /// is a full grammar-path result.
    Recovered,
    /// Every attempt failed, but the last attempt's maximized partial
    /// grammar-path report dominated the proximity baseline and was
    /// served (`Provenance::PartialSalvage`). The record's
    /// `salvage_covered`/`salvage_tokens` carry its coverage.
    Salvaged,
    /// Every attempt failed; the page was served by the proximity
    /// baseline (`Provenance::BaselineFallback`).
    Degraded,
    /// The batch was cancelled before the page could finish; it was
    /// served by the baseline (or its salvaged partial, when one
    /// dominated — then the outcome is `Salvaged`) and never retried.
    Cancelled,
}

impl FailureOutcome {
    /// Stable serialization name.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureOutcome::Recovered => "recovered",
            FailureOutcome::Salvaged => "salvaged",
            FailureOutcome::Degraded => "degraded",
            FailureOutcome::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`FailureOutcome::as_str`].
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "recovered" => FailureOutcome::Recovered,
            "salvaged" => FailureOutcome::Salvaged,
            "degraded" => FailureOutcome::Degraded,
            "cancelled" => FailureOutcome::Cancelled,
            other => return Err(format!("unknown outcome {other:?}")),
        })
    }
}

/// Parse counters of one rung of one page's ladder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttemptRecord {
    /// Rung number, 0 = the configured budgets.
    pub attempt: usize,
    /// Instance cap of the rung.
    pub max_instances: usize,
    /// Wall-clock deadline of the rung, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// What went wrong, or `None` for the succeeding rung.
    pub error: Option<ErrorKind>,
    /// How the rung interacted with the parse cache (`None` when no
    /// cache was attached or the rung failed).
    pub cache: Option<CacheOutcome>,
    /// Tokens the page produced (0 when no parse ran).
    pub tokens: usize,
    /// Instances the parse created before it ended. A rung the page's
    /// one parse outgrew carries what its own parse would have
    /// created: `max(max_instances, tokens)` when truncated, the
    /// parse's count (an upper bound) when timed out.
    pub created: usize,
    /// Parse wall-clock time in microseconds — 0 when no parse ran,
    /// and on a rung read off the parse of a later rung. The one
    /// nondeterministic field — comparisons across runs should mask it
    /// (see `FailureRecord::normalized`).
    pub elapsed_us: u64,
}

/// The whole story of one page that failed at least once during an
/// adaptive batch run (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureRecord {
    /// The page's index in the batch's input slice.
    pub page_index: usize,
    /// Kind of the last error the page produced.
    pub error: ErrorKind,
    /// Panic payload, when the error was a panic.
    pub message: Option<String>,
    /// Rungs climbed, the one the page settled on included (1 = it
    /// settled on its first).
    pub attempts: usize,
    /// How the story ended.
    pub outcome: FailureOutcome,
    /// Instance cap of the rung the page settled on.
    pub final_max_instances: usize,
    /// Deadline of the rung the page settled on, in milliseconds.
    pub final_deadline_ms: Option<u64>,
    /// Token coverage of the served salvage report
    /// ([`crate::token_coverage`]: tokens claimed by a condition or
    /// covered by a maximal tree) — present exactly when
    /// [`FailureRecord::outcome`] is [`FailureOutcome::Salvaged`].
    pub salvage_covered: Option<usize>,
    /// Token count of the salvaged page (the denominator of the
    /// salvage coverage ratio) — present exactly when the outcome is
    /// [`FailureOutcome::Salvaged`].
    pub salvage_tokens: Option<usize>,
    /// Root symbols of the served report's maximal partial trees —
    /// how far the grammar path got before the page was salvaged or
    /// degraded. Empty for recovered pages.
    pub partial_roots: Vec<String>,
    /// Recurring unparsed token arrangement signatures mined from the
    /// served report's residue (`metaform_grammar::induce`) — the
    /// induction loop's Collect evidence. Empty for recovered pages.
    pub arrangements: Vec<String>,
    /// Per-rung parse counters, in rung order.
    pub attempt_log: Vec<AttemptRecord>,
}

impl FailureRecord {
    /// This record with every wall-clock field zeroed — the shape two
    /// runs of the same batch agree on regardless of machine load or
    /// worker count.
    pub fn normalized(&self) -> Self {
        let mut r = self.clone();
        for a in &mut r.attempt_log {
            a.elapsed_us = 0;
        }
        r
    }
}

/// `Duration` → whole milliseconds for serialization (saturating).
pub(crate) fn duration_to_ms(d: Option<Duration>) -> Option<u64> {
    d.map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

// ---------------------------------------------------------------- JSON

fn push_str_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_str(out, s);
    }
    out.push(']');
}

fn push_opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
}

/// Serializes failure records as a JSON array (pretty-printed, stable
/// field order). [`failures_from_json`] is the exact inverse.
pub fn failures_to_json(records: &[FailureRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        let _ = write!(out, "\"page_index\": {}, ", r.page_index);
        out.push_str("\"error\": ");
        push_json_str(&mut out, r.error.as_str());
        out.push_str(", \"message\": ");
        match &r.message {
            Some(m) => push_json_str(&mut out, m),
            None => out.push_str("null"),
        }
        let _ = write!(out, ", \"attempts\": {}, ", r.attempts);
        out.push_str("\"outcome\": ");
        push_json_str(&mut out, r.outcome.as_str());
        let _ = write!(
            out,
            ", \"final_max_instances\": {}, ",
            r.final_max_instances
        );
        out.push_str("\"final_deadline_ms\": ");
        push_opt_u64(&mut out, r.final_deadline_ms);
        out.push_str(", \"salvage_covered\": ");
        push_opt_u64(&mut out, r.salvage_covered.map(|v| v as u64));
        out.push_str(", \"salvage_tokens\": ");
        push_opt_u64(&mut out, r.salvage_tokens.map(|v| v as u64));
        out.push_str(", \"partial_roots\": ");
        push_str_array(&mut out, &r.partial_roots);
        out.push_str(", \"arrangements\": ");
        push_str_array(&mut out, &r.arrangements);
        out.push_str(", \"attempt_log\": [");
        for (j, a) in r.attempt_log.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"attempt\": {}, \"max_instances\": {}, ",
                a.attempt, a.max_instances
            );
            out.push_str("\"deadline_ms\": ");
            push_opt_u64(&mut out, a.deadline_ms);
            out.push_str(", \"error\": ");
            match a.error {
                Some(kind) => push_json_str(&mut out, kind.as_str()),
                None => out.push_str("null"),
            }
            out.push_str(", \"cache\": ");
            match a.cache {
                Some(outcome) => push_json_str(&mut out, outcome.as_str()),
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ", \"tokens\": {}, \"created\": {}, \"elapsed_us\": {}}}",
                a.tokens, a.created, a.elapsed_us
            );
        }
        if !r.attempt_log.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]}");
    }
    if !records.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Serializes failure records as CSV, one row per page, with the
/// attempt log flattened to its length (the per-attempt detail lives
/// in the JSON form). The salvage coverage pair rides at the end of
/// the row — empty on every outcome but `salvaged` — so older column
/// positions stay put.
pub fn failures_to_csv(records: &[FailureRecord]) -> String {
    let mut out = String::from(
        "page_index,error,outcome,attempts,final_max_instances,final_deadline_ms,message,salvage_covered,salvage_tokens,partial_roots,arrangements\n",
    );
    for r in records {
        let msg = r.message.as_deref().unwrap_or("");
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},\"{}\",{},{},\"{}\",\"{}\"",
            r.page_index,
            r.error.as_str(),
            r.outcome.as_str(),
            r.attempts,
            r.final_max_instances,
            r.final_deadline_ms
                .map(|v| v.to_string())
                .unwrap_or_default(),
            msg.replace('"', "\"\"").replace(['\n', '\r'], " "),
            r.salvage_covered.map(|v| v.to_string()).unwrap_or_default(),
            r.salvage_tokens.map(|v| v.to_string()).unwrap_or_default(),
            r.partial_roots.join(";").replace('"', "\"\""),
            r.arrangements.join(";").replace('"', "\"\""),
        );
    }
    out
}

/// Serializes one batch rollup as a single JSON object (stable field
/// order, one line) — the job-level status snapshot a work-queue
/// service reports while and after a batch runs. Wall-clock time is
/// carried as whole microseconds (`elapsed_us`); [`stats_from_json`]
/// is the inverse up to that sub-microsecond truncation.
pub fn stats_to_json(stats: &BatchStats) -> String {
    let mut out = String::from("{");
    let fields: [(&str, u64); 19] = [
        ("pages", stats.pages as u64),
        ("workers", stats.workers as u64),
        ("tokens", stats.tokens as u64),
        ("created", stats.created as u64),
        ("invalidated", stats.invalidated as u64),
        ("trees", stats.trees as u64),
        ("schedules_built", stats.schedules_built as u64),
        ("panicked", stats.panicked as u64),
        ("truncated", stats.truncated as u64),
        ("timed_out", stats.timed_out as u64),
        ("empty", stats.empty as u64),
        ("cancelled", stats.cancelled as u64),
        ("degraded", stats.degraded as u64),
        ("salvaged", stats.salvaged as u64),
        ("retried", stats.retried as u64),
        ("recovered", stats.recovered as u64),
        ("cache_hits", stats.cache_hits as u64),
        ("cache_delta", stats.cache_delta as u64),
        ("cache_misses", stats.cache_misses as u64),
    ];
    for (name, value) in fields {
        let _ = write!(out, "\"{name}\": {value}, ");
    }
    let _ = write!(
        out,
        "\"elapsed_us\": {}}}",
        u64::try_from(stats.elapsed.as_micros()).unwrap_or(u64::MAX)
    );
    out
}

/// Parses the output of [`stats_to_json`] back into a rollup. Lossless
/// for every counter; `elapsed` comes back at whole-microsecond
/// precision.
pub fn stats_from_json(src: &str) -> Result<BatchStats, String> {
    let root = JsonValue::parse(src.as_bytes())?;
    let usize_field =
        |name: &str| -> Result<usize, String> { Ok(root.field(name)?.as_num()? as usize) };
    Ok(BatchStats {
        pages: usize_field("pages")?,
        workers: usize_field("workers")?,
        tokens: usize_field("tokens")?,
        created: usize_field("created")?,
        invalidated: usize_field("invalidated")?,
        trees: usize_field("trees")?,
        schedules_built: usize_field("schedules_built")?,
        panicked: usize_field("panicked")?,
        truncated: usize_field("truncated")?,
        timed_out: usize_field("timed_out")?,
        empty: usize_field("empty")?,
        cancelled: usize_field("cancelled")?,
        degraded: usize_field("degraded")?,
        salvaged: usize_field("salvaged")?,
        retried: usize_field("retried")?,
        recovered: usize_field("recovered")?,
        cache_hits: usize_field("cache_hits")?,
        cache_delta: usize_field("cache_delta")?,
        cache_misses: usize_field("cache_misses")?,
        elapsed: Duration::from_micros(root.field("elapsed_us")?.as_num()?),
    })
}

/// A number or `null`.
fn opt_num(v: &JsonValue) -> Result<Option<u64>, String> {
    match v {
        JsonValue::Null => Ok(None),
        JsonValue::Num(n) => Ok(Some(*n)),
        _ => Err("expected a number or null".to_string()),
    }
}

/// A string or `null`.
fn opt_str(v: &JsonValue) -> Result<Option<&str>, String> {
    match v {
        JsonValue::Null => Ok(None),
        v => v.as_str().map(Some),
    }
}

fn str_array(v: &JsonValue) -> Result<Vec<String>, String> {
    v.as_arr()
        .map_err(|_| "expected an array of strings".to_string())?
        .iter()
        .map(|item| item.as_str().map(str::to_string))
        .collect()
}

/// Parses the output of [`failures_to_json`] back into records — the
/// round trip the check-script gate exercises.
pub fn failures_from_json(src: &str) -> Result<Vec<FailureRecord>, String> {
    let root = JsonValue::parse(src.as_bytes())?;
    let items = root
        .as_arr()
        .map_err(|_| "top level must be an array".to_string())?;
    items
        .iter()
        .map(|item| {
            let attempt_log = item
                .field("attempt_log")?
                .as_arr()
                .map_err(|_| "attempt_log must be an array".to_string())?
                .iter()
                .map(|a| {
                    Ok(AttemptRecord {
                        attempt: a.field("attempt")?.as_num()? as usize,
                        max_instances: a.field("max_instances")?.as_num()? as usize,
                        deadline_ms: opt_num(a.field("deadline_ms")?)?,
                        error: opt_str(a.field("error")?)?
                            .map(ErrorKind::parse)
                            .transpose()?,
                        cache: opt_str(a.field("cache")?)?
                            .map(CacheOutcome::parse)
                            .transpose()?,
                        tokens: a.field("tokens")?.as_num()? as usize,
                        created: a.field("created")?.as_num()? as usize,
                        elapsed_us: a.field("elapsed_us")?.as_num()?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(FailureRecord {
                page_index: item.field("page_index")?.as_num()? as usize,
                error: ErrorKind::parse(item.field("error")?.as_str()?)?,
                message: opt_str(item.field("message")?)?.map(str::to_string),
                attempts: item.field("attempts")?.as_num()? as usize,
                outcome: FailureOutcome::parse(item.field("outcome")?.as_str()?)?,
                final_max_instances: item.field("final_max_instances")?.as_num()? as usize,
                final_deadline_ms: opt_num(item.field("final_deadline_ms")?)?,
                salvage_covered: opt_num(item.field("salvage_covered")?)?.map(|v| v as usize),
                salvage_tokens: opt_num(item.field("salvage_tokens")?)?.map(|v| v as usize),
                partial_roots: str_array(item.field("partial_roots")?)?,
                arrangements: str_array(item.field("arrangements")?)?,
                attempt_log,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<FailureRecord> {
        vec![
            FailureRecord {
                page_index: 7,
                error: ErrorKind::Truncated,
                message: None,
                attempts: 2,
                outcome: FailureOutcome::Recovered,
                final_max_instances: 4000,
                final_deadline_ms: None,
                salvage_covered: None,
                salvage_tokens: None,
                partial_roots: Vec::new(),
                arrangements: Vec::new(),
                attempt_log: vec![
                    AttemptRecord {
                        attempt: 0,
                        max_instances: 2000,
                        deadline_ms: None,
                        error: Some(ErrorKind::Truncated),
                        cache: None,
                        tokens: 22,
                        created: 2000,
                        elapsed_us: 713,
                    },
                    AttemptRecord {
                        attempt: 1,
                        max_instances: 4000,
                        deadline_ms: None,
                        error: None,
                        cache: Some(CacheOutcome::Miss),
                        tokens: 22,
                        created: 3107,
                        elapsed_us: 1911,
                    },
                ],
            },
            FailureRecord {
                page_index: 11,
                error: ErrorKind::Panicked,
                message: Some("boom \"quoted\"\nline2\ttabbed \\ slashed".to_string()),
                attempts: 1,
                outcome: FailureOutcome::Degraded,
                final_max_instances: 2000,
                final_deadline_ms: Some(250),
                salvage_covered: None,
                salvage_tokens: None,
                partial_roots: Vec::new(),
                arrangements: Vec::new(),
                attempt_log: vec![AttemptRecord {
                    attempt: 0,
                    max_instances: 2000,
                    deadline_ms: Some(250),
                    error: Some(ErrorKind::Panicked),
                    cache: None,
                    tokens: 0,
                    created: 0,
                    elapsed_us: 0,
                }],
            },
            FailureRecord {
                page_index: 12,
                error: ErrorKind::Cancelled,
                message: None,
                attempts: 1,
                outcome: FailureOutcome::Cancelled,
                final_max_instances: 2000,
                final_deadline_ms: Some(250),
                salvage_covered: None,
                salvage_tokens: None,
                partial_roots: Vec::new(),
                arrangements: Vec::new(),
                attempt_log: Vec::new(),
            },
            FailureRecord {
                page_index: 19,
                error: ErrorKind::Truncated,
                message: None,
                attempts: 2,
                outcome: FailureOutcome::Salvaged,
                final_max_instances: 4000,
                final_deadline_ms: None,
                salvage_covered: Some(17),
                salvage_tokens: Some(22),
                partial_roots: vec!["HQI".to_string(), "CP".to_string()],
                arrangements: vec!["tb attr".to_string()],
                attempt_log: vec![AttemptRecord {
                    attempt: 1,
                    max_instances: 4000,
                    deadline_ms: None,
                    error: Some(ErrorKind::Truncated),
                    cache: None,
                    tokens: 22,
                    created: 4000,
                    elapsed_us: 902,
                }],
            },
        ]
    }

    #[test]
    fn json_round_trips_byte_exact_records() {
        let records = sample();
        let json = failures_to_json(&records);
        let parsed = failures_from_json(&json).expect("parses");
        assert_eq!(parsed, records, "round trip must be lossless");
        // And the round trip is a fixpoint: serialize(parse(s)) == s.
        assert_eq!(failures_to_json(&parsed), json);
    }

    #[test]
    fn empty_record_set_round_trips() {
        let json = failures_to_json(&[]);
        assert_eq!(failures_from_json(&json).unwrap(), Vec::new());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(failures_from_json("").is_err());
        assert!(failures_from_json("{}").is_err(), "must be an array");
        assert!(failures_from_json("[{\"page_index\": 1}]").is_err());
        assert!(failures_from_json("[] trailing").is_err());
        assert!(failures_from_json("[{\"page_index\": \"x\"}]").is_err());
        // Hostile nesting is rejected by the codec's depth cap, not
        // recursed into until the stack overflows.
        assert!(failures_from_json(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn csv_has_one_row_per_record_and_escapes() {
        let csv = failures_to_csv(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5, "header + 4 records");
        assert!(lines[0].starts_with("page_index,error,outcome"));
        assert!(lines[0].ends_with(",salvage_covered,salvage_tokens,partial_roots,arrangements"));
        assert!(lines[1].starts_with("7,truncated,recovered,2,4000,,"));
        assert!(
            lines[1].ends_with(",,,\"\",\"\""),
            "no salvage or induction columns: {}",
            lines[1]
        );
        assert!(lines[2].contains("\"\""), "quotes doubled: {}", lines[2]);
        assert!(!lines[2].contains('\n'));
        assert!(lines[3].starts_with("12,cancelled,cancelled,1,2000,250,"));
        assert!(lines[4].starts_with("19,truncated,salvaged,2,4000,,"));
        assert!(
            lines[4].ends_with(",17,22,\"HQI;CP\",\"tb attr\""),
            "coverage pair + induction evidence: {}",
            lines[4]
        );
    }

    #[test]
    fn kinds_and_outcomes_round_trip_by_name() {
        for kind in [
            ErrorKind::Panicked,
            ErrorKind::Truncated,
            ErrorKind::Timeout,
            ErrorKind::EmptyForm,
            ErrorKind::Cancelled,
        ] {
            assert_eq!(ErrorKind::parse(kind.as_str()).unwrap(), kind);
        }
        assert!(ErrorKind::parse("nope").is_err());
        for outcome in [
            FailureOutcome::Recovered,
            FailureOutcome::Salvaged,
            FailureOutcome::Degraded,
            FailureOutcome::Cancelled,
        ] {
            assert_eq!(FailureOutcome::parse(outcome.as_str()).unwrap(), outcome);
        }
        assert!(FailureOutcome::parse("nope").is_err());
        for outcome in [CacheOutcome::Hit, CacheOutcome::Miss] {
            assert_eq!(CacheOutcome::parse(outcome.as_str()).unwrap(), outcome);
        }
        for name in ["nope", "delta"] {
            assert!(CacheOutcome::parse(name).is_err(), "{name}");
        }
    }

    #[test]
    fn batch_stats_round_trip_through_json() {
        let stats = BatchStats {
            pages: 33,
            workers: 4,
            tokens: 1_234,
            created: 56_789,
            invalidated: 321,
            trees: 99,
            schedules_built: 0,
            panicked: 1,
            truncated: 2,
            timed_out: 3,
            empty: 4,
            cancelled: 5,
            degraded: 15,
            salvaged: 11,
            retried: 6,
            recovered: 7,
            cache_hits: 8,
            cache_delta: 9,
            cache_misses: 10,
            elapsed: Duration::from_micros(8_675_309),
        };
        let json = stats_to_json(&stats);
        let parsed = stats_from_json(&json).expect("parses");
        assert_eq!(parsed, stats, "whole-microsecond stats are lossless");
        assert_eq!(stats_to_json(&parsed), json, "serialization is a fixpoint");
        assert!(json.starts_with("{\"pages\": 33, "), "{json}");
        assert!(json.ends_with("\"elapsed_us\": 8675309}"), "{json}");
        // Defaults round-trip too, and garbage is rejected.
        let empty = BatchStats::default();
        assert_eq!(stats_from_json(&stats_to_json(&empty)).unwrap(), empty);
        assert!(stats_from_json("").is_err());
        assert!(stats_from_json("[]").is_err(), "must be an object");
        assert!(stats_from_json("{\"pages\": 1}").is_err(), "missing fields");
        assert!(stats_from_json(&format!("{json} trailing")).is_err());
        assert!(stats_from_json(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn normalized_masks_only_wall_clock() {
        let r = &sample()[0];
        let n = r.normalized();
        assert_eq!(n.attempt_log[0].elapsed_us, 0);
        assert_eq!(n.attempt_log[0].created, r.attempt_log[0].created);
        assert_eq!(n.page_index, r.page_index);
    }
}
