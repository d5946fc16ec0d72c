//! Parse-time measurements (paper §5.1).
//!
//! The paper reports ≈1 s for a 25-token interface and <100 s for 120
//! interfaces of average size 22, on 2004 hardware. We measure the same
//! two quantities; the comparison is of *shape* (time grows with token
//! count; pruning keeps it tractable), not absolute values.

use metaform_datasets::Dataset;
use metaform_extractor::FormExtractor;
use metaform_parser::ParseSession;
use std::time::Duration;

/// Timing for a single interface.
#[derive(Clone, Debug)]
pub struct SingleTiming {
    /// Token count of the measured interface.
    pub tokens: usize,
    /// Pure parsing time (tokenization and merging excluded, as in the
    /// paper's measurement). From [`single_interface`], the median of
    /// [`SINGLE_REPEATS`] parses.
    pub parse_time: Duration,
    /// Instances created.
    pub instances: usize,
}

/// Timing for a batch of interfaces.
#[derive(Clone, Debug)]
pub struct BatchTiming {
    /// Interfaces measured.
    pub interfaces: usize,
    /// Mean token count.
    pub avg_tokens: f64,
    /// Total parsing time across the batch.
    pub total_parse_time: Duration,
}

/// Timed parses behind one [`single_interface`] figure.
pub const SINGLE_REPEATS: usize = 31;

/// Picks the source of `ds` whose token count is closest to
/// `target_tokens` (the first such source), then parses its tokens
/// once to warm the session and [`SINGLE_REPEATS`] more times, and
/// reports the median parse time.
pub fn single_interface(
    extractor: &FormExtractor,
    ds: &Dataset,
    target_tokens: usize,
) -> SingleTiming {
    let tokens = ds
        .sources
        .iter()
        .map(|src| tokenize_source(&src.html))
        .min_by_key(|tokens| tokens.len().abs_diff(target_tokens))
        .expect("dataset nonempty");
    let mut session = extractor.session();
    let warm = time_parse_in(&mut session, &tokens);
    let mut times: Vec<Duration> = (0..SINGLE_REPEATS)
        .map(|_| time_parse_in(&mut session, &tokens).parse_time)
        .collect();
    times.sort_unstable();
    SingleTiming {
        parse_time: times[SINGLE_REPEATS / 2],
        ..warm
    }
}

/// Parses the first `n` interfaces of `ds` and reports batch timing
/// (the paper's 120-interface measurement). The extractor's grammar
/// is already compiled, so the whole batch shares one schedule and one
/// recycled parse session.
pub fn batch(extractor: &FormExtractor, ds: &Dataset, n: usize) -> BatchTiming {
    let mut session = extractor.session();
    let mut total = Duration::ZERO;
    let mut tokens_sum = 0usize;
    let mut count = 0usize;
    for src in ds.sources.iter().take(n) {
        let tokens = tokenize_source(&src.html);
        let t = time_parse_in(&mut session, &tokens);
        total += t.parse_time;
        tokens_sum += t.tokens;
        count += 1;
    }
    BatchTiming {
        interfaces: count,
        avg_tokens: tokens_sum as f64 / count.max(1) as f64,
        total_parse_time: total,
    }
}

/// Tokenizes a page through the standard pipeline.
pub fn tokenize_source(html: &str) -> Vec<metaform_core::Token> {
    let doc = metaform_html::parse(html);
    let lay = metaform_layout::layout(&doc);
    metaform_tokenizer::tokenize(&doc, &lay).tokens
}

/// Times one parse through a reusable session.
pub fn time_parse_in(session: &mut ParseSession, tokens: &[metaform_core::Token]) -> SingleTiming {
    let result = session.parse(tokens);
    let timing = SingleTiming {
        tokens: tokens.len(),
        parse_time: result.stats.elapsed,
        instances: result.stats.created,
    };
    session.recycle(result);
    timing
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaform_datasets::new_source;

    #[test]
    fn single_picks_closest_size() {
        let ex = FormExtractor::new();
        let ds = new_source();
        let t = single_interface(&ex, &ds, 25);
        assert!(t.tokens > 0);
        assert!(t.instances >= t.tokens);
    }

    #[test]
    fn batch_accumulates() {
        let ex = FormExtractor::new();
        let ds = new_source();
        let b = batch(&ex, &ds, 10);
        assert_eq!(b.interfaces, 10);
        assert!(b.avg_tokens > 3.0);
        assert!(b.total_parse_time > Duration::ZERO);
    }

    #[test]
    fn tokenizer_helper_round_trips() {
        let toks = tokenize_source("<form>Author <input type=text name=a></form>");
        assert_eq!(toks.len(), 2);
    }
}
