//! Content-addressed parse cache for crawler-scale revisit traffic.
//!
//! A crawler revisiting a query interface usually finds it unchanged.
//! [`ParseCache::lookup`] keys on the page's [`TokenFingerprint`]; an
//! unchanged page replays its cached [`ExtractionReport`] in O(hash),
//! marked [`crate::Provenance::CacheHit`]. Any other page parses cold.
//! The parser is a function of the tokens, so a cache changes how fast
//! a report is served, never what it says: the cache-parity suite
//! checks replays against cold parses byte for byte.
//!
//! The cache sits behind a trait ([`ParseCache`]) with `&self`
//! methods, so one instance — typically the bounded-LRU
//! [`LruParseCache`] — can be shared across extractors, batch workers,
//! and service jobs via `Arc<dyn ParseCache>`. Entries remember the
//! compiled grammar they were parsed under; an extractor ignores
//! entries from a different grammar, so sharing a cache across
//! differently-configured extractors degrades to misses instead of
//! wrong answers.

use metaform_core::{ExtractionReport, Text, Token, TokenFingerprint};
use metaform_grammar::CompiledGrammar;
use metaform_parser::ChartSnapshot;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// One finished grammar-path visit retained for future revisits: the
/// exact tokens and the merged report to replay on an exact hit.
#[derive(Clone, Debug)]
pub struct CachedVisit {
    /// The visit's token stream, ids included (exact hits must match
    /// it in full; the fingerprint alone could collide).
    pub tokens: Vec<Token>,
    /// The merged report the visit produced.
    pub report: ExtractionReport,
    /// Witness that the visit's parse completed.
    pub snapshot: ChartSnapshot,
    /// The compiled grammar the visit parsed under. Consumers must
    /// ignore visits from a different artifact (`Arc::ptr_eq`).
    pub grammar: Arc<CompiledGrammar>,
    /// Which pattern claimed which tokens in the visit's maximal
    /// trees — replayed on exact hits so cached pages feed the
    /// induction loop's mining evidence like cold ones.
    pub pattern_spans: Vec<metaform_grammar::PatternSpan>,
    /// The maximal trees' root symbols, replayed alongside.
    pub partial_roots: Vec<Text>,
}

/// A shareable store of finished visits, keyed by token fingerprint.
///
/// All methods take `&self` (implementations synchronize internally)
/// so one cache can back concurrent batch workers and service jobs.
pub trait ParseCache: Send + Sync + std::fmt::Debug {
    /// The visit stored under `key`, if any. Implementations should
    /// treat a lookup as a use for eviction purposes.
    fn lookup(&self, key: &TokenFingerprint) -> Option<Arc<CachedVisit>>;

    /// Always `None`. Held for perfbench's mirror; goes with the
    /// ROADMAP "One clock" item.
    fn nearest(&self, _tokens: &[Token]) -> Option<(Arc<CachedVisit>, usize)> {
        None
    }

    /// Stores a finished visit under its fingerprint, evicting as
    /// needed.
    fn store(&self, key: TokenFingerprint, visit: Arc<CachedVisit>);

    /// Number of visits currently held.
    fn len(&self) -> usize;

    /// Whether the cache holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Bounded LRU [`ParseCache`]: a fingerprint-keyed map with a
/// monotone use tick; inserting past capacity evicts the
/// least-recently-used entry. Lock poisoning is shrugged off (the
/// cache holds immutable `Arc`s, so a panicked holder cannot leave a
/// half-written entry behind).
#[derive(Debug)]
pub struct LruParseCache {
    capacity: usize,
    inner: Mutex<LruInner>,
}

#[derive(Debug, Default)]
struct LruInner {
    map: HashMap<TokenFingerprint, (u64, Arc<CachedVisit>)>,
    tick: u64,
}

impl LruParseCache {
    /// Default [`LruParseCache::new`] capacity.
    pub const DEFAULT_CAPACITY: usize = 128;

    /// A cache holding at most `capacity` visits (0 is treated as 1).
    pub fn new(capacity: usize) -> Self {
        LruParseCache {
            capacity: capacity.max(1),
            inner: Mutex::new(LruInner::default()),
        }
    }

    /// A default-capacity cache behind the `Arc<dyn ParseCache>`
    /// handle extractors and services share.
    pub fn shared() -> Arc<dyn ParseCache> {
        Arc::new(Self::new(Self::DEFAULT_CAPACITY))
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, LruInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Default for LruParseCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl ParseCache for LruParseCache {
    fn lookup(&self, key: &TokenFingerprint) -> Option<Arc<CachedVisit>> {
        let mut inner = self.locked();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(key).map(|entry| {
            entry.0 = tick;
            entry.1.clone()
        })
    }

    fn store(&self, key: TokenFingerprint, visit: Arc<CachedVisit>) {
        let mut inner = self.locked();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key, (tick, visit));
        if inner.map.len() > self.capacity {
            // Evict the least-recently-used entry (unique ticks make
            // the min unambiguous).
            let lru = inner
                .map
                .iter()
                .map(|(k, (tick, _))| (*tick, *k))
                .min()
                .map(|(_, k)| k)
                .expect("cache over capacity is nonempty");
            inner.map.remove(&lru);
        }
    }

    fn len(&self) -> usize {
        self.locked().map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaform_core::BBox;

    fn tok(i: u32, s: &str) -> Token {
        Token::text(i, s, BBox::new(0, i as i32 * 20, 40, i as i32 * 20 + 16))
    }

    fn visit(tokens: Vec<Token>) -> Arc<CachedVisit> {
        let grammar = metaform_grammar::global_compiled();
        let session = &mut metaform_parser::ParseSession::new(grammar.clone());
        let result = session.parse(&tokens);
        let snapshot = ChartSnapshot::of(&result).expect("unbudgeted parse completes");
        Arc::new(CachedVisit {
            tokens,
            report: metaform_parser::merge(&result.chart, &result.trees),
            snapshot,
            grammar,
            pattern_spans: Vec::new(),
            partial_roots: Vec::new(),
        })
    }

    #[test]
    fn lookup_round_trips_and_misses() {
        let cache = LruParseCache::new(4);
        let v = visit(vec![tok(0, "Author")]);
        let key = TokenFingerprint::of(&v.tokens);
        assert!(cache.lookup(&key).is_none());
        assert!(cache.is_empty());
        cache.store(key, v.clone());
        assert_eq!(cache.len(), 1);
        let back = cache.lookup(&key).expect("stored");
        assert_eq!(back.tokens, v.tokens);
        let other = TokenFingerprint::of(&[tok(0, "Title")]);
        assert!(cache.lookup(&other).is_none());
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = LruParseCache::new(2);
        let visits: Vec<_> = ["a", "b", "c"]
            .iter()
            .map(|s| visit(vec![tok(0, s)]))
            .collect();
        let keys: Vec<_> = visits
            .iter()
            .map(|v| TokenFingerprint::of(&v.tokens))
            .collect();
        cache.store(keys[0], visits[0].clone());
        cache.store(keys[1], visits[1].clone());
        // Touch "a" so "b" is the LRU when "c" arrives.
        assert!(cache.lookup(&keys[0]).is_some());
        cache.store(keys[2], visits[2].clone());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&keys[0]).is_some(), "recently used survives");
        assert!(cache.lookup(&keys[1]).is_none(), "LRU evicted");
        assert!(cache.lookup(&keys[2]).is_some());
    }
}
