//! Instances and the parse chart.
//!
//! An *instance* is one application of a production (or a terminal
//! token) — a node of some derivation tree. The chart is the arena all
//! instances live in, with per-symbol indexes and parent links. The
//! parent links serve rollback, and they also answer whether a
//! `(production, children)` combination was already built
//! ([`Chart::seen`]), so no separate dedup set is kept.
//!
//! ## Memory layout
//!
//! The chart is a struct-of-arrays: every instance attribute lives in
//! its own parallel column (`spans`, `bboxes`, `valid`, …) indexed by
//! [`InstId`]. The hot sweeps of the fix-point — validity filtering,
//! span intersection during enumeration, the preference pair sweep —
//! each touch one or two attributes of many instances, so columnar
//! storage streams exactly the bytes they need instead of striding
//! over a wide `Instance` struct. Children live flat in one arena
//! (`children`/`child_off` offsets, contiguous because children are
//! written exactly once at creation), and parent links form an
//! intrusive linked list over one arena — creating an instance
//! allocates nothing once the columns have warmed up, and
//! [`Chart::reset_for`] bulk-resets every column while keeping the
//! capacity.

use crate::tokenset::TokenSet;
use metaform_core::{BBox, Condition, Token, TokenId};
use metaform_grammar::{Cond, Payload, ProdId, SymbolId, View};
use std::fmt;
use std::sync::Arc;

/// Identifier of an instance within one chart.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl InstId {
    /// Index form.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Sentinel for "no production" / "no token" / "no parent link" in the
/// packed columns.
const NONE: u32 = u32::MAX;

/// The parse chart: struct-of-arrays instance columns plus indexes
/// (see the module docs for the layout rationale).
#[derive(Clone, Debug)]
pub struct Chart {
    tokens: Vec<Token>,
    // --- instance columns, all indexed by `InstId` ---
    symbols: Vec<SymbolId>,
    /// Producing rule per instance (`NONE` for terminals).
    prods: Vec<u32>,
    /// Underlying token per terminal instance (`NONE` for
    /// nonterminals).
    token_of: Vec<u32>,
    spans: Vec<TokenSet>,
    bboxes: Vec<BBox>,
    /// Semantic payloads. Their data is shared, so a wrapper's copy of
    /// its child's payload costs a reference count, not a deep clone.
    payloads: Vec<Payload>,
    valid: Vec<bool>,
    /// Offsets into `children`: instance `i`'s children are
    /// `children[child_off[i]..child_off[i + 1]]`. Always one longer
    /// than the instance count.
    child_off: Vec<u32>,
    /// Flat children arena, in creation order.
    children: Vec<InstId>,
    /// Head of each instance's parent linked list (`NONE` = no
    /// parents). Links live in `parent_links`.
    parent_head: Vec<u32>,
    /// `(parent, next)` link nodes of the intrusive parent lists.
    parent_links: Vec<(InstId, u32)>,
    by_symbol: Vec<Vec<InstId>>,
    /// Per-symbol invalidation counters. Together with
    /// `by_symbol[s].len()` (which only grows) they version the
    /// symbol's *valid* id list: the pair is unchanged between two
    /// readings iff the list is unchanged — and an unchanged counter
    /// with a grown list means pure append (everything past the old
    /// length is valid). The semi-naive engine keys its candidate
    /// caches on these.
    sym_invals: Vec<u32>,
}

impl Chart {
    /// Creates a chart over the given tokens with `symbol_count`
    /// symbols in the grammar.
    pub fn new(tokens: Vec<Token>, symbol_count: usize) -> Self {
        Chart {
            tokens,
            symbols: Vec::new(),
            prods: Vec::new(),
            token_of: Vec::new(),
            spans: Vec::new(),
            bboxes: Vec::new(),
            payloads: Vec::new(),
            valid: Vec::new(),
            child_off: vec![0],
            children: Vec::new(),
            parent_head: Vec::new(),
            parent_links: Vec::new(),
            by_symbol: vec![Vec::new(); symbol_count],
            sym_invals: vec![0; symbol_count],
        }
    }

    /// Clears the chart and re-targets it at a new token slice,
    /// recycling every column and index allocation. This is
    /// the parse-many path: a [`crate::ParseSession`] resets one chart
    /// per parse instead of allocating a fresh one.
    pub fn reset_for(&mut self, tokens: &[Token], symbol_count: usize) {
        // Token text is shared, so this copy bumps reference counts.
        self.tokens.clear();
        self.tokens.extend_from_slice(tokens);
        self.symbols.clear();
        self.prods.clear();
        self.token_of.clear();
        self.spans.clear();
        self.bboxes.clear();
        self.payloads.clear();
        self.valid.clear();
        self.child_off.clear();
        self.child_off.push(0);
        self.children.clear();
        self.parent_head.clear();
        self.parent_links.clear();
        self.by_symbol.truncate(symbol_count);
        for bucket in &mut self.by_symbol {
            bucket.clear();
        }
        self.by_symbol.resize_with(symbol_count, Vec::new);
        self.sym_invals.clear();
        self.sym_invals.resize(symbol_count, 0);
    }

    /// The interface's tokens.
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// Number of instances ever created (valid or not).
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// True when no instances exist yet.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The symbol an instance instantiates.
    #[inline]
    pub fn symbol(&self, id: InstId) -> SymbolId {
        self.symbols[id.index()]
    }

    /// The producing rule (`None` for terminal instances).
    #[inline]
    pub fn prod(&self, id: InstId) -> Option<ProdId> {
        let p = self.prods[id.index()];
        (p != NONE).then_some(ProdId(p))
    }

    /// The underlying token for terminal instances.
    #[inline]
    pub fn token(&self, id: InstId) -> Option<TokenId> {
        let t = self.token_of[id.index()];
        (t != NONE).then_some(TokenId(t))
    }

    /// Tokens covered by an instance's derivation.
    #[inline]
    pub fn span(&self, id: InstId) -> &TokenSet {
        &self.spans[id.index()]
    }

    /// Union bounding box of an instance.
    #[inline]
    pub fn bbox(&self, id: InstId) -> BBox {
        self.bboxes[id.index()]
    }

    /// Semantic payload of an instance.
    #[inline]
    pub fn payload(&self, id: InstId) -> &Payload {
        &self.payloads[id.index()]
    }

    /// The conditions an instance carries, each in report form with
    /// its tokens read off the span of the instance that holds it. A
    /// `collect` instance stores no list: its conditions are its
    /// components', read recursively in component order.
    pub fn conditions(&self, id: InstId) -> impl Iterator<Item = Condition> + '_ {
        let mut held = Vec::new();
        self.conditions_at(id, &mut Vec::new(), &mut held);
        held.into_iter().map(|(cond, at)| self.condition(cond, at))
    }

    /// [`Chart::conditions`] before the report form: appends to `held`
    /// each condition `id` carries with the instance holding it, in
    /// component order. `stack` is a caller-recycled walk stack.
    pub(crate) fn conditions_at<'a>(
        &'a self,
        id: InstId,
        stack: &mut Vec<InstId>,
        held: &mut Vec<(&'a Arc<Cond>, InstId)>,
    ) {
        stack.clear();
        stack.push(id);
        while let Some(id) = stack.pop() {
            match self.payload(id) {
                Payload::Cond(cond) => held.push((cond, id)),
                Payload::Collected => stack.extend(self.children(id).iter().rev()),
                Payload::CollectedAt(at) => stack.push(InstId(*at)),
                _ => {}
            }
        }
    }

    /// The report form of `cond`, held at `at`: its tokens are the
    /// span of `at`.
    pub(crate) fn condition(&self, cond: &Cond, at: InstId) -> Condition {
        let span = self.span(at);
        let mut tokens = Vec::with_capacity(span.count());
        tokens.extend(span.iter());
        cond.to_condition(tokens)
    }

    /// False once invalidated by a preference (or rollback).
    #[inline]
    pub fn is_valid(&self, id: InstId) -> bool {
        self.valid[id.index()]
    }

    /// Component instances, in production order (empty for terminals).
    #[inline]
    pub fn children(&self, id: InstId) -> &[InstId] {
        let (lo, hi) = (
            self.child_off[id.index()] as usize,
            self.child_off[id.index() + 1] as usize,
        );
        &self.children[lo..hi]
    }

    /// All instance ids of a symbol (including invalidated ones).
    pub fn of_symbol(&self, s: SymbolId) -> &[InstId] {
        &self.by_symbol[s.index()]
    }

    /// Valid instance ids of a symbol, in creation order.
    pub fn valid_of_symbol(&self, s: SymbolId) -> Vec<InstId> {
        let mut out = Vec::new();
        self.valid_of_symbol_into(s, &mut out);
        out
    }

    /// Allocation-free form of [`Chart::valid_of_symbol`]: clears
    /// `out` and fills it with the valid ids of `s` in creation order.
    pub fn valid_of_symbol_into(&self, s: SymbolId, out: &mut Vec<InstId>) {
        out.clear();
        out.extend(
            self.by_symbol[s.index()]
                .iter()
                .copied()
                .filter(|&i| self.valid[i.index()]),
        );
    }

    /// All instance ids.
    pub fn ids(&self) -> impl Iterator<Item = InstId> {
        (0..self.symbols.len() as u32).map(InstId)
    }

    /// Parent instances (those using `id` as a component), most recent
    /// first.
    pub fn parents_of(&self, id: InstId) -> ParentIter<'_> {
        ParentIter {
            links: &self.parent_links,
            at: self.parent_head[id.index()],
        }
    }

    /// Appends one link to `child`'s parent list.
    #[inline]
    fn push_parent(&mut self, child: InstId, parent: InstId) {
        let link = self.parent_links.len() as u32;
        self.parent_links
            .push((parent, self.parent_head[child.index()]));
        self.parent_head[child.index()] = link;
    }

    /// Pushes one row across all instance columns.
    #[inline]
    fn push_row(
        &mut self,
        symbol: SymbolId,
        prod: u32,
        token: u32,
        span: TokenSet,
        bbox: BBox,
        payload: Payload,
    ) -> InstId {
        let id = InstId(self.symbols.len() as u32);
        self.symbols.push(symbol);
        self.prods.push(prod);
        self.token_of.push(token);
        self.spans.push(span);
        self.bboxes.push(bbox);
        self.payloads.push(payload);
        self.valid.push(true);
        self.child_off.push(self.children.len() as u32);
        self.parent_head.push(NONE);
        self.by_symbol[symbol.index()].push(id);
        id
    }

    /// Adds a terminal instance for token `t`.
    pub fn add_terminal(&mut self, symbol: SymbolId, token: &Token) -> InstId {
        let span = TokenSet::singleton(self.tokens.len(), token.id);
        self.push_row(
            symbol,
            NONE,
            token.id.0,
            span,
            token.pos,
            Payload::for_token(token),
        )
    }

    /// Adds a terminal instance for the chart's own token at `idx` —
    /// the seeding path, which avoids cloning the token list first.
    pub fn add_terminal_index(&mut self, symbol: SymbolId, idx: usize) -> InstId {
        let (tid, pos, payload) = {
            let t = &self.tokens[idx];
            (t.id, t.pos, Payload::for_token(t))
        };
        let span = TokenSet::singleton(self.tokens.len(), tid);
        self.push_row(symbol, NONE, tid.0, span, pos, payload)
    }

    /// True when an instance for `(prod, children)` already exists.
    /// Exact and allocation-free: every child links to each of its
    /// parents, so such an instance is one of the first child's
    /// parents.
    pub fn seen(&self, prod: ProdId, children: &[InstId]) -> bool {
        let Some(&first) = children.first() else {
            return false;
        };
        self.parents_of(first)
            .any(|p| self.prods[p.index()] == prod.0 && self.children(p) == children)
    }

    /// Adds a nonterminal instance produced by `prod` over `children`.
    /// The caller must have verified dedup, disjointness, and
    /// constraints. The children are copied into the chart's flat
    /// arena — no per-instance `Vec`.
    pub fn add_nonterminal(
        &mut self,
        symbol: SymbolId,
        prod: ProdId,
        children: &[InstId],
        payload: Payload,
    ) -> InstId {
        let mut span = TokenSet::new(self.tokens.len());
        let mut bbox: Option<BBox> = None;
        for &c in children {
            span.union_with(&self.spans[c.index()]);
            let cb = self.bboxes[c.index()];
            bbox = Some(bbox.map_or(cb, |b| b.union(&cb)));
        }
        self.children.extend_from_slice(children);
        let id = self.push_row(
            symbol,
            prod.0,
            NONE,
            span,
            bbox.unwrap_or(BBox::ZERO),
            payload,
        );
        for &c in children {
            self.push_parent(c, id);
        }
        id
    }

    /// Marks an instance invalid; returns whether it was valid before.
    pub fn invalidate(&mut self, id: InstId) -> bool {
        let was = self.valid[id.index()];
        self.valid[id.index()] = false;
        if was {
            self.sym_invals[self.symbols[id.index()].index()] += 1;
        }
        was
    }

    /// Versions the valid id list of `s` as `(total ids, invalidation
    /// count)`. Both components only grow, so the pair is unchanged
    /// between two readings iff [`Chart::valid_of_symbol_into`] would
    /// return the same ids — and an unchanged invalidation count with
    /// a grown total means the list changed by *appending* valid ids
    /// only (everything at indexes past the old total).
    #[inline]
    pub fn symbol_version(&self, s: SymbolId) -> (u32, u32) {
        (
            self.by_symbol[s.index()].len() as u32,
            self.sym_invals[s.index()],
        )
    }

    /// A constraint/constructor view of an instance.
    pub fn view(&self, id: InstId) -> View<'_> {
        View {
            bbox: self.bboxes[id.index()],
            payload: &self.payloads[id.index()],
            token: self.token(id).map(|t| &self.tokens[t.index()]),
            inst: id.0,
        }
    }

    /// How loosely an instance's components are arranged — the
    /// "inter-component distance" preferences compare (paper Figure 13
    /// discussion). Zero for terminals and unary instances.
    ///
    /// The measure is arrangement-aware: components on a shared row
    /// score their edge distance, while vertically stacked components
    /// score a large constant plus distance. This encodes the
    /// presentation convention that horizontal adjacency binds tighter
    /// than vertical adjacency (a label reads with the widget *beside*
    /// it before the widget *below* it).
    pub fn spread(&self, id: InstId) -> i32 {
        const STACKED: i32 = 1000;
        let prox = metaform_core::Proximity::default();
        let children = self.children(id);
        let mut max = 0;
        for (i, &a) in children.iter().enumerate() {
            for &b in &children[i + 1..] {
                let (ba, bb) = (self.bboxes[a.index()], self.bboxes[b.index()]);
                let d = ba.distance(&bb);
                let score = if metaform_core::relations::same_row(&ba, &bb, &prox) {
                    d
                } else {
                    STACKED + d
                };
                max = max.max(score);
            }
        }
        max
    }

    /// Is `ancestor` a (possibly transitive) structural ancestor of
    /// `descendant`? Pruned by span containment.
    pub fn is_ancestor(&self, ancestor: InstId, descendant: InstId) -> bool {
        self.is_ancestor_in(ancestor, descendant, &mut Vec::new())
    }

    /// [`Chart::is_ancestor`] with a caller-recycled walk stack.
    pub(crate) fn is_ancestor_in(
        &self,
        ancestor: InstId,
        descendant: InstId,
        stack: &mut Vec<InstId>,
    ) -> bool {
        if ancestor == descendant {
            return false;
        }
        let dspan = self.span(descendant);
        if !dspan.is_subset(self.span(ancestor)) {
            return false;
        }
        stack.clear();
        stack.push(ancestor);
        while let Some(cur) = stack.pop() {
            for &c in self.children(cur) {
                if c == descendant {
                    return true;
                }
                if dspan.is_subset(self.span(c)) {
                    stack.push(c);
                }
            }
        }
        false
    }

    /// Tokens covered by no instance in `roots`.
    pub fn uncovered_tokens(&self, roots: &[InstId]) -> Vec<TokenId> {
        let mut covered = TokenSet::new(self.tokens.len());
        for &r in roots {
            covered.union_with(self.span(r));
        }
        self.tokens
            .iter()
            .map(|t| t.id)
            .filter(|&t| !covered.contains(t))
            .collect()
    }
}

/// Iterator over an instance's parents (see [`Chart::parents_of`]).
pub struct ParentIter<'a> {
    links: &'a [(InstId, u32)],
    at: u32,
}

impl Iterator for ParentIter<'_> {
    type Item = InstId;

    fn next(&mut self) -> Option<InstId> {
        if self.at == NONE {
            return None;
        }
        let (parent, next) = self.links[self.at as usize];
        self.at = next;
        Some(parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaform_core::TokenKind;
    use metaform_grammar::{Constructor, SymbolTable};

    fn setup() -> (Chart, SymbolId, SymbolId, SymbolId) {
        let mut syms = SymbolTable::new();
        let text_sym = syms.terminal(TokenKind::Text);
        let tb_sym = syms.terminal(TokenKind::Textbox);
        let nt = syms.intern("TextVal");
        let tokens = vec![
            Token::text(0, "Author", BBox::new(0, 0, 40, 16)),
            Token::widget(1, TokenKind::Textbox, "q", BBox::new(50, 0, 190, 20)),
        ];
        let chart = Chart::new(tokens, syms.len());
        (chart, text_sym, tb_sym, nt)
    }

    #[test]
    fn terminal_instances() {
        let (mut chart, text_sym, tb_sym, _) = setup();
        let t0 = chart.tokens()[0].clone();
        let t1 = chart.tokens()[1].clone();
        let a = chart.add_terminal(text_sym, &t0);
        let b = chart.add_terminal(tb_sym, &t1);
        assert_eq!(chart.len(), 2);
        assert_eq!(chart.span(a).count(), 1);
        assert!(chart.is_valid(a));
        assert_eq!(chart.of_symbol(text_sym), &[a]);
        assert_eq!(chart.of_symbol(tb_sym), &[b]);
        assert_eq!(chart.view(a).payload.text(), Some("Author"));
        assert!(chart.view(b).token.is_some());
    }

    #[test]
    fn nonterminal_assembly_fills_condition_tokens() {
        let (mut chart, text_sym, tb_sym, nt) = setup();
        let t0 = chart.tokens()[0].clone();
        let t1 = chart.tokens()[1].clone();
        let a = chart.add_terminal(text_sym, &t0);
        let b = chart.add_terminal(tb_sym, &t1);
        let cond = metaform_grammar::Cond {
            attribute: "Author".into(),
            operators: metaform_core::empty_list(),
            domain: metaform_grammar::Domain::of(metaform_core::DomainKind::Text),
        };
        let payload = Payload::Cond(std::sync::Arc::new(cond));
        let id = chart.add_nonterminal(nt, ProdId(0), &[a, b], payload);
        assert_eq!(chart.span(id).count(), 2);
        assert_eq!(chart.bbox(id), BBox::new(0, 0, 190, 20));
        let got: Vec<Condition> = chart.conditions(id).collect();
        assert_eq!(got[0].attribute, "Author");
        assert_eq!(
            got[0].tokens,
            vec![TokenId(0), TokenId(1)],
            "the span's tokens"
        );
        assert_eq!(chart.parents_of(a).collect::<Vec<_>>(), vec![id]);
        assert!(chart.seen(ProdId(0), &[a, b]));
        assert!(!chart.seen(ProdId(0), &[b, a]));
    }

    #[test]
    fn invalidate_and_valid_filter() {
        let (mut chart, text_sym, ..) = setup();
        let t0 = chart.tokens()[0].clone();
        let a = chart.add_terminal(text_sym, &t0);
        assert_eq!(chart.valid_of_symbol(text_sym), vec![a]);
        assert!(chart.invalidate(a));
        assert!(!chart.invalidate(a), "second call reports already-invalid");
        assert!(chart.valid_of_symbol(text_sym).is_empty());
        assert_eq!(chart.of_symbol(text_sym).len(), 1, "index keeps the id");
    }

    #[test]
    fn ancestry() {
        let (mut chart, text_sym, tb_sym, nt) = setup();
        let t0 = chart.tokens()[0].clone();
        let t1 = chart.tokens()[1].clone();
        let a = chart.add_terminal(text_sym, &t0);
        let b = chart.add_terminal(tb_sym, &t1);
        let p = chart.add_nonterminal(nt, ProdId(0), &[a, b], Payload::None);
        assert!(chart.is_ancestor(p, a));
        assert!(chart.is_ancestor(p, b));
        assert!(!chart.is_ancestor(a, p));
        assert!(!chart.is_ancestor(p, p));
    }

    #[test]
    fn spread_measures_component_distance() {
        let (mut chart, text_sym, tb_sym, nt) = setup();
        let t0 = chart.tokens()[0].clone();
        let t1 = chart.tokens()[1].clone();
        let a = chart.add_terminal(text_sym, &t0);
        let b = chart.add_terminal(tb_sym, &t1);
        assert_eq!(chart.spread(a), 0);
        let p = chart.add_nonterminal(nt, ProdId(0), &[a, b], Payload::None);
        assert_eq!(chart.spread(p), 10, "gap between the two boxes");
    }

    #[test]
    fn uncovered_tokens_reports_gaps() {
        let (mut chart, text_sym, ..) = setup();
        let t0 = chart.tokens()[0].clone();
        let a = chart.add_terminal(text_sym, &t0);
        assert_eq!(chart.uncovered_tokens(&[a]), vec![TokenId(1)]);
        assert_eq!(chart.uncovered_tokens(&[]).len(), 2);
    }

    /// A chart over four captions, one terminal each, and a condition
    /// instance over each of the first three.
    fn conditions_chart() -> (Chart, SymbolId, SymbolId, [InstId; 3]) {
        let mut syms = SymbolTable::new();
        let text_sym = syms.terminal(TokenKind::Text);
        let cp = syms.intern("CP");
        let row = syms.intern("HQI");
        let tokens: Vec<Token> = ["a", "b", "c", "d"]
            .iter()
            .enumerate()
            .map(|(i, t)| {
                Token::text(
                    i as u32,
                    *t,
                    BBox::new(i as i32 * 20, 0, i as i32 * 20 + 10, 16),
                )
            })
            .collect();
        let mut chart = Chart::new(tokens, syms.len());
        let terms: Vec<InstId> = (0..4)
            .map(|i| chart.add_terminal_index(text_sym, i))
            .collect();
        let conds = [0, 1, 2].map(|i| {
            let attr = Payload::Attr(chart.tokens()[i].sval.clone());
            let payload = Constructor::MakeDate(0).eval(&[View {
                payload: &attr,
                ..chart.view(terms[i])
            }]);
            chart.add_nonterminal(cp, ProdId(0), &[terms[i]], payload)
        });
        (chart, text_sym, row, conds)
    }

    /// Adds a `collect` instance over `children`.
    fn collect(chart: &mut Chart, head: SymbolId, children: &[InstId]) -> InstId {
        let views: Vec<View<'_>> = children.iter().map(|&c| chart.view(c)).collect();
        let payload = Constructor::CollectConds.eval(&views);
        chart.add_nonterminal(head, ProdId(1), children, payload)
    }

    /// `(attribute, tokens)` of each condition an instance carries.
    fn listed(chart: &Chart, id: InstId) -> Vec<(String, Vec<u32>)> {
        chart
            .conditions(id)
            .map(|c| (c.attribute, c.tokens.iter().map(|t| t.0).collect()))
            .collect()
    }

    #[test]
    fn collected_conditions_flatten_in_order_with_their_origins() {
        let (mut chart, text, row, [a, b, c]) = conditions_chart();
        let inner = collect(&mut chart, row, &[b, c]);
        let bare = chart.add_terminal_index(text, 3);
        let outer = collect(&mut chart, row, &[a, inner, bare]);
        assert_eq!(chart.payload(outer), &Payload::Collected, "no list stored");
        assert!(chart.payload(outer).has_conditions());
        assert_eq!(
            listed(&chart, outer),
            vec![
                ("a".into(), vec![0]),
                ("b".into(), vec![1]),
                ("c".into(), vec![2]),
            ],
            "component order; each condition over its own instance's span"
        );
        let mut held = Vec::new();
        chart.conditions_at(outer, &mut Vec::new(), &mut held);
        let origins: Vec<InstId> = held.iter().map(|&(_, at)| at).collect();
        assert_eq!(origins, vec![a, b, c]);
    }

    #[test]
    fn a_lone_carrier_passes_its_conditions_up_unchanged() {
        let (mut chart, text, row, [a, b, _]) = conditions_chart();
        // `HQI <- CP`: a condition over its own span.
        let wrapped = collect(&mut chart, row, &[a]);
        assert_eq!(listed(&chart, wrapped), vec![("a".into(), vec![0])]);
        // `QI <- HQI` over a list, and an `inherit` of one: the same
        // list with the same origins.
        let list = collect(&mut chart, row, &[a, b]);
        let qi = collect(&mut chart, row, &[list]);
        assert_eq!(listed(&chart, qi), listed(&chart, list));
        let payload = Constructor::Inherit(0).eval(&[chart.view(list)]);
        assert_eq!(payload, Payload::CollectedAt(list.0));
        let held = chart.add_nonterminal(row, ProdId(2), &[list], payload);
        assert_eq!(listed(&chart, held), listed(&chart, list));
        assert_eq!(listed(&chart, list).len(), 2);
        // An empty collection still carries conditions (none).
        let bare = chart.add_terminal_index(text, 3);
        let empty = collect(&mut chart, row, &[bare]);
        assert!(chart.payload(empty).has_conditions());
        assert!(listed(&chart, empty).is_empty());
    }

    #[test]
    fn children_live_in_one_flat_arena() {
        let (mut chart, text_sym, tb_sym, nt) = setup();
        let t0 = chart.tokens()[0].clone();
        let t1 = chart.tokens()[1].clone();
        let a = chart.add_terminal(text_sym, &t0);
        let b = chart.add_terminal(tb_sym, &t1);
        assert!(chart.children(a).is_empty());
        let p = chart.add_nonterminal(nt, ProdId(0), &[a, b], Payload::None);
        let q = chart.add_nonterminal(nt, ProdId(1), &[b, a], Payload::None);
        assert_eq!(chart.children(p), &[a, b]);
        assert_eq!(chart.children(q), &[b, a]);
        // Both parents reachable from each child, most recent first.
        assert_eq!(chart.parents_of(a).collect::<Vec<_>>(), vec![q, p]);
        assert_eq!(chart.parents_of(b).collect::<Vec<_>>(), vec![q, p]);
        // `seen` matches on production and children together: a shared
        // first child with another production or child order is not a
        // hit.
        assert!(chart.seen(ProdId(1), &[b, a]));
        assert!(!chart.seen(ProdId(1), &[a, b]));
        assert!(!chart.seen(ProdId(0), &[b, a]));
    }
}
