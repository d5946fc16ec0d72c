//! Grammar induction: mining candidate productions from parse residue.
//!
//! The hand-derived global grammar covers 21 of the survey's pattern
//! catalog; pages built from withheld patterns parse *wrong* rather
//! than not at all — their tokens end up claimed by the unlabeled
//! fallback patterns (`KwVal`, `SelfSel`, `TextValB`) or stranded in
//! the report's `missing` list. This module is the **Collect** and
//! **Infer** halves of the Collect → Infer → Validate loop that closes
//! that gap (ROADMAP's top open item):
//!
//! - [`mine_page`] anchors on residue tokens (missing, or claimed only
//!   by fallback patterns), grows each anchor group into a visual-row
//!   window, and abstracts the window into an [`Arrangement`] — a
//!   descriptor signature (symbol n-gram) plus the observed horizontal
//!   gaps (the bbox adjacency class).
//! - [`ArrangementBook`] clusters arrangements across a batch by
//!   signature, tracking per-page support and the element-wise maximal
//!   gaps.
//! - [`synthesize`] maps a recurring cluster onto one of the known
//!   production *shapes* and generalizes the spatial constraints from
//!   the observed gaps, yielding a [`Candidate`]: `.2pg` rule text.
//!
//! A [`Candidate`] is a proposal, not a grammar change:
//! [`Candidate::apply`] returns a *description* ([`Grammar`]) read by
//! the grammar DSL from the base's text with the candidate's rules
//! after it, and the only way that description becomes
//! parse-ready is [`Grammar::compile`] — the grammar lifecycle's single
//! fallible entry point, which re-validates everything. The **Validate**
//! half (held-out replay, zero-regression gate) lives in
//! `metaform-eval`, which alone decides whether an applied candidate is
//! kept.

use crate::constraint::{self, Pred, View};
use crate::dsl::{from_dsl, to_dsl};
use crate::grammar::Grammar;
use crate::payload::Payload;
use metaform_core::relations::same_row;
use metaform_core::{Proximity, Token, TokenId, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// Pattern symbols whose claims are last-resort guesses, not evidence
/// of understanding: a token claimed *only* by these is parse residue
/// and eligible as a mining anchor.
pub const FALLBACK_SYMBOLS: [&str; 3] = ["KwVal", "SelfSel", "TextValB"];

/// The tokens one pattern-level instance claimed, tagged with the
/// claiming symbol — the parser exports one per `CP` child in the
/// maximal trees, letting the miner separate trusted claims from
/// fallback claims.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternSpan {
    /// Pattern symbol name (`"TextVal"`, `"KwVal"`, …).
    pub symbol: String,
    /// Token ids the instance's span covers, ascending.
    pub tokens: Vec<TokenId>,
}

/// One recurring unparsed token arrangement: the descriptor signature
/// abstracts the token sequence, the gaps record the horizontal
/// adjacency class the spatial constraints will be generalized from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Arrangement {
    /// Space-joined descriptors — the cluster key.
    pub signature: String,
    /// Per-token descriptors, left to right.
    pub descriptors: Vec<String>,
    /// Horizontal gap (px, clamped at 0) between adjacent tokens;
    /// `descriptors.len() - 1` entries.
    pub gaps: Vec<i32>,
}

/// Upper bound on window width: anything wider than the widest known
/// condition pattern (attr + three boxes + two separators) is noise,
/// not a minable arrangement.
const MAX_WINDOW: usize = 8;

/// Abstracts one token for the arrangement signature. Widgets map to
/// their kind; text splits by role — connector words, punctuation
/// separators, lowercase unit-ish words, attribute-like labels, other.
fn descriptor(t: &Token) -> &'static str {
    match t.kind {
        TokenKind::Textbox | TokenKind::Password | TokenKind::TextArea => "tb",
        TokenKind::SelectionList => "sel",
        TokenKind::NumberList => "numl",
        TokenKind::MonthList => "monl",
        TokenKind::DayList => "dayl",
        TokenKind::YearList => "yearl",
        TokenKind::Radiobutton => "rb",
        TokenKind::Checkbox => "cb",
        TokenKind::SubmitButton | TokenKind::ResetButton | TokenKind::ImageInput => "btn",
        TokenKind::FileInput => "file",
        TokenKind::HiddenInput => "hid",
        TokenKind::Text => {
            let s = &*t.sval;
            if constraint::is_connector(s) {
                "conn"
            } else if !s.chars().any(char::is_alphanumeric) {
                "sep"
            } else if s.chars().any(char::is_alphabetic) && !s.chars().any(char::is_uppercase) {
                "low"
            } else if attr_like(t) {
                "attr"
            } else {
                "txt"
            }
        }
    }
}

/// `Pred::AttrLike` on a raw token — the same lexical test the `Attr`
/// production uses, so mined windows agree with what the grammar would
/// accept as a label.
fn attr_like(t: &Token) -> bool {
    let payload = Payload::Text(t.sval.clone());
    Pred::AttrLike.eval(&View {
        bbox: t.pos,
        payload: &payload,
        token: Some(t),
        inst: 0,
    })
}

fn is_button(kind: TokenKind) -> bool {
    matches!(
        kind,
        TokenKind::SubmitButton | TokenKind::ResetButton | TokenKind::ImageInput
    )
}

fn is_widget(kind: TokenKind) -> bool {
    !matches!(kind, TokenKind::Text | TokenKind::HiddenInput) && !is_button(kind)
}

/// Mines one page's parse residue into arrangements (the **Collect**
/// step). `missing` and `spans` come from the page's extraction; a
/// page that parsed cleanly (no missing tokens, no fallback claims)
/// yields nothing.
pub fn mine_page(
    tokens: &[Token],
    missing: &[TokenId],
    spans: &[PatternSpan],
    prox: &Proximity,
) -> Vec<Arrangement> {
    // Split claims into trusted (a real pattern matched) and fallback.
    let mut trusted: BTreeSet<usize> = BTreeSet::new();
    let mut fallback: BTreeSet<usize> = BTreeSet::new();
    for span in spans {
        let bucket = if FALLBACK_SYMBOLS.contains(&span.symbol.as_str()) {
            &mut fallback
        } else {
            &mut trusted
        };
        bucket.extend(span.tokens.iter().map(|t| t.index()));
    }
    // Anchors: stranded tokens, plus tokens only a fallback explains.
    let mut anchors: BTreeSet<usize> = missing.iter().map(|t| t.index()).collect();
    anchors.extend(fallback.difference(&trusted).copied());
    anchors.retain(|&i| i < tokens.len() && !is_button(tokens[i].kind));
    if anchors.is_empty() {
        return Vec::new();
    }

    // Greedy visual-row assignment (deterministic: first matching row
    // wins, rows keyed by their first member).
    let mut rows: Vec<Vec<usize>> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokenKind::HiddenInput {
            continue;
        }
        match rows
            .iter_mut()
            .find(|row| same_row(&tokens[row[0]].pos, &t.pos, prox))
        {
            Some(row) => row.push(i),
            None => rows.push(vec![i]),
        }
    }
    for row in &mut rows {
        row.sort_by_key(|&i| (tokens[i].pos.left, i));
    }

    let mut out = Vec::new();
    for row in &rows {
        let anchor_pos: Vec<usize> = (0..row.len())
            .filter(|&p| anchors.contains(&row[p]))
            .collect();
        if anchor_pos.is_empty() {
            continue;
        }
        // Split a row's anchors into adjacency groups: two fields that
        // happen to share a visual row must not fuse into one window.
        let mut groups: Vec<(usize, usize)> = Vec::new();
        for &p in &anchor_pos {
            match groups.last_mut() {
                Some((_, hi)) if p - *hi <= 3 => *hi = p,
                _ => groups.push((p, p)),
            }
        }
        for &(mut lo, mut hi) in &groups {
            // Grow the window over the anchors' context: widgets always
            // join; text joins when it is a connector, a separator, or
            // unexplained; buttons and trusted prose stop the growth.
            let joins = |p: usize| -> bool {
                let t = &tokens[row[p]];
                if is_widget(t.kind) {
                    return true;
                }
                t.kind == TokenKind::Text
                    && (constraint::is_connector(&t.sval)
                        || !t.sval.chars().any(char::is_alphanumeric)
                        || !trusted.contains(&row[p]))
            };
            while lo > 0 && joins(lo - 1) {
                lo -= 1;
            }
            while hi + 1 < row.len() && joins(hi + 1) {
                hi += 1;
            }
            // Label reclaim: a window starting at a widget whose
            // immediate left neighbor is an attribute-like label takes
            // the label even when a (mis-claiming) trusted pattern
            // already holds it — the label is part of the arrangement
            // being learned.
            if lo > 0 && is_widget(tokens[row[lo]].kind) {
                let prev = &tokens[row[lo - 1]];
                if prev.kind == TokenKind::Text && attr_like(prev) {
                    lo -= 1;
                }
            }
            let window: Vec<usize> = row[lo..=hi].to_vec();
            if window.len() > MAX_WINDOW
                || window.len() < 2
                || !window.iter().any(|&i| is_widget(tokens[i].kind))
            {
                continue;
            }
            let descriptors: Vec<String> = window
                .iter()
                .map(|&i| descriptor(&tokens[i]).to_string())
                .collect();
            let gaps: Vec<i32> = window
                .windows(2)
                .map(|w| (tokens[w[1]].pos.left - tokens[w[0]].pos.right).max(0))
                .collect();
            out.push(Arrangement {
                signature: descriptors.join(" "),
                descriptors,
                gaps,
            });
        }
    }
    out
}

/// One signature's cross-batch cluster: which pages showed it, how
/// often, and the element-wise maximal gaps observed (the adjacency
/// class the constraints generalize from).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cluster {
    /// Per-token descriptors of the clustered signature.
    pub descriptors: Vec<String>,
    /// Distinct pages the arrangement appeared on.
    pub pages: BTreeSet<String>,
    /// Total occurrences (≥ pages).
    pub occurrences: usize,
    /// Element-wise maximum of the observed gaps.
    pub max_gaps: Vec<i32>,
}

/// Clusters arrangements across a batch by signature (the **Infer**
/// step's accumulator). `BTreeMap`-backed so iteration — and therefore
/// the whole induction trajectory — is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArrangementBook {
    clusters: BTreeMap<String, Cluster>,
}

impl ArrangementBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one page's arrangement into the matching cluster.
    pub fn absorb(&mut self, page: &str, arr: &Arrangement) {
        let cluster = self
            .clusters
            .entry(arr.signature.clone())
            .or_insert_with(|| Cluster {
                descriptors: arr.descriptors.clone(),
                pages: BTreeSet::new(),
                occurrences: 0,
                max_gaps: vec![0; arr.gaps.len()],
            });
        cluster.pages.insert(page.to_string());
        cluster.occurrences += 1;
        for (slot, &g) in arr.gaps.iter().enumerate() {
            if let Some(m) = cluster.max_gaps.get_mut(slot) {
                *m = (*m).max(g);
            }
        }
    }

    /// Mines `tokens` and folds every arrangement in — the per-page
    /// collection entry batch drivers use.
    pub fn absorb_page(
        &mut self,
        page: &str,
        tokens: &[Token],
        missing: &[TokenId],
        spans: &[PatternSpan],
        prox: &Proximity,
    ) {
        for arr in mine_page(tokens, missing, spans, prox) {
            self.absorb(page, &arr);
        }
    }

    /// The clusters in signature order.
    pub fn clusters(&self) -> impl Iterator<Item = (&String, &Cluster)> {
        self.clusters.iter()
    }

    /// Number of distinct signatures seen.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// True when nothing has been mined.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Drops all clusters (a daemon does this after each refit step).
    pub fn clear(&mut self) {
        self.clusters.clear();
    }
}

/// The production shapes the synthesizer generalizes a cluster into,
/// as (descriptor signature, new nonterminal, `.2pg` rules). Each
/// mirrors a catalogued pattern family with the label on the *other*
/// side (or the parts split differently) from what the hand grammar
/// covers, and brings preferences against the patterns it competes
/// with. `{gN}` is the generalized `leftwithin` bound of adjacency `N`.
const SHAPES: [(&[&str], &str, &str); 4] = [
    // `[tb attr]` — textbox with a trailing label. A lowercase trailing
    // word is a unit ("miles"), not a label: those are left to UnitTB.
    // Tighter-wins both ways against TextVal (the R40/R41 precedent):
    // whichever pairing hugs its tokens closer is the real label-widget
    // association.
    (
        &["tb", "attr"],
        "IndTbAttr",
        "\
IndTbAttr: IndTbAttr <- Val Attr : leftwithin(0,1,{g0}) & !lowercase(1) => cond(attr=1,val=0)
IndR:IndTbAttr>TextVal: IndTbAttr > TextVal : overlap tighter
IndR:TextVal>IndTbAttr: TextVal > IndTbAttr : overlap tighter
IndR:IndTbAttr>TextValB: IndTbAttr > TextValB : overlap always
IndR:IndTbAttr>KwVal: IndTbAttr > KwVal : overlap always
IndR:UnitTB>IndTbAttr: UnitTB > IndTbAttr : overlap larger",
    ),
    // `[sel attr]` — selection list with a trailing label. An
    // operator-listing select is an op picker, not a value domain (the
    // SelfSel guard).
    (
        &["sel", "attr"],
        "IndSelAttr",
        "\
IndSelAttr: IndSelAttr <- selection_list Attr : leftwithin(0,1,{g0}) & !lowercase(1) & !optionsops(0) => cond(attr=1,val=0)
IndR:IndSelAttr>SelVal: IndSelAttr > SelVal : overlap tighter
IndR:SelVal>IndSelAttr: SelVal > IndSelAttr : overlap tighter
IndR:IndSelAttr>SelfSel: IndSelAttr > SelfSel : overlap always
IndR:IndSelAttr>TextValB: IndSelAttr > TextValB : overlap always",
    ),
    // `[attr tb sep tb sep tb]` — date split over punctuated boxes. The
    // interior texts are bare separators, never labels.
    (
        &["attr", "tb", "sep", "tb", "sep", "tb"],
        "IndDateBoxes",
        "\
IndDateBoxes: IndDateBoxes <- Attr Val text Val text Val : leftwithin(0,1,{g0}) & leftwithin(1,2,{g1}) & leftwithin(2,3,{g2}) & leftwithin(3,4,{g3}) & leftwithin(4,5,{g4}) & maxwords(2,1) & !attrlike(2) & maxwords(4,1) & !attrlike(4) => date(0)
IndR:IndDateBoxes>TextVal: IndDateBoxes > TextVal : overlap larger
IndR:IndDateBoxes>KwVal: IndDateBoxes > KwVal : overlap always
IndR:IndDateBoxes>TextValB: IndDateBoxes > TextValB : overlap always
IndR:IndDateBoxes>RangeTB: IndDateBoxes > RangeTB : overlap larger",
    ),
    // `[attr conn tb conn tb]` — worded range over two boxes.
    (
        &["attr", "conn", "tb", "conn", "tb"],
        "IndRangeBoxes",
        "\
IndRangeBoxes: IndRangeBoxes <- Attr Connector Val Connector Val : leftwithin(0,1,{g0}) & leftwithin(1,2,{g1}) & leftwithin(2,3,{g2}) & leftwithin(3,4,{g3}) => range(0,2,4)
IndR:IndRangeBoxes>RangeTB: IndRangeBoxes > RangeTB : overlap larger
IndR:IndRangeBoxes>KwVal: IndRangeBoxes > KwVal : overlap always
IndR:IndRangeBoxes>TextValB: IndRangeBoxes > TextValB : overlap always",
    ),
];

/// A synthesized candidate production set: one new pattern nonterminal
/// plus its `CP` bridge and disambiguation preferences, with spatial
/// constraints generalized from a cluster's observed gaps. Inert until
/// [`Candidate::apply`]d to a grammar description and accepted by the
/// validation gate after `Grammar::compile`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The new pattern nonterminal's name (`Ind…`).
    pub name: String,
    /// The cluster signature the candidate was synthesized from.
    pub signature: String,
    /// Distinct supporting pages.
    pub support: usize,
    /// The shape's `.2pg` rules, gaps not yet filled in.
    rules: &'static str,
    /// Per-adjacency generalized `LeftWithin` bounds.
    gaps: Vec<i32>,
}

/// Generalizes an observed maximal gap into a `LeftWithin` bound:
/// slack for unseen spacing, floored so near-touching observations
/// still admit normal rendering jitter.
fn generalize_gap(observed: i32) -> i32 {
    (observed + 12).max(16)
}

/// Synthesizes a candidate from a recurring cluster (the **Infer**
/// step). Returns `None` for clusters below `min_support` or whose
/// signature matches no known shape — unmatched noise windows are
/// dropped here, not turned into speculative productions.
pub fn synthesize(signature: &str, cluster: &Cluster, min_support: usize) -> Option<Candidate> {
    if cluster.pages.len() < min_support {
        return None;
    }
    let &(_, name, rules) = SHAPES
        .iter()
        .find(|(descriptors, _, _)| cluster.descriptors == *descriptors)?;
    Some(Candidate {
        name: name.to_string(),
        signature: signature.to_string(),
        support: cluster.pages.len(),
        rules,
        gaps: cluster
            .max_gaps
            .iter()
            .map(|&g| generalize_gap(g))
            .collect(),
    })
}

/// Synthesizes every candidate a book supports, in signature order.
pub fn synthesize_all(book: &ArrangementBook, min_support: usize) -> Vec<Candidate> {
    book.clusters()
        .filter_map(|(sig, cluster)| synthesize(sig, cluster, min_support))
        .collect()
}

impl Candidate {
    /// The candidate's `.2pg` rules: the shape's rules with every gap
    /// filled in (the floor where the cluster recorded fewer gaps),
    /// then the `CP` bridge production.
    fn render(&self) -> String {
        let mut rules = self.rules.to_string();
        for i in 0..MAX_WINDOW {
            let gap = self.gaps.get(i).copied().unwrap_or(generalize_gap(0));
            rules = rules.replace(&format!("{{g{i}}}"), &gap.to_string());
        }
        let n = &self.name;
        rules + &format!("\nCP<-{n}: CP <- {n} : true => inherit(0)\n")
    }

    /// Applies the candidate to a grammar *description*: appends the
    /// new pattern production, its `CP` bridge, and its preferences,
    /// by parsing the base's `.2pg` text with the candidate's rules
    /// after it. Infallible and non-destructive — the result is only a
    /// proposal until [`Grammar::compile`] validates it, and the caller
    /// keeps the base grammar for rollback. When the base lacks a
    /// symbol a production needs (or already has this candidate's
    /// nonterminal), the description is returned unchanged; a
    /// preference whose rival the base lacks is left out.
    pub fn apply(&self, base: &Grammar) -> Grammar {
        if base.symbols.lookup(&self.name).is_some() {
            return base.clone();
        }
        let known = |s: &str| s == self.name || base.symbols.lookup(s).is_some();
        let mut text = to_dsl(base);
        for rule in self.render().lines() {
            // `NAME: HEAD <- COMPONENTS : …` or `NAME: WINNER > LOSER : …`.
            let symbols = rule.split(" : ").next().and_then(|s| s.split_once(": "));
            let symbols = symbols.map_or("", |(_, s)| s).split_whitespace();
            if symbols.filter(|s| !matches!(*s, "<-" | ">")).all(known) {
                text = text + rule + "\n";
            } else if rule.contains(" <- ") {
                return base.clone();
            }
        }
        let Ok(mut g) = from_dsl(&text) else {
            return base.clone();
        };
        // The `.2pg` text does not carry the adjacency thresholds.
        g.proximity = base.proximity;
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::global_grammar;
    use metaform_core::BBox;

    fn text(id: u32, s: &str, left: i32, top: i32) -> Token {
        let w = 8 * s.len() as i32;
        Token::text(id, s, BBox::new(left, top, left + w, top + 16))
    }

    fn widget(id: u32, kind: TokenKind, name: &str, left: i32, top: i32) -> Token {
        Token::widget(id, kind, name, BBox::new(left, top, left + 80, top + 16))
    }

    #[test]
    fn descriptors_classify_text_roles() {
        assert_eq!(descriptor(&text(0, "Departure City", 0, 0)), "attr");
        assert_eq!(descriptor(&text(0, "/", 0, 0)), "sep");
        assert_eq!(descriptor(&text(0, "to", 0, 0)), "conn");
        assert_eq!(descriptor(&text(0, "miles", 0, 0)), "low");
        assert_eq!(descriptor(&widget(0, TokenKind::Textbox, "q", 0, 0)), "tb");
        assert_eq!(
            descriptor(&widget(0, TokenKind::SubmitButton, "go", 0, 0)),
            "btn"
        );
    }

    #[test]
    fn mines_trailing_label_arrangement() {
        // RightLabel residue: a textbox claimed only by KwVal, its
        // trailing label stranded with TextValB.
        let tokens = vec![
            widget(0, TokenKind::Textbox, "f1", 0, 0),
            text(1, "Keywords", 90, 0),
        ];
        let spans = vec![
            PatternSpan {
                symbol: "KwVal".into(),
                tokens: vec![TokenId(0)],
            },
            PatternSpan {
                symbol: "TextValB".into(),
                tokens: vec![TokenId(0), TokenId(1)],
            },
        ];
        let arrs = mine_page(&tokens, &[], &spans, &Proximity::default());
        assert_eq!(arrs.len(), 1);
        assert_eq!(arrs[0].signature, "tb attr");
        assert_eq!(arrs[0].gaps, vec![10]);
    }

    #[test]
    fn trusted_claims_suppress_mining() {
        // The same window, but claimed by a real pattern: no residue.
        let tokens = vec![
            text(0, "Author", 0, 0),
            widget(1, TokenKind::Textbox, "a", 60, 0),
        ];
        let spans = vec![PatternSpan {
            symbol: "TextVal".into(),
            tokens: vec![TokenId(0), TokenId(1)],
        }];
        assert!(mine_page(&tokens, &[], &spans, &Proximity::default()).is_empty());
    }

    #[test]
    fn mines_punctuated_date_boxes_with_label_reclaim() {
        // TwoBoxDate residue: TextVal (trusted) grabbed label+first
        // box, KwVal the others, the separators went missing. The
        // label-reclaim rule pulls the label back into the window.
        let tokens = vec![
            text(0, "Departing", 0, 0),
            widget(1, TokenKind::Textbox, "d_m", 80, 0),
            text(2, "/", 170, 0),
            widget(3, TokenKind::Textbox, "d_d", 185, 0),
            text(4, "/", 275, 0),
            widget(5, TokenKind::Textbox, "d_y", 290, 0),
        ];
        let spans = vec![
            PatternSpan {
                symbol: "TextVal".into(),
                tokens: vec![TokenId(0), TokenId(1)],
            },
            PatternSpan {
                symbol: "KwVal".into(),
                tokens: vec![TokenId(3)],
            },
            PatternSpan {
                symbol: "KwVal".into(),
                tokens: vec![TokenId(5)],
            },
        ];
        let arrs = mine_page(
            &tokens,
            &[TokenId(2), TokenId(4)],
            &spans,
            &Proximity::default(),
        );
        assert_eq!(arrs.len(), 1);
        assert_eq!(arrs[0].signature, "attr tb sep tb sep tb");
    }

    #[test]
    fn book_clusters_by_signature_with_page_support() {
        let mut book = ArrangementBook::new();
        let arr = Arrangement {
            signature: "tb attr".into(),
            descriptors: vec!["tb".into(), "attr".into()],
            gaps: vec![10],
        };
        book.absorb("p1", &arr);
        book.absorb("p1", &arr);
        let wider = Arrangement {
            gaps: vec![22],
            ..arr.clone()
        };
        book.absorb("p2", &wider);
        assert_eq!(book.len(), 1);
        let (_, cluster) = book.clusters().next().unwrap();
        assert_eq!(cluster.pages.len(), 2);
        assert_eq!(cluster.occurrences, 3);
        assert_eq!(cluster.max_gaps, vec![22]);
        assert!(synthesize("tb attr", cluster, 3).is_none(), "support gate");
        let cand = synthesize("tb attr", cluster, 2).expect("supported shape");
        assert_eq!(cand.name, "IndTbAttr");
        assert_eq!(cand.support, 2);
    }

    #[test]
    fn unmatched_signatures_synthesize_nothing() {
        let cluster = Cluster {
            descriptors: vec!["txt".into()],
            pages: ["a", "b", "c"].iter().map(|s| s.to_string()).collect(),
            occurrences: 3,
            max_gaps: vec![],
        };
        assert!(synthesize("txt", &cluster, 2).is_none());
    }

    #[test]
    fn applied_candidates_compile_through_the_single_gate() {
        let base = global_grammar();
        let baseline_prods = base.productions.len();
        for (descriptors, nt) in [
            (vec!["tb", "attr"], "IndTbAttr"),
            (vec!["sel", "attr"], "IndSelAttr"),
            (vec!["attr", "tb", "sep", "tb", "sep", "tb"], "IndDateBoxes"),
            (vec!["attr", "conn", "tb", "conn", "tb"], "IndRangeBoxes"),
        ] {
            let gaps = vec![30; descriptors.len() - 1];
            let cluster = Cluster {
                descriptors: descriptors.iter().map(|s| s.to_string()).collect(),
                pages: ["a", "b"].iter().map(|s| s.to_string()).collect(),
                occurrences: 2,
                max_gaps: gaps,
            };
            let cand = synthesize(&descriptors.join(" "), &cluster, 2).expect("known shape");
            assert_eq!(cand.name, nt);
            let extended = cand.apply(&base);
            assert!(extended.productions.len() > baseline_prods, "{nt} applied");
            assert!(extended.symbols.lookup(nt).is_some());
            let compiled = extended.compile().expect("candidate schedules");
            assert!(compiled.grammar().symbols.lookup(nt).is_some());
            // Idempotent: re-applying is a no-op.
            let again = cand.apply(compiled.grammar());
            assert_eq!(
                again.productions.len(),
                compiled.grammar().productions.len()
            );
        }
    }

    /// The `.2pg` lines `apply` adds to the global grammar for a
    /// cluster of `descriptors` with observed gaps `gaps`.
    fn added_lines(descriptors: &[&str], gaps: Vec<i32>) -> Vec<String> {
        let base = global_grammar();
        let cluster = Cluster {
            descriptors: descriptors.iter().map(|s| s.to_string()).collect(),
            pages: ["a", "b"].iter().map(|s| s.to_string()).collect(),
            occurrences: 2,
            max_gaps: gaps,
        };
        let cand = synthesize(&descriptors.join(" "), &cluster, 2).expect("known shape");
        let applied = cand.apply(&base);
        // Every base symbol keeps its id; the new nonterminal comes last.
        let names = |g: &Grammar| -> Vec<String> {
            g.symbols
                .ids()
                .map(|id| g.symbols.name(id).to_string())
                .collect()
        };
        let mut want = names(&base);
        want.push(cand.name.clone());
        assert_eq!(names(&applied), want);
        // `to_dsl` writes header, productions and preferences as three
        // blank-line separated blocks; the base's rules open the last
        // two, unchanged and in order.
        let (before, after) = (to_dsl(&base), to_dsl(&applied));
        let mut added = Vec::new();
        for (b, a) in before.split("\n\n").zip(after.split("\n\n")).skip(1) {
            let rest = a.strip_prefix(b).expect("base rules come first");
            added.extend(rest.lines().filter(|l| !l.is_empty()).map(str::to_string));
        }
        added
    }

    #[test]
    fn each_shape_adds_its_rules_to_the_global_grammar() {
        assert_eq!(
            added_lines(&["tb", "attr"], vec![30]),
            [
                "IndTbAttr: IndTbAttr <- Val Attr : leftwithin(0,1,42) & !lowercase(1) => cond(attr=1,val=0)",
                "CP<-IndTbAttr: CP <- IndTbAttr : true => inherit(0)",
                "IndR:IndTbAttr>TextVal: IndTbAttr > TextVal : overlap tighter",
                "IndR:TextVal>IndTbAttr: TextVal > IndTbAttr : overlap tighter",
                "IndR:IndTbAttr>TextValB: IndTbAttr > TextValB : overlap always",
                "IndR:IndTbAttr>KwVal: IndTbAttr > KwVal : overlap always",
                "IndR:UnitTB>IndTbAttr: UnitTB > IndTbAttr : overlap larger",
            ]
        );
        assert_eq!(
            added_lines(&["sel", "attr"], vec![30]),
            [
                "IndSelAttr: IndSelAttr <- selection_list Attr : leftwithin(0,1,42) & !lowercase(1) & !optionsops(0) => cond(attr=1,val=0)",
                "CP<-IndSelAttr: CP <- IndSelAttr : true => inherit(0)",
                "IndR:IndSelAttr>SelVal: IndSelAttr > SelVal : overlap tighter",
                "IndR:SelVal>IndSelAttr: SelVal > IndSelAttr : overlap tighter",
                "IndR:IndSelAttr>SelfSel: IndSelAttr > SelfSel : overlap always",
                "IndR:IndSelAttr>TextValB: IndSelAttr > TextValB : overlap always",
            ]
        );
        assert_eq!(
            added_lines(
                &["attr", "tb", "sep", "tb", "sep", "tb"],
                vec![30, 31, 32, 33, 34]
            ),
            [
                "IndDateBoxes: IndDateBoxes <- Attr Val text Val text Val : leftwithin(0,1,42) & leftwithin(1,2,43) & leftwithin(2,3,44) & leftwithin(3,4,45) & leftwithin(4,5,46) & maxwords(2,1) & !attrlike(2) & maxwords(4,1) & !attrlike(4) => date(0)",
                "CP<-IndDateBoxes: CP <- IndDateBoxes : true => inherit(0)",
                "IndR:IndDateBoxes>TextVal: IndDateBoxes > TextVal : overlap larger",
                "IndR:IndDateBoxes>KwVal: IndDateBoxes > KwVal : overlap always",
                "IndR:IndDateBoxes>TextValB: IndDateBoxes > TextValB : overlap always",
                "IndR:IndDateBoxes>RangeTB: IndDateBoxes > RangeTB : overlap larger",
            ]
        );
        // Fewer observed gaps than adjacencies: the rest take the floor.
        assert_eq!(
            added_lines(&["attr", "conn", "tb", "conn", "tb"], vec![5]),
            [
                "IndRangeBoxes: IndRangeBoxes <- Attr Connector Val Connector Val : leftwithin(0,1,17) & leftwithin(1,2,16) & leftwithin(2,3,16) & leftwithin(3,4,16) => range(0,2,4)",
                "CP<-IndRangeBoxes: CP <- IndRangeBoxes : true => inherit(0)",
                "IndR:IndRangeBoxes>RangeTB: IndRangeBoxes > RangeTB : overlap larger",
                "IndR:IndRangeBoxes>KwVal: IndRangeBoxes > KwVal : overlap always",
                "IndR:IndRangeBoxes>TextValB: IndRangeBoxes > TextValB : overlap always",
            ]
        );
    }

    fn tb_attr() -> Candidate {
        let cluster = Cluster {
            descriptors: vec!["tb".into(), "attr".into()],
            pages: ["a", "b"].iter().map(|s| s.to_string()).collect(),
            occurrences: 2,
            max_gaps: vec![10],
        };
        synthesize("tb attr", &cluster, 2).expect("known shape")
    }

    #[test]
    fn apply_keeps_the_base_proximity() {
        let mut base = global_grammar();
        base.proximity.max_h_gap += 7;
        assert_ne!(base.proximity, Proximity::default());
        assert_eq!(tb_attr().apply(&base).proximity, base.proximity);
    }

    #[test]
    fn apply_drops_only_preferences_whose_rival_is_missing() {
        // TextVal, TextValB and KwVal are here; UnitTB is not.
        let base = crate::dsl::from_dsl(
            "\
grammar QI
Attr: Attr <- text : attrlike(0) => attr(0)
Val: Val <- textbox : true => inherit(0)
TextVal: TextVal <- Attr Val : left(0,1) => cond(attr=0,val=1)
TextValB: TextValB <- Val : true => unlabeled(0)
KwVal: KwVal <- Val : true => unlabeled(0)
CP<-TextVal: CP <- TextVal : true => inherit(0)
CP<-TextValB: CP <- TextValB : true => inherit(0)
CP<-KwVal: CP <- KwVal : true => inherit(0)
QI: QI <- CP : true => collect
",
        )
        .expect("parses");
        let applied = tb_attr().apply(&base);
        assert_eq!(applied.productions.len(), base.productions.len() + 2);
        let names: Vec<&str> = applied
            .preferences
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "IndR:IndTbAttr>TextVal",
                "IndR:TextVal>IndTbAttr",
                "IndR:IndTbAttr>TextValB",
                "IndR:IndTbAttr>KwVal",
            ]
        );
        // A production's missing symbol leaves the base unchanged:
        // this grammar has no `Connector` for a worded range.
        let cluster = Cluster {
            descriptors: ["attr", "conn", "tb", "conn", "tb"]
                .map(String::from)
                .to_vec(),
            pages: ["a", "b"].iter().map(|s| s.to_string()).collect(),
            occurrences: 2,
            max_gaps: vec![10; 4],
        };
        let range = synthesize("attr conn tb conn tb", &cluster, 2).expect("known shape");
        assert_eq!(to_dsl(&range.apply(&base)), to_dsl(&base));
    }

    #[test]
    fn a_base_whose_text_does_not_parse_back_is_returned_unchanged() {
        // `#` opens a `.2pg` comment, so this rule name cannot be read.
        let mut base = global_grammar();
        base.productions[0].name = "QI#1".into();
        let applied = tb_attr().apply(&base);
        assert_eq!(applied.productions.len(), base.productions.len());
        assert!(applied.symbols.lookup("IndTbAttr").is_none());
    }
}
