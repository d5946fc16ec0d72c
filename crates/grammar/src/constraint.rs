//! Declarative spatial and lexical constraints for productions.
//!
//! "In two dimensional grammars, productions need to capture spatial
//! relations, which essentially are constraints to be verified on the
//! constructs" (paper §4.1). Constraints are plain data — an expression
//! tree over component indexes — so the grammar stays declarative and
//! the parser generic.

use crate::payload::{Payload, PayloadTable};
use metaform_core::{relations, trim_label, BBox, Proximity, Text, Token};

/// A read-only view of a candidate component instance during constraint
/// evaluation and construction.
#[derive(Clone, Copy, Debug)]
pub struct View<'a> {
    /// The instance's bounding box.
    pub bbox: BBox,
    /// The instance's semantic payload.
    pub payload: &'a Payload,
    /// The underlying token for terminal instances.
    pub token: Option<&'a Token>,
    /// The instance's id in its chart: an `inherit` of a collected
    /// list refers to the list by it.
    pub inst: u32,
    /// The payload table the payload indexes.
    pub table: &'a PayloadTable,
}

impl<'a> View<'a> {
    /// The captions of an `Ops` payload.
    pub fn ops(&self) -> Option<&'a [Text]> {
        match self.payload {
            Payload::Ops(list) => Some(self.table.texts(list)),
            _ => None,
        }
    }
}

/// Lexical predicates on a single component.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pred {
    /// Text plausibly naming an attribute: short, wordy, not a pure
    /// connector, contains letters.
    AttrLike,
    /// Caption list (options) reading like operators ("exact match",
    /// "starts with", …) — used to spot operator selection lists.
    OpsLike,
    /// Text is a range connector ("to", "-", "and", "through", "between").
    RangeConnector,
    /// Text has at most this many words.
    MaxWords(u8),
    /// Select options look like operator captions.
    OptionsOpsLike,
    /// Text is written entirely in lowercase — the convention for
    /// inline unit/connector words ("miles", "of"), as opposed to
    /// capitalized field labels ("To", "City").
    LowercaseText,
    /// The component's caption list has at least this many entries —
    /// a *group* of radio buttons/checkboxes, as opposed to a lone
    /// boolean checkbox.
    MinOps(u8),
}

/// Spatial/lexical constraint tree over production components
/// (indexes refer to positions in the production's component list).
#[derive(Clone, Debug)]
pub enum Constraint {
    /// Always satisfied.
    True,
    /// `i` left-adjacent to `j` (paper's `Left`, adjacency implied).
    Left(usize, usize),
    /// `i` above-adjacent to `j`.
    Above(usize, usize),
    /// `i` below-adjacent to `j` (sugar for `Above(j, i)`).
    Below(usize, usize),
    /// `i` before `j` on a shared row, any gap up to the given pixels.
    LeftWithin(usize, usize, i32),
    /// `i` above `j`, any vertical gap up to the given pixels, with
    /// horizontally overlapping extents.
    AboveWithin(usize, usize, i32),
    /// Boxes share a row band.
    SameRow(usize, usize),
    /// Boxes share a column band.
    SameCol(usize, usize),
    /// Bottom edges aligned.
    AlignBottom(usize, usize),
    /// Top edges aligned.
    AlignTop(usize, usize),
    /// Left edges aligned.
    AlignLeft(usize, usize),
    /// Closest-edge Manhattan distance at most the given pixels.
    MaxDist(usize, usize, i32),
    /// Lexical predicate on one component.
    Is(usize, Pred),
    /// All of.
    And(Vec<Constraint>),
    /// Any of.
    Or(Vec<Constraint>),
    /// Negation.
    Not(Box<Constraint>),
}

/// Result of [`Constraint::hoist`]: the compiled enumeration-time
/// form of a production's constraint.
#[derive(Clone, Debug, Default)]
pub struct Hoisted {
    /// Per-slot unary predicates, checked once per candidate when the
    /// slot's candidate list is built.
    pub slot_preds: Vec<Vec<Pred>>,
    /// Residual conjunction terms grouped by the deepest slot index
    /// they mention: `by_depth[d]` is decidable as soon as slots
    /// `0..=d` are chosen.
    pub by_depth: Vec<DepthTerms>,
}

/// Residual terms decidable at one enumeration depth, split by what
/// they read. Geometry-only terms run against a plain bounding-box
/// stack ([`Constraint::eval_boxes`]); only terms that reach into a
/// payload (an `Is` under `Or`/`Not`) force component views to be
/// materialized for a candidate that hasn't passed the geometry yet.
#[derive(Clone, Debug, Default)]
pub struct DepthTerms {
    /// Terms reading only component bounding boxes.
    pub boxes_only: Vec<Constraint>,
    /// Terms that also read payloads, evaluated on full views.
    pub with_payload: Vec<Constraint>,
}

impl Constraint {
    /// Conjunction helper.
    pub fn all(cs: impl IntoIterator<Item = Constraint>) -> Constraint {
        Constraint::And(cs.into_iter().collect())
    }

    /// Splits this constraint into per-slot unary predicates and
    /// residual combination terms grouped by evaluation depth, such
    /// that `self.eval(views)` equals "every hoisted predicate holds
    /// on its slot's view" AND "every residual term holds on the
    /// combination".
    ///
    /// The hoisted predicates are the `Is` terms of the top-level
    /// conjunction: they depend on a single component, so an
    /// enumeration pass can check them once per *candidate* and filter
    /// the candidate lists, instead of re-evaluating them inside every
    /// cell of the cartesian product. `Is` terms under `Or`/`Not` are
    /// not hoistable (their verdict alone doesn't veto a candidate)
    /// and stay residual.
    ///
    /// Each remaining top-level conjunct lands in
    /// [`Hoisted::by_depth`] at the deepest component index it
    /// mentions — the earliest point in a left-to-right enumeration
    /// where its verdict is decidable. Checking it there prunes the
    /// whole subtree of deeper slots: for a ternary production whose
    /// first two slots must share a row, the third slot's candidate
    /// list is never even scanned for off-row pairs.
    pub fn hoist(&self, arity: usize) -> Hoisted {
        fn walk(c: &Constraint, per_slot: &mut [Vec<Pred>], residual: &mut Vec<Constraint>) {
            match c {
                Constraint::True => {}
                Constraint::Is(i, p) if *i < per_slot.len() => per_slot[*i].push(*p),
                Constraint::And(cs) => {
                    for c in cs {
                        walk(c, per_slot, residual);
                    }
                }
                other => residual.push(other.clone()),
            }
        }
        let mut slot_preds = vec![Vec::new(); arity];
        let mut residual = Vec::new();
        walk(self, &mut slot_preds, &mut residual);
        let mut by_depth = vec![DepthTerms::default(); arity];
        for term in residual {
            let d = term.max_slot().min(arity.saturating_sub(1));
            if term.uses_payload() {
                by_depth[d].with_payload.push(term);
            } else {
                by_depth[d].boxes_only.push(term);
            }
        }
        Hoisted {
            slot_preds,
            by_depth,
        }
    }

    /// Whether evaluating this constraint reads a component payload —
    /// i.e. an `Is` appears anywhere in the tree. Everything else is
    /// pure bounding-box geometry.
    fn uses_payload(&self) -> bool {
        match self {
            Constraint::Is(..) => true,
            Constraint::And(cs) | Constraint::Or(cs) => cs.iter().any(Constraint::uses_payload),
            Constraint::Not(c) => c.uses_payload(),
            _ => false,
        }
    }

    /// [`Constraint::eval`] over bare bounding boxes, for terms with
    /// no payload reads ([`DepthTerms::boxes_only`]). Panics on `Is`:
    /// the hoist routes payload-reading terms to the view-based
    /// evaluator.
    pub fn eval_boxes(&self, boxes: &[BBox], prox: &Proximity) -> bool {
        match self {
            Constraint::True => true,
            Constraint::Left(i, j) => relations::left(&boxes[*i], &boxes[*j], prox),
            Constraint::Above(i, j) => relations::above(&boxes[*i], &boxes[*j], prox),
            Constraint::Below(i, j) => relations::above(&boxes[*j], &boxes[*i], prox),
            Constraint::LeftWithin(i, j, max) => {
                let (a, b) = (&boxes[*i], &boxes[*j]);
                let gap = a.h_gap_to(b);
                (-prox.align_tol..=*max).contains(&gap) && relations::same_row(a, b, prox)
            }
            Constraint::AboveWithin(i, j, max) => {
                let (a, b) = (&boxes[*i], &boxes[*j]);
                let gap = a.v_gap_to(b);
                (-prox.align_tol..=*max).contains(&gap) && a.h_overlap(b) > 0
            }
            Constraint::SameRow(i, j) => relations::same_row(&boxes[*i], &boxes[*j], prox),
            Constraint::SameCol(i, j) => relations::same_col(&boxes[*i], &boxes[*j], prox),
            Constraint::AlignBottom(i, j) => relations::align_bottom(&boxes[*i], &boxes[*j], prox),
            Constraint::AlignTop(i, j) => relations::align_top(&boxes[*i], &boxes[*j], prox),
            Constraint::AlignLeft(i, j) => relations::align_left(&boxes[*i], &boxes[*j], prox),
            Constraint::MaxDist(i, j, max) => boxes[*i].distance(&boxes[*j]) <= *max,
            Constraint::Is(..) => unreachable!("payload term routed to the box evaluator"),
            Constraint::And(cs) => cs.iter().all(|c| c.eval_boxes(boxes, prox)),
            Constraint::Or(cs) => cs.iter().any(|c| c.eval_boxes(boxes, prox)),
            Constraint::Not(c) => !c.eval_boxes(boxes, prox),
        }
    }

    /// The deepest component index this constraint mentions — the
    /// slot at which its verdict becomes decidable during a
    /// left-to-right enumeration. `True` mentions nothing and reports
    /// slot 0 (decidable immediately).
    pub(crate) fn max_slot(&self) -> usize {
        match self {
            Constraint::True => 0,
            Constraint::Left(i, j)
            | Constraint::Above(i, j)
            | Constraint::Below(i, j)
            | Constraint::LeftWithin(i, j, _)
            | Constraint::AboveWithin(i, j, _)
            | Constraint::SameRow(i, j)
            | Constraint::SameCol(i, j)
            | Constraint::AlignBottom(i, j)
            | Constraint::AlignTop(i, j)
            | Constraint::AlignLeft(i, j)
            | Constraint::MaxDist(i, j, _) => (*i).max(*j),
            Constraint::Is(i, _) => *i,
            Constraint::And(cs) | Constraint::Or(cs) => {
                cs.iter().map(Constraint::max_slot).max().unwrap_or(0)
            }
            Constraint::Not(c) => c.max_slot(),
        }
    }

    /// Evaluates against candidate component views.
    pub fn eval(&self, views: &[View<'_>], prox: &Proximity) -> bool {
        match self {
            Constraint::True => true,
            Constraint::Left(i, j) => relations::left(&views[*i].bbox, &views[*j].bbox, prox),
            Constraint::Above(i, j) => relations::above(&views[*i].bbox, &views[*j].bbox, prox),
            Constraint::Below(i, j) => relations::above(&views[*j].bbox, &views[*i].bbox, prox),
            Constraint::LeftWithin(i, j, max) => {
                let (a, b) = (&views[*i].bbox, &views[*j].bbox);
                let gap = a.h_gap_to(b);
                (-prox.align_tol..=*max).contains(&gap) && relations::same_row(a, b, prox)
            }
            Constraint::AboveWithin(i, j, max) => {
                let (a, b) = (&views[*i].bbox, &views[*j].bbox);
                let gap = a.v_gap_to(b);
                (-prox.align_tol..=*max).contains(&gap) && a.h_overlap(b) > 0
            }
            Constraint::SameRow(i, j) => {
                relations::same_row(&views[*i].bbox, &views[*j].bbox, prox)
            }
            Constraint::SameCol(i, j) => {
                relations::same_col(&views[*i].bbox, &views[*j].bbox, prox)
            }
            Constraint::AlignBottom(i, j) => {
                relations::align_bottom(&views[*i].bbox, &views[*j].bbox, prox)
            }
            Constraint::AlignTop(i, j) => {
                relations::align_top(&views[*i].bbox, &views[*j].bbox, prox)
            }
            Constraint::AlignLeft(i, j) => {
                relations::align_left(&views[*i].bbox, &views[*j].bbox, prox)
            }
            Constraint::MaxDist(i, j, max) => views[*i].bbox.distance(&views[*j].bbox) <= *max,
            Constraint::Is(i, pred) => eval_pred(*pred, &views[*i]),
            Constraint::And(cs) => cs.iter().all(|c| c.eval(views, prox)),
            Constraint::Or(cs) => cs.iter().any(|c| c.eval(views, prox)),
            Constraint::Not(c) => !c.eval(views, prox),
        }
    }
}

/// Operator-caption keywords seen across sources.
const OP_WORDS: &[&str] = &[
    "exact",
    "start",
    "starts",
    "begin",
    "begins",
    "contain",
    "contains",
    "keyword",
    "keywords",
    "phrase",
    "match",
    "matches",
    "at least",
    "at most",
    "less than",
    "greater than",
    "is exactly",
    "all of",
    "any of",
    "whole word",
    "first name",
    "last name",
    "initials",
];

/// Case-insensitive ASCII substring search — the op vocabulary is all
/// ASCII, so this matches `s.to_lowercase().contains(w)` without the
/// allocation (predicates run per candidate in the refresh hot path).
fn contains_ignore_ascii_case(hay: &str, needle: &str) -> bool {
    let (h, n) = (hay.as_bytes(), needle.as_bytes());
    h.len() >= n.len() && h.windows(n.len()).any(|w| w.eq_ignore_ascii_case(n))
}

fn looks_op_like(s: &str) -> bool {
    OP_WORDS.iter().any(|w| contains_ignore_ascii_case(s, w))
}

pub(crate) fn is_connector(s: &str) -> bool {
    let t = s.trim().trim_end_matches(':');
    // Case matters: an inline range connector is written lowercase
    // ("$[ ] to $[ ]"), whereas "To" / "TO" is a field label (city
    // pairs on airfare forms). Dashes are caseless.
    matches!(t, "-" | "–" | "—")
        || matches!(t, "to" | "and" | "through" | "thru" | "between" | "up to")
}

impl Pred {
    /// Evaluates the predicate against one component view — the
    /// hoisted per-candidate form of `Constraint::Is`.
    pub fn eval(self, view: &View<'_>) -> bool {
        eval_pred(self, view)
    }
}

fn eval_pred(pred: Pred, view: &View<'_>) -> bool {
    match pred {
        Pred::AttrLike => {
            let Some(text) = view.payload.text() else {
                return false;
            };
            // Allocation-free equivalent of checking `normalize_label(text)`:
            // lowercasing never changes emptiness, word boundaries, or
            // alphabetic-ness, so those run on the trimmed slice; the
            // length bound counts the lowercased byte length incrementally
            // (lowercase can expand some characters) and bails early.
            let t = trim_label(text);
            if t.is_empty() {
                return false;
            }
            if t.is_ascii() {
                // ASCII lowercases byte for byte.
                if t.len() > 48 {
                    return false;
                }
            } else {
                let mut lower_len = 0usize;
                for c in t.chars() {
                    lower_len += c.to_lowercase().map(char::len_utf8).sum::<usize>();
                    if lower_len > 48 {
                        return false;
                    }
                }
            }
            t.split_whitespace().count() <= 6
                && t.chars().any(|c| c.is_alphabetic())
                && !is_connector(text)
        }
        Pred::OpsLike => view
            .ops()
            .is_some_and(|ops| !ops.is_empty() && ops.iter().all(|o| looks_op_like(o))),
        Pred::RangeConnector => view.payload.text().is_some_and(is_connector),
        Pred::MaxWords(n) => view
            .payload
            .text()
            .is_some_and(|t| t.split_whitespace().count() <= n as usize),
        Pred::OptionsOpsLike => view
            .token
            .is_some_and(|t| !t.options.is_empty() && t.options.iter().all(|o| looks_op_like(o))),
        Pred::LowercaseText => view
            .payload
            .text()
            .is_some_and(|t| !t.is_empty() && !t.chars().any(|c| c.is_uppercase())),
        Pred::MinOps(n) => view.ops().is_some_and(|ops| ops.len() >= n as usize),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::{Domain, Texts};
    use metaform_core::TextList;

    fn view_at<'a>(payloads: &'a [Payload], boxes: &[BBox]) -> Vec<View<'a>> {
        payloads
            .iter()
            .zip(boxes)
            .map(|(p, b)| View {
                bbox: *b,
                payload: p,
                token: None,
                inst: 0,
                table: PayloadTable::empty(),
            })
            .collect()
    }

    #[test]
    fn spatial_constraints_delegate_to_relations() {
        let payloads = vec![Payload::None, Payload::None];
        let boxes = vec![BBox::new(0, 0, 40, 16), BBox::new(48, 0, 120, 16)];
        let views = view_at(&payloads, &boxes);
        let p = Proximity::default();
        assert!(Constraint::Left(0, 1).eval(&views, &p));
        assert!(!Constraint::Left(1, 0).eval(&views, &p));
        assert!(Constraint::SameRow(0, 1).eval(&views, &p));
        assert!(Constraint::AlignTop(0, 1).eval(&views, &p));
        assert!(Constraint::AlignBottom(0, 1).eval(&views, &p));
        assert!(Constraint::MaxDist(0, 1, 10).eval(&views, &p));
        assert!(!Constraint::MaxDist(0, 1, 5).eval(&views, &p));
    }

    #[test]
    fn loose_variants_allow_wider_gaps() {
        let payloads = vec![Payload::None, Payload::None];
        let boxes = vec![BBox::new(0, 0, 40, 16), BBox::new(240, 0, 300, 16)];
        let views = view_at(&payloads, &boxes);
        let p = Proximity::default();
        assert!(
            !Constraint::Left(0, 1).eval(&views, &p),
            "200px gap too far"
        );
        assert!(Constraint::LeftWithin(0, 1, 300).eval(&views, &p));
        assert!(
            !Constraint::LeftWithin(1, 0, 300).eval(&views, &p),
            "ordered"
        );

        let below = vec![BBox::new(0, 0, 40, 16), BBox::new(0, 80, 40, 96)];
        let views = view_at(&payloads, &below);
        assert!(!Constraint::Above(0, 1).eval(&views, &p));
        assert!(Constraint::AboveWithin(0, 1, 100).eval(&views, &p));
    }

    #[test]
    fn boolean_combinators() {
        let payloads = vec![Payload::None];
        let boxes = vec![BBox::ZERO];
        let views = view_at(&payloads, &boxes);
        let p = Proximity::default();
        assert!(Constraint::True.eval(&views, &p));
        assert!(!Constraint::Not(Box::new(Constraint::True)).eval(&views, &p));
        assert!(Constraint::all([Constraint::True, Constraint::True]).eval(&views, &p));
        assert!(Constraint::Or(vec![
            Constraint::Not(Box::new(Constraint::True)),
            Constraint::True
        ])
        .eval(&views, &p));
    }

    #[test]
    fn attr_like_predicate() {
        let p = Proximity::default();
        let good = [Payload::Text("Author:".into())];
        let views = view_at(&good, &[BBox::ZERO]);
        assert!(Constraint::Is(0, Pred::AttrLike).eval(&views, &p));

        for bad in [
            Payload::Text("".into()),
            Payload::Text("to".into()),
            Payload::Text("-".into()),
            Payload::Text("1234".into()),
            Payload::Text(
                "a very long explanatory sentence that cannot possibly be a label".into(),
            ),
            Payload::None,
        ] {
            let arr = [bad];
            let views = view_at(&arr, &[BBox::ZERO]);
            assert!(
                !Constraint::Is(0, Pred::AttrLike).eval(&views, &p),
                "{:?}",
                arr[0]
            );
        }

        // The length bound is on the lowercased label: 48 bytes. `İ`
        // is two bytes but lowercases to three.
        let attr_like = |text: String| {
            let arr = [Payload::Text(text.into())];
            Constraint::Is(0, Pred::AttrLike).eval(&view_at(&arr, &[BBox::ZERO]), &p)
        };
        assert!(attr_like("Ab".repeat(24)));
        assert!(!attr_like("Ab".repeat(24) + "c"));
        assert!(attr_like("İ".repeat(16)));
        assert!(!attr_like("İ".repeat(17)));
    }

    #[test]
    fn ops_like_predicate() {
        let p = Proximity::default();
        let ops = [Payload::Ops(Texts::Shared(TextList::from([
            "exact name".into(),
            "start of last name".into(),
        ])))];
        let views = view_at(&ops, &[BBox::ZERO]);
        assert!(Constraint::Is(0, Pred::OpsLike).eval(&views, &p));

        let not_ops = [Payload::Ops(Texts::Shared(TextList::from([
            "Round trip".into(),
            "One way".into(),
        ])))];
        let views = view_at(&not_ops, &[BBox::ZERO]);
        assert!(!Constraint::Is(0, Pred::OpsLike).eval(&views, &p));
    }

    #[test]
    fn connector_predicate() {
        let p = Proximity::default();
        for (text, expect) in [
            ("to", true),
            ("-", true),
            ("and", true),
            ("miles", false),
            ("To", false), // capitalized: a label, not a connector
            ("to:", true),
        ] {
            let arr = [Payload::Text(text.into())];
            let views = view_at(&arr, &[BBox::ZERO]);
            assert_eq!(
                Constraint::Is(0, Pred::RangeConnector).eval(&views, &p),
                expect,
                "{text}"
            );
        }
    }

    #[test]
    fn options_ops_like_reads_token() {
        let p = Proximity::default();
        let tok = Token::widget(0, metaform_core::TokenKind::SelectionList, "op", BBox::ZERO)
            .with_options(vec!["contains".into(), "exact phrase".into()]);
        let payload = Payload::Val(Domain::of(metaform_core::DomainKind::Text));
        let views = [View {
            bbox: BBox::ZERO,
            payload: &payload,
            token: Some(&tok),
            inst: 0,
            table: PayloadTable::empty(),
        }];
        assert!(Constraint::Is(0, Pred::OptionsOpsLike).eval(&views, &p));
        assert!(
            !Constraint::Is(0, Pred::OpsLike).eval(&views, &p),
            "payload has no ops"
        );
    }

    #[test]
    fn max_words() {
        let p = Proximity::default();
        let arr = [Payload::Text("within miles of".into())];
        let views = view_at(&arr, &[BBox::ZERO]);
        assert!(Constraint::Is(0, Pred::MaxWords(3)).eval(&views, &p));
        assert!(!Constraint::Is(0, Pred::MaxWords(2)).eval(&views, &p));
    }
}
