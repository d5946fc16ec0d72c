//! Topological (spatial) relations between bounding boxes.
//!
//! The 2P grammar expresses condition patterns through topology —
//! adjacency and alignment — rather than raw proximity (paper §4.1:
//! "the topology features such as alignment and adjacency accurately
//! indicate the semantic relationships"). All relations here follow the
//! paper's convention that *adjacency is implied*: `left(a, b)` means
//! "`a` is left-adjacent to `b`", not merely somewhere to the left.
//!
//! Thresholds are bundled in [`Proximity`] so a grammar can tighten or
//! loosen adjacency without touching the predicates.

use crate::geom::BBox;

/// Adjacency and alignment thresholds, in pixels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Proximity {
    /// Maximum horizontal white-space between horizontally adjacent boxes.
    pub max_h_gap: i32,
    /// Maximum vertical white-space between vertically adjacent boxes.
    pub max_v_gap: i32,
    /// Minimum shared projection required for two boxes to count as being
    /// in the same row (for horizontal relations) or column (vertical).
    pub min_overlap: i32,
    /// Tolerance when comparing edges for alignment.
    pub align_tol: i32,
}

impl Default for Proximity {
    fn default() -> Self {
        // Tuned for the layout engine's metrics: 16px line height, 7px
        // character cell, 2px table padding. Horizontally, a label in a
        // table cell can sit a full column-width-minus-label away from
        // its widget (e.g. "Make" in a column sized for
        // "Transmission"), so adjacency tolerates up to ~13 character
        // cells; vertically a little over one line still reads as
        // "right below" — but less than one full line height (16px),
        // so adjacency can never skip over an interposed text line.
        Self {
            max_h_gap: 90,
            max_v_gap: 14,
            min_overlap: 4,
            align_tol: 6,
        }
    }
}

impl Proximity {
    /// A tighter profile used by preferences that compare how strongly
    /// two instances are bound (e.g. radio button ↔ its caption).
    pub fn tight() -> Self {
        Self {
            max_h_gap: 14,
            max_v_gap: 8,
            min_overlap: 4,
            align_tol: 4,
        }
    }
}

/// `a` is left-adjacent to `b`: `a` ends before `b` starts, the gap is
/// small, and the two share a row.
pub fn left(a: &BBox, b: &BBox, p: &Proximity) -> bool {
    let gap = a.h_gap_to(b);
    (-p.align_tol..=p.max_h_gap).contains(&gap) && same_row(a, b, p)
}

/// `a` is right-adjacent to `b` (mirror of [`left`]).
pub fn right(a: &BBox, b: &BBox, p: &Proximity) -> bool {
    left(b, a, p)
}

/// `a` is above-adjacent to `b`: `a` ends above `b`, the vertical gap is
/// small, and the two share a column span.
pub fn above(a: &BBox, b: &BBox, p: &Proximity) -> bool {
    let gap = a.v_gap_to(b);
    (-p.align_tol..=p.max_v_gap).contains(&gap) && same_col(a, b, p)
}

/// `a` is below-adjacent to `b` (mirror of [`above`]).
pub fn below(a: &BBox, b: &BBox, p: &Proximity) -> bool {
    above(b, a, p)
}

/// Boxes share a horizontal band (vertical projections overlap enough).
pub fn same_row(a: &BBox, b: &BBox, p: &Proximity) -> bool {
    let need = p.min_overlap.min(a.height().min(b.height()) / 2).max(1);
    a.v_overlap(b) >= need
}

/// Boxes share a vertical band (horizontal projections overlap enough).
pub fn same_col(a: &BBox, b: &BBox, p: &Proximity) -> bool {
    let need = p.min_overlap.min(a.width().min(b.width()) / 2).max(1);
    a.h_overlap(b) >= need
}

/// Top edges are aligned within tolerance.
pub fn align_top(a: &BBox, b: &BBox, p: &Proximity) -> bool {
    (a.top - b.top).abs() <= p.align_tol
}

/// Bottom edges are aligned within tolerance. The paper's pattern 1
/// (Figure 3(c)) arranges the attribute "left-adjacent and
/// bottom-aligned" to the input field.
pub fn align_bottom(a: &BBox, b: &BBox, p: &Proximity) -> bool {
    (a.bottom - b.bottom).abs() <= p.align_tol
}

/// Left edges are aligned within tolerance.
pub fn align_left(a: &BBox, b: &BBox, p: &Proximity) -> bool {
    (a.left - b.left).abs() <= p.align_tol
}

/// `a` is the nearer of the two boxes to `target` by closest-edge
/// Manhattan distance. Used by preference winning criteria of the
/// "smaller inter-component distance" kind (paper Figure 13 discussion).
pub fn closer(a: &BBox, b: &BBox, target: &BBox) -> bool {
    a.distance(target) < b.distance(target)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Proximity {
        Proximity::default()
    }

    // Layout used throughout:   [label]  [box]
    //                           [radio]
    fn label() -> BBox {
        BBox::new(10, 10, 52, 24)
    }
    fn textbox() -> BBox {
        BBox::new(60, 8, 200, 28)
    }
    fn radio_below() -> BBox {
        BBox::new(60, 34, 73, 47)
    }

    #[test]
    fn label_is_left_of_textbox() {
        assert!(left(&label(), &textbox(), &p()));
        assert!(!left(&textbox(), &label(), &p()));
        assert!(right(&textbox(), &label(), &p()));
    }

    #[test]
    fn left_requires_small_gap() {
        let far = BBox::new(400, 10, 460, 24);
        assert!(!left(&label(), &far, &p()));
    }

    #[test]
    fn left_requires_same_row() {
        let next_line = BBox::new(60, 40, 200, 60);
        assert!(!left(&label(), &next_line, &p()));
    }

    #[test]
    fn textbox_is_above_radio() {
        assert!(above(&textbox(), &radio_below(), &p()));
        assert!(below(&radio_below(), &textbox(), &p()));
        assert!(!above(&radio_below(), &textbox(), &p()));
    }

    #[test]
    fn above_requires_shared_column() {
        let offside = BBox::new(500, 34, 513, 47);
        assert!(!above(&textbox(), &offside, &p()));
    }

    #[test]
    fn small_overlap_tolerated_in_left() {
        // Boxes that overlap by a couple of pixels (common with table
        // cell padding) still count as adjacent.
        let a = BBox::new(0, 0, 50, 20);
        let b = BBox::new(47, 0, 120, 20);
        assert!(left(&a, &b, &p()));
    }

    #[test]
    fn alignment_predicates() {
        let a = BBox::new(10, 10, 50, 30);
        let b = BBox::new(80, 12, 140, 28);
        assert!(align_top(&a, &b, &p()));
        assert!(align_bottom(&a, &b, &p()));
        assert!(!align_left(&a, &b, &p()));
        let c = BBox::new(12, 50, 60, 70);
        assert!(align_left(&a, &c, &p()));
    }

    #[test]
    fn same_row_uses_adaptive_minimum_for_thin_boxes() {
        // A 3px-tall rule line vs a text row: even tiny overlap counts
        // because the minimum adapts to the smaller box.
        let thin = BBox::new(0, 18, 100, 21);
        let row = BBox::new(0, 10, 100, 24);
        assert!(same_row(&thin, &row, &p()));
    }

    #[test]
    fn closer_compares_edge_distance() {
        let target = textbox();
        assert!(closer(&label(), &BBox::new(300, 8, 340, 28), &target));
    }

    #[test]
    fn tight_profile_is_stricter() {
        let a = BBox::new(0, 0, 50, 20);
        let b = BBox::new(80, 0, 120, 20); // 30px gap
        assert!(left(&a, &b, &Proximity::default()));
        assert!(!left(&a, &b, &Proximity::tight()));
    }
}
