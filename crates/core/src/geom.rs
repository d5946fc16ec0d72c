//! Integer pixel geometry.
//!
//! Every visual token and every parse-tree instance carries an
//! axis-aligned bounding box. The paper records positions as
//! `pos = (left, right, top, bottom)` in rendered pixels (Figure 5); we
//! keep the same convention with `i32` coordinates so that geometry is
//! exact, hashable, and deterministic.

use std::fmt;

/// Axis-aligned bounding box in pixel coordinates.
///
/// The y axis grows downward, as in screen coordinates: `top <= bottom`
/// and `left <= right` always hold for boxes built via [`BBox::new`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BBox {
    /// x coordinate of the left edge.
    pub left: i32,
    /// y coordinate of the top edge.
    pub top: i32,
    /// x coordinate of the right edge (inclusive extent end).
    pub right: i32,
    /// y coordinate of the bottom edge (inclusive extent end).
    pub bottom: i32,
}

impl fmt::Debug for BBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BBox({},{})-({},{})",
            self.left, self.top, self.right, self.bottom
        )
    }
}

impl BBox {
    /// Builds a box, normalizing flipped edges so the invariants hold.
    pub fn new(left: i32, top: i32, right: i32, bottom: i32) -> Self {
        Self {
            left: left.min(right),
            top: top.min(bottom),
            right: left.max(right),
            bottom: top.max(bottom),
        }
    }

    /// A box positioned at `(x, y)` with the given extent.
    pub fn at(x: i32, y: i32, width: i32, height: i32) -> Self {
        Self::new(x, y, x + width.max(0), y + height.max(0))
    }

    /// Zero-size box at the origin; identity for [`BBox::union`] only in
    /// tests that build up boxes incrementally.
    pub const ZERO: BBox = BBox {
        left: 0,
        top: 0,
        right: 0,
        bottom: 0,
    };

    /// Horizontal extent.
    pub fn width(&self) -> i32 {
        self.right - self.left
    }

    /// Vertical extent.
    pub fn height(&self) -> i32 {
        self.bottom - self.top
    }

    /// Area (width × height); zero for degenerate boxes.
    pub fn area(&self) -> i64 {
        self.width() as i64 * self.height() as i64
    }

    /// Center point, rounded toward the top-left.
    pub fn center(&self) -> (i32, i32) {
        (self.left + self.width() / 2, self.top + self.height() / 2)
    }

    /// Smallest box covering both operands.
    pub fn union(&self, other: &BBox) -> BBox {
        BBox {
            left: self.left.min(other.left),
            top: self.top.min(other.top),
            right: self.right.max(other.right),
            bottom: self.bottom.max(other.bottom),
        }
    }

    /// Intersection, or `None` when the boxes do not overlap (edge
    /// contact does not count as overlap).
    pub fn intersection(&self, other: &BBox) -> Option<BBox> {
        let left = self.left.max(other.left);
        let top = self.top.max(other.top);
        let right = self.right.min(other.right);
        let bottom = self.bottom.min(other.bottom);
        if left < right && top < bottom {
            Some(BBox {
                left,
                top,
                right,
                bottom,
            })
        } else {
            None
        }
    }

    /// True when the interiors overlap.
    pub fn intersects(&self, other: &BBox) -> bool {
        self.intersection(other).is_some()
    }

    /// True when `other` lies entirely within `self` (edges may touch).
    pub fn contains(&self, other: &BBox) -> bool {
        self.left <= other.left
            && self.top <= other.top
            && self.right >= other.right
            && self.bottom >= other.bottom
    }

    /// Length of the shared vertical interval (how much two boxes overlap
    /// when projected onto the y axis). Negative values are the gap size.
    pub fn v_overlap(&self, other: &BBox) -> i32 {
        self.bottom.min(other.bottom) - self.top.max(other.top)
    }

    /// Length of the shared horizontal interval (projection on x axis).
    pub fn h_overlap(&self, other: &BBox) -> i32 {
        self.right.min(other.right) - self.left.max(other.left)
    }

    /// Horizontal gap from `self`'s right edge to `other`'s left edge.
    /// Negative when the projections overlap.
    pub fn h_gap_to(&self, other: &BBox) -> i32 {
        other.left - self.right
    }

    /// Vertical gap from `self`'s bottom edge to `other`'s top edge.
    pub fn v_gap_to(&self, other: &BBox) -> i32 {
        other.top - self.bottom
    }

    /// Manhattan distance between the closest points of the two boxes;
    /// zero when they touch or overlap.
    pub fn distance(&self, other: &BBox) -> i32 {
        let dx = (other.left - self.right)
            .max(self.left - other.right)
            .max(0);
        let dy = (other.top - self.bottom)
            .max(self.top - other.bottom)
            .max(0);
        dx + dy
    }

    /// Box shifted by `(dx, dy)`.
    pub fn translated(&self, dx: i32, dy: i32) -> BBox {
        BBox {
            left: self.left + dx,
            top: self.top + dy,
            right: self.right + dx,
            bottom: self.bottom + dy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_flipped_edges() {
        let b = BBox::new(10, 20, 0, 5);
        assert_eq!(b, BBox::new(0, 5, 10, 20));
        assert!(b.left <= b.right && b.top <= b.bottom);
    }

    #[test]
    fn at_builds_from_origin_and_extent() {
        let b = BBox::at(5, 7, 30, 10);
        assert_eq!(b.width(), 30);
        assert_eq!(b.height(), 10);
        assert_eq!(b.right, 35);
        assert_eq!(b.bottom, 17);
    }

    #[test]
    fn union_covers_both() {
        let a = BBox::new(0, 0, 10, 10);
        let b = BBox::new(20, 5, 30, 25);
        let u = a.union(&b);
        assert!(u.contains(&a));
        assert!(u.contains(&b));
        assert_eq!(u, BBox::new(0, 0, 30, 25));
    }

    #[test]
    fn intersection_of_overlapping_boxes() {
        let a = BBox::new(0, 0, 10, 10);
        let b = BBox::new(5, 5, 15, 15);
        assert_eq!(a.intersection(&b), Some(BBox::new(5, 5, 10, 10)));
        assert!(a.intersects(&b));
    }

    #[test]
    fn edge_contact_is_not_intersection() {
        let a = BBox::new(0, 0, 10, 10);
        let b = BBox::new(10, 0, 20, 10);
        assert_eq!(a.intersection(&b), None);
        assert!(!a.intersects(&b));
        assert_eq!(a.distance(&b), 0);
    }

    #[test]
    fn overlaps_and_gaps() {
        let a = BBox::new(0, 0, 40, 20); // row 0..20
        let b = BBox::new(50, 5, 90, 25); // row 5..25, to the right
        assert_eq!(a.v_overlap(&b), 15);
        assert_eq!(a.h_overlap(&b), -10);
        assert_eq!(a.h_gap_to(&b), 10);
        assert_eq!(b.h_gap_to(&a), -90);
    }

    #[test]
    fn distance_is_zero_inside_and_grows_outside() {
        let a = BBox::new(0, 0, 10, 10);
        assert_eq!(a.distance(&a), 0);
        let far = BBox::new(20, 30, 25, 35);
        assert_eq!(a.distance(&far), 10 + 20);
    }

    #[test]
    fn translation_preserves_extent() {
        let a = BBox::new(1, 2, 6, 9);
        let t = a.translated(-3, 4);
        assert_eq!(t.width(), a.width());
        assert_eq!(t.height(), a.height());
        assert_eq!(t.left, -2);
        assert_eq!(t.top, 6);
    }
}
