//! Text-run assembly.
//!
//! Layout emits one fragment per text node per line; visually, however,
//! `<b>Price</b> Range:` is a single caption. This module merges
//! fragments that render as one run — same line box, small gap, no
//! widget interposed — into single text tokens, mirroring what the
//! paper's tokenizer read off the rendered page (token `s1` in Figure 5
//! is the whole caption "first name/initial and last name").

use metaform_core::BBox;
use std::borrow::Cow;

/// A text fragment candidate prior to merging. Its text is borrowed
/// from the layout until a merge joins it with a neighbour.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawRun<'a> {
    /// Fragment text.
    pub text: Cow<'a, str>,
    /// Fragment box.
    pub bbox: BBox,
    /// Line-box id from layout (unique per flow line).
    pub line: u32,
}

/// Maximum horizontal white-space bridged when merging two fragments of
/// the same line box, in pixels (two space widths).
const MERGE_GAP: i32 = 14;

/// Merges raw fragments into visual text runs.
///
/// `obstacles` are widget boxes; a merge never bridges across one
/// (a radio glyph between two captions keeps them separate tokens).
pub fn merge_runs<'a>(mut runs: Vec<RawRun<'a>>, obstacles: &[BBox]) -> Vec<RawRun<'a>> {
    runs.sort_by_key(|r| (r.line, r.bbox.left, r.bbox.top));
    let mut out: Vec<RawRun> = Vec::with_capacity(runs.len());
    for run in runs {
        if let Some(prev) = out.last_mut() {
            if prev.line == run.line {
                let gap = run.bbox.left - prev.bbox.right;
                if (0..=MERGE_GAP).contains(&gap) && !blocked(&prev.bbox, &run.bbox, obstacles) {
                    let text = prev.text.to_mut();
                    if gap > 0 {
                        text.push(' ');
                    }
                    text.push_str(&run.text);
                    prev.bbox = prev.bbox.union(&run.bbox);
                    continue;
                }
            }
        }
        out.push(run);
    }
    out
}

/// True when any obstacle lies horizontally between `a` and `b` on
/// their shared row.
fn blocked(a: &BBox, b: &BBox, obstacles: &[BBox]) -> bool {
    let span = BBox::new(a.right, a.top.min(b.top), b.left, a.bottom.max(b.bottom));
    obstacles.iter().any(|o| o.intersects(&span))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(text: &str, left: i32, line: u32) -> RawRun<'_> {
        RawRun {
            text: text.into(),
            bbox: BBox::new(left, 10, left + text.len() as i32 * 7, 26),
            line,
        }
    }

    #[test]
    fn adjacent_fragments_merge_with_space() {
        let a = run("Price", 10, 0); // right = 45
        let b = run("Range:", 52, 0); // one space away
        let merged = merge_runs(vec![a, b], &[]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].text, "Price Range:");
        assert_eq!(merged[0].bbox, BBox::new(10, 10, 94, 26));
    }

    #[test]
    fn touching_fragments_merge_without_space() {
        let a = run("Price", 10, 0);
        let b = run(":", 45, 0); // gap 0
        let merged = merge_runs(vec![a, b], &[]);
        assert_eq!(merged[0].text, "Price:");
    }

    #[test]
    fn distant_fragments_stay_separate() {
        let a = run("Adults", 10, 0);
        let b = run("Children", 300, 0);
        let merged = merge_runs(vec![a, b], &[]);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn different_lines_never_merge() {
        let a = run("Author", 10, 0);
        let b = run("Title", 10, 1);
        let merged = merge_runs(vec![a, b], &[]);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn widget_between_blocks_merge() {
        let a = run("First", 10, 0);
        let b = run("Last", 60, 0); // gap 15 > MERGE_GAP anyway; tighten
        let b = RawRun {
            bbox: BBox::new(a.bbox.right + 10, 10, a.bbox.right + 40, 26),
            ..b
        };
        let glyph = BBox::new(a.bbox.right + 2, 12, a.bbox.right + 9, 25);
        let merged = merge_runs(vec![a.clone(), b.clone()], &[glyph]);
        assert_eq!(merged.len(), 2, "radio glyph separates the captions");
        let merged_free = merge_runs(vec![a, b], &[]);
        assert_eq!(merged_free.len(), 1);
    }

    #[test]
    fn out_of_order_input_is_sorted() {
        let b = run("Range:", 52, 0);
        let a = run("Price", 10, 0);
        let merged = merge_runs(vec![b, a], &[]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].text, "Price Range:");
    }

    #[test]
    fn chain_merging() {
        let a = run("first", 10, 0);
        let b = run("name", 52, 0);
        let c = run("only", 87, 0);
        let merged = merge_runs(vec![a, b, c], &[]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].text, "first name only");
    }

    #[test]
    fn overlap_does_not_merge_backwards() {
        // A fragment whose left edge is *before* the previous right edge
        // (negative gap) is kept separate — distinct columns can overlap
        // only through layout bugs, and silently fusing them would hide
        // those.
        let a = run("alpha", 10, 0);
        let mut b = run("beta", 0, 0);
        b.bbox = BBox::new(30, 10, 60, 26);
        let merged = merge_runs(vec![a, b], &[]);
        assert_eq!(merged.len(), 2);
    }
}
