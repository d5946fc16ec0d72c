//! Text-run assembly.
//!
//! Layout emits one fragment per text node per line; visually, however,
//! `<b>Price</b> Range:` is a single caption. This module merges
//! fragments that render as one run — same line box, small gap, no
//! widget interposed — into single text tokens, mirroring what the
//! paper's tokenizer read off the rendered page (token `s1` in Figure 5
//! is the whole caption "first name/initial and last name").

use metaform_core::BBox;
use metaform_html::NodeId;

/// A text fragment candidate prior to merging: the trimmed text of
/// fragment `frag` of text node `node`. It names the fragment rather
/// than borrowing its text, so a run buffer outlives the page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawRun {
    /// The text node.
    pub node: NodeId,
    /// Index of the fragment among the node's.
    pub frag: u32,
    /// Fragment box.
    pub bbox: BBox,
    /// Line-box id from layout (unique per flow line).
    pub line: u32,
    /// Position among the runs as gathered: the sort's last key, so
    /// runs that tie on position keep their document order.
    pub seq: u32,
    /// How the run continues the one before it in reading order, set
    /// by [`merge_runs`].
    pub join: Join,
}

/// How a run relates to the run before it once sorted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Join {
    /// The run starts a new visual run (a new token).
    Starts,
    /// The run continues the previous one with no gap between them.
    Touches,
    /// The run continues the previous one, one space on.
    Spaced,
}

/// Maximum horizontal white-space bridged when merging two fragments of
/// the same line box, in pixels (two space widths).
const MERGE_GAP: i32 = 14;

/// Sorts raw fragments into reading order and marks which of them
/// merge into one visual text run: a run joins the one before it when
/// it sits on the same line box, at most two space widths to the right of
/// the run so far.
///
/// `obstacles` are widget boxes; a merge never bridges across one
/// (a radio glyph between two captions keeps them separate tokens).
pub fn merge_runs(runs: &mut [RawRun], obstacles: &[BBox]) {
    runs.sort_unstable_by_key(|r| (r.line, r.bbox.left, r.bbox.top, r.seq));
    let mut open: Option<(u32, BBox)> = None;
    for run in runs {
        run.join = match open {
            Some((line, group)) if line == run.line => {
                let gap = run.bbox.left - group.right;
                if (0..=MERGE_GAP).contains(&gap) && !blocked(&group, &run.bbox, obstacles) {
                    if gap > 0 {
                        Join::Spaced
                    } else {
                        Join::Touches
                    }
                } else {
                    Join::Starts
                }
            }
            _ => Join::Starts,
        };
        open = Some(match (run.join, open) {
            (Join::Starts, _) | (_, None) => (run.line, run.bbox),
            (_, Some((line, group))) => (line, group.union(&run.bbox)),
        });
    }
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

    /// A run of `text` at `left` on `line`, and its text.
    fn run(text: &'static str, left: i32, line: u32) -> (RawRun, &'static str) {
        let run = RawRun {
            node: NodeId(0),
            frag: 0,
            bbox: BBox::new(left, 10, left + text.len() as i32 * 7, 26),
            line,
            seq: 0,
            join: Join::Starts,
        };
        (run, text)
    }

    /// The merged texts of `runs`, joined as the tokenizer joins them.
    fn merged(runs: &[(RawRun, &str)], obstacles: &[BBox]) -> Vec<String> {
        let mut sorted: Vec<RawRun> = runs
            .iter()
            .enumerate()
            .map(|(i, (r, _))| RawRun {
                seq: i as u32,
                ..*r
            })
            .collect();
        merge_runs(&mut sorted, obstacles);
        let mut out: Vec<String> = Vec::new();
        for r in &sorted {
            let text = runs[r.seq as usize].1;
            match r.join {
                Join::Starts => out.push(text.to_string()),
                Join::Touches => out.last_mut().unwrap().push_str(text),
                Join::Spaced => {
                    let last = out.last_mut().unwrap();
                    last.push(' ');
                    last.push_str(text);
                }
            }
        }
        out
    }

    #[test]
    fn adjacent_fragments_merge_with_space() {
        let a = run("Price", 10, 0); // right = 45
        let b = run("Range:", 52, 0); // one space away
        assert_eq!(merged(&[a, b], &[]), ["Price Range:"]);
    }

    #[test]
    fn touching_fragments_merge_without_space() {
        let a = run("Price", 10, 0);
        let b = run(":", 45, 0); // gap 0
        assert_eq!(merged(&[a, b], &[]), ["Price:"]);
    }

    #[test]
    fn distant_fragments_stay_separate() {
        let a = run("Adults", 10, 0);
        let b = run("Children", 300, 0);
        assert_eq!(merged(&[a, b], &[]).len(), 2);
    }

    #[test]
    fn different_lines_never_merge() {
        let a = run("Author", 10, 0);
        let b = run("Title", 10, 1);
        assert_eq!(merged(&[a, b], &[]).len(), 2);
    }

    #[test]
    fn widget_between_blocks_merge() {
        let a = run("First", 10, 0);
        let (mut b, last) = run("Last", 60, 0);
        b.bbox = BBox::new(a.0.bbox.right + 10, 10, a.0.bbox.right + 40, 26);
        let glyph = BBox::new(a.0.bbox.right + 2, 12, a.0.bbox.right + 9, 25);
        assert_eq!(
            merged(&[a, (b, last)], &[glyph]).len(),
            2,
            "radio glyph separates the captions"
        );
        assert_eq!(merged(&[a, (b, last)], &[]).len(), 1);
    }

    #[test]
    fn out_of_order_input_is_sorted() {
        let b = run("Range:", 52, 0);
        let a = run("Price", 10, 0);
        assert_eq!(merged(&[b, a], &[]), ["Price Range:"]);
    }

    #[test]
    fn chain_merging() {
        let a = run("first", 10, 0);
        let b = run("name", 52, 0);
        let c = run("only", 87, 0);
        assert_eq!(merged(&[a, b, c], &[]), ["first name only"]);
    }

    #[test]
    fn overlap_does_not_merge_backwards() {
        // A fragment whose left edge is *before* the previous right edge
        // (negative gap) is kept separate — distinct columns can overlap
        // only through layout bugs, and silently fusing them would hide
        // those.
        let a = run("alpha", 10, 0);
        let (mut b, beta) = run("beta", 0, 0);
        b.bbox = BBox::new(30, 10, 60, 26);
        assert_eq!(merged(&[a, (b, beta)], &[]).len(), 2);
    }

    #[test]
    fn position_ties_keep_gathering_order() {
        let a = run("one", 10, 0);
        let b = run("two", 10, 0);
        assert_eq!(merged(&[a, b], &[]), ["one", "two"]);
        assert_eq!(merged(&[b, a], &[]), ["two", "one"]);
    }
}
