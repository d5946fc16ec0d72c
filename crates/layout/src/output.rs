//! Layout results: a bounding box per node plus text fragments.

use metaform_core::BBox;
use metaform_html::{Document, NodeId};
use std::borrow::Cow;

/// A contiguous run of one text node's words on a single line.
///
/// Wrapped text produces one fragment per line, so downstream token
/// extraction sees each visual line of a label separately — exactly what
/// the paper's IE-based tokenizer observed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fragment<'d> {
    /// The rendered text of this run (single spaces between words):
    /// borrowed from the document's text node, and owned only when
    /// collapsing whitespace changed the bytes (a newline, a tab or a
    /// run of spaces between two of the run's words).
    pub text: Cow<'d, str>,
    /// Where the run landed.
    pub bbox: BBox,
    /// Identifier of the line box the run belongs to (unique per flow).
    pub line: u32,
}

/// Where one node landed: its box, and its run of the fragment arena.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Placed {
    pub(crate) bbox: Option<BBox>,
    /// `fragments[first..end]` are the node's fragments.
    first: u32,
    end: u32,
}

/// The result of laying out a [`Document`]: positions for every
/// rendered node. The fragments of every text node share one arena,
/// each node's a contiguous run of it, and borrow their text from the
/// document.
#[derive(Clone, Debug)]
pub struct Layout<'d> {
    pub(crate) nodes: Vec<Placed>,
    pub(crate) fragments: Vec<Fragment<'d>>,
}

impl<'d> Layout<'d> {
    /// An empty layout of `n` nodes with room for `fragments`
    /// fragments before the arena grows.
    pub(crate) fn sized(n: usize, fragments: usize) -> Self {
        Layout {
            nodes: vec![Placed::default(); n],
            fragments: Vec::with_capacity(fragments),
        }
    }

    /// Bounding box of a node, or `None` when the node is not rendered
    /// (hidden inputs, `<head>` content, empty containers).
    pub fn bbox(&self, id: NodeId) -> Option<BBox> {
        self.nodes[id.index()].bbox
    }

    /// Text fragments of a text node (empty for elements and
    /// whitespace-only text).
    pub fn fragments(&self, id: NodeId) -> &[Fragment<'d>] {
        let p = &self.nodes[id.index()];
        &self.fragments[p.first as usize..p.end as usize]
    }

    pub(crate) fn fragments_mut(&mut self, id: NodeId) -> &mut [Fragment<'d>] {
        let p = &self.nodes[id.index()];
        &mut self.fragments[p.first as usize..p.end as usize]
    }

    /// The last fragment of `id`, when it is the arena's last — the
    /// one a word placed next on its line may extend.
    pub(crate) fn open_fragment(&mut self, id: NodeId) -> Option<&mut Fragment<'d>> {
        let p = self.nodes[id.index()];
        if p.end > p.first && p.end as usize == self.fragments.len() {
            self.fragments.last_mut()
        } else {
            None
        }
    }

    /// Appends a fragment to `id`'s run. A node's words are placed
    /// consecutively, so its run is always the arena's tail.
    pub(crate) fn push_fragment(&mut self, id: NodeId, fragment: Fragment<'d>) {
        let at = self.fragments.len() as u32;
        let p = &mut self.nodes[id.index()];
        if p.end == p.first {
            (p.first, p.end) = (at, at);
        }
        debug_assert_eq!(p.end, at, "a node's fragments are contiguous");
        p.end = at + 1;
        self.fragments.push(fragment);
    }

    pub(crate) fn set_bbox(&mut self, id: NodeId, bbox: BBox) {
        self.nodes[id.index()].bbox = Some(bbox);
    }

    /// Shifts every box and fragment in the subtree rooted at `root`.
    pub(crate) fn translate_subtree(&mut self, doc: &Document, root: NodeId, dx: i32, dy: i32) {
        if dx == 0 && dy == 0 {
            return;
        }
        for n in doc.descendants(root) {
            if let Some(b) = &mut self.nodes[n.index()].bbox {
                *b = b.translated(dx, dy);
            }
            for f in self.fragments_mut(n) {
                f.bbox = f.bbox.translated(dx, dy);
            }
        }
    }

    /// Bottom-up pass assigning union boxes to containers that did not
    /// receive one during flow (inline elements, text nodes, blocks laid
    /// out implicitly).
    pub(crate) fn finalize(&mut self, doc: &Document) {
        // Children always have larger arena ids than their parents, so a
        // single descending sweep sees every child before its parent.
        for idx in (0..doc.len()).rev() {
            let id = NodeId(idx as u32);
            if self.nodes[idx].bbox.is_some() {
                continue;
            }
            let mut acc: Option<BBox> = None;
            for f in self.fragments(id) {
                acc = Some(acc.map_or(f.bbox, |a| a.union(&f.bbox)));
            }
            for &c in doc.children(id) {
                if let Some(cb) = self.nodes[c.index()].bbox {
                    acc = Some(acc.map_or(cb, |a| a.union(&cb)));
                }
            }
            self.nodes[idx].bbox = acc;
        }
    }

    /// Lowest bottom edge over the subtree (0 when nothing in it is
    /// placed) — a table cell's content height.
    pub(crate) fn subtree_bottom(&self, doc: &Document, root: NodeId) -> i32 {
        let mut bottom = 0;
        for n in doc.descendants(root) {
            if let Some(b) = self.nodes[n.index()].bbox {
                bottom = bottom.max(b.bottom);
            }
            for f in self.fragments(n) {
                bottom = bottom.max(f.bbox.bottom);
            }
        }
        bottom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaform_html::parse;

    /// An empty layout for `doc`, filled by hand below.
    fn blank<'d>(doc: &Document) -> Layout<'d> {
        Layout {
            nodes: vec![Placed::default(); doc.len()],
            fragments: Vec::new(),
        }
    }

    #[test]
    fn translate_shifts_boxes_and_fragments() {
        let doc = parse("<b>x</b>");
        let mut lay = blank(&doc);
        let b = doc.elements_by_tag(doc.root(), "b")[0];
        let text = doc.children(b)[0];
        lay.set_bbox(b, BBox::at(0, 0, 10, 10));
        lay.push_fragment(
            text,
            Fragment {
                text: "x".into(),
                bbox: BBox::at(0, 0, 7, 16),
                line: 0,
            },
        );
        lay.translate_subtree(&doc, doc.root(), 5, 9);
        assert_eq!(lay.bbox(b), Some(BBox::at(5, 9, 10, 10)));
        assert_eq!(lay.fragments(text)[0].bbox, BBox::at(5, 9, 7, 16));
    }

    #[test]
    fn finalize_unions_upward() {
        let doc = parse("<div><b>x</b><i>y</i></div>");
        let mut lay = blank(&doc);
        let b = doc.elements_by_tag(doc.root(), "b")[0];
        let i = doc.elements_by_tag(doc.root(), "i")[0];
        lay.set_bbox(b, BBox::new(0, 0, 10, 10));
        lay.set_bbox(i, BBox::new(20, 0, 30, 10));
        lay.finalize(&doc);
        let div = doc.elements_by_tag(doc.root(), "div")[0];
        assert_eq!(lay.bbox(div), Some(BBox::new(0, 0, 30, 10)));
        assert_eq!(lay.bbox(doc.root()), Some(BBox::new(0, 0, 30, 10)));
    }

    #[test]
    fn finalize_leaves_unrendered_nodes_none() {
        let doc = parse("<div></div>");
        let mut lay = blank(&doc);
        lay.finalize(&doc);
        let div = doc.elements_by_tag(doc.root(), "div")[0];
        assert_eq!(lay.bbox(div), None);
    }
}
