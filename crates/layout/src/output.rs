//! Layout results: a bounding box per node plus text fragments.

use metaform_core::BBox;
use metaform_html::{Document, NodeId};

/// A contiguous run of one text node's words on a single line.
///
/// Wrapped text produces one fragment per line, so downstream token
/// extraction sees each visual line of a label separately — exactly what
/// the paper's IE-based tokenizer observed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fragment {
    /// The rendered text of this run (single spaces between words).
    pub text: String,
    /// Where the run landed.
    pub bbox: BBox,
    /// Identifier of the line box the run belongs to (unique per flow).
    pub line: u32,
}

/// The result of laying out a [`Document`]: positions for every
/// rendered node.
#[derive(Clone, Debug)]
pub struct Layout {
    pub(crate) boxes: Vec<Option<BBox>>,
    pub(crate) fragments: Vec<Vec<Fragment>>,
}

impl Layout {
    pub(crate) fn sized(n: usize) -> Self {
        Layout {
            boxes: vec![None; n],
            fragments: vec![Vec::new(); n],
        }
    }

    /// Bounding box of a node, or `None` when the node is not rendered
    /// (hidden inputs, `<head>` content, empty containers).
    pub fn bbox(&self, id: NodeId) -> Option<BBox> {
        self.boxes[id.index()]
    }

    /// Text fragments of a text node (empty for elements and
    /// whitespace-only text).
    pub fn fragments(&self, id: NodeId) -> &[Fragment] {
        &self.fragments[id.index()]
    }

    pub(crate) fn set_bbox(&mut self, id: NodeId, bbox: BBox) {
        self.boxes[id.index()] = Some(bbox);
    }

    /// Shifts every box and fragment in the subtree rooted at `root`.
    pub(crate) fn translate_subtree(&mut self, doc: &Document, root: NodeId, dx: i32, dy: i32) {
        if dx == 0 && dy == 0 {
            return;
        }
        for n in doc.descendants(root) {
            if let Some(b) = &mut self.boxes[n.index()] {
                *b = b.translated(dx, dy);
            }
            for f in &mut self.fragments[n.index()] {
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
            if self.boxes[idx].is_some() {
                continue;
            }
            let mut acc: Option<BBox> = None;
            for f in &self.fragments[idx] {
                acc = Some(acc.map_or(f.bbox, |a| a.union(&f.bbox)));
            }
            for &c in doc.children(id) {
                if let Some(cb) = self.boxes[c.index()] {
                    acc = Some(acc.map_or(cb, |a| a.union(&cb)));
                }
            }
            self.boxes[idx] = acc;
        }
    }

    /// Lowest bottom edge over the subtree (0 when nothing in it is
    /// placed) — a table cell's content height.
    pub(crate) fn subtree_bottom(&self, doc: &Document, root: NodeId) -> i32 {
        let mut bottom = 0;
        for n in doc.descendants(root) {
            if let Some(b) = self.boxes[n.index()] {
                bottom = bottom.max(b.bottom);
            }
            for f in &self.fragments[n.index()] {
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
    fn blank(doc: &Document) -> Layout {
        Layout {
            boxes: vec![None; doc.len()],
            fragments: vec![Vec::new(); doc.len()],
        }
    }

    #[test]
    fn translate_shifts_boxes_and_fragments() {
        let doc = parse("<b>x</b>");
        let mut lay = blank(&doc);
        let b = doc.elements_by_tag(doc.root(), "b")[0];
        let text = doc.children(b)[0];
        lay.set_bbox(b, BBox::at(0, 0, 10, 10));
        lay.fragments[text.index()].push(Fragment {
            text: "x".into(),
            bbox: BBox::at(0, 0, 7, 16),
            line: 0,
        });
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
