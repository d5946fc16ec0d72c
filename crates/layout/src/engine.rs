//! Normal-flow layout: blocks stack, inline content flows in line boxes.

use crate::font::{text_width, words, LINE_H, SPACE_W};
use crate::output::{Fragment, Layout};
use crate::style::{block_margin, display_of, is_line_break, Display, LIST_INDENT};
use crate::table;
use crate::widget::intrinsic_size;
use metaform_core::BBox;
use metaform_html::{Document, NodeData, NodeId};

/// Tunables for a layout run.
#[derive(Clone, Copy, Debug)]
pub struct LayoutOptions {
    /// Canvas width in pixels; content wraps at this edge.
    pub viewport: i32,
    /// Outer margin applied on all four sides.
    pub margin: i32,
}

impl Default for LayoutOptions {
    fn default() -> Self {
        // 800px was the canonical design width of the era.
        LayoutOptions {
            viewport: 800,
            margin: 8,
        }
    }
}

/// Lays out a document at the default 800px viewport.
///
/// ```
/// let doc = metaform_html::parse("Author <input type='text' name='q'>");
/// let layout = metaform_layout::layout(&doc);
/// let input = doc.elements_by_tag(doc.root(), "input")[0];
/// let bbox = layout.bbox(input).unwrap();
/// assert!(bbox.width() > 0 && bbox.height() > 0);
/// ```
pub fn layout(doc: &Document) -> Layout {
    layout_with(doc, &LayoutOptions::default())
}

/// Lays out a document with explicit options.
pub fn layout_with(doc: &Document, opts: &LayoutOptions) -> Layout {
    let mut flow = Flow {
        doc,
        line_ctr: 0,
        items: Vec::new(),
    };
    let mut buf = Layout::sized(doc.len());
    let x = opts.margin;
    let width = (opts.viewport - 2 * opts.margin).max(40);
    flow.layout_children(&mut buf, doc.children(doc.root()), x, opts.margin, width);
    buf.finalize(doc);
    buf
}

/// Width a preferred-width walk wraps at: wide enough that no line of
/// a real form ever does.
pub(crate) const PROBE_W: i32 = 1_000_000;

/// Shared flow state: the document, a monotone line-box counter, and
/// the inline items gathered since the last block boundary.
pub(crate) struct Flow<'a> {
    pub(crate) doc: &'a Document<'a>,
    line_ctr: u32,
    /// Inline items awaiting line placement. A block flushes them
    /// before it lays out its own content, so one buffer serves every
    /// nesting level and keeps its capacity across the page.
    items: Vec<Item<'a>>,
}

/// One atomic participant in inline flow.
enum Item<'a> {
    Word { node: NodeId, text: &'a str, w: i32 },
    Widget { node: NodeId, w: i32, h: i32 },
    Break,
}

impl Item<'_> {
    fn size(&self) -> (i32, i32) {
        match self {
            Item::Word { w, .. } => (*w, LINE_H),
            Item::Widget { w, h, .. } => (*w, *h),
            Item::Break => (0, 0),
        }
    }
}

/// The open line of a preferred-width walk: where the next item goes
/// and the widest right edge so far. Mirrors the placement rule of
/// [`Flow::flush_lines`] without placing anything.
struct PrefLine {
    x: i32,
    right_edge: i32,
    cur_x: i32,
    open: bool,
    right: i32,
}

impl PrefLine {
    fn new(x: i32, width: i32) -> Self {
        PrefLine {
            x,
            right_edge: x + width,
            cur_x: x,
            open: false,
            right: 0,
        }
    }

    fn push(&mut self, w: i32) {
        if self.open && self.cur_x + SPACE_W + w > self.right_edge {
            self.end();
        }
        let lead = if self.open { SPACE_W } else { 0 };
        self.cur_x += lead + w;
        self.open = true;
        self.right = self.right.max(self.cur_x);
    }

    fn end(&mut self) {
        self.cur_x = self.x;
        self.open = false;
    }
}

impl<'a> Flow<'a> {
    /// Lays out a sequence of sibling nodes in normal flow starting at
    /// `(x, y)` within `width`. Returns the y coordinate below the
    /// content.
    pub(crate) fn layout_children(
        &mut self,
        buf: &mut Layout,
        children: &[NodeId],
        x: i32,
        y: i32,
        width: i32,
    ) -> i32 {
        let mut cur_y = y;
        for &child in children {
            if self.is_inline_level(child) {
                self.collect_inline(child);
            } else {
                cur_y = self.flush_lines(buf, x, cur_y, width);
                cur_y = self.layout_block(buf, child, x, cur_y, width);
            }
        }
        self.flush_lines(buf, x, cur_y, width)
    }

    fn is_inline_level(&self, node: NodeId) -> bool {
        match &self.doc.node(node).data {
            NodeData::Text(_) => true,
            NodeData::Element { tag, .. } => matches!(
                display_of(tag),
                Display::Inline | Display::InlineWidget | Display::Hidden
            ),
            NodeData::Document => false,
        }
    }

    /// Gathers inline items from an inline-level subtree.
    fn collect_inline(&mut self, node: NodeId) {
        let doc = self.doc;
        match &doc.node(node).data {
            NodeData::Text(text) => {
                for word in words(text) {
                    self.items.push(Item::Word {
                        node,
                        text: word,
                        w: text_width(word),
                    });
                }
            }
            NodeData::Element { tag, .. } => {
                if is_line_break(tag) {
                    self.items.push(Item::Break);
                    return;
                }
                match display_of(tag) {
                    Display::Hidden => {}
                    Display::InlineWidget => {
                        if let Some((w, h)) = intrinsic_size(doc, node) {
                            self.items.push(Item::Widget { node, w, h });
                        }
                    }
                    _ => {
                        // Inline element (or a block illegally nested in
                        // inline context — flattened, see DESIGN.md):
                        // recurse; its own bbox is unioned in finalize().
                        for &c in doc.children(node) {
                            self.collect_inline(c);
                        }
                    }
                }
            }
            NodeData::Document => {}
        }
    }

    /// Places the accumulated inline items into line boxes; returns the
    /// new flow y. Items are separated by single spaces and
    /// bottom-aligned within each line, wrapping at `x + width`.
    fn flush_lines(&mut self, buf: &mut Layout, x: i32, y: i32, width: i32) -> i32 {
        if self.items.is_empty() {
            return y;
        }
        let mut items = std::mem::take(&mut self.items);
        let right_edge = x + width;
        let mut cur_y = y;
        // The open line is `items[start..idx]`; `cur_x` is its right end.
        let mut start = 0;
        let mut cur_x = x;
        for (idx, item) in items.iter().enumerate() {
            if matches!(item, Item::Break) {
                if start == idx {
                    cur_y += LINE_H; // blank line
                    self.line_ctr += 1;
                } else {
                    cur_y = self.place_line(buf, &items[start..idx], x, cur_y);
                }
                start = idx + 1;
                cur_x = x;
                continue;
            }
            let (w, _) = item.size();
            if start < idx && cur_x + SPACE_W + w > right_edge {
                cur_y = self.place_line(buf, &items[start..idx], x, cur_y);
                start = idx;
                cur_x = x;
            }
            let lead = if start < idx { SPACE_W } else { 0 };
            cur_x += lead + w;
        }
        if start < items.len() {
            cur_y = self.place_line(buf, &items[start..], x, cur_y);
        }
        items.clear();
        self.items = items;
        cur_y
    }

    /// Places one line box of items from `x` at `y`; returns the y
    /// below it.
    fn place_line(&mut self, buf: &mut Layout, line: &[Item<'_>], x: i32, y: i32) -> i32 {
        let line_h = line
            .iter()
            .map(|item| item.size().1)
            .max()
            .unwrap_or(0)
            .max(LINE_H);
        let mut left = x;
        for (k, item) in line.iter().enumerate() {
            if k > 0 {
                left += SPACE_W;
            }
            let (w, h) = item.size();
            let bbox = BBox::at(left, y + line_h - h, w, h);
            match item {
                Item::Word { node, text, .. } => {
                    push_fragment(buf, self.doc, *node, text, bbox, self.line_ctr);
                }
                Item::Widget { node, .. } => buf.set_bbox(*node, bbox),
                Item::Break => {}
            }
            left += w;
        }
        self.line_ctr += 1;
        y + line_h
    }

    /// Lays out one block-level element; returns the flow y below it.
    pub(crate) fn layout_block(
        &mut self,
        buf: &mut Layout,
        node: NodeId,
        x: i32,
        y: i32,
        width: i32,
    ) -> i32 {
        let doc = self.doc;
        let Some(tag) = doc.tag(node) else {
            return y; // stray text handled by caller classification
        };
        if display_of(tag) == Display::Table {
            return table::layout_table(self, buf, node, x, y, width);
        }
        if tag == "hr" {
            let m = block_margin("hr");
            buf.set_bbox(node, BBox::at(x, y + m, width, 2));
            return y + 2 * m + 2;
        }
        let m = block_margin(tag);
        let (cx, cw) = list_content(tag, x, width);
        let y0 = y + m;
        let end = self.layout_children(buf, doc.children(node), cx, y0, cw);
        buf.set_bbox(node, BBox::new(x, y0, x + width, end.max(y0)));
        end.max(y0) + m
    }

    /// Preferred (no-wrap) right edge of `children` laid out from `x`
    /// within `width` — one walk over the subtree, placing nothing and
    /// allocating nothing outside nested tables. Inline content counts
    /// its items' right edges; a block counts its content's right edge,
    /// never its own box, which would take whatever width it is given
    /// (an `<hr>` has no content and asks for no width). A nested table
    /// counts its own width.
    pub(crate) fn pref_right(&self, children: &[NodeId], x: i32, width: i32) -> i32 {
        let mut line = PrefLine::new(x, width);
        let mut right = 0;
        for &child in children {
            if self.is_inline_level(child) {
                self.pref_inline(child, &mut line);
            } else {
                line.end();
                right = right.max(self.pref_block(child, x, width));
            }
        }
        right.max(line.right)
    }

    /// [`Flow::collect_inline`], measuring instead of collecting.
    fn pref_inline(&self, node: NodeId, line: &mut PrefLine) {
        match &self.doc.node(node).data {
            NodeData::Text(text) => words(text).for_each(|word| line.push(text_width(word))),
            NodeData::Element { tag, .. } => {
                if is_line_break(tag) {
                    line.end();
                    return;
                }
                match display_of(tag) {
                    Display::Hidden => {}
                    Display::InlineWidget => {
                        if let Some((w, _)) = intrinsic_size(self.doc, node) {
                            line.push(w);
                        }
                    }
                    _ => {
                        for &c in self.doc.children(node) {
                            self.pref_inline(c, line);
                        }
                    }
                }
            }
            NodeData::Document => {}
        }
    }

    /// [`Flow::layout_block`], measuring instead of placing.
    fn pref_block(&self, node: NodeId, x: i32, width: i32) -> i32 {
        let Some(tag) = self.doc.tag(node) else {
            return 0;
        };
        if display_of(tag) == Display::Table {
            return table::pref_table(self, node, x, width);
        }
        if tag == "hr" {
            return 0;
        }
        let (cx, cw) = list_content(tag, x, width);
        self.pref_right(self.doc.children(node), cx, cw)
    }
}

/// Content origin and width of a block: lists indent their items.
fn list_content(tag: &str, x: i32, width: i32) -> (i32, i32) {
    if matches!(tag, "ul" | "ol" | "dl") {
        (x + LIST_INDENT, (width - LIST_INDENT).max(40))
    } else {
        (x, width)
    }
}

/// Appends a word to a node's fragment list, merging with the previous
/// fragment when contiguous on the same line. A new fragment reserves
/// the node's whole text, so merging the rest of the line never
/// reallocates.
fn push_fragment(
    buf: &mut Layout,
    doc: &Document,
    node: NodeId,
    text: &str,
    bbox: BBox,
    line: u32,
) {
    let frags = &mut buf.fragments[node.index()];
    if let Some(last) = frags.last_mut() {
        if last.line == line && bbox.left == last.bbox.right + SPACE_W {
            last.text.push(' ');
            last.text.push_str(text);
            last.bbox = last.bbox.union(&bbox);
            return;
        }
    }
    let mut owned = String::with_capacity(doc.text(node).map_or(0, str::len));
    owned.push_str(text);
    frags.push(Fragment {
        text: owned,
        bbox,
        line,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::font::CHAR_W;
    use metaform_html::parse;

    fn frag_of<'l>(doc: &Document, lay: &'l Layout, nth_text: usize) -> &'l Fragment {
        let mut seen = 0;
        for n in doc.descendants(doc.root()) {
            if doc.text(n).is_some() && !lay.fragments(n).is_empty() {
                if seen == nth_text {
                    return &lay.fragments(n)[0];
                }
                seen += 1;
            }
        }
        panic!("text node {nth_text} not found");
    }

    #[test]
    fn single_line_of_text() {
        let doc = parse("Author Name");
        let lay = layout(&doc);
        let f = frag_of(&doc, &lay, 0);
        assert_eq!(f.text, "Author Name");
        assert_eq!(f.bbox.left, 8);
        assert_eq!(f.bbox.top, 8);
        assert_eq!(f.bbox.width(), 11 * CHAR_W);
        assert_eq!(f.bbox.height(), LINE_H);
    }

    #[test]
    fn label_left_of_textbox() {
        let doc = parse("Author <input type=text name=q>");
        let lay = layout(&doc);
        let label = frag_of(&doc, &lay, 0);
        let input = doc.elements_by_tag(doc.root(), "input")[0];
        let tb = lay.bbox(input).unwrap();
        assert!(label.bbox.right < tb.left, "label ends before textbox");
        assert_eq!(tb.left - label.bbox.right, SPACE_W);
        // Bottom-aligned on the line (textbox taller than text).
        assert_eq!(label.bbox.bottom, tb.bottom);
        assert!(tb.top < label.bbox.top);
    }

    #[test]
    fn br_breaks_lines() {
        let doc = parse("Title<br><input type=text name=t>");
        let lay = layout(&doc);
        let label = frag_of(&doc, &lay, 0);
        let input = doc.elements_by_tag(doc.root(), "input")[0];
        let tb = lay.bbox(input).unwrap();
        assert!(tb.top >= label.bbox.bottom, "textbox on the next line");
        assert_eq!(tb.left, label.bbox.left, "flush left");
    }

    #[test]
    fn double_br_leaves_blank_line() {
        let doc = parse("a<br><br>b");
        let lay = layout(&doc);
        let a = frag_of(&doc, &lay, 0);
        let b = frag_of(&doc, &lay, 1);
        assert_eq!(b.bbox.top - a.bbox.top, 2 * LINE_H);
    }

    #[test]
    fn text_wraps_at_viewport() {
        let long = "word ".repeat(40);
        let doc = parse(&long);
        let lay = layout_with(
            &doc,
            &LayoutOptions {
                viewport: 200,
                margin: 8,
            },
        );
        let text_node = doc
            .descendants(doc.root())
            .find(|&n| doc.text(n).is_some())
            .unwrap();
        let frags = lay.fragments(text_node);
        assert!(frags.len() > 1, "must wrap into several lines");
        for f in frags {
            assert!(
                f.bbox.right <= 200 - 8 + CHAR_W,
                "inside viewport: {:?}",
                f.bbox
            );
        }
        // Lines strictly stack.
        for w in frags.windows(2) {
            assert!(w[1].bbox.top >= w[0].bbox.bottom);
        }
    }

    #[test]
    fn blocks_stack_vertically() {
        let doc = parse("<div>one</div><div>two</div>");
        let lay = layout(&doc);
        let divs = doc.elements_by_tag(doc.root(), "div");
        let (a, b) = (lay.bbox(divs[0]).unwrap(), lay.bbox(divs[1]).unwrap());
        assert_eq!(b.top, a.bottom);
    }

    #[test]
    fn paragraph_margins_separate() {
        let doc = parse("<p>one</p><p>two</p>");
        let lay = layout(&doc);
        let ps = doc.elements_by_tag(doc.root(), "p");
        let (a, b) = (lay.bbox(ps[0]).unwrap(), lay.bbox(ps[1]).unwrap());
        assert_eq!(b.top - a.bottom, 16, "8px bottom + 8px top margin");
    }

    #[test]
    fn inline_element_box_unions_content() {
        let doc = parse("<b>Last name</b>");
        let lay = layout(&doc);
        let b = doc.elements_by_tag(doc.root(), "b")[0];
        let text = doc.children(b)[0];
        assert_eq!(lay.bbox(b), Some(lay.fragments(text)[0].bbox));
    }

    #[test]
    fn radio_then_caption_share_line() {
        let doc = parse("<input type=radio name=o> Exact name");
        let lay = layout(&doc);
        let radio = lay
            .bbox(doc.elements_by_tag(doc.root(), "input")[0])
            .unwrap();
        let caption = frag_of(&doc, &lay, 0);
        assert!(radio.right < caption.bbox.left);
        assert!(radio.v_overlap(&caption.bbox) > 0, "same row");
    }

    #[test]
    fn hidden_input_has_no_box_and_no_gap() {
        let doc = parse("a <input type=hidden name=s> b");
        let lay = layout(&doc);
        let input = doc.elements_by_tag(doc.root(), "input")[0];
        assert_eq!(lay.bbox(input), None);
        let a = frag_of(&doc, &lay, 0);
        let b = frag_of(&doc, &lay, 1);
        assert_eq!(b.bbox.left - a.bbox.right, SPACE_W);
    }

    #[test]
    fn hr_spans_width() {
        let doc = parse("<hr>");
        let lay = layout(&doc);
        let hr = doc.elements_by_tag(doc.root(), "hr")[0];
        let b = lay.bbox(hr).unwrap();
        assert_eq!(b.width(), 800 - 16);
        assert_eq!(b.height(), 2);
    }

    #[test]
    fn list_items_indent() {
        let doc = parse("<ul><li>alpha<li>beta</ul>");
        let lay = layout(&doc);
        let lis = doc.elements_by_tag(doc.root(), "li");
        let a = lay.bbox(lis[0]).unwrap();
        assert_eq!(a.left, 8 + LIST_INDENT);
        let b = lay.bbox(lis[1]).unwrap();
        assert_eq!(b.top, a.bottom);
    }

    #[test]
    fn widget_heights_dominate_line() {
        let doc = parse("x <select><option>one</select>");
        let lay = layout(&doc);
        let sel = lay
            .bbox(doc.elements_by_tag(doc.root(), "select")[0])
            .unwrap();
        let x = frag_of(&doc, &lay, 0);
        assert_eq!(sel.bottom, x.bbox.bottom, "bottom aligned");
        assert_eq!(sel.height(), 20);
    }

    #[test]
    fn fragments_merge_across_words_not_lines() {
        let doc = parse("first name / initials and last name");
        let lay = layout(&doc);
        let f = frag_of(&doc, &lay, 0);
        assert_eq!(f.text, "first name / initials and last name");
    }
}
