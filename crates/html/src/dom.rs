//! Arena-based DOM that borrows its page.
//!
//! Nodes live in a flat `Vec` and refer to each other by [`NodeId`],
//! which keeps the tree cheap to build and traverse and trivially
//! borrow-checker-friendly for the layout engine's multiple passes.
//!
//! A [`Document<'src>`] borrows the source it was parsed from: a tag
//! name, attribute name or value, or text node is a slice of the page
//! unless decoding changed it (an entity, an uppercase name), and only
//! then owned. Every attribute lives in one per-document arena, and
//! every child list in one flat per-document array built once when the
//! tree is complete, so a parsed page is three allocations however
//! many nodes it has.

use std::borrow::Cow;
use std::fmt;

/// Index of a node within its [`Document`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One attribute: lowercased name, entity-decoded value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Attr<'src> {
    /// Lowercased attribute name.
    pub name: Cow<'src, str>,
    /// Entity-decoded value (empty for a boolean attribute).
    pub value: Cow<'src, str>,
}

/// An element's run of attributes in its document's attribute arena
/// (read them with [`Document::attrs`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AttrRange {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// Node payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NodeData<'src> {
    /// The synthetic document root.
    Document,
    /// An element with lowercased tag name and source-ordered attributes.
    Element {
        /// Lowercased tag name (`input`, `td`, …).
        tag: Cow<'src, str>,
        /// The element's attributes, in source order.
        attrs: AttrRange,
    },
    /// A text node (entities already decoded).
    Text(Cow<'src, str>),
}

/// One DOM node.
#[derive(Clone, Debug)]
pub struct Node<'src> {
    /// Payload.
    pub data: NodeData<'src>,
    /// Parent id; `None` only for the root.
    pub parent: Option<NodeId>,
    /// End of this node's run in the document's child array; the run
    /// starts where the previous node's ends.
    child_end: u32,
    /// The next child of the same parent.
    next_sibling: Option<NodeId>,
}

/// A parsed HTML document borrowing its source text.
#[derive(Clone, Debug)]
pub struct Document<'src> {
    nodes: Vec<Node<'src>>,
    /// Every element's attributes, element by element.
    pub(crate) attrs: Vec<Attr<'src>>,
    /// Every node's children, node by node, each run in document order.
    children: Vec<NodeId>,
}

impl<'src> Document<'src> {
    /// Creates a document containing only the root node.
    pub fn new() -> Self {
        Self::with_capacity(1, 0)
    }

    /// An empty document with room for `nodes` nodes and `attrs`
    /// attributes before either arena grows.
    pub(crate) fn with_capacity(nodes: usize, attrs: usize) -> Self {
        let mut arena = Vec::with_capacity(nodes.max(1));
        arena.push(Node {
            data: NodeData::Document,
            parent: None,
            child_end: 0,
            next_sibling: None,
        });
        Document {
            nodes: arena,
            attrs: Vec::with_capacity(attrs),
            children: Vec::new(),
        }
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes in the arena (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the document holds only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node<'src> {
        &self.nodes[id.index()]
    }

    /// Appends a new element under `parent` whose attributes are the
    /// arena run `attrs`, returning its id. Child lists are stale until
    /// [`Document::finish`].
    pub(crate) fn create_element(
        &mut self,
        parent: NodeId,
        tag: Cow<'src, str>,
        attrs: AttrRange,
    ) -> NodeId {
        self.push_node(parent, NodeData::Element { tag, attrs })
    }

    /// Appends a new text node under `parent`, returning its id. Child
    /// lists are stale until [`Document::finish`].
    pub(crate) fn create_text(&mut self, parent: NodeId, text: Cow<'src, str>) -> NodeId {
        self.push_node(parent, NodeData::Text(text))
    }

    fn push_node(&mut self, parent: NodeId, data: NodeData<'src>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            data,
            parent: Some(parent),
            child_end: 0,
            next_sibling: None,
        });
        id
    }

    /// Builds the child array and sibling links from the parent links,
    /// once the tree is complete. A counting sort by parent keeps each
    /// run in creation order, which is document order.
    pub(crate) fn finish(&mut self) {
        let nodes = &mut self.nodes;
        for i in 1..nodes.len() {
            let p = nodes[i].parent.expect("only the root has no parent");
            nodes[p.index()].child_end += 1;
        }
        // Child counts become run starts...
        let mut start = 0;
        for node in nodes.iter_mut() {
            let count = node.child_end;
            node.child_end = start;
            start += count;
        }
        // ...and filling each run moves its start to its end.
        self.children.clear();
        self.children.resize(nodes.len() - 1, NodeId(0));
        for i in 1..nodes.len() {
            let p = nodes[i].parent.expect("only the root has no parent");
            let at = &mut nodes[p.index()].child_end;
            self.children[*at as usize] = NodeId(i as u32);
            *at += 1;
        }
        for pair in self.children.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if nodes[a.index()].parent == nodes[b.index()].parent {
                nodes[a.index()].next_sibling = Some(b);
            }
        }
    }

    /// Tag name when the node is an element.
    pub fn tag(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).data {
            NodeData::Element { tag, .. } => Some(tag),
            _ => None,
        }
    }

    /// An element's attributes in source order (empty for other nodes).
    pub fn attrs(&self, id: NodeId) -> &[Attr<'src>] {
        match &self.node(id).data {
            NodeData::Element { attrs, .. } => {
                &self.attrs[attrs.start as usize..attrs.end as usize]
            }
            _ => &[],
        }
    }

    /// Attribute value (attributes are stored lowercased).
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attrs(id)
            .iter()
            .find(|a| a.name == name)
            .map(|a| &*a.value)
    }

    /// Text content when the node is a text node.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).data {
            NodeData::Text(t) => Some(t),
            _ => None,
        }
    }

    /// Children of a node, in document order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let start = match id.index() {
            0 => 0,
            i => self.nodes[i - 1].child_end,
        };
        &self.children[start as usize..self.node(id).child_end as usize]
    }

    /// Parent of a node.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Pre-order traversal of the subtree rooted at `id` (inclusive).
    /// Walks child, sibling and parent links, so it allocates nothing.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_, 'src> {
        Descendants {
            doc: self,
            root: id,
            next: Some(id),
        }
    }

    /// All descendant elements with the given tag, in document order.
    pub fn elements_by_tag(&self, root: NodeId, tag: &str) -> Vec<NodeId> {
        self.descendants(root)
            .filter(|&n| self.tag(n) == Some(tag))
            .collect()
    }

    /// Concatenated text of all text descendants (no separators).
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.descendants(id) {
            if let Some(t) = self.text(n) {
                out.push_str(t);
            }
        }
        out
    }

    /// [`Document::text_content`] with surrounding whitespace trimmed,
    /// borrowed from the tree when a single text node holds all of it
    /// (an `<option>` label, a button caption) — the common case
    /// copies nothing.
    pub fn trimmed_text(&self, id: NodeId) -> Cow<'_, str> {
        let mut texts = self.descendants(id).filter_map(|n| self.text(n));
        let Some(first) = texts.next() else {
            return Cow::Borrowed("");
        };
        let Some(second) = texts.next() else {
            return Cow::Borrowed(first.trim());
        };
        let mut all = String::from(first);
        all.push_str(second);
        texts.for_each(|t| all.push_str(t));
        Cow::Owned(all.trim().to_string())
    }

    /// Nearest ancestor (excluding `id` itself) with the given tag.
    pub fn ancestor_with_tag(&self, id: NodeId, tag: &str) -> Option<NodeId> {
        let mut cur = self.parent(id);
        while let Some(n) = cur {
            if self.tag(n) == Some(tag) {
                return Some(n);
            }
            cur = self.parent(n);
        }
        None
    }
}

impl Default for Document<'_> {
    fn default() -> Self {
        Self::new()
    }
}

/// Iterator over a subtree in pre-order (see [`Document::descendants`]).
pub struct Descendants<'d, 'src> {
    doc: &'d Document<'src>,
    root: NodeId,
    next: Option<NodeId>,
}

impl Iterator for Descendants<'_, '_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        // First child, else the next sibling of the nearest node on
        // the way back up to the root that has one.
        self.next = match self.doc.children(cur).first() {
            Some(&child) => Some(child),
            None => {
                let mut up = cur;
                loop {
                    if up == self.root {
                        break None;
                    }
                    let node = self.doc.node(up);
                    if node.next_sibling.is_some() {
                        break node.next_sibling;
                    }
                    match node.parent {
                        Some(p) => up = p,
                        None => break None,
                    }
                }
            }
        };
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends an element with `attrs` under `parent`.
    fn element<'s>(
        doc: &mut Document<'s>,
        parent: NodeId,
        tag: &'s str,
        attrs: &[(&'s str, &'s str)],
    ) -> NodeId {
        let start = doc.attrs.len() as u32;
        doc.attrs.extend(attrs.iter().map(|&(name, value)| Attr {
            name: name.into(),
            value: value.into(),
        }));
        let range = AttrRange {
            start,
            end: doc.attrs.len() as u32,
        };
        doc.create_element(parent, tag.into(), range)
    }

    fn sample() -> (Document<'static>, NodeId, NodeId, NodeId) {
        let mut doc = Document::new();
        let form = element(&mut doc, NodeId(0), "form", &[("action", "/q")]);
        let b = element(&mut doc, form, "b", &[]);
        doc.create_text(b, "Author".into());
        let input = element(&mut doc, form, "input", &[("type", "text"), ("name", "q")]);
        doc.finish();
        (doc, form, b, input)
    }

    #[test]
    fn build_and_navigate() {
        let (doc, form, b, input) = sample();
        assert_eq!(doc.tag(form), Some("form"));
        assert_eq!(doc.attr(form, "action"), Some("/q"));
        assert_eq!(doc.attr(input, "type"), Some("text"));
        assert_eq!(doc.attrs(input).len(), 2);
        assert!(doc.attrs(b).is_empty());
        assert_eq!(doc.children(form), &[b, input]);
        assert_eq!(doc.parent(b), Some(form));
        assert_eq!(doc.parent(doc.root()), None);
    }

    #[test]
    fn preorder_descendants() {
        let (doc, form, b, input) = sample();
        let order: Vec<NodeId> = doc.descendants(form).collect();
        assert_eq!(order.len(), 4); // form, b, text, input
        assert_eq!(order[0], form);
        assert_eq!(order[1], b);
        assert_eq!(order[3], input);
    }

    #[test]
    fn text_content_concatenates() {
        let (doc, form, ..) = sample();
        assert_eq!(doc.text_content(form), "Author");
    }

    #[test]
    fn descendants_stop_at_the_subtree() {
        let mut doc = Document::new();
        let root = doc.root();
        let a = element(&mut doc, root, "a", &[]);
        let b = element(&mut doc, a, "b", &[]);
        let c = element(&mut doc, root, "c", &[]);
        // A child appended to an earlier node after a later sibling.
        let d = element(&mut doc, a, "d", &[]);
        let e = element(&mut doc, b, "e", &[]);
        doc.finish();
        assert_eq!(doc.children(a), &[b, d]);
        assert_eq!(doc.descendants(a).collect::<Vec<_>>(), vec![a, b, e, d]);
        assert_eq!(doc.descendants(b).collect::<Vec<_>>(), vec![b, e]);
        assert_eq!(doc.descendants(c).collect::<Vec<_>>(), vec![c]);
        assert_eq!(
            doc.descendants(doc.root()).collect::<Vec<_>>(),
            vec![doc.root(), a, b, e, d, c]
        );
    }

    #[test]
    fn trimmed_text_borrows_a_single_text_node() {
        let mut doc = Document::new();
        let root = doc.root();
        let one = element(&mut doc, root, "option", &[]);
        doc.create_text(one, "  Coach \n".into());
        let two = element(&mut doc, root, "button", &[]);
        doc.create_text(two, " Find ".into());
        let b = element(&mut doc, two, "b", &[]);
        doc.create_text(b, "now ".into());
        let empty = element(&mut doc, root, "option", &[]);
        doc.finish();
        assert!(matches!(doc.trimmed_text(one), Cow::Borrowed("Coach")));
        assert_eq!(doc.trimmed_text(two), doc.text_content(two).trim());
        assert_eq!(doc.trimmed_text(empty), "");
    }

    #[test]
    fn elements_by_tag_finds_nested() {
        let (doc, form, _, input) = sample();
        assert_eq!(doc.elements_by_tag(doc.root(), "input"), vec![input]);
        assert_eq!(doc.elements_by_tag(form, "form"), vec![form]);
    }

    #[test]
    fn ancestor_lookup() {
        let (doc, form, b, _) = sample();
        let text = doc.children(b)[0];
        assert_eq!(doc.ancestor_with_tag(text, "form"), Some(form));
        assert_eq!(doc.ancestor_with_tag(text, "table"), None);
        assert_eq!(doc.ancestor_with_tag(form, "form"), None, "excludes self");
    }

    #[test]
    fn empty_document() {
        let doc = Document::new();
        assert!(doc.is_empty());
        assert_eq!(doc.len(), 1);
        assert!(doc.children(doc.root()).is_empty());
        assert_eq!(doc.text_content(doc.root()), "");
    }
}
