//! Arena-based DOM.
//!
//! Nodes live in a flat `Vec` and refer to each other by [`NodeId`],
//! which keeps the tree cheap to build and traverse and trivially
//! borrow-checker-friendly for the layout engine's multiple passes.

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

/// Node payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NodeData {
    /// The synthetic document root.
    Document,
    /// An element with lowercased tag name and source-ordered attributes.
    Element {
        /// Lowercased tag name (`input`, `td`, …).
        tag: String,
        /// `(name, value)` pairs; names lowercased, values entity-decoded.
        attrs: Vec<(String, String)>,
    },
    /// A text node (entities already decoded).
    Text(String),
}

/// One DOM node.
#[derive(Clone, Debug)]
pub struct Node {
    /// Payload.
    pub data: NodeData,
    /// Parent id; `None` only for the root.
    pub parent: Option<NodeId>,
    /// Children in document order.
    pub children: Vec<NodeId>,
}

/// A parsed HTML document.
#[derive(Clone, Debug)]
pub struct Document {
    nodes: Vec<Node>,
}

impl Document {
    /// Creates a document containing only the root node.
    pub fn new() -> Self {
        Self::with_capacity(1)
    }

    /// [`Document::new`], with room for `nodes` nodes before the arena
    /// grows.
    pub fn with_capacity(nodes: usize) -> Self {
        let mut arena = Vec::with_capacity(nodes.max(1));
        arena.push(Node {
            data: NodeData::Document,
            parent: None,
            children: Vec::new(),
        });
        Document { nodes: arena }
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
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Appends a new element under `parent`, returning its id.
    pub fn create_element(
        &mut self,
        parent: NodeId,
        tag: impl Into<String>,
        attrs: Vec<(String, String)>,
    ) -> NodeId {
        self.push_node(
            parent,
            NodeData::Element {
                tag: tag.into(),
                attrs,
            },
        )
    }

    /// Appends a new text node under `parent`, returning its id.
    pub fn create_text(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        self.push_node(parent, NodeData::Text(text.into()))
    }

    fn push_node(&mut self, parent: NodeId, data: NodeData) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            data,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Tag name when the node is an element.
    pub fn tag(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).data {
            NodeData::Element { tag, .. } => Some(tag),
            _ => None,
        }
    }

    /// Attribute value (attributes are stored lowercased).
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        match &self.node(id).data {
            NodeData::Element { attrs, .. } => attrs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str()),
            _ => None,
        }
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
        &self.node(id).children
    }

    /// Parent of a node.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Pre-order traversal of the subtree rooted at `id` (inclusive).
    /// Walks parent and sibling links, so it allocates nothing.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            root: id,
            next: Some(id),
        }
    }

    /// All descendant elements with the given tag, in document order.
    pub fn elements_by_tag<'a>(&'a self, root: NodeId, tag: &'a str) -> Vec<NodeId> {
        self.descendants(root)
            .filter(|&n| self.tag(n) == Some(tag))
            .collect()
    }

    /// Concatenated text of all text descendants (no separators).
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.descendants(id) {
            if let NodeData::Text(t) = &self.node(n).data {
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

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

/// Iterator over a subtree in pre-order (see [`Document::descendants`]).
pub struct Descendants<'a> {
    doc: &'a Document,
    root: NodeId,
    next: Option<NodeId>,
}

impl Document {
    /// The sibling after `id` under its parent. Children are appended
    /// in creation order, so every child list is sorted by id and the
    /// lookup is a binary search.
    fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        let siblings = self.children(self.parent(id)?);
        let at = siblings.binary_search(&id).ok()?;
        siblings.get(at + 1).copied()
    }
}

impl Iterator for Descendants<'_> {
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
                    if let Some(sib) = self.doc.next_sibling(up) {
                        break Some(sib);
                    }
                    match self.doc.parent(up) {
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

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        let mut doc = Document::new();
        let form = doc.create_element(doc.root(), "form", vec![("action".into(), "/q".into())]);
        let b = doc.create_element(form, "b", vec![]);
        doc.create_text(b, "Author");
        let input = doc.create_element(
            form,
            "input",
            vec![("type".into(), "text".into()), ("name".into(), "q".into())],
        );
        (doc, form, b, input)
    }

    #[test]
    fn build_and_navigate() {
        let (doc, form, b, input) = sample();
        assert_eq!(doc.tag(form), Some("form"));
        assert_eq!(doc.attr(form, "action"), Some("/q"));
        assert_eq!(doc.attr(input, "type"), Some("text"));
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
        let a = doc.create_element(doc.root(), "a", vec![]);
        let b = doc.create_element(a, "b", vec![]);
        let c = doc.create_element(doc.root(), "c", vec![]);
        // A child appended to an earlier node after a later sibling.
        let d = doc.create_element(a, "d", vec![]);
        let e = doc.create_element(b, "e", vec![]);
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
        let one = doc.create_element(doc.root(), "option", vec![]);
        doc.create_text(one, "  Coach \n");
        assert!(matches!(doc.trimmed_text(one), Cow::Borrowed("Coach")));
        let two = doc.create_element(doc.root(), "button", vec![]);
        doc.create_text(two, " Find ");
        let b = doc.create_element(two, "b", vec![]);
        doc.create_text(b, "now ");
        assert_eq!(doc.trimmed_text(two), doc.text_content(two).trim());
        let empty = doc.create_element(doc.root(), "option", vec![]);
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
        assert_eq!(doc.text_content(doc.root()), "");
    }
}
