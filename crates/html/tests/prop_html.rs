//! Property tests: the HTML pipeline never panics and preserves text.

use metaform_html::entity::decode_entities;
use metaform_html::{parse, Document, NodeId};
use proptest::prelude::*;

/// Markup pieces the tree builder treats specially: implied and
/// recovered closes, scope barriers, void and dropped elements.
const PIECES: &[&str] = &[
    "<b>",
    "</b>",
    "<TD>",
    "</td>",
    "<tr>",
    "</TR>",
    "<table>",
    "</table>",
    "<p>",
    "</p>",
    "<option>",
    "<select name=s>",
    "</select>",
    "<form>",
    "</form>",
    "<input name=q>",
    "<br>",
    "<li>",
    "<ul>",
    "</ul>",
    "<script>x</script>",
    "<textarea>t</textarea>",
    "Author",
    " ",
    "&amp;",
    "<",
    "</ div >",
    "<img/>",
];

/// Checks `children` and `descendants` against the order the parent
/// links alone imply: each child list is the parent's children in
/// creation order, and each traversal is the pre-order over them.
fn check_child_order(doc: &Document) -> Result<(), TestCaseError> {
    let mut kids: Vec<Vec<NodeId>> = vec![Vec::new(); doc.len()];
    for i in 1..doc.len() {
        let id = NodeId(i as u32);
        let parent = doc.parent(id).expect("only the root has no parent");
        kids[parent.index()].push(id);
    }
    fn preorder(kids: &[Vec<NodeId>], id: NodeId, out: &mut Vec<NodeId>) {
        out.push(id);
        for &c in &kids[id.index()] {
            preorder(kids, c, out);
        }
    }
    for i in 0..doc.len() {
        let id = NodeId(i as u32);
        prop_assert_eq!(doc.children(id), &kids[i][..]);
        let mut want = Vec::new();
        preorder(&kids, id, &mut want);
        prop_assert_eq!(doc.descendants(id).collect::<Vec<_>>(), want);
    }
    Ok(())
}

proptest! {
    /// Arbitrary byte soup must never panic the lexer/tree builder.
    #[test]
    fn parser_total_on_arbitrary_input(s in "\\PC{0,300}") {
        let doc = parse(&s);
        // Traversal must terminate and visit every node exactly once.
        let visited = doc.descendants(doc.root()).count();
        prop_assert_eq!(visited, doc.len());
        check_child_order(&doc)?;
    }

    /// Tag soup: every child list and traversal follows creation order.
    #[test]
    fn child_lists_follow_creation_order(picks in proptest::collection::vec(0usize..PIECES.len(), 0..60)) {
        let html: String = picks.iter().map(|&i| PIECES[i]).collect();
        let doc = parse(&html);
        check_child_order(&doc)?;
    }

    /// Tag-free text round-trips through parse + text_content.
    #[test]
    fn plain_text_round_trips(s in "[a-zA-Z0-9 ,.:;!?-]{0,120}") {
        let doc = parse(&s);
        prop_assert_eq!(doc.text_content(doc.root()), s);
    }

    /// Entity encoding of the HTML-significant characters round-trips.
    #[test]
    fn escaped_text_round_trips(s in "[a-zA-Z<>&\"' ]{0,80}") {
        let escaped = s
            .replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;");
        let doc = parse(&escaped);
        prop_assert_eq!(doc.text_content(doc.root()), s);
    }

    /// decode_entities is idempotent on entity-free output alphabets.
    #[test]
    fn decode_idempotent_without_amp(s in "[a-zA-Z0-9 ;#]{0,60}") {
        let once = decode_entities(&s);
        let twice = decode_entities(&once);
        prop_assert_eq!(once, twice);
    }

    /// Every attribute written in canonical form is recoverable.
    #[test]
    fn attributes_round_trip(name in "[a-z]{1,8}", value in "[a-zA-Z0-9 _.-]{0,20}") {
        let html = format!("<input {name}=\"{value}\">");
        let doc = parse(&html);
        let input = doc.elements_by_tag(doc.root(), "input")[0];
        prop_assert_eq!(doc.attr(input, &name), Some(value.as_str()));
    }

    /// Balanced nesting of inline tags preserves depth-order text.
    #[test]
    fn nested_inline_tags_preserve_text(words in proptest::collection::vec("[a-z]{1,6}", 1..6)) {
        let mut html = String::new();
        for w in &words {
            html.push_str(&format!("<b>{w}</b> "));
        }
        let doc = parse(&html);
        let expect: String = words.iter().map(|w| format!("{w} ")).collect();
        prop_assert_eq!(doc.text_content(doc.root()), expect);
        check_child_order(&doc)?;
    }
}
