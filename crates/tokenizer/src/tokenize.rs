//! The tokenizer proper: laid-out DOM → token set.

use crate::classify::classify_select;
use crate::textrun::{merge_runs, RawRun};
use metaform_core::{BBox, Token, TokenFingerprint, TokenId, TokenKind};
use metaform_html::{Document, NodeId};
use metaform_layout::Layout;

/// A tokenized query interface.
#[derive(Clone, Debug)]
pub struct Tokenized {
    /// Tokens in reading order with dense ids `0..n`.
    pub tokens: Vec<Token>,
    /// Originating DOM node per token (text tokens may merge several
    /// nodes; the first is recorded). Parallel to `tokens`.
    pub nodes: Vec<Option<NodeId>>,
}

impl Tokenized {
    /// Tokens of the given kind, in reading order.
    pub fn of_kind(&self, kind: TokenKind) -> impl Iterator<Item = &Token> {
        self.tokens.iter().filter(move |t| t.kind == kind)
    }

    /// The token covering a DOM node, if any.
    pub fn token_of_node(&self, node: NodeId) -> Option<&Token> {
        self.nodes
            .iter()
            .position(|&n| n == Some(node))
            .map(|i| &self.tokens[i])
    }

    /// Content-addressed identity of this token stream, the key a
    /// revisit parse cache looks pages up by. Stable across sessions:
    /// two tokenizations of the same rendered form always agree.
    pub fn fingerprint(&self) -> TokenFingerprint {
        TokenFingerprint::of(&self.tokens)
    }
}

/// Tokenizes the first `<form>` in the document (or the whole document
/// when no form element exists — some sources inline their widgets).
///
/// ```
/// use metaform_core::TokenKind;
///
/// let doc = metaform_html::parse(
///     "<form>Author <input type='text' name='q'></form>");
/// let layout = metaform_layout::layout(&doc);
/// let tokenized = metaform_tokenizer::tokenize(&doc, &layout);
/// assert_eq!(tokenized.tokens.len(), 2);
/// assert_eq!(tokenized.tokens[0].sval, "Author");
/// assert_eq!(tokenized.tokens[1].kind, TokenKind::Textbox);
/// ```
pub fn tokenize(doc: &Document, layout: &Layout) -> Tokenized {
    let scope = doc
        .descendants(doc.root())
        .find(|&n| doc.tag(n) == Some("form"))
        .unwrap_or_else(|| doc.root());
    tokenize_scope(doc, layout, scope)
}

/// Tokenizes every `<form>` in the document separately — entry pages
/// often carry several (a site-wide keyword box plus the main query
/// form). Returns one token set per form, in document order; an empty
/// vector when the page has no form element.
pub fn tokenize_all_forms(doc: &Document, layout: &Layout) -> Vec<Tokenized> {
    doc.elements_by_tag(doc.root(), "form")
        .into_iter()
        .map(|form| tokenize_scope(doc, layout, form))
        .collect()
}

/// Tokenizes an explicit subtree.
pub fn tokenize_scope(doc: &Document, layout: &Layout, scope: NodeId) -> Tokenized {
    let mut widgets: Vec<(Token, NodeId)> = Vec::new();
    let mut runs: Vec<RawRun> = Vec::new();
    let mut run_nodes: Vec<(u32, NodeId)> = Vec::new(); // (line, node) keyed lookup

    let mut in_select_depth = 0usize;
    let mut select_stack: Vec<NodeId> = Vec::new();
    for node in doc.descendants(scope) {
        // Skip text inside <select>/<option>: it renders inside the
        // widget, not as free-standing text.
        while let Some(&top) = select_stack.last() {
            if is_descendant(doc, node, top) {
                break;
            }
            select_stack.pop();
            in_select_depth -= 1;
        }
        if let Some(tag) = doc.tag(node) {
            match tag {
                "select" => {
                    if let Some(t) = select_token(doc, layout, node) {
                        widgets.push((t, node));
                    }
                    select_stack.push(node);
                    in_select_depth += 1;
                }
                "input" => {
                    if let Some(t) = input_token(doc, layout, node) {
                        widgets.push((t, node));
                    }
                }
                "textarea" => {
                    if let Some(b) = layout.bbox(node) {
                        widgets.push((
                            Token::widget(0, TokenKind::TextArea, attr(doc, node, "name"), b),
                            node,
                        ));
                    }
                    // Its default text renders inside the widget.
                    select_stack.push(node);
                    in_select_depth += 1;
                }
                "button" => {
                    if let Some(b) = layout.bbox(node) {
                        let caption = doc.trimmed_text(node).into_owned();
                        widgets.push((
                            Token::widget(0, TokenKind::SubmitButton, attr(doc, node, "name"), b)
                                .with_sval(caption),
                            node,
                        ));
                    }
                    select_stack.push(node);
                    in_select_depth += 1;
                }
                _ => {}
            }
            continue;
        }
        if in_select_depth > 0 {
            continue;
        }
        if doc.text(node).is_some() {
            for f in layout.fragments(node) {
                let trimmed = f.text.trim();
                if trimmed.is_empty() {
                    continue;
                }
                runs.push(RawRun {
                    text: trimmed.to_string(),
                    bbox: f.bbox,
                    line: f.line,
                });
                run_nodes.push((f.line, node));
            }
        }
    }

    let obstacle_boxes: Vec<BBox> = widgets.iter().map(|(t, _)| t.pos).collect();
    let merged = merge_runs(runs, &obstacle_boxes);

    // Interleave text runs and widgets into reading order.
    enum Pending {
        Widget(Token, NodeId),
        Text(RawRun, Option<NodeId>),
    }
    let mut pending: Vec<Pending> = Vec::with_capacity(widgets.len() + merged.len());
    for (t, n) in widgets {
        pending.push(Pending::Widget(t, n));
    }
    for r in merged {
        let node = run_nodes
            .iter()
            .find(|(line, _)| *line == r.line)
            .map(|&(_, n)| n);
        pending.push(Pending::Text(r, node));
    }
    // Line boxes bottom-align their items, so (bottom, left) is reading
    // order even when a tall widget shares a line with short text.
    pending.sort_by_key(|p| match p {
        Pending::Widget(t, _) => (t.pos.bottom, t.pos.left),
        Pending::Text(r, _) => (r.bbox.bottom, r.bbox.left),
    });

    let mut tokens = Vec::with_capacity(pending.len());
    let mut nodes = Vec::with_capacity(pending.len());
    for (i, p) in pending.into_iter().enumerate() {
        match p {
            Pending::Widget(mut t, n) => {
                t.id = TokenId(i as u32);
                tokens.push(t);
                nodes.push(Some(n));
            }
            Pending::Text(r, n) => {
                tokens.push(Token::text(i as u32, r.text, r.bbox));
                nodes.push(n);
            }
        }
    }
    Tokenized { tokens, nodes }
}

fn is_descendant(doc: &Document, node: NodeId, ancestor: NodeId) -> bool {
    let mut cur = Some(node);
    while let Some(n) = cur {
        if n == ancestor {
            return true;
        }
        cur = doc.parent(n);
    }
    false
}

fn attr(doc: &Document, node: NodeId, name: &str) -> String {
    doc.attr(node, name).unwrap_or("").to_string()
}

fn select_token(doc: &Document, layout: &Layout, node: NodeId) -> Option<Token> {
    let bbox = layout.bbox(node)?;
    let options: Vec<String> = doc
        .descendants(node)
        .filter(|&o| doc.tag(o) == Some("option"))
        .map(|o| doc.trimmed_text(o))
        .filter(|s| !s.is_empty())
        .map(|s| s.into_owned())
        .collect();
    let kind = classify_select(&options);
    Some(Token::widget(0, kind, attr(doc, node, "name"), bbox).with_options(options))
}

fn input_token(doc: &Document, layout: &Layout, node: NodeId) -> Option<Token> {
    let ty = doc.attr(node, "type").unwrap_or("text");
    if ty.eq_ignore_ascii_case("hidden") {
        return None;
    }
    let bbox = layout.bbox(node)?;
    let name = attr(doc, node, "name");
    let value = attr(doc, node, "value");
    let checked = doc.attr(node, "checked").is_some();
    let known = [
        "radio", "checkbox", "submit", "reset", "button", "image", "file", "password",
    ];
    let ty = known
        .into_iter()
        .find(|k| ty.eq_ignore_ascii_case(k))
        .unwrap_or("text");
    let token = match ty {
        "radio" => Token::widget(0, TokenKind::Radiobutton, name, bbox)
            .with_sval(value)
            .with_checked(checked),
        "checkbox" => Token::widget(0, TokenKind::Checkbox, name, bbox)
            .with_sval(value)
            .with_checked(checked),
        "submit" => Token::widget(0, TokenKind::SubmitButton, name, bbox).with_sval(
            if value.trim().is_empty() {
                "Submit".to_string()
            } else {
                value
            },
        ),
        "reset" => Token::widget(0, TokenKind::ResetButton, name, bbox).with_sval(value),
        "button" => Token::widget(0, TokenKind::SubmitButton, name, bbox).with_sval(value),
        "image" => Token::widget(0, TokenKind::ImageInput, name, bbox),
        "file" => Token::widget(0, TokenKind::FileInput, name, bbox),
        "password" => Token::widget(0, TokenKind::Password, name, bbox),
        _ => Token::widget(0, TokenKind::Textbox, name, bbox).with_sval(value),
    };
    Some(token)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaform_html::parse;
    use metaform_layout::layout;

    fn toks(html: &str) -> Tokenized {
        let doc = parse(html);
        let lay = layout(&doc);
        tokenize(&doc, &lay)
    }

    #[test]
    fn amazon_author_row_tokens() {
        // The paper's Figure 5 fragment: caption, textbox, radio
        // buttons with captions.
        let t = toks(
            "<form>Author <input type=text name=query-0><br>\
             <input type=radio name=field-0 value=1> first name/initials and last name\
             <input type=radio name=field-0 value=2> start of last name\
             <input type=radio name=field-0 value=3 checked> exact name</form>",
        );
        let kinds: Vec<TokenKind> = t.tokens.iter().map(|x| x.kind).collect();
        assert_eq!(
            kinds.iter().filter(|k| **k == TokenKind::Text).count(),
            4,
            "Author + three captions: {kinds:?}"
        );
        assert_eq!(
            kinds
                .iter()
                .filter(|k| **k == TokenKind::Radiobutton)
                .count(),
            3
        );
        assert_eq!(
            kinds.iter().filter(|k| **k == TokenKind::Textbox).count(),
            1
        );
        // Reading order: "Author" first.
        assert_eq!(t.tokens[0].sval, "Author");
        // Radio captions preserved whole.
        assert!(t
            .tokens
            .iter()
            .any(|x| x.sval == "first name/initials and last name"));
        // The checked radio is marked.
        let checked: Vec<&Token> = t
            .tokens
            .iter()
            .filter(|x| x.kind == TokenKind::Radiobutton && x.checked)
            .collect();
        assert_eq!(checked.len(), 1);
        assert_eq!(checked[0].sval, "3");
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let t = toks("<form>A <input type=text name=a><br>B <input type=text name=b></form>");
        for (i, tok) in t.tokens.iter().enumerate() {
            assert_eq!(tok.id, TokenId(i as u32));
        }
        // Reading order: A-row tokens before B-row tokens.
        let a = t.tokens.iter().position(|x| x.sval == "A").unwrap();
        let b = t.tokens.iter().position(|x| x.sval == "B").unwrap();
        assert!(a < b);
    }

    #[test]
    fn select_classification_and_options() {
        let t = toks(
            "<form>Depart <select name=m><option>Jan<option>Feb<option>Mar<option>Apr\
             <option>May<option>Jun<option>Jul<option>Aug<option>Sep<option>Oct\
             <option>Nov<option>Dec</select>\
             <select name=class><option>Coach<option>First</select></form>",
        );
        assert_eq!(t.of_kind(TokenKind::MonthList).count(), 1);
        let class = t.of_kind(TokenKind::SelectionList).next().unwrap();
        assert_eq!(class.options, vec!["Coach", "First"]);
    }

    #[test]
    fn option_text_is_not_free_text() {
        let t = toks("<form><select name=s><option>Hardcover</select></form>");
        assert_eq!(t.of_kind(TokenKind::Text).count(), 0);
    }

    #[test]
    fn hidden_inputs_excluded() {
        let t = toks("<form><input type=hidden name=sid value=1><input type=text name=q></form>");
        assert_eq!(t.tokens.len(), 1);
        assert_eq!(t.tokens[0].kind, TokenKind::Textbox);
    }

    #[test]
    fn text_outside_form_excluded() {
        let t = toks("<h1>Welcome to MegaBooks</h1><form>Title <input type=text name=t></form>");
        assert_eq!(t.of_kind(TokenKind::Text).count(), 1);
        assert_eq!(t.of_kind(TokenKind::Text).next().unwrap().sval, "Title");
    }

    #[test]
    fn no_form_element_tokenizes_whole_page() {
        let t = toks("Keyword <input type=text name=k>");
        assert_eq!(t.tokens.len(), 2);
    }

    #[test]
    fn submit_buttons_and_captions() {
        let t = toks(
            r#"<form><input type=submit value="Find Flights"><input type=reset value=Clear></form>"#,
        );
        let submit = t.of_kind(TokenKind::SubmitButton).next().unwrap();
        assert_eq!(submit.sval, "Find Flights");
        assert_eq!(t.of_kind(TokenKind::ResetButton).count(), 1);
    }

    #[test]
    fn inline_markup_merges_into_one_caption() {
        let t = toks("<form><b>Price</b> Range: <input type=text name=p></form>");
        let texts: Vec<&Token> = t.of_kind(TokenKind::Text).collect();
        assert_eq!(texts.len(), 1);
        assert_eq!(texts[0].sval, "Price Range:");
    }

    #[test]
    fn table_cells_keep_captions_separate() {
        let t = toks(
            "<form><table><tr><td>From</td><td>To</td></tr>\
             <tr><td><input type=text name=f></td><td><input type=text name=to></td></tr></table></form>",
        );
        let texts: Vec<String> = t.of_kind(TokenKind::Text).map(|x| x.sval.clone()).collect();
        assert_eq!(texts, vec!["From", "To"]);
    }

    #[test]
    fn node_mapping_points_back() {
        let doc = parse("<form><input type=text name=q></form>");
        let lay = layout(&doc);
        let t = tokenize(&doc, &lay);
        let input = doc.elements_by_tag(doc.root(), "input")[0];
        assert_eq!(t.token_of_node(input).unwrap().kind, TokenKind::Textbox);
    }

    #[test]
    fn multiple_forms_tokenize_separately() {
        let doc = parse(
            "<form>Site search <input type=text name=q></form>\n\
             <form>Author <input type=text name=a><br>Title <input type=text name=t></form>",
        );
        let lay = layout(&doc);
        let forms = tokenize_all_forms(&doc, &lay);
        assert_eq!(forms.len(), 2);
        assert_eq!(forms[0].tokens.len(), 2);
        assert_eq!(forms[1].tokens.len(), 4);
        // Ids are dense within each form independently.
        assert_eq!(forms[1].tokens[0].id, TokenId(0));
        // tokenize() still picks the first form.
        assert_eq!(tokenize(&doc, &lay).tokens.len(), 2);
    }

    #[test]
    fn fingerprint_tracks_content_not_parse_order() {
        let a = toks("<form>Author <input type=text name=q></form>");
        let b = toks("<form>Author <input type=text name=q></form>");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint().tokens, 2);
        let edited = toks("<form>Title <input type=text name=q></form>");
        assert_ne!(a.fingerprint(), edited.fingerprint());
    }

    #[test]
    fn no_forms_yields_empty_vec() {
        let doc = parse("just text, no form");
        let lay = layout(&doc);
        assert!(tokenize_all_forms(&doc, &lay).is_empty());
    }

    #[test]
    fn paper_figure5_token_count() {
        // Figure 5 lists 16 tokens for the two-row fragment: 8 per row
        // (caption, textbox, 3 radios, 3 radio captions).
        let row = |attr: &str, f: &str| {
            format!(
                "{attr} <input type=text name=query-{f}><br>\
                 <input type=radio name=field-{f}> first words\
                 <input type=radio name=field-{f}> start of words\
                 <input type=radio name=field-{f}> exact phrase<br>"
            )
        };
        let html = format!("<form>{}{}</form>", row("Author", "0"), row("Title", "1"));
        let t = toks(&html);
        assert_eq!(t.tokens.len(), 16);
    }
}
