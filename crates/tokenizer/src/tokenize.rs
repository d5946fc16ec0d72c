//! The tokenizer proper: laid-out DOM → token set.

use crate::classify::classify_select;
use crate::textrun::{merge_runs, Join, RawRun};
use metaform_core::{share, BBox, Text, TextList, Token, TokenFingerprint, TokenId, TokenKind};
use metaform_html::{Document, NodeId};
use metaform_layout::{layout_in, Layout, LayoutOptions, LayoutScratch};

/// A tokenized query interface.
#[derive(Clone, Debug)]
pub struct Tokenized {
    /// Tokens in reading order with dense ids `0..n`.
    pub tokens: Vec<Token>,
}

impl Tokenized {
    /// Tokens of the given kind, in reading order.
    pub fn of_kind(&self, kind: TokenKind) -> impl Iterator<Item = &Token> {
        self.tokens.iter().filter(move |t| t.kind == kind)
    }

    /// Content-addressed identity of this token stream, the key a
    /// revisit parse cache looks pages up by. Stable across sessions:
    /// two tokenizations of the same rendered form always agree.
    pub fn fingerprint(&self) -> TokenFingerprint {
        TokenFingerprint::of(&self.tokens)
    }
}

/// Working memory of [`tokenize_in`], kept from page to page by a
/// caller that tokenizes many: with it warm, a page allocates only
/// its token list and the texts its tokens carry.
#[derive(Debug, Default)]
pub struct TokenizeScratch {
    widgets: Vec<Token>,
    runs: Vec<RawRun>,
    obstacles: Vec<BBox>,
    /// The open `<select>`, `<textarea>` and `<button>` elements,
    /// whose text renders inside the widget.
    select_stack: Vec<NodeId>,
    /// A `<select>`'s labels, gathered before they are shared as the
    /// token's option list.
    labels: Vec<Text>,
    /// A merged text run's caption, joined before it is shared.
    joined: String,
}

/// The whole front end's working memory, held by a worker next to
/// its parse session: HTML → DOM → layout → tokens, page after page,
/// on recycled buffers.
#[derive(Debug, Default)]
pub struct FrontEnd {
    layout: LayoutScratch,
    tokens: TokenizeScratch,
}

impl FrontEnd {
    /// The 2-D tokens of the form in `html`: [`metaform_html::parse`],
    /// layout at the default viewport, then [`tokenize_in`].
    pub fn tokens(&mut self, html: &str) -> Vec<Token> {
        let doc = metaform_html::parse(html);
        let lay = layout_in(&doc, &LayoutOptions::default(), &mut self.layout);
        tokenize_in(&doc, &lay, &mut self.tokens).tokens
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
/// assert_eq!(&*tokenized.tokens[0].sval, "Author");
/// assert_eq!(tokenized.tokens[1].kind, TokenKind::Textbox);
/// ```
pub fn tokenize(doc: &Document, layout: &Layout) -> Tokenized {
    tokenize_in(doc, layout, &mut TokenizeScratch::default())
}

/// [`tokenize`] on the caller's recycled working memory.
pub fn tokenize_in(doc: &Document, layout: &Layout, scratch: &mut TokenizeScratch) -> Tokenized {
    let scope = doc
        .descendants(doc.root())
        .find(|&n| doc.tag(n) == Some("form"))
        .unwrap_or_else(|| doc.root());
    let TokenizeScratch {
        widgets,
        runs,
        obstacles,
        select_stack,
        labels,
        joined,
    } = scratch;
    widgets.clear();
    runs.clear();
    select_stack.clear();
    for node in doc.descendants(scope) {
        // Skip text inside <select>/<option>: it renders inside the
        // widget, not as free-standing text.
        while let Some(&top) = select_stack.last() {
            if is_descendant(doc, node, top) {
                break;
            }
            select_stack.pop();
        }
        if let Some(tag) = doc.tag(node) {
            match tag {
                "select" => {
                    if let Some(t) = select_token(doc, layout, node, labels) {
                        widgets.push(t);
                    }
                    select_stack.push(node);
                }
                "input" => {
                    if let Some(t) = input_token(doc, layout, node) {
                        widgets.push(t);
                    }
                }
                "textarea" => {
                    if let Some(b) = layout.bbox(node) {
                        widgets.push(Token::widget(
                            0,
                            TokenKind::TextArea,
                            attr(doc, node, "name"),
                            b,
                        ));
                    }
                    // Its default text renders inside the widget.
                    select_stack.push(node);
                }
                "button" => {
                    if let Some(b) = layout.bbox(node) {
                        let caption = share(&doc.trimmed_text(node));
                        widgets.push(
                            Token::widget(0, TokenKind::SubmitButton, attr(doc, node, "name"), b)
                                .with_sval(caption),
                        );
                    }
                    select_stack.push(node);
                }
                _ => {}
            }
            continue;
        }
        if !select_stack.is_empty() {
            continue;
        }
        for (k, f) in layout.fragments(node).iter().enumerate() {
            if f.text.trim().is_empty() {
                continue;
            }
            runs.push(RawRun {
                node,
                frag: k as u32,
                bbox: f.bbox,
                line: f.line,
                seq: runs.len() as u32,
                join: Join::Starts,
            });
        }
    }

    obstacles.clear();
    obstacles.extend(widgets.iter().map(|t| t.pos));
    merge_runs(runs, obstacles);

    // Interleave text runs and widgets into reading order. Line boxes
    // bottom-align their items, so (bottom, left) is reading order even
    // when a tall widget shares a line with short text; ties keep
    // widgets first, then text in run order.
    let texts = runs.iter().filter(|r| r.join == Join::Starts).count();
    let mut tokens = Vec::with_capacity(widgets.len() + texts);
    tokens.append(widgets);
    let mut rest = &runs[..];
    while let Some((first, tail)) = rest.split_first() {
        let len = 1 + tail.iter().take_while(|r| r.join != Join::Starts).count();
        let (group, after) = rest.split_at(len);
        rest = after;
        let bbox = group[1..].iter().fold(first.bbox, |b, r| b.union(&r.bbox));
        let sval = if len == 1 {
            share(run_text(layout, first))
        } else {
            joined.clear();
            for r in group {
                if r.join == Join::Spaced {
                    joined.push(' ');
                }
                joined.push_str(run_text(layout, r));
            }
            share(joined)
        };
        tokens.push(Token::text(0, sval, bbox));
    }
    for (i, t) in tokens.iter_mut().enumerate() {
        t.id = TokenId(i as u32);
    }
    tokens.sort_unstable_by_key(|t| (t.pos.bottom, t.pos.left, t.id));
    for (i, t) in tokens.iter_mut().enumerate() {
        t.id = TokenId(i as u32);
    }
    Tokenized { tokens }
}

/// A run's text: its fragment's, trimmed.
fn run_text<'l>(layout: &'l Layout, run: &RawRun) -> &'l str {
    layout.fragments(run.node)[run.frag as usize].text.trim()
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

fn attr(doc: &Document, node: NodeId, name: &str) -> Text {
    share(doc.attr(node, name).unwrap_or(""))
}

/// A `<select>`'s token; `labels` is a reused buffer.
fn select_token(
    doc: &Document,
    layout: &Layout,
    node: NodeId,
    labels: &mut Vec<Text>,
) -> Option<Token> {
    let bbox = layout.bbox(node)?;
    labels.clear();
    labels.extend(
        doc.descendants(node)
            .filter(|&o| doc.tag(o) == Some("option"))
            .map(|o| doc.trimmed_text(o))
            .filter(|s| !s.is_empty())
            .map(|s| Text::from(s.as_ref())),
    );
    let kind = classify_select(labels);
    let mut token = Token::widget(0, kind, attr(doc, node, "name"), bbox);
    if !labels.is_empty() {
        token.options = TextList::from(&labels[..]);
    }
    Some(token)
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
                Text::from("Submit")
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
        assert_eq!(&*t.tokens[0].sval, "Author");
        // Radio captions preserved whole.
        assert!(t
            .tokens
            .iter()
            .any(|x| &*x.sval == "first name/initials and last name"));
        // The checked radio is marked.
        let checked: Vec<&Token> = t
            .tokens
            .iter()
            .filter(|x| x.kind == TokenKind::Radiobutton && x.checked)
            .collect();
        assert_eq!(checked.len(), 1);
        assert_eq!(&*checked[0].sval, "3");
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let t = toks("<form>A <input type=text name=a><br>B <input type=text name=b></form>");
        for (i, tok) in t.tokens.iter().enumerate() {
            assert_eq!(tok.id, TokenId(i as u32));
        }
        // Reading order: A-row tokens before B-row tokens.
        let a = t.tokens.iter().position(|x| &*x.sval == "A").unwrap();
        let b = t.tokens.iter().position(|x| &*x.sval == "B").unwrap();
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
        assert_eq!(
            class.options[..],
            [Text::from("Coach"), Text::from("First")]
        );
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
        assert_eq!(&*t.of_kind(TokenKind::Text).next().unwrap().sval, "Title");
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
        assert_eq!(&*submit.sval, "Find Flights");
        assert_eq!(t.of_kind(TokenKind::ResetButton).count(), 1);
    }

    #[test]
    fn inline_markup_merges_into_one_caption() {
        let t = toks("<form><b>Price</b> Range: <input type=text name=p></form>");
        let texts: Vec<&Token> = t.of_kind(TokenKind::Text).collect();
        assert_eq!(texts.len(), 1);
        assert_eq!(&*texts[0].sval, "Price Range:");
    }

    #[test]
    fn table_cells_keep_captions_separate() {
        let t = toks(
            "<form><table><tr><td>From</td><td>To</td></tr>\
             <tr><td><input type=text name=f></td><td><input type=text name=to></td></tr></table></form>",
        );
        let texts: Vec<&str> = t.of_kind(TokenKind::Text).map(|x| &*x.sval).collect();
        assert_eq!(texts, vec!["From", "To"]);
    }

    #[test]
    fn tokenize_picks_the_first_form() {
        let doc = parse(
            "<form>Site search <input type=text name=q></form>\n\
             <form>Author <input type=text name=a><br>Title <input type=text name=t></form>",
        );
        let lay = layout(&doc);
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
