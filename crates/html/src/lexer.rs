//! HTML token stream.
//!
//! A small, lenient lexer in the spirit of 2004-era browsers: tag and
//! attribute names are lowercased, attribute values may be single-quoted,
//! double-quoted, or bare, entities are decoded in text and attribute
//! values, and raw-text elements (`script`, `style`, `textarea`,
//! `title`) swallow their content up to the matching close tag.

use crate::dom::{Attr, AttrRange};
use crate::entity::decode_entities;
use std::borrow::Cow;

/// One lexical HTML token, borrowing the source wherever decoding
/// left the text unchanged.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HtmlToken<'src> {
    /// `<name attr="v" …>`; `self_closing` records a trailing `/`.
    StartTag {
        /// Lowercased tag name.
        name: Cow<'src, str>,
        /// The tag's attributes: a run appended to the caller's
        /// attribute arena, in source order.
        attrs: AttrRange,
        /// `<br/>`-style self-closing marker.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag {
        /// Lowercased tag name.
        name: Cow<'src, str>,
    },
    /// Character data between tags (entities decoded, whitespace kept).
    Text(Cow<'src, str>),
    /// `<!-- … -->` contents.
    Comment(&'src str),
    /// `<!DOCTYPE …>` contents.
    Doctype(&'src str),
}

/// The element whose content is raw text up to its end tag, if `tag`
/// names one.
fn raw_text_element(tag: &str) -> Option<&'static str> {
    ["script", "style", "textarea", "title"]
        .into_iter()
        .find(|&raw| raw == tag)
}

/// `name` lowercased, borrowed when it already is: only a name with an
/// ASCII-uppercase or non-ASCII byte is copied.
fn lowercase(name: &str) -> Cow<'_, str> {
    if name
        .bytes()
        .any(|b| b.is_ascii_uppercase() || !b.is_ascii())
    {
        Cow::Owned(name.to_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// Lexes `input` into a token vector and the attribute arena its start
/// tags index. Never fails: malformed markup degrades to text, as in
/// lenient browser parsing.
pub fn lex(input: &str) -> (Vec<HtmlToken<'_>>, Vec<Attr<'_>>) {
    let mut lexer = Lexer::new(input);
    let mut attrs = Vec::new();
    let mut tokens = Vec::new();
    while let Some(token) = lexer.next_token(&mut attrs) {
        tokens.push(token);
    }
    (tokens, attrs)
}

/// Where the lexer stands inside a raw-text element.
#[derive(Clone, Copy)]
enum Raw {
    /// Ordinary markup.
    Markup,
    /// Just after the named element's start tag: its content is next.
    Content(&'static str),
    /// At the named element's end tag.
    End(&'static str),
}

/// The token stream of [`lex`], produced on demand: the tree builder
/// consumes tokens as they are lexed instead of buffering the page.
pub(crate) struct Lexer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    raw: Raw,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Lexer {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            raw: Raw::Markup,
        }
    }

    /// The next token; a start tag's attributes are appended to
    /// `attrs`, and the token names their run.
    pub(crate) fn next_token(&mut self, attrs: &mut Vec<Attr<'a>>) -> Option<HtmlToken<'a>> {
        loop {
            match self.raw {
                Raw::Content(name) => {
                    if let Some(text) = self.lex_raw_text(name) {
                        return Some(text);
                    }
                    continue;
                }
                Raw::End(name) => return Some(self.lex_raw_end(name)),
                Raw::Markup => {}
            }
            if self.pos >= self.bytes.len() {
                return None;
            }
            let token = if self.bytes[self.pos] == b'<' {
                self.lex_markup(attrs)
            } else {
                Some(self.lex_text())
            };
            if token.is_some() {
                return token;
            }
        }
    }

    fn lex_text(&mut self) -> HtmlToken<'a> {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'<' {
            self.pos += 1;
        }
        HtmlToken::Text(decode_entities(&self.input[start..self.pos]))
    }

    fn lex_markup(&mut self, attrs: &mut Vec<Attr<'a>>) -> Option<HtmlToken<'a>> {
        debug_assert_eq!(self.bytes[self.pos], b'<');
        let rest = &self.bytes[self.pos + 1..];
        match rest.first() {
            Some(b'!') => Some(self.lex_declaration()),
            Some(b'/') => self.lex_end_tag(),
            Some(c) if c.is_ascii_alphabetic() => Some(self.lex_start_tag(attrs)),
            _ => {
                // Stray '<' — treat as text.
                self.pos += 1;
                Some(HtmlToken::Text(Cow::Borrowed("<")))
            }
        }
    }

    fn lex_declaration(&mut self) -> HtmlToken<'a> {
        if self.input[self.pos..].starts_with("<!--") {
            let body_start = self.pos + 4;
            return match self.input[body_start..].find("-->") {
                Some(rel) => {
                    self.pos = body_start + rel + 3;
                    HtmlToken::Comment(&self.input[body_start..body_start + rel])
                }
                None => {
                    // Unterminated comment swallows the rest.
                    self.pos = self.bytes.len();
                    HtmlToken::Comment(&self.input[body_start..])
                }
            };
        }
        // <!DOCTYPE …> or other declaration: skip to '>'.
        let body_start = self.pos + 2;
        let end = self.input[body_start..]
            .find('>')
            .map(|r| body_start + r)
            .unwrap_or(self.bytes.len());
        self.pos = (end + 1).min(self.bytes.len());
        HtmlToken::Doctype(self.input[body_start..end].trim())
    }

    fn lex_end_tag(&mut self) -> Option<HtmlToken<'a>> {
        let name_start = self.pos + 2;
        let mut i = name_start;
        while i < self.bytes.len() && self.bytes[i] != b'>' {
            i += 1;
        }
        self.pos = (i + 1).min(self.bytes.len());
        let name = self.input[name_start..i].split_whitespace().next()?;
        Some(HtmlToken::EndTag {
            name: lowercase(name),
        })
    }

    fn lex_start_tag(&mut self, attrs: &mut Vec<Attr<'a>>) -> HtmlToken<'a> {
        let name_start = self.pos + 1;
        let mut i = name_start;
        while i < self.bytes.len()
            && !matches!(self.bytes[i], b' ' | b'\t' | b'\n' | b'\r' | b'>' | b'/')
        {
            i += 1;
        }
        let name = lowercase(&self.input[name_start..i]);
        self.pos = i;
        let start = attrs.len() as u32;
        let self_closing = self.lex_attributes(attrs);
        if !self_closing {
            if let Some(raw) = raw_text_element(&name) {
                self.raw = Raw::Content(raw);
            }
        }
        HtmlToken::StartTag {
            name,
            attrs: AttrRange {
                start,
                end: attrs.len() as u32,
            },
            self_closing,
        }
    }

    /// Consumes attributes up to and including the closing `>`,
    /// appending them to `attrs`; returns the self-closing marker.
    fn lex_attributes(&mut self, attrs: &mut Vec<Attr<'a>>) -> bool {
        loop {
            self.skip_whitespace();
            match self.bytes.get(self.pos) {
                None => return false,
                Some(b'>') => {
                    self.pos += 1;
                    return false;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.bytes.get(self.pos) == Some(&b'>') {
                        self.pos += 1;
                        return true;
                    }
                }
                Some(_) => {
                    if let Some(attr) = self.lex_one_attribute() {
                        attrs.push(attr);
                    }
                }
            }
        }
    }

    fn lex_one_attribute(&mut self) -> Option<Attr<'a>> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && !matches!(
                self.bytes[self.pos],
                b'=' | b'>' | b'/' | b' ' | b'\t' | b'\n' | b'\r'
            )
        {
            self.pos += 1;
        }
        if self.pos == start {
            // Stray character we cannot parse; skip it to guarantee progress.
            self.pos += 1;
            return None;
        }
        let name = lowercase(&self.input[start..self.pos]);
        self.skip_whitespace();
        if self.bytes.get(self.pos) != Some(&b'=') {
            // Boolean attribute.
            return Some(Attr {
                name,
                value: Cow::Borrowed(""),
            });
        }
        self.pos += 1; // '='
        self.skip_whitespace();
        let value = match self.bytes.get(self.pos) {
            Some(&q @ (b'"' | b'\'')) => {
                self.pos += 1;
                let vstart = self.pos;
                while self.pos < self.bytes.len() && self.bytes[self.pos] != q {
                    self.pos += 1;
                }
                let v = &self.input[vstart..self.pos];
                self.pos = (self.pos + 1).min(self.bytes.len());
                v
            }
            _ => {
                let vstart = self.pos;
                while self.pos < self.bytes.len()
                    && !matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r' | b'>')
                {
                    self.pos += 1;
                }
                &self.input[vstart..self.pos]
            }
        };
        Some(Attr {
            name,
            value: decode_entities(value),
        })
    }

    /// After a raw-text start tag: swallows content until `</name`
    /// (matched ASCII case-insensitively; raw-text tag names are ASCII)
    /// and returns it as text, or `None` when it is empty.
    fn lex_raw_text(&mut self, name: &'static str) -> Option<HtmlToken<'a>> {
        let rest = &self.bytes[self.pos..];
        let rel = (0..rest.len())
            .find(|&i| {
                rest[i..].starts_with(b"</")
                    && rest[i + 2..]
                        .get(..name.len())
                        .is_some_and(|n| n.eq_ignore_ascii_case(name.as_bytes()))
            })
            .unwrap_or(rest.len());
        let content = &self.input[self.pos..self.pos + rel];
        self.pos += rel;
        self.raw = if self.pos < self.bytes.len() {
            Raw::End(name)
        } else {
            Raw::Markup
        };
        // textarea/title content is real text; script/style is not,
        // but the tree builder drops those nodes anyway.
        (!content.is_empty()).then(|| HtmlToken::Text(decode_entities(content)))
    }

    /// At a raw-text element's `</name ... >`: consumes it.
    fn lex_raw_end(&mut self, name: &'static str) -> HtmlToken<'a> {
        let end = self.input[self.pos..]
            .find('>')
            .map(|r| self.pos + r)
            .unwrap_or(self.bytes.len());
        self.pos = (end + 1).min(self.bytes.len());
        self.raw = Raw::Markup;
        HtmlToken::EndTag {
            name: Cow::Borrowed(name),
        }
    }

    fn skip_whitespace(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A token with its attributes resolved from the arena.
    #[derive(Debug, PartialEq)]
    enum Tok {
        Start(String, Vec<(String, String)>, bool),
        End(String),
        Text(String),
        Comment(String),
        Doctype(String),
    }

    fn toks(input: &str) -> Vec<Tok> {
        let (tokens, attrs) = lex(input);
        tokens
            .into_iter()
            .map(|t| match t {
                HtmlToken::StartTag {
                    name,
                    attrs: run,
                    self_closing,
                } => Tok::Start(
                    name.into_owned(),
                    attrs[run.start as usize..run.end as usize]
                        .iter()
                        .map(|a| (a.name.to_string(), a.value.to_string()))
                        .collect(),
                    self_closing,
                ),
                HtmlToken::EndTag { name } => Tok::End(name.into_owned()),
                HtmlToken::Text(t) => Tok::Text(t.into_owned()),
                HtmlToken::Comment(c) => Tok::Comment(c.to_string()),
                HtmlToken::Doctype(d) => Tok::Doctype(d.to_string()),
            })
            .collect()
    }

    fn start(name: &str, attrs: &[(&str, &str)]) -> Tok {
        Tok::Start(
            name.into(),
            attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            false,
        )
    }

    fn end(name: &str) -> Tok {
        Tok::End(name.into())
    }

    fn text(t: &str) -> Tok {
        Tok::Text(t.into())
    }

    #[test]
    fn simple_tag_text_tag() {
        assert_eq!(
            toks("<b>Author</b>"),
            vec![start("b", &[]), text("Author"), end("b")]
        );
    }

    #[test]
    fn attributes_all_quote_styles() {
        assert_eq!(
            toks(r#"<input type="text" name='q' size=20 disabled>"#),
            vec![start(
                "input",
                &[
                    ("type", "text"),
                    ("name", "q"),
                    ("size", "20"),
                    ("disabled", "")
                ]
            )]
        );
    }

    #[test]
    fn names_are_lowercased() {
        assert_eq!(
            toks("<INPUT TYPE=RADIO VALUE=Yes></INPUT>"),
            vec![
                start("input", &[("type", "RADIO"), ("value", "Yes")]),
                end("input")
            ]
        );
    }

    #[test]
    fn lowercase_names_and_plain_values_are_borrowed() {
        let input = r#"<td class="row">Plain text</td><TD CLASS=a&amp;b>"#;
        let (tokens, attrs) = lex(input);
        let HtmlToken::StartTag { name, .. } = &tokens[0] else {
            panic!("{:?}", tokens[0]);
        };
        assert!(matches!(name, Cow::Borrowed("td")));
        assert!(matches!(attrs[0].name, Cow::Borrowed("class")));
        assert!(matches!(attrs[0].value, Cow::Borrowed("row")));
        assert!(matches!(
            tokens[1],
            HtmlToken::Text(Cow::Borrowed("Plain text"))
        ));
        assert!(matches!(
            tokens[2],
            HtmlToken::EndTag {
                name: Cow::Borrowed("td")
            }
        ));
        // Uppercase names and entity-bearing values are decoded copies.
        let HtmlToken::StartTag { name, .. } = &tokens[3] else {
            panic!("{:?}", tokens[3]);
        };
        assert!(matches!(name, Cow::Owned(n) if n == "td"));
        assert!(matches!(&attrs[1].name, Cow::Owned(n) if n == "class"));
        assert!(matches!(&attrs[1].value, Cow::Owned(v) if v == "a&b"));
    }

    #[test]
    fn self_closing_tag() {
        assert_eq!(toks("<br/>"), vec![Tok::Start("br".into(), vec![], true)]);
    }

    #[test]
    fn comments_and_doctype() {
        let toks = toks("<!DOCTYPE html><!-- hi --><p>x</p>");
        assert_eq!(toks[0], Tok::Doctype("DOCTYPE html".into()));
        assert_eq!(toks[1], Tok::Comment(" hi ".into()));
        assert_eq!(toks[2], start("p", &[]));
    }

    #[test]
    fn entities_decoded_in_text_and_attrs() {
        let toks = toks(r#"<option value="B&amp;N">Barnes &amp; Noble</option>"#);
        assert_eq!(toks[0], start("option", &[("value", "B&N")]));
        assert_eq!(toks[1], text("Barnes & Noble"));
    }

    #[test]
    fn textarea_is_raw_text() {
        assert_eq!(
            toks("<textarea><b>not bold</b></textarea>"),
            vec![
                start("textarea", &[]),
                text("<b>not bold</b>"),
                end("textarea")
            ]
        );
    }

    #[test]
    fn empty_and_unterminated_raw_text() {
        assert_eq!(
            toks("<title></TITLE>x"),
            vec![start("title", &[]), end("title"), text("x")]
        );
        assert_eq!(toks("<style>p{}"), vec![start("style", &[]), text("p{}")]);
    }

    #[test]
    fn script_content_swallowed_as_one_text() {
        let toks = toks("<script>if (a<b) { x(); }</script><p>y</p>");
        assert_eq!(toks[0], start("script", &[]));
        assert_eq!(toks[1], text("if (a<b) { x(); }"));
        assert_eq!(toks[2], end("script"));
    }

    #[test]
    fn stray_lt_is_text() {
        let joined: String = toks("a < b")
            .into_iter()
            .map(|t| match t {
                Tok::Text(s) => s,
                _ => String::new(),
            })
            .collect();
        assert_eq!(joined, "a < b");
    }

    #[test]
    fn unterminated_structures_do_not_hang() {
        assert!(!toks("<!-- never closed").is_empty());
        assert!(!toks("<input type=").is_empty());
        assert!(toks("</>").is_empty());
        let _ = toks("<");
    }

    #[test]
    fn end_tag_with_junk_space() {
        assert_eq!(toks("</ p >"), vec![end("p")]);
    }
}
