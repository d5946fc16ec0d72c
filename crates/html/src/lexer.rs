//! HTML token stream.
//!
//! A small, lenient lexer in the spirit of 2004-era browsers: tag and
//! attribute names are lowercased, attribute values may be single-quoted,
//! double-quoted, or bare, entities are decoded in text and attribute
//! values, and raw-text elements (`script`, `style`, `textarea`,
//! `title`) swallow their content up to the matching close tag.

use crate::entity::decode_entities;
use std::collections::VecDeque;

/// One lexical HTML token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum HtmlToken {
    /// `<name attr="v" …>`; `self_closing` records a trailing `/`.
    StartTag {
        /// Lowercased tag name.
        name: String,
        /// Attributes in source order; names lowercased, values decoded.
        attrs: Vec<(String, String)>,
        /// `<br/>`-style self-closing marker.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag {
        /// Lowercased tag name.
        name: String,
    },
    /// Character data between tags (entities decoded, whitespace kept).
    Text(String),
    /// `<!-- … -->` contents.
    Comment(String),
    /// `<!DOCTYPE …>` contents.
    Doctype(String),
}

/// Elements whose content is raw text up to the matching end tag.
fn is_raw_text(tag: &str) -> bool {
    matches!(tag, "script" | "style" | "textarea" | "title")
}

/// Lexes `input` into a token vector. Never fails: malformed markup
/// degrades to text, as in lenient browser parsing.
pub fn lex(input: &str) -> Vec<HtmlToken> {
    Lexer::new(input).collect()
}

/// The token stream of [`lex`], produced on demand: the tree builder
/// consumes tokens as they are lexed instead of buffering the page.
pub(crate) struct Lexer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Tokens lexed but not yet handed out (one markup step can yield
    /// up to three: a raw-text element's start tag, text and end tag).
    out: VecDeque<HtmlToken>,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Lexer {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            out: VecDeque::new(),
        }
    }
}

impl Iterator for Lexer<'_> {
    type Item = HtmlToken;

    fn next(&mut self) -> Option<HtmlToken> {
        loop {
            if let Some(token) = self.out.pop_front() {
                return Some(token);
            }
            if self.pos >= self.bytes.len() {
                return None;
            }
            if self.bytes[self.pos] == b'<' {
                self.lex_markup();
            } else {
                self.lex_text();
            }
        }
    }
}

impl<'a> Lexer<'a> {
    fn lex_text(&mut self) {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'<' {
            self.pos += 1;
        }
        let raw = &self.input[start..self.pos];
        if !raw.is_empty() {
            self.out
                .push_back(HtmlToken::Text(decode_entities(raw).into_owned()));
        }
    }

    fn lex_markup(&mut self) {
        debug_assert_eq!(self.bytes[self.pos], b'<');
        let rest = &self.bytes[self.pos + 1..];
        match rest.first() {
            Some(b'!') => self.lex_declaration(),
            Some(b'/') => self.lex_end_tag(),
            Some(c) if c.is_ascii_alphabetic() => self.lex_start_tag(),
            _ => {
                // Stray '<' — treat as text.
                self.out.push_back(HtmlToken::Text("<".to_string()));
                self.pos += 1;
            }
        }
    }

    fn lex_declaration(&mut self) {
        if self.input[self.pos..].starts_with("<!--") {
            let body_start = self.pos + 4;
            match self.input[body_start..].find("-->") {
                Some(rel) => {
                    self.out.push_back(HtmlToken::Comment(
                        self.input[body_start..body_start + rel].to_string(),
                    ));
                    self.pos = body_start + rel + 3;
                }
                None => {
                    // Unterminated comment swallows the rest.
                    self.out
                        .push_back(HtmlToken::Comment(self.input[body_start..].to_string()));
                    self.pos = self.bytes.len();
                }
            }
            return;
        }
        // <!DOCTYPE …> or other declaration: skip to '>'.
        let body_start = self.pos + 2;
        let end = self.input[body_start..]
            .find('>')
            .map(|r| body_start + r)
            .unwrap_or(self.bytes.len());
        self.out.push_back(HtmlToken::Doctype(
            self.input[body_start..end].trim().to_string(),
        ));
        self.pos = (end + 1).min(self.bytes.len());
    }

    fn lex_end_tag(&mut self) {
        let name_start = self.pos + 2;
        let mut i = name_start;
        while i < self.bytes.len() && self.bytes[i] != b'>' {
            i += 1;
        }
        let name = self.input[name_start..i]
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_lowercase();
        if !name.is_empty() {
            self.out.push_back(HtmlToken::EndTag { name });
        }
        self.pos = (i + 1).min(self.bytes.len());
    }

    fn lex_start_tag(&mut self) {
        let name_start = self.pos + 1;
        let mut i = name_start;
        while i < self.bytes.len()
            && !matches!(self.bytes[i], b' ' | b'\t' | b'\n' | b'\r' | b'>' | b'/')
        {
            i += 1;
        }
        let name = self.input[name_start..i].to_lowercase();
        self.pos = i;
        let (attrs, self_closing) = self.lex_attributes();
        let raw = (is_raw_text(&name) && !self_closing).then(|| name.clone());
        self.out.push_back(HtmlToken::StartTag {
            name,
            attrs,
            self_closing,
        });
        if let Some(name) = raw {
            self.lex_raw_text(name);
        }
    }

    /// Consumes attributes up to and including the closing `>`.
    fn lex_attributes(&mut self) -> (Vec<(String, String)>, bool) {
        let mut attrs = Vec::new();
        let mut self_closing = false;
        loop {
            self.skip_whitespace();
            match self.bytes.get(self.pos) {
                None => break,
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.bytes.get(self.pos) == Some(&b'>') {
                        self.pos += 1;
                        self_closing = true;
                        break;
                    }
                }
                Some(_) => {
                    if let Some(attr) = self.lex_one_attribute() {
                        attrs.push(attr);
                    }
                }
            }
        }
        (attrs, self_closing)
    }

    fn lex_one_attribute(&mut self) -> Option<(String, String)> {
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
        let name = self.input[start..self.pos].to_lowercase();
        self.skip_whitespace();
        if self.bytes.get(self.pos) != Some(&b'=') {
            return Some((name, String::new())); // boolean attribute
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
        Some((name, decode_entities(value).into_owned()))
    }

    /// After a raw-text start tag: swallow content until `</name`
    /// (matched ASCII case-insensitively; raw-text tag names are ASCII).
    fn lex_raw_text(&mut self, name: String) {
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
        if !content.is_empty() {
            // textarea/title content is real text; script/style is not,
            // but the tree builder drops those nodes anyway.
            self.out
                .push_back(HtmlToken::Text(decode_entities(content).into_owned()));
        }
        self.pos += rel;
        if self.pos < self.bytes.len() {
            // We are looking at "</name ... >".
            let end = self.input[self.pos..]
                .find('>')
                .map(|r| self.pos + r)
                .unwrap_or(self.bytes.len());
            self.out.push_back(HtmlToken::EndTag { name });
            self.pos = (end + 1).min(self.bytes.len());
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

    fn start(name: &str, attrs: &[(&str, &str)]) -> HtmlToken {
        HtmlToken::StartTag {
            name: name.into(),
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            self_closing: false,
        }
    }

    #[test]
    fn simple_tag_text_tag() {
        let toks = lex("<b>Author</b>");
        assert_eq!(
            toks,
            vec![
                start("b", &[]),
                HtmlToken::Text("Author".into()),
                HtmlToken::EndTag { name: "b".into() },
            ]
        );
    }

    #[test]
    fn attributes_all_quote_styles() {
        let toks = lex(r#"<input type="text" name='q' size=20 disabled>"#);
        assert_eq!(
            toks,
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
        let toks = lex("<INPUT TYPE=RADIO VALUE=Yes>");
        assert_eq!(
            toks,
            vec![start("input", &[("type", "RADIO"), ("value", "Yes")])]
        );
    }

    #[test]
    fn self_closing_tag() {
        let toks = lex("<br/>");
        assert_eq!(
            toks,
            vec![HtmlToken::StartTag {
                name: "br".into(),
                attrs: vec![],
                self_closing: true,
            }]
        );
    }

    #[test]
    fn comments_and_doctype() {
        let toks = lex("<!DOCTYPE html><!-- hi --><p>x</p>");
        assert_eq!(toks[0], HtmlToken::Doctype("DOCTYPE html".into()));
        assert_eq!(toks[1], HtmlToken::Comment(" hi ".into()));
        assert_eq!(toks[2], start("p", &[]));
    }

    #[test]
    fn entities_decoded_in_text_and_attrs() {
        let toks = lex(r#"<option value="B&amp;N">Barnes &amp; Noble</option>"#);
        assert_eq!(toks[0], start("option", &[("value", "B&N")]));
        assert_eq!(toks[1], HtmlToken::Text("Barnes & Noble".into()));
    }

    #[test]
    fn textarea_is_raw_text() {
        let toks = lex("<textarea><b>not bold</b></textarea>");
        assert_eq!(
            toks,
            vec![
                start("textarea", &[]),
                HtmlToken::Text("<b>not bold</b>".into()),
                HtmlToken::EndTag {
                    name: "textarea".into()
                },
            ]
        );
    }

    #[test]
    fn script_content_swallowed_as_one_text() {
        let toks = lex("<script>if (a<b) { x(); }</script><p>y</p>");
        assert_eq!(toks[0], start("script", &[]));
        assert_eq!(toks[1], HtmlToken::Text("if (a<b) { x(); }".into()));
        assert_eq!(
            toks[2],
            HtmlToken::EndTag {
                name: "script".into()
            }
        );
    }

    #[test]
    fn stray_lt_is_text() {
        let toks = lex("a < b");
        let joined: String = toks
            .iter()
            .map(|t| match t {
                HtmlToken::Text(s) => s.clone(),
                _ => String::new(),
            })
            .collect();
        assert_eq!(joined, "a < b");
    }

    #[test]
    fn unterminated_structures_do_not_hang() {
        assert!(!lex("<!-- never closed").is_empty());
        assert!(!lex("<input type=").is_empty());
        assert!(lex("</>").is_empty());
        let _ = lex("<");
    }

    #[test]
    fn end_tag_with_junk_space() {
        let toks = lex("</ p >");
        assert_eq!(toks, vec![HtmlToken::EndTag { name: "p".into() }]);
    }
}
