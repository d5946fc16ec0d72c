//! Character-entity decoding.
//!
//! Query forms of the era lean on a small set of named entities
//! (`&nbsp;` for spacing above all) plus numeric references. We decode
//! the common named set and all numeric forms; unknown entities are left
//! verbatim, which is what browsers of the time did.

use std::borrow::Cow;

/// Named entities we resolve, sorted by name for binary search.
static NAMED: &[(&str, char)] = &[
    ("AMP", '&'),
    ("GT", '>'),
    ("LT", '<'),
    ("QUOT", '"'),
    ("amp", '&'),
    ("apos", '\''),
    ("bull", '\u{2022}'),
    ("cent", '¢'),
    ("copy", '©'),
    ("deg", '°'),
    ("divide", '÷'),
    ("euro", '€'),
    ("frac12", '½'),
    ("frac14", '¼'),
    ("gt", '>'),
    ("hellip", '\u{2026}'),
    ("laquo", '«'),
    ("ldquo", '\u{201C}'),
    ("lsquo", '\u{2018}'),
    ("lt", '<'),
    ("mdash", '\u{2014}'),
    ("middot", '·'),
    ("nbsp", '\u{00A0}'),
    ("ndash", '\u{2013}'),
    ("para", '¶'),
    ("plusmn", '±'),
    ("pound", '£'),
    ("quot", '"'),
    ("raquo", '»'),
    ("rdquo", '\u{201D}'),
    ("reg", '®'),
    ("rsquo", '\u{2019}'),
    ("sect", '§'),
    ("times", '×'),
    ("trade", '\u{2122}'),
    ("yen", '¥'),
];

fn lookup_named(name: &str) -> Option<char> {
    NAMED
        .binary_search_by(|(n, _)| n.cmp(&name))
        .ok()
        .map(|i| NAMED[i].1)
}

/// Decodes character references in `input`.
///
/// Handles `&name;`, `&#123;`, and `&#x1F;` forms. A reference without a
/// terminating `;`, or with an unknown name, is emitted verbatim.
/// Input without an `&` holds no reference and is returned borrowed.
pub fn decode_entities(input: &str) -> Cow<'_, str> {
    if !input.contains('&') {
        return Cow::Borrowed(input);
    }
    let mut out = String::with_capacity(input.len());
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            // Copy the full UTF-8 sequence starting here.
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&input[i..i + ch_len]);
            i += ch_len;
            continue;
        }
        // Find the terminating ';' within a reasonable window.
        let window_end = (i + 32).min(bytes.len());
        match bytes[i + 1..window_end].iter().position(|&b| b == b';') {
            Some(rel) => {
                let body = &input[i + 1..i + 1 + rel];
                if let Some(ch) = decode_reference(body) {
                    out.push(ch);
                    i += rel + 2;
                } else {
                    out.push('&');
                    i += 1;
                }
            }
            None => {
                out.push('&');
                i += 1;
            }
        }
    }
    Cow::Owned(out)
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b < 0xE0 => 2,
        b if b < 0xF0 => 3,
        _ => 4,
    }
}

fn decode_reference(body: &str) -> Option<char> {
    if let Some(num) = body.strip_prefix('#') {
        let code = if let Some(hex) = num.strip_prefix(['x', 'X']) {
            u32::from_str_radix(hex, 16).ok()?
        } else {
            num.parse::<u32>().ok()?
        };
        // Windows-1252 remapping of the C1 range, as browsers do.
        let code = match code {
            0x91 => 0x2018,
            0x92 => 0x2019,
            0x93 => 0x201C,
            0x94 => 0x201D,
            0x96 => 0x2013,
            0x97 => 0x2014,
            other => other,
        };
        char::from_u32(code)
    } else {
        lookup_named(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_table_is_sorted() {
        for w in NAMED.windows(2) {
            assert!(w[0].0 < w[1].0, "{} !< {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn plain_text_passes_through() {
        assert!(matches!(
            decode_entities("Author name"),
            Cow::Borrowed("Author name")
        ));
        assert_eq!(decode_entities(""), "");
    }

    #[test]
    fn named_entities() {
        assert_eq!(decode_entities("Barnes &amp; Noble"), "Barnes & Noble");
        assert_eq!(decode_entities("&lt;b&gt;"), "<b>");
        assert_eq!(decode_entities("price&nbsp;range"), "price\u{00A0}range");
        assert_eq!(decode_entities("&copy; 2004"), "© 2004");
    }

    #[test]
    fn numeric_entities() {
        assert_eq!(decode_entities("&#65;&#66;"), "AB");
        assert_eq!(decode_entities("&#x41;"), "A");
        assert_eq!(decode_entities("&#X2014;"), "\u{2014}");
    }

    #[test]
    fn windows_1252_c1_remap() {
        assert_eq!(decode_entities("&#146;"), "\u{2019}");
        assert_eq!(decode_entities("&#151;"), "\u{2014}");
    }

    #[test]
    fn malformed_references_kept_verbatim() {
        assert_eq!(decode_entities("AT&T"), "AT&T");
        assert_eq!(decode_entities("&bogus;"), "&bogus;");
        assert_eq!(decode_entities("a & b"), "a & b");
        assert_eq!(decode_entities("tail&"), "tail&");
        assert_eq!(decode_entities("&#xZZ;"), "&#xZZ;");
    }

    #[test]
    fn multibyte_text_survives() {
        assert_eq!(
            decode_entities("caf\u{00E9} &amp; th\u{00E9}"),
            "café & thé"
        );
    }
}
