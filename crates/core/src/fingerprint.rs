//! Content fingerprints of tokenized interfaces.
//!
//! A crawler that revisits the same query interface should not pay for
//! a full parse when the page is unchanged. [`TokenFingerprint`]
//! addresses the token stream by content: a stable 64-bit FNV-1a hash
//! over every field the parser reads — widget kind, bounding box,
//! normalized text, widget name, option labels, checked state — plus
//! the token count. Equal token streams always hash equal; the hash is
//! a pure function of token content, so it is stable across processes,
//! sessions, and threads (no randomized hasher state) and can key a
//! persistent or shared parse cache.
//!
//! A fingerprint is a *cache key*, not a proof of equality: collisions
//! are possible (64-bit hash), so cache consumers must compare the
//! stored token stream before trusting a hit. The token count rides
//! along in the key to make the cheap pre-check cheap.

use crate::token::Token;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A content-addressed identity of one tokenized interface (see module
/// docs). Derives `Hash`/`Eq`, so it keys hash maps directly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TokenFingerprint {
    /// FNV-1a hash over every parse-relevant token field.
    pub hash: u64,
    /// Number of tokens hashed — a free collision pre-filter.
    pub tokens: u32,
}

impl TokenFingerprint {
    /// Fingerprints a token stream. Token *ids* are excluded: the
    /// tokenizer renumbers densely in reading order, so ids carry no
    /// content. Everything else the parser can observe is hashed.
    pub fn of(tokens: &[Token]) -> Self {
        let mut h = Fnv::new();
        for t in tokens {
            h.write_u32(t.kind as u32);
            h.write_i32(t.pos.left);
            h.write_i32(t.pos.top);
            h.write_i32(t.pos.right);
            h.write_i32(t.pos.bottom);
            h.write_str(&t.sval);
            h.write_str(&t.name);
            h.write_u32(t.options.len() as u32);
            for opt in t.options.iter() {
                h.write_str(opt);
            }
            h.write_u32(t.checked as u32);
        }
        TokenFingerprint {
            hash: h.finish(),
            tokens: tokens.len() as u32,
        }
    }
}

impl std::fmt::Display for TokenFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}:{}", self.hash, self.tokens)
    }
}

/// Minimal incremental FNV-1a state. Length-prefixing strings keeps the
/// encoding prefix-free, so `["ab","c"]` and `["a","bc"]` hash apart.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write_byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
    }

    fn write_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.write_byte(b);
        }
    }

    fn write_i32(&mut self, v: i32) {
        self.write_u32(v as u32);
    }

    fn write_str(&mut self, s: &str) {
        self.write_u32(s.len() as u32);
        for &b in s.as_bytes() {
            self.write_byte(b);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::BBox;
    use crate::token::TokenKind;

    fn sample() -> Vec<Token> {
        vec![
            Token::text(0, "Author", BBox::new(10, 12, 52, 28)),
            Token::widget(1, TokenKind::Textbox, "q", BBox::new(60, 8, 200, 28)),
            Token::widget(
                2,
                TokenKind::SelectionList,
                "fmt",
                BBox::new(60, 40, 200, 60),
            )
            .with_options(vec!["Hardcover".into(), "Paperback".into()]),
        ]
    }

    #[test]
    fn equal_streams_hash_equal_and_ids_are_ignored() {
        let a = sample();
        let mut b = sample();
        for (i, t) in b.iter_mut().enumerate() {
            t.id = crate::token::TokenId(10 + i as u32);
        }
        assert_eq!(TokenFingerprint::of(&a), TokenFingerprint::of(&b));
    }

    type Mutation = Box<dyn Fn(&mut Vec<Token>)>;

    #[test]
    fn every_content_field_perturbs_the_hash() {
        let base = TokenFingerprint::of(&sample());
        let mutations: Vec<Mutation> = vec![
            Box::new(|t| t[0].kind = TokenKind::SubmitButton),
            Box::new(|t| t[0].pos.left += 1),
            Box::new(|t| t[0].pos.top += 1),
            Box::new(|t| t[0].pos.right += 1),
            Box::new(|t| t[0].pos.bottom += 1),
            Box::new(|t| t[0].sval = "Authorx".into()),
            Box::new(|t| t[1].name = "qx".into()),
            Box::new(|t| t[2].options = ["Hardcover", "Paperback", "Audio"].map(Into::into).into()),
            Box::new(|t| t[2].options = ["Hardcoverx", "Paperback"].map(Into::into).into()),
            Box::new(|t| t[1].checked = true),
            Box::new(|t| {
                t.pop();
            }),
        ];
        for (i, m) in mutations.iter().enumerate() {
            let mut tokens = sample();
            m(&mut tokens);
            assert_ne!(
                TokenFingerprint::of(&tokens),
                base,
                "mutation {i} did not change the fingerprint"
            );
        }
    }

    #[test]
    fn string_boundaries_are_prefix_free() {
        let mut a = sample();
        let mut b = sample();
        a[0].sval = "ab".into();
        a[0].name = "c".into();
        b[0].sval = "a".into();
        b[0].name = "bc".into();
        assert_ne!(TokenFingerprint::of(&a), TokenFingerprint::of(&b));
    }

    #[test]
    fn empty_stream_is_a_stable_fingerprint() {
        let fp = TokenFingerprint::of(&[]);
        assert_eq!(fp.tokens, 0);
        assert_eq!(fp, TokenFingerprint::of(&[]));
        assert_eq!(fp.to_string(), format!("{:016x}:0", fp.hash));
    }
}
