//! Token-level golden: every page's 2-D token stream, pinned by digest.
//!
//! The report goldens (`golden_corpus`) can hide a geometry change that
//! happens not to move any condition; this file cannot. Each line holds
//! a page's name, the content fingerprint of its whole token stream
//! (kind, bounding box, `sval`, `name`, options and `checked` of every
//! token) and one short digest per token, so a drift names the first
//! token that moved. The pages are the survey corpus plus a fixed
//! generated set: the 25 generator schemas × pages 0–7 at seed 1, each
//! under its evaluation profile.
//!
//! To regenerate after an intentional front-end change:
//!
//! ```text
//! METAFORM_BLESS=1 cargo test --test front_end_tokens
//! ```

#[path = "support/golden.rs"]
mod golden;
mod support;

use metaform_core::{Token, TokenFingerprint};
use support::{pinned_pages, tokens_of};

/// Short per-token digest: the low 32 bits of the one-token fingerprint.
fn token_digest(token: &Token) -> String {
    let hash = TokenFingerprint::of(std::slice::from_ref(token)).hash;
    format!("{:08x}", hash as u32)
}

/// One golden line: `name<TAB>stream fingerprint<TAB>token digests`.
fn line_of(name: &str, tokens: &[Token]) -> String {
    let digests: Vec<String> = tokens.iter().map(token_digest).collect();
    format!(
        "{name}\t{}\t{}",
        TokenFingerprint::of(tokens),
        digests.join(" ")
    )
}

/// What drifted on the first differing page: its first differing token
/// as the front end now renders it, or the change in its token count.
fn first_token_drift(blessed: &str, tokens: &[Token]) -> String {
    let blessed_digests: Vec<&str> = blessed
        .split('\t')
        .nth(2)
        .unwrap_or("")
        .split_whitespace()
        .collect();
    let first = tokens
        .iter()
        .enumerate()
        .position(|(i, t)| blessed_digests.get(i) != Some(&token_digest(t).as_str()));
    match first {
        Some(i) => format!("first differing token #{i}: {:?}\n", tokens[i]),
        None => format!(
            "the golden has {} tokens, the front end now makes {}\n",
            blessed_digests.len(),
            tokens.len()
        ),
    }
}

#[test]
fn front_end_tokens_match_the_golden_file() {
    let pages: Vec<(String, Vec<Token>)> = pinned_pages()
        .into_iter()
        .map(|(name, html)| {
            let tokens = tokens_of(&html);
            (name, tokens)
        })
        .collect();
    let mut rendered = String::new();
    for (name, tokens) in &pages {
        rendered.push_str(&line_of(name, tokens));
        rendered.push('\n');
    }
    golden::check("front_end_tokens.txt", &rendered, |line, blessed| {
        let (_, tokens) = pages.get(line)?;
        Some(first_token_drift(blessed, tokens))
    });
}
