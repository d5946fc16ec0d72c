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

mod support;

use metaform_core::{Token, TokenFingerprint};
use std::path::PathBuf;
use support::{pinned_pages, tokens_of};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/front_end_tokens.txt")
}

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

/// The first drifted page, its first differing token (as the front end
/// now renders it) and the bless hint.
fn divergence_report(golden: &str, pages: &[(String, Vec<Token>)]) -> String {
    let mut out = String::from(
        "front-end tokens drifted from the golden file\n\
         to accept the change: METAFORM_BLESS=1 cargo test --test front_end_tokens\n",
    );
    let golden_lines: Vec<&str> = golden.lines().collect();
    if golden_lines.len() != pages.len() {
        out.push_str(&format!(
            "(page counts differ: golden {}, rendered {})\n",
            golden_lines.len(),
            pages.len()
        ));
    }
    for (k, (name, tokens)) in pages.iter().enumerate() {
        let rendered = line_of(name, tokens);
        let Some(&blessed) = golden_lines.get(k) else {
            out.push_str(&format!("page {name}: missing from the golden file\n"));
            break;
        };
        if blessed == rendered {
            continue;
        }
        out.push_str(&format!("page {name} (line {}):\n", k + 1));
        out.push_str(&format!("-{blessed}\n+{rendered}\n"));
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
            Some(i) => out.push_str(&format!("first differing token #{i}: {:?}\n", tokens[i])),
            None => out.push_str(&format!(
                "the golden has {} tokens, the front end now makes {}\n",
                blessed_digests.len(),
                tokens.len()
            )),
        }
        break;
    }
    out
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
    let path = golden_path();
    if std::env::var_os("METAFORM_BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("write golden file");
        println!("blessed {} ({} pages)", path.display(), pages.len());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n\
             (first run? bless it: METAFORM_BLESS=1 cargo test --test front_end_tokens)",
            path.display()
        )
    });
    if rendered != golden {
        panic!("{}", divergence_report(&golden, &pages));
    }
}
