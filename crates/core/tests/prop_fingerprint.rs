//! Property tests: `TokenFingerprint` is a faithful content address.
//!
//! Two laws keep the revisit cache honest: equal token streams (ids
//! aside) must fingerprint equal, and any single parse-relevant field
//! mutation must change the fingerprint. The second is probabilistic
//! for a 64-bit hash, but a violation on these small inputs would
//! expose a field the hash forgot to mix in.

use metaform_core::{BBox, Text, Token, TokenFingerprint, TokenId, TokenKind};
use proptest::prelude::*;

/// Random token streams exercising every hashed field.
fn token_soup(max: usize) -> impl Strategy<Value = Vec<Token>> {
    let kinds = prop_oneof![
        Just(TokenKind::Text),
        Just(TokenKind::Textbox),
        Just(TokenKind::SelectionList),
        Just(TokenKind::Radiobutton),
        Just(TokenKind::Checkbox),
        Just(TokenKind::SubmitButton),
    ];
    proptest::collection::vec(
        (
            kinds,
            0i32..600,
            0i32..400,
            "[a-zA-Z ]{0,12}",
            proptest::collection::vec("[a-z]{1,6}", 0..3),
            0u32..2,
        ),
        0..max,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (kind, x, y, s, options, checked))| Token {
                id: TokenId(i as u32),
                kind,
                pos: BBox::at(x, y, 40, 16),
                sval: s.into(),
                name: format!("f{i}").into(),
                options: options.into_iter().map(Text::from).collect(),
                checked: checked == 1,
            })
            .collect()
    })
}

/// One random single-field edit, returning a short label for failure
/// messages. Every edit is guaranteed to change the field it touches.
fn mutate(tokens: &mut [Token], which: usize, idx: usize) -> &'static str {
    let i = idx % tokens.len();
    match which % 6 {
        0 => {
            tokens[i].pos.left += 1;
            tokens[i].pos.right += 1;
            "bbox shift"
        }
        1 => {
            tokens[i].kind = if tokens[i].kind == TokenKind::Textbox {
                TokenKind::Checkbox
            } else {
                TokenKind::Textbox
            };
            "kind swap"
        }
        2 => {
            tokens[i].sval = format!("{}!", tokens[i].sval).into();
            "sval edit"
        }
        3 => {
            tokens[i].name = format!("{}_", tokens[i].name).into();
            "name edit"
        }
        4 => {
            let mut options = tokens[i].options.to_vec();
            options.push("zz".into());
            tokens[i].options = options.into();
            "option added"
        }
        5 => {
            tokens[i].checked = !tokens[i].checked;
            "checked flip"
        }
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn equal_streams_fingerprint_equal(tokens in token_soup(10)) {
        let copy = tokens.clone();
        prop_assert_eq!(TokenFingerprint::of(&tokens), TokenFingerprint::of(&copy));
    }

    #[test]
    fn ids_do_not_affect_the_fingerprint(tokens in token_soup(10), base in 0u32..1000) {
        let mut renumbered = tokens.clone();
        for (i, t) in renumbered.iter_mut().enumerate() {
            t.id = TokenId(base + i as u32);
        }
        prop_assert_eq!(TokenFingerprint::of(&tokens), TokenFingerprint::of(&renumbered));
    }

    #[test]
    fn single_field_mutations_change_the_fingerprint(
        tokens in token_soup(10),
        which in 0usize..6,
        idx in 0usize..64,
    ) {
        if tokens.is_empty() {
            return Ok(());
        }
        let before = TokenFingerprint::of(&tokens);
        let mut edited = tokens.clone();
        let label = mutate(&mut edited, which, idx);
        prop_assert_ne!(
            TokenFingerprint::of(&edited),
            before,
            "fingerprint ignored a {} mutation",
            label
        );
    }

    #[test]
    fn dropping_a_token_changes_the_fingerprint(tokens in token_soup(10), idx in 0usize..64) {
        if tokens.is_empty() {
            return Ok(());
        }
        let before = TokenFingerprint::of(&tokens);
        let mut edited = tokens.clone();
        edited.remove(idx % edited.len());
        prop_assert_ne!(TokenFingerprint::of(&edited), before);
    }
}
