//! The proximity baseline.
//!
//! Prior work associated form elements "pairwise" using "simple
//! heuristics such as proximity and alignment" (paper §2, re Raghavan &
//! Garcia-Molina's HiWE, the paper's reference 21). This module
//! implements that comparator: each input field is paired with its
//! closest text label; radio and
//! checkbox groups are joined by their HTML control names. It has the
//! failure modes the paper motivates the parsing paradigm with — no
//! global context, no operator recognition, no composite (range/date)
//! conditions.

use metaform_core::{
    relations, Condition, DomainKind, DomainSpec, ExtractionReport, Proximity, Token, TokenId,
    TokenKind,
};
use std::collections::BTreeMap;

/// Extracts conditions from tokens with pairwise proximity matching.
pub fn extract_baseline(tokens: &[Token]) -> ExtractionReport {
    let prox = Proximity::default();
    let texts: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Text)
        .collect();
    let mut used_text: Vec<bool> = vec![false; texts.len()];
    let mut conditions: Vec<Condition> = Vec::new();

    // Radio/checkbox groups by control name: caption = nearest text to
    // the right of each glyph.
    let mut groups: BTreeMap<(TokenKind, &str), Vec<&Token>> = BTreeMap::new();
    for t in tokens {
        if matches!(t.kind, TokenKind::Radiobutton | TokenKind::Checkbox) {
            groups.entry((t.kind, &*t.name)).or_default().push(t);
        }
    }
    for ((_, _), glyphs) in &groups {
        let mut values = Vec::new();
        let mut member_tokens: Vec<TokenId> = Vec::new();
        for g in glyphs {
            member_tokens.push(g.id);
            if let Some((idx, caption)) = nearest_text(&texts, g, &prox, |a, b, p| {
                relations::left(&a.pos, &b.pos, p) // caption sits right of the glyph
            }) {
                values.push(caption.sval.to_string());
                used_text[idx] = true;
                member_tokens.push(caption.id);
            }
        }
        // Attribute: nearest unused text left of / above the group box.
        let group_box = glyphs
            .iter()
            .map(|g| g.pos)
            .reduce(|a, b| a.union(&b))
            .expect("group nonempty");
        let attr = texts
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                !used_text[*i]
                    && (relations::left(&t.pos, &group_box, &prox)
                        || relations::above(&t.pos, &group_box, &prox))
            })
            .min_by_key(|(_, t)| t.pos.distance(&group_box));
        let attribute = match attr {
            Some((i, t)) => {
                used_text[i] = true;
                member_tokens.push(t.id);
                t.sval.to_string()
            }
            None => String::new(),
        };
        let domain = if glyphs.len() == 1 && glyphs[0].kind == TokenKind::Checkbox {
            DomainSpec::of(DomainKind::Boolean)
        } else {
            DomainSpec::enumerated(values)
        };
        conditions.push(Condition::new(attribute, vec![], domain, member_tokens));
    }

    // Every other input field: nearest text, preferring left then above.
    for t in tokens {
        if !t.kind.is_input_field()
            || matches!(t.kind, TokenKind::Radiobutton | TokenKind::Checkbox)
        {
            continue;
        }
        let mut member_tokens = vec![t.id];
        let attribute = {
            let pick = texts
                .iter()
                .enumerate()
                .filter(|(i, label)| {
                    !used_text[*i]
                        && (relations::left(&label.pos, &t.pos, &prox)
                            || relations::above(&label.pos, &t.pos, &prox)
                            || relations::right(&label.pos, &t.pos, &prox))
                })
                .min_by_key(|(_, label)| label.pos.distance(&t.pos));
            match pick {
                Some((i, label)) => {
                    used_text[i] = true;
                    member_tokens.push(label.id);
                    label.sval.to_string()
                }
                None => String::new(),
            }
        };
        let options = || t.options.iter().map(|o| o.to_string()).collect();
        let domain = match t.kind {
            TokenKind::SelectionList => DomainSpec::enumerated(options()),
            TokenKind::NumberList => DomainSpec {
                kind: DomainKind::Numeric,
                values: options(),
            },
            TokenKind::MonthList | TokenKind::DayList | TokenKind::YearList => DomainSpec {
                kind: DomainKind::Enumerated,
                values: options(),
            },
            _ => DomainSpec::text(),
        };
        conditions.push(Condition::new(attribute, vec![], domain, member_tokens));
    }

    let claimed: Vec<TokenId> = conditions.iter().flat_map(|c| c.tokens.clone()).collect();
    let missing = tokens
        .iter()
        .map(|t| t.id)
        .filter(|id| !claimed.contains(id))
        .collect();
    ExtractionReport {
        conditions,
        conflicts: Vec::new(),
        missing,
    }
}

/// Nearest text satisfying a relation to the anchor.
fn nearest_text<'t>(
    texts: &[&'t Token],
    anchor: &Token,
    prox: &Proximity,
    relation: impl Fn(&Token, &Token, &Proximity) -> bool,
) -> Option<(usize, &'t Token)> {
    texts
        .iter()
        .enumerate()
        .filter(|(_, t)| relation(anchor, t, prox))
        .min_by_key(|(_, t)| t.pos.distance(&anchor.pos))
        .map(|(i, t)| (i, *t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaform_core::BBox;

    fn label(id: u32, s: &str, x: i32, y: i32) -> Token {
        Token::text(id, s, BBox::new(x, y + 4, x + s.len() as i32 * 7, y + 20))
    }

    fn textbox(id: u32, name: &str, x: i32, y: i32) -> Token {
        Token::widget(
            id,
            TokenKind::Textbox,
            name,
            BBox::new(x, y, x + 140, y + 20),
        )
    }

    #[test]
    fn pairs_label_with_adjacent_box() {
        let tokens = vec![label(0, "Author", 10, 0), textbox(1, "q", 70, 0)];
        let report = extract_baseline(&tokens);
        assert_eq!(report.conditions.len(), 1);
        assert_eq!(report.conditions[0].attribute, "Author");
        assert_eq!(report.conditions[0].domain.kind, DomainKind::Text);
        assert!(report.missing.is_empty());
    }

    #[test]
    fn groups_radios_by_name() {
        let tokens = vec![
            label(0, "Trip", 10, 0),
            Token::widget(1, TokenKind::Radiobutton, "t", BBox::new(60, 2, 73, 15)),
            label(2, "Round Trip", 78, 0),
            Token::widget(3, TokenKind::Radiobutton, "t", BBox::new(170, 2, 183, 15)),
            label(4, "One Way", 188, 0),
        ];
        let report = extract_baseline(&tokens);
        assert_eq!(report.conditions.len(), 1);
        let c = &report.conditions[0];
        assert_eq!(c.attribute, "Trip");
        assert_eq!(c.domain.values, vec!["Round Trip", "One Way"]);
    }

    #[test]
    fn single_checkbox_is_boolean() {
        let tokens = vec![
            Token::widget(0, TokenKind::Checkbox, "hc", BBox::new(10, 2, 23, 15)),
            label(1, "Hardcover only", 28, 0),
        ];
        let report = extract_baseline(&tokens);
        assert_eq!(report.conditions[0].domain.kind, DomainKind::Boolean);
    }

    #[test]
    fn known_failure_mode_operator_captions_absorbed_as_values() {
        // The amazon author row: the baseline reads the radio list as
        // an enumerated condition instead of operators — exactly the
        // kind of misreading the hidden-syntax parser fixes.
        let tokens = vec![
            label(0, "Author", 10, 0),
            textbox(1, "q", 70, 0),
            Token::widget(2, TokenKind::Radiobutton, "f", BBox::new(70, 26, 83, 39)),
            label(3, "exact name", 88, 24),
        ];
        let report = extract_baseline(&tokens);
        assert_eq!(report.conditions.len(), 2, "split into two conditions");
        assert!(
            report.conditions.iter().all(|c| c.operators.is_empty()),
            "no operator recognition"
        );
    }

    #[test]
    fn unpaired_tokens_reported_missing() {
        let tokens = vec![
            label(0, "A banner far away", 10, 0),
            Token::widget(
                1,
                TokenKind::SubmitButton,
                "go",
                BBox::new(10, 300, 60, 322),
            ),
        ];
        let report = extract_baseline(&tokens);
        assert!(report.conditions.is_empty());
        assert_eq!(report.missing.len(), 2);
    }

    #[test]
    fn select_domains_copied() {
        let tokens = vec![
            label(0, "Class", 10, 0),
            Token::widget(1, TokenKind::SelectionList, "c", BBox::new(60, 0, 160, 20))
                .with_options(vec!["Coach".into(), "First".into()]),
        ];
        let report = extract_baseline(&tokens);
        assert_eq!(report.conditions[0].domain.values, vec!["Coach", "First"]);
    }
}
