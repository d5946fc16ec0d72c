//! Client-side error resolution — the paper's §7 future work, built
//! out: "to resolve the conflict in a specific query interface, we can
//! leverage the correctly parsed conditions from other query
//! interfaces of the same domain … to handle missing elements, we find
//! it promising to explore matching non-associated tokens by their
//! textual similarity."

use metaform_core::{
    normalize_label, relations, Condition, ExtractionReport, Proximity, Token, TokenKind,
};
use std::collections::BTreeMap;

/// Attribute vocabulary accumulated from extractions across sources of
/// one domain (e.g. using flyairnorth.com's parse to help aa.com's).
#[derive(Clone, Debug, Default)]
pub struct DomainKnowledge {
    attr_counts: BTreeMap<String, usize>,
}

impl DomainKnowledge {
    /// Empty knowledge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one extraction's *non-conflicting* conditions into the
    /// vocabulary.
    pub fn learn(&mut self, report: &ExtractionReport) {
        let contested: Vec<usize> = report
            .conflicts
            .iter()
            .flat_map(|c| [c.kept, c.dropped])
            .collect();
        for (i, cond) in report.conditions.iter().enumerate() {
            if contested.contains(&i) {
                continue;
            }
            let key = cond.normalized_attribute();
            if !key.is_empty() {
                *self.attr_counts.entry(key).or_default() += 1;
            }
        }
    }

    /// How many sources support this attribute label.
    pub fn support(&self, attribute: &str) -> usize {
        self.attr_counts
            .get(&normalize_label(attribute))
            .copied()
            .unwrap_or(0)
    }

    /// Number of distinct attributes learned.
    pub fn len(&self) -> usize {
        self.attr_counts.len()
    }

    /// True when nothing has been learned.
    pub fn is_empty(&self) -> bool {
        self.attr_counts.is_empty()
    }

    /// The known attribute most similar to `text`, with its similarity
    /// in `[0, 1]`, if any scores at least `min`. Equally similar
    /// candidates tie-break to the lexicographically smallest key, so
    /// resolution is deterministic across runs and platforms.
    pub fn best_match(&self, text: &str, min: f64) -> Option<(&str, f64)> {
        let norm = normalize_label(text);
        if norm.is_empty() {
            return None;
        }
        self.attr_counts
            .keys()
            .map(|k| (k.as_str(), similarity(&norm, k)))
            .filter(|(_, s)| *s >= min)
            .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(a.0)))
    }
}

/// Normalized textual similarity in `[0, 1]`: 1 − Levenshtein distance
/// over the longer length.
pub fn similarity(a: &str, b: &str) -> f64 {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(&a, &b) as f64 / max_len as f64
}

fn levenshtein(a: &[char], b: &[char]) -> usize {
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Resolves conflicting token claims using domain knowledge: of the
/// two claimants, the condition whose attribute has *less* support
/// across the domain is dropped from the model. Ties keep the
/// merger's primary claimant. Returns the refined report (conflicts
/// consumed in the process are removed).
pub fn resolve_conflicts(
    report: &ExtractionReport,
    knowledge: &DomainKnowledge,
) -> ExtractionReport {
    if report.conflicts.is_empty() {
        return report.clone();
    }
    let mut drop = vec![false; report.conditions.len()];
    for conflict in &report.conflicts {
        let kept = &report.conditions[conflict.kept];
        let dropped = &report.conditions[conflict.dropped];
        let (sk, sd) = (
            knowledge.support(&kept.attribute),
            knowledge.support(&dropped.attribute),
        );
        if sd > sk {
            drop[conflict.kept] = true;
        } else {
            drop[conflict.dropped] = true;
        }
    }
    rebuild(report, &drop)
}

/// Attaches missing text tokens as attributes of nearby unlabeled
/// conditions when the text is similar to a known domain attribute.
/// `tokens` is the tokenized interface the report came from.
pub fn attach_missing(
    report: &ExtractionReport,
    tokens: &[Token],
    knowledge: &DomainKnowledge,
) -> ExtractionReport {
    let prox = Proximity::default();
    let mut out = report.clone();
    out.missing.retain(|&missing_id| {
        let token = &tokens[missing_id.index()];
        if token.kind != TokenKind::Text {
            return true;
        }
        // The text must resemble an attribute the domain is known for.
        if knowledge.best_match(&token.sval, 0.7).is_none() {
            return true;
        }
        // Find an adjacent condition that lacks a visible label (its
        // attribute came from a control name or is empty).
        let candidate = out.conditions.iter_mut().find(|c| {
            let unlabeled = c.attribute.is_empty() || knowledge.support(&c.attribute) == 0;
            unlabeled
                && c.tokens.iter().any(|&t| {
                    let wb = &tokens[t.index()].pos;
                    relations::left(&token.pos, wb, &prox)
                        || relations::above(&token.pos, wb, &prox)
                })
        });
        match candidate {
            Some(cond) => {
                cond.attribute = token.sval.to_string();
                cond.tokens.push(missing_id);
                cond.tokens.sort_unstable();
                false // consumed: no longer missing
            }
            None => true,
        }
    });
    out
}

/// Drops flagged conditions and remaps/recomputes the error lists.
fn rebuild(report: &ExtractionReport, drop: &[bool]) -> ExtractionReport {
    let mut kept: Vec<Condition> = Vec::new();
    let mut remap = vec![usize::MAX; report.conditions.len()];
    for (i, cond) in report.conditions.iter().enumerate() {
        if !drop[i] {
            remap[i] = kept.len();
            kept.push(cond.clone());
        }
    }
    let conflicts = report
        .conflicts
        .iter()
        .filter(|c| !drop[c.kept] && !drop[c.dropped])
        .map(|c| metaform_core::Conflict {
            token: c.token,
            kept: remap[c.kept],
            dropped: remap[c.dropped],
        })
        .collect();
    ExtractionReport {
        conditions: kept,
        conflicts,
        missing: report.missing.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaform_core::{BBox, Conflict, DomainSpec, TokenId};

    fn cond(attr: &str, tokens: &[u32]) -> Condition {
        Condition::new(
            attr,
            vec![],
            DomainSpec::text(),
            tokens.iter().map(|&t| TokenId(t)).collect(),
        )
    }

    fn learned(attrs: &[(&str, usize)]) -> DomainKnowledge {
        let mut k = DomainKnowledge::new();
        for (a, n) in attrs {
            for _ in 0..*n {
                k.learn(&ExtractionReport {
                    conditions: vec![cond(a, &[])],
                    conflicts: vec![],
                    missing: vec![],
                });
            }
        }
        k
    }

    #[test]
    fn similarity_basics() {
        assert_eq!(similarity("adults", "adults"), 1.0);
        assert!(similarity("adult", "adults") > 0.8);
        assert!(similarity("adults", "price") < 0.4);
        assert_eq!(similarity("", ""), 1.0);
    }

    #[test]
    fn knowledge_counts_and_matches() {
        let k = learned(&[("Adults", 3), ("Departing", 2)]);
        assert_eq!(k.len(), 2);
        assert_eq!(k.support("adults"), 3);
        assert_eq!(k.support("ADULTS:"), 3, "normalized");
        assert_eq!(k.support("children"), 0);
        let (m, s) = k.best_match("Adult", 0.7).expect("close match");
        assert_eq!(m, "adults");
        assert!(s > 0.8);
        assert!(k.best_match("zzz", 0.7).is_none());
    }

    #[test]
    fn best_match_breaks_similarity_ties_lexicographically() {
        // "dates" and "rates" are both one substitution from "gates":
        // equal similarity. The winner must be the lexicographically
        // smaller key, every run, regardless of map iteration order.
        let k = learned(&[("rates", 1), ("dates", 1)]);
        assert_eq!(similarity("gates", "rates"), similarity("gates", "dates"));
        let (m, s) = k.best_match("gates", 0.5).expect("both candidates pass");
        assert_eq!(m, "dates", "ties must resolve to the smaller key");
        assert!(s > 0.5);
        // Insertion order must not matter either.
        let k2 = learned(&[("dates", 1), ("rates", 1)]);
        assert_eq!(k2.best_match("gates", 0.5).expect("match").0, "dates");
    }

    #[test]
    fn learn_skips_contested_conditions() {
        let mut k = DomainKnowledge::new();
        k.learn(&ExtractionReport {
            conditions: vec![cond("Good", &[0]), cond("Bad", &[1]), cond("AlsoBad", &[1])],
            conflicts: vec![Conflict {
                token: TokenId(1),
                kept: 1,
                dropped: 2,
            }],
            missing: vec![],
        });
        assert_eq!(k.support("good"), 1);
        assert_eq!(k.support("bad"), 0);
    }

    #[test]
    fn conflicts_resolved_toward_domain_support() {
        // Figure 14's case: "Adults" is a common airfare attribute,
        // "Number of passengers" much rarer — but the merger happened
        // to keep the rare one first. Knowledge flips it.
        let report = ExtractionReport {
            conditions: vec![
                cond("Number of passengers", &[3, 6]),
                cond("Adults", &[5, 6]),
            ],
            conflicts: vec![Conflict {
                token: TokenId(6),
                kept: 0,
                dropped: 1,
            }],
            missing: vec![],
        };
        let k = learned(&[("Adults", 5), ("Number of passengers", 1)]);
        let resolved = resolve_conflicts(&report, &k);
        assert_eq!(resolved.conditions.len(), 1);
        assert_eq!(resolved.conditions[0].attribute, "Adults");
        assert!(resolved.conflicts.is_empty());
    }

    #[test]
    fn unknown_attributes_keep_merger_primary() {
        let report = ExtractionReport {
            conditions: vec![cond("Alpha", &[0, 2]), cond("Beta", &[1, 2])],
            conflicts: vec![Conflict {
                token: TokenId(2),
                kept: 0,
                dropped: 1,
            }],
            missing: vec![],
        };
        let resolved = resolve_conflicts(&report, &DomainKnowledge::new());
        assert_eq!(resolved.conditions.len(), 1);
        assert_eq!(resolved.conditions[0].attribute, "Alpha");
    }

    #[test]
    fn missing_text_attaches_to_adjacent_unlabeled_condition() {
        // "Departing" label left of a widget whose condition came out
        // unlabeled (control-name fallback).
        let tokens = vec![
            Token::text(0, "Departing", BBox::new(10, 10, 75, 26)),
            Token::widget(1, TokenKind::Textbox, "f3", BBox::new(82, 8, 200, 28)),
        ];
        let mut c = cond("f3", &[1]);
        c.attribute = "f3".into();
        let report = ExtractionReport {
            conditions: vec![c],
            conflicts: vec![],
            missing: vec![TokenId(0)],
        };
        let k = learned(&[("Departing", 4)]);
        let refined = attach_missing(&report, &tokens, &k);
        assert!(refined.missing.is_empty());
        assert_eq!(refined.conditions[0].attribute, "Departing");
        assert_eq!(refined.conditions[0].tokens.len(), 2);
    }

    #[test]
    fn unrelated_missing_text_stays_missing() {
        let tokens = vec![
            Token::text(0, "best prices guaranteed", BBox::new(10, 10, 160, 26)),
            Token::widget(1, TokenKind::Textbox, "f3", BBox::new(170, 8, 300, 28)),
        ];
        let report = ExtractionReport {
            conditions: vec![cond("f3", &[1])],
            conflicts: vec![],
            missing: vec![TokenId(0)],
        };
        let k = learned(&[("Departing", 4)]);
        let refined = attach_missing(&report, &tokens, &k);
        assert_eq!(refined.missing.len(), 1);
        assert_eq!(refined.conditions[0].attribute, "f3");
    }

    #[test]
    fn labeled_conditions_never_overwritten() {
        let tokens = vec![
            Token::text(0, "Adults", BBox::new(10, 10, 52, 26)),
            Token::widget(1, TokenKind::Textbox, "a", BBox::new(60, 8, 200, 28)),
        ];
        let k = learned(&[("Adults", 2), ("Children", 2)]);
        let report = ExtractionReport {
            conditions: vec![cond("Children", &[1])], // labeled & known
            conflicts: vec![],
            missing: vec![TokenId(0)],
        };
        let refined = attach_missing(&report, &tokens, &k);
        assert_eq!(refined.conditions[0].attribute, "Children");
        assert_eq!(refined.missing.len(), 1);
    }
}
