//! The semantic model: query conditions.
//!
//! A condition is the three-tuple `[attribute; operators; domain]`
//! (paper §1), e.g. `[author; {"first name…", "start…", "exact name"};
//! text]`. The set of conditions an interface supports *is* its semantic
//! model — the output of the form extractor and the unit of evaluation.

use crate::token::{normalize_label, TokenId};
use std::fmt;

/// The shape of a condition's value domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum DomainKind {
    /// Free text (textbox/textarea); the implicit operator is `contains`.
    Text,
    /// A closed set of values (selection list, radio group, checkboxes).
    Enumerated,
    /// A numeric interval given by two endpoints (from/to, min/max).
    Range,
    /// A calendar date composed of month/day/year parts.
    Date,
    /// A clock time composed of hour/minute parts.
    Time,
    /// A yes/no toggle (single checkbox).
    Boolean,
    /// A single numeric quantity (number list or numeric textbox).
    Numeric,
}

impl DomainKind {
    /// Short display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DomainKind::Text => "text",
            DomainKind::Enumerated => "enum",
            DomainKind::Range => "range",
            DomainKind::Date => "date",
            DomainKind::Time => "time",
            DomainKind::Boolean => "bool",
            DomainKind::Numeric => "numeric",
        }
    }
}

/// The domain of allowed values for one condition.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DomainSpec {
    /// Domain shape.
    pub kind: DomainKind,
    /// Enumerated values, when `kind` is [`DomainKind::Enumerated`]
    /// (or the endpoint labels for ranges built from selection lists).
    pub values: Vec<String>,
}

impl DomainSpec {
    /// Free-text domain.
    pub fn text() -> Self {
        DomainSpec {
            kind: DomainKind::Text,
            values: Vec::new(),
        }
    }

    /// Enumerated domain over the given values.
    pub fn enumerated(values: Vec<String>) -> Self {
        DomainSpec {
            kind: DomainKind::Enumerated,
            values,
        }
    }

    /// Domain of the given kind with no listed values.
    pub fn of(kind: DomainKind) -> Self {
        DomainSpec {
            kind,
            values: Vec::new(),
        }
    }
}

impl fmt::Display for DomainSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_domain(f, self.kind, &self.values)
    }
}

/// Writes the displayed form of a domain of `kind` over `values`, as
/// [`DomainSpec`] displays: its kind when it lists no value, else its
/// values (the first three and a count past four).
pub fn write_domain<S: AsRef<str>>(
    out: &mut impl fmt::Write,
    kind: DomainKind,
    values: &[S],
) -> fmt::Result {
    if values.is_empty() {
        out.write_str(kind.name())
    } else if values.len() <= 4 {
        out.write_char('{')?;
        write_joined(out, values)?;
        out.write_char('}')
    } else {
        out.write_char('{')?;
        write_joined(out, &values[..3])?;
        write!(out, ", … {} values}}", values.len())
    }
}

/// Writes the displayed form of a condition from its parts, as
/// [`Condition`] displays — for a caller holding the parts borrowed.
pub fn write_condition<S: AsRef<str>>(
    out: &mut impl fmt::Write,
    attribute: &str,
    operators: &[S],
    kind: DomainKind,
    values: &[S],
) -> fmt::Result {
    let attr = if attribute.is_empty() {
        "(keyword)"
    } else {
        attribute
    };
    write!(out, "[{attr}; {{")?;
    if operators.is_empty() {
        out.write_str("contains")?;
    } else {
        write_joined(out, operators)?;
    }
    out.write_str("}; ")?;
    write_domain(out, kind, values)?;
    out.write_char(']')
}

/// `items` separated by `", "`.
fn write_joined<S: AsRef<str>>(out: &mut impl fmt::Write, items: &[S]) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        out.write_str(item.as_ref())?;
    }
    Ok(())
}

/// One extracted query condition `[attribute; operators; domain]`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Condition {
    /// Attribute label as displayed on the form (e.g. `Author`); empty
    /// when the form offers an unlabeled keyword box.
    pub attribute: String,
    /// Supported operators / modifiers (e.g. `exact name`), possibly the
    /// implicit `contains` for plain keyword conditions.
    pub operators: Vec<String>,
    /// Domain of allowed values.
    pub domain: DomainSpec,
    /// Tokens this condition was assembled from, in token-id order.
    /// Used by the merger for conflict detection.
    pub tokens: Vec<TokenId>,
}

impl Condition {
    /// Builds a condition; token ids are sorted and deduplicated.
    pub fn new(
        attribute: impl Into<String>,
        operators: Vec<String>,
        domain: DomainSpec,
        mut tokens: Vec<TokenId>,
    ) -> Self {
        tokens.sort_unstable();
        tokens.dedup();
        Condition {
            attribute: attribute.into(),
            operators,
            domain,
            tokens,
        }
    }

    /// Normalized attribute label, for equivalence tests.
    pub fn normalized_attribute(&self) -> String {
        normalize_label(&self.attribute)
    }

    /// Two conditions are *equivalent* when they constrain the same
    /// attribute with the same domain shape. Operators are deliberately
    /// excluded: the paper scores extraction by conditions, and operator
    /// phrasing varies freely across sources.
    pub fn equivalent(&self, other: &Condition) -> bool {
        self.normalized_attribute() == other.normalized_attribute()
            && self.domain.kind == other.domain.kind
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_condition(
            f,
            &self.attribute,
            &self.operators,
            self.domain.kind,
            &self.domain.values,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(attr: &str, kind: DomainKind) -> Condition {
        Condition::new(attr, vec![], DomainSpec::of(kind), vec![])
    }

    #[test]
    fn equivalence_normalizes_attribute() {
        assert!(cond("Author:", DomainKind::Text).equivalent(&cond("author", DomainKind::Text)));
        assert!(!cond("Author", DomainKind::Text).equivalent(&cond("Title", DomainKind::Text)));
    }

    #[test]
    fn equivalence_requires_same_domain_kind() {
        assert!(!cond("price", DomainKind::Range).equivalent(&cond("price", DomainKind::Text)));
    }

    #[test]
    fn equivalence_ignores_operators() {
        let a = Condition::new(
            "author",
            vec!["exact name".into()],
            DomainSpec::text(),
            vec![],
        );
        let b = Condition::new("author", vec![], DomainSpec::text(), vec![]);
        assert!(a.equivalent(&b));
    }

    #[test]
    fn token_list_is_sorted_and_deduped() {
        let c = Condition::new(
            "x",
            vec![],
            DomainSpec::text(),
            vec![TokenId(3), TokenId(1), TokenId(3)],
        );
        assert_eq!(c.tokens, vec![TokenId(1), TokenId(3)]);
    }

    #[test]
    fn display_shows_paper_style_tuple() {
        let c = Condition::new(
            "Author",
            vec!["exact name".into()],
            DomainSpec::text(),
            vec![],
        );
        assert_eq!(format!("{c}"), "[Author; {exact name}; text]");
        let kw = Condition::new("", vec![], DomainSpec::text(), vec![]);
        assert_eq!(format!("{kw}"), "[(keyword); {contains}; text]");
    }

    #[test]
    fn display_truncates_long_enumerations() {
        let d = DomainSpec::enumerated((0..8).map(|i| i.to_string()).collect());
        let shown = format!("{d}");
        assert!(shown.contains("… 8 values"), "{shown}");
        let small = DomainSpec::enumerated(vec!["5".into(), "20".into(), "50".into()]);
        assert_eq!(format!("{small}"), "{5, 20, 50}");
    }
}
