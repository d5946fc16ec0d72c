//! Semantic payloads of parse-tree instances.
//!
//! Each instance carries, besides its bounding box and token span, the
//! semantic content the constructors have assembled so far — a caption,
//! an attribute, an operator list, a value domain, or finished
//! conditions. This is how "tagging" (paper §1) falls out of parsing:
//! the payload records the semantic role of the construct.

use metaform_core::{Condition, DomainKind, DomainSpec, Token, TokenId, TokenKind};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A shared caption, label or value text.
pub type Text = Arc<str>;

/// A shared list of texts: operator captions, domain values.
pub type TextList = Arc<[Text]>;

/// The shared empty text.
pub fn empty_text() -> Text {
    static EMPTY: OnceLock<Text> = OnceLock::new();
    EMPTY.get_or_init(|| Text::from("")).clone()
}

/// The shared empty text list.
pub fn empty_list() -> TextList {
    static EMPTY: OnceLock<TextList> = OnceLock::new();
    EMPTY.get_or_init(|| TextList::from([])).clone()
}

/// A value domain whose value list is shared.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Domain {
    /// Domain shape.
    pub kind: DomainKind,
    /// Listed values (options, endpoint labels, group captions).
    pub values: TextList,
}

impl Domain {
    /// A domain of `kind` with no listed values.
    pub fn of(kind: DomainKind) -> Self {
        Domain {
            kind,
            values: empty_list(),
        }
    }

    /// A domain of `kind` over a token's option labels.
    fn of_options(kind: DomainKind, options: &[String]) -> Self {
        Domain {
            kind,
            values: texts(options),
        }
    }

    /// The report form of this domain.
    pub fn to_spec(&self) -> DomainSpec {
        DomainSpec {
            kind: self.kind,
            values: self.values.iter().map(|v| v.to_string()).collect(),
        }
    }
}

/// Shares a list of owned strings.
pub(crate) fn texts(strings: &[String]) -> TextList {
    if strings.is_empty() {
        return empty_list();
    }
    strings.iter().map(|s| Text::from(s.as_str())).collect()
}

/// One assembled query condition `[attribute; operators; domain]`,
/// every part shared with the payloads it was built from. It carries
/// no token list: the tokens are the span of the instance it belongs
/// to, read off the chart when the merger builds the report's
/// [`Condition`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cond {
    /// Attribute label; empty for an unlabeled keyword box.
    pub attribute: Text,
    /// Operator captions.
    pub operators: TextList,
    /// Value domain.
    pub domain: Domain,
}

impl Cond {
    /// The report form of this condition over `tokens`.
    pub fn to_condition(&self, tokens: Vec<TokenId>) -> Condition {
        Condition::new(
            self.attribute.to_string(),
            self.operators.iter().map(|o| o.to_string()).collect(),
            self.domain.to_spec(),
            tokens,
        )
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_condition(Vec::new()).fmt(f)
    }
}

/// A condition collected from a component, with the chart id of the
/// instance it came from — the instance whose span is its token list.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CondAt {
    /// The condition.
    pub cond: Arc<Cond>,
    /// Chart id of the instance it was collected from.
    pub at: u32,
}

/// Semantic content of an instance. Every variant's data is shared, so
/// cloning a payload is O(1) and allocates nothing.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum Payload {
    /// No semantic content (buttons, structural groups).
    #[default]
    None,
    /// Raw caption text (text tokens, radio/checkbox units).
    Text(Text),
    /// An attribute label.
    Attr(Text),
    /// An operator caption list (radio lists, operator selects).
    Ops(TextList),
    /// A value domain.
    Val(Domain),
    /// One assembled query condition, over the holding instance's span.
    Cond(Arc<Cond>),
    /// Several conditions (rows, whole interfaces), each over the span
    /// of the instance it was collected from.
    Conds(Arc<[CondAt]>),
}

impl Payload {
    /// The initial payload of a terminal instance for `token`.
    pub fn for_token(token: &Token) -> Payload {
        match token.kind {
            TokenKind::Text => Payload::Text(Text::from(token.sval.trim())),
            TokenKind::Textbox | TokenKind::Password | TokenKind::TextArea => {
                Payload::Val(Domain::of(DomainKind::Text))
            }
            TokenKind::SelectionList => {
                Payload::Val(Domain::of_options(DomainKind::Enumerated, &token.options))
            }
            TokenKind::NumberList => {
                Payload::Val(Domain::of_options(DomainKind::Numeric, &token.options))
            }
            TokenKind::MonthList | TokenKind::DayList | TokenKind::YearList => {
                Payload::Val(Domain::of_options(DomainKind::Date, &token.options))
            }
            _ => Payload::None,
        }
    }

    /// Caption text carried by `Text`/`Attr` payloads.
    pub fn text(&self) -> Option<&str> {
        self.shared_text().map(|t| &**t)
    }

    /// The shared caption of `Text`/`Attr` payloads.
    pub(crate) fn shared_text(&self) -> Option<&Text> {
        match self {
            Payload::Text(s) | Payload::Attr(s) => Some(s),
            _ => None,
        }
    }

    /// Operator list carried by `Ops`.
    pub fn ops(&self) -> Option<&[Text]> {
        match self {
            Payload::Ops(v) => Some(v),
            _ => None,
        }
    }

    /// Domain carried by `Val`.
    pub fn val(&self) -> Option<&Domain> {
        match self {
            Payload::Val(d) => Some(d),
            _ => None,
        }
    }

    /// Whether the payload carries conditions (`Cond` or `Conds`).
    pub fn has_conditions(&self) -> bool {
        matches!(self, Payload::Cond(_) | Payload::Conds(_))
    }

    /// All conditions carried, each with the chart id of the instance
    /// whose span is its token list; `holder` is the id of the instance
    /// holding this payload (a lone `Cond` covers its holder's span).
    pub fn conditions(&self, holder: u32) -> impl Iterator<Item = (&Arc<Cond>, u32)> {
        let (one, many): (_, &[CondAt]) = match self {
            Payload::Cond(c) => (Some((c, holder)), &[]),
            Payload::Conds(v) => (None, v),
            _ => (None, &[]),
        };
        one.into_iter().chain(many.iter().map(|e| (&e.cond, e.at)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaform_core::BBox;

    #[test]
    fn terminal_payloads() {
        let text = Token::text(0, " Author ", BBox::ZERO);
        assert_eq!(Payload::for_token(&text), Payload::Text("Author".into()));

        let tb = Token::widget(1, TokenKind::Textbox, "q", BBox::ZERO);
        assert_eq!(
            Payload::for_token(&tb).val().unwrap().kind,
            DomainKind::Text
        );

        let sel = Token::widget(2, TokenKind::SelectionList, "c", BBox::ZERO)
            .with_options(vec!["Coach".into(), "First".into()]);
        let val = Payload::for_token(&sel).val().unwrap().clone();
        assert_eq!(val.kind, DomainKind::Enumerated);
        assert_eq!(val.to_spec().values, vec!["Coach", "First"]);

        let num = Token::widget(3, TokenKind::NumberList, "n", BBox::ZERO)
            .with_options(vec!["1".into(), "2".into()]);
        assert_eq!(
            Payload::for_token(&num).val().unwrap().kind,
            DomainKind::Numeric
        );

        let month = Token::widget(4, TokenKind::MonthList, "m", BBox::ZERO);
        assert_eq!(
            Payload::for_token(&month).val().unwrap().kind,
            DomainKind::Date
        );

        let radio = Token::widget(5, TokenKind::Radiobutton, "r", BBox::ZERO);
        assert_eq!(Payload::for_token(&radio), Payload::None);
    }

    fn cond(attr: &str) -> Arc<Cond> {
        Arc::new(Cond {
            attribute: attr.into(),
            operators: empty_list(),
            domain: Domain::of(DomainKind::Text),
        })
    }

    #[test]
    fn accessors() {
        assert_eq!(Payload::Text("x".into()).text(), Some("x"));
        assert_eq!(Payload::Attr("y".into()).text(), Some("y"));
        assert_eq!(Payload::None.text(), None);
        let ops = Payload::Ops(TextList::from([Text::from("exact")]));
        assert_eq!(ops.ops().unwrap().len(), 1);
        assert_eq!(Payload::None.conditions(0).count(), 0);
        let one = Payload::Cond(cond("a"));
        let held: Vec<(&str, u32)> = one
            .conditions(7)
            .map(|(c, at)| (&*c.attribute, at))
            .collect();
        assert_eq!(held, vec![("a", 7)], "a lone condition covers its holder");
        let many = Payload::Conds(Arc::from([
            CondAt {
                cond: cond("b"),
                at: 3,
            },
            CondAt {
                cond: cond("c"),
                at: 4,
            },
        ]));
        let held: Vec<u32> = many.conditions(9).map(|(_, at)| at).collect();
        assert_eq!(held, vec![3, 4], "collected conditions keep their origin");
    }

    #[test]
    fn clones_share_and_reports_materialize() {
        let c = cond("Author");
        let p = Payload::Cond(c.clone());
        let q = p.clone();
        let (Payload::Cond(a), Payload::Cond(b)) = (&p, &q) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(a, b), "a payload clone shares its condition");
        let report = c.to_condition(vec![TokenId(1), TokenId(0)]);
        assert_eq!(report.attribute, "Author");
        assert_eq!(report.tokens, vec![TokenId(0), TokenId(1)]);
        assert_eq!(c.to_string(), "[Author; {contains}; text]");
    }
}
