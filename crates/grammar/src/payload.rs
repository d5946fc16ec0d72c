//! Semantic payloads of parse-tree instances.
//!
//! Each instance carries, besides its bounding box and token span, the
//! semantic content the constructors have assembled so far — a caption,
//! an attribute, an operator list, a value domain, or finished
//! conditions. This is how "tagging" (paper §1) falls out of parsing:
//! the payload records the semantic role of the construct.

use metaform_core::{
    empty_list, Condition, DomainKind, DomainSpec, Text, TextList, Token, TokenId, TokenKind,
};
use std::fmt;
use std::sync::Arc;

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

    /// A domain of `kind` over a token's option labels, sharing them.
    fn of_options(kind: DomainKind, options: &TextList) -> Self {
        Domain {
            kind,
            values: options.clone(),
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
    /// The conditions of the holding instance's components, in
    /// component order (rows, whole interfaces): a `collect` instance.
    /// No list is stored; the chart reads it off the components.
    Collected,
    /// The conditions collected at the instance with this chart id —
    /// an `inherit` of a `collect` component.
    CollectedAt(u32),
}

impl Payload {
    /// The initial payload of a terminal instance for `token`, sharing
    /// the token's text and option list (the caption is copied only
    /// when trimming shortens it).
    pub fn for_token(token: &Token) -> Payload {
        match token.kind {
            TokenKind::Text => Payload::Text(trim_shared(&token.sval)),
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

    /// Whether the payload carries conditions: one assembled
    /// condition, or a collected list (possibly empty).
    pub fn has_conditions(&self) -> bool {
        matches!(
            self,
            Payload::Cond(_) | Payload::Collected | Payload::CollectedAt(_)
        )
    }
}

/// `text` with surrounding whitespace trimmed, shared when there is
/// none to trim.
pub(crate) fn trim_shared(text: &Text) -> Text {
    let t = text.trim();
    if t.len() == text.len() {
        text.clone()
    } else {
        Text::from(t)
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

    #[test]
    fn terminal_payloads_share_the_token_text() {
        let text = Token::text(0, "Author", BBox::ZERO);
        let Payload::Text(caption) = Payload::for_token(&text) else {
            unreachable!()
        };
        assert!(
            Arc::ptr_eq(&caption, &text.sval),
            "a trimmed caption is shared"
        );
        let padded = Token::text(1, " Author ", BBox::ZERO);
        assert!(!Arc::ptr_eq(
            Payload::for_token(&padded).shared_text().unwrap(),
            &padded.sval
        ));
        let sel = Token::widget(2, TokenKind::SelectionList, "c", BBox::ZERO)
            .with_options(vec!["Coach".into(), "First".into()]);
        let val = Payload::for_token(&sel);
        let values = &val.val().unwrap().values;
        assert!(
            Arc::ptr_eq(values, &sel.options),
            "option labels are shared"
        );
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
        assert!(!ops.has_conditions());
        assert!(Payload::Cond(cond("a")).has_conditions());
        assert!(Payload::Collected.has_conditions());
        assert!(Payload::CollectedAt(3).has_conditions());
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
