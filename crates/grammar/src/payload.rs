//! Semantic payloads of parse-tree instances.
//!
//! Each instance carries, besides its bounding box and token span, the
//! semantic content the constructors have assembled so far — a caption,
//! an attribute, an operator list, a value domain, or finished
//! conditions. This is how "tagging" (paper §1) falls out of parsing:
//! the payload records the semantic role of the construct.
//!
//! Conditions and the caption lists the constructors assemble live in
//! the parse's [`PayloadTable`], which payloads index; a chart clears
//! its table with its columns, so a recycled parse builds them without
//! allocating.

use metaform_core::{Condition, DomainKind, DomainSpec, Text, TextList, Token, TokenId, TokenKind};

/// A list of captions, labels or values a payload holds: a token's
/// option labels, shared with the token, or a run of its parse's
/// [`PayloadTable`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Texts {
    /// A token's option labels.
    Shared(TextList),
    /// `len` texts of the table's text arena, from `start`.
    Run {
        /// Index of the first text.
        start: u32,
        /// Number of texts.
        len: u32,
    },
}

impl Texts {
    /// The empty list.
    pub const EMPTY: Texts = Texts::Run { start: 0, len: 0 };

    /// Whether the list holds no text.
    pub fn is_empty(&self) -> bool {
        match self {
            Texts::Shared(list) => list.is_empty(),
            Texts::Run { len, .. } => *len == 0,
        }
    }
}

/// A value domain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Domain {
    /// Domain shape.
    pub kind: DomainKind,
    /// Listed values (options, endpoint labels, group captions).
    pub values: Texts,
}

impl Domain {
    /// A domain of `kind` with no listed values.
    pub fn of(kind: DomainKind) -> Self {
        Domain {
            kind,
            values: Texts::EMPTY,
        }
    }

    /// A domain of `kind` over a token's option labels, sharing them.
    fn of_options(kind: DomainKind, options: &TextList) -> Self {
        Domain {
            kind,
            values: Texts::Shared(options.clone()),
        }
    }

    /// The report form of this domain, its values read off `table`.
    pub fn to_spec(&self, table: &PayloadTable) -> DomainSpec {
        DomainSpec {
            kind: self.kind,
            values: strings(table.texts(&self.values)),
        }
    }
}

/// One assembled query condition `[attribute; operators; domain]`,
/// every text shared with the payloads it was built from. It carries
/// no token list: the tokens are the span of the instance it belongs
/// to, read off the chart when the merger builds the report's
/// [`Condition`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cond {
    /// Attribute label; empty for an unlabeled keyword box.
    pub attribute: Text,
    /// Operator captions.
    pub operators: Texts,
    /// Value domain.
    pub domain: Domain,
}

impl Cond {
    /// The report form of this condition over `tokens`, its lists read
    /// off `table`. It allocates exactly the blocks the condition owns:
    /// each non-empty string and list, at its final size.
    pub fn to_condition(&self, table: &PayloadTable, tokens: Vec<TokenId>) -> Condition {
        Condition::new(
            String::from(&*self.attribute),
            strings(table.texts(&self.operators)),
            self.domain.to_spec(table),
            tokens,
        )
    }
}

/// Owned copies of `texts`, in a vector of exactly their number.
fn strings(texts: &[Text]) -> Vec<String> {
    texts.iter().map(|t| String::from(&**t)).collect()
}

/// Semantic content of an instance. Cloning a payload is O(1) and
/// allocates nothing: texts are shared, and conditions and assembled
/// lists are indexes into the parse's [`PayloadTable`].
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
    Ops(Texts),
    /// A value domain.
    Val(Domain),
    /// One assembled query condition, over the holding instance's
    /// span: the index of the condition in the table.
    Cond(u32),
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

/// The conditions and caption lists of one parse, which its payloads
/// index. Entries are only ever appended; a chart clears its table
/// when it is reset for the next parse, keeping the capacity.
///
/// A table can also collect entries *pending* behind another
/// ([`PayloadTable::pend_after`]): the constructors of one enumeration
/// pass read their components' payloads off the chart's table while
/// the conditions and lists they build go to a pending table, indexed
/// as if already appended, until the chart commits them
/// ([`PayloadTable::commit`]).
#[derive(Clone, Debug, Default)]
pub struct PayloadTable {
    /// Index of the first condition and of the first text: zero for a
    /// chart's own table, where that table ends for a pending one.
    base: (u32, u32),
    conds: Vec<Cond>,
    texts: Vec<Text>,
}

/// The empty table, for views of payloads that index none.
static EMPTY_TABLE: PayloadTable = PayloadTable {
    base: (0, 0),
    conds: Vec::new(),
    texts: Vec::new(),
};

impl PayloadTable {
    /// The empty table, for views of payloads that index nothing.
    pub fn empty() -> &'static PayloadTable {
        &EMPTY_TABLE
    }

    /// Removes every entry, keeping the capacity.
    pub fn clear(&mut self) {
        self.base = (0, 0);
        self.conds.clear();
        self.texts.clear();
    }

    /// Empties this table to collect entries that will follow those of
    /// `committed`.
    pub fn pend_after(&mut self, committed: &PayloadTable) {
        self.conds.clear();
        self.texts.clear();
        self.base = committed.end();
    }

    /// Appends `pending`'s entries, which were collected to follow this
    /// table's, and leaves it empty.
    pub fn commit(&mut self, pending: &mut PayloadTable) {
        assert_eq!(pending.base, self.end(), "pending entries follow the table");
        self.conds.append(&mut pending.conds);
        self.texts.append(&mut pending.texts);
        pending.base = self.end();
    }

    /// The indexes the next condition and the next text would get.
    fn end(&self) -> (u32, u32) {
        (
            self.base.0 + self.conds.len() as u32,
            self.base.1 + self.texts.len() as u32,
        )
    }

    /// The condition a [`Payload::Cond`] indexes.
    pub fn cond(&self, index: u32) -> &Cond {
        &self.conds[(index - self.base.0) as usize]
    }

    /// The texts of `list`.
    pub fn texts<'a>(&'a self, list: &'a Texts) -> &'a [Text] {
        match list {
            Texts::Shared(list) => list,
            Texts::Run { len: 0, .. } => &[],
            &Texts::Run { start, len } => {
                let start = (start - self.base.1) as usize;
                &self.texts[start..start + len as usize]
            }
        }
    }

    /// Adds a condition, returning the payload that holds it.
    pub fn push_cond(&mut self, cond: Cond) -> Payload {
        let index = self.end().0;
        self.conds.push(cond);
        Payload::Cond(index)
    }

    /// Adds a run of texts, returning the list it makes.
    pub fn push_texts(&mut self, texts: impl IntoIterator<Item = Text>) -> Texts {
        let start = self.end().1;
        self.texts.extend(texts);
        Texts::Run {
            start,
            len: self.end().1 - start,
        }
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
    use std::sync::Arc;

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
        assert_eq!(
            val.to_spec(PayloadTable::empty()).values,
            vec!["Coach", "First"]
        );

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
        let Texts::Shared(values) = &val.val().unwrap().values else {
            unreachable!()
        };
        assert!(
            Arc::ptr_eq(values, &sel.options),
            "option labels are shared"
        );
    }

    fn cond(attr: &str) -> Cond {
        Cond {
            attribute: attr.into(),
            operators: Texts::EMPTY,
            domain: Domain::of(DomainKind::Text),
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Payload::Text("x".into()).text(), Some("x"));
        assert_eq!(Payload::Attr("y".into()).text(), Some("y"));
        assert_eq!(Payload::None.text(), None);
        let mut table = PayloadTable::default();
        let ops = Payload::Ops(table.push_texts([Text::from("exact")]));
        assert!(!ops.has_conditions());
        assert!(table.push_cond(cond("a")).has_conditions());
        assert!(Payload::Collected.has_conditions());
        assert!(Payload::CollectedAt(3).has_conditions());
    }

    #[test]
    fn pending_entries_index_past_the_committed_table() {
        let mut table = PayloadTable::default();
        let first = table.push_texts(["a", "b"].map(Text::from));
        let mut pending = PayloadTable::default();
        pending.pend_after(&table);
        let more = pending.push_texts(["c"].map(Text::from));
        let Payload::Cond(at) = pending.push_cond(cond("Author")) else {
            unreachable!()
        };
        assert_eq!(more, Texts::Run { start: 2, len: 1 });
        assert_eq!(pending.texts(&more), [Text::from("c")]);
        table.commit(&mut pending);
        assert_eq!(table.texts(&first), ["a", "b"].map(Text::from));
        assert_eq!(table.texts(&more), [Text::from("c")]);
        assert_eq!(&*table.cond(at).attribute, "Author");
        assert_eq!(table.texts(&Texts::EMPTY), []);
        assert_eq!(pending.texts(&Texts::EMPTY), []);
    }

    #[test]
    fn conditions_materialize_with_their_lists() {
        let mut table = PayloadTable::default();
        let operators = table.push_texts(["exact name"].map(Text::from));
        let c = Cond {
            operators,
            ..cond("Author")
        };
        let report = c.to_condition(&table, vec![TokenId(1), TokenId(0)]);
        assert_eq!(report.attribute, "Author");
        assert_eq!(report.operators, ["exact name"]);
        assert_eq!(report.tokens, vec![TokenId(0), TokenId(1)]);
        assert_eq!(report.to_string(), "[Author; {exact name}; text]");
    }
}
