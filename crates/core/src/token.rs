//! Visual tokens — instances of grammar terminals.
//!
//! The tokenizer converts an HTML query form into a set of tokens, "each
//! representing an atomic visual element on the form" (paper §3.4). Each
//! token has a terminal type plus attributes needed for parsing; the
//! `pos` attribute (bounding box) is universal because the grammar
//! captures two-dimensional layout.

use crate::geom::BBox;
use crate::text::{empty_list, empty_text, Text, TextList};
use std::fmt;

/// Identifier of a token within one tokenized interface.
///
/// Token ids are dense (`0..n`) so parse-state bitsets can index by them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(pub u32);

impl TokenId {
    /// Index form for slice/bitset access.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TokenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Terminal alphabet of the derived global grammar (16 kinds, paper §6).
///
/// Selection lists are classified by the tokenizer into generic, numeric,
/// and date-part lists because the grammar treats them differently
/// (a month/day/year triple forms a date condition; a numeric list often
/// carries a passenger/quantity condition).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum TokenKind {
    /// A run of visible text (label, operator caption, decoration, …).
    Text,
    /// `<input type="text">`.
    Textbox,
    /// `<input type="password">`.
    Password,
    /// `<textarea>`.
    TextArea,
    /// `<select>` whose options were not classified further.
    SelectionList,
    /// `<select>` whose options are predominantly numeric.
    NumberList,
    /// `<select>` listing month names or month numbers 1–12.
    MonthList,
    /// `<select>` listing day-of-month numbers 1–31.
    DayList,
    /// `<select>` listing four-digit years.
    YearList,
    /// `<input type="radio">`.
    Radiobutton,
    /// `<input type="checkbox">`.
    Checkbox,
    /// `<input type="submit">` / `<button type="submit">`.
    SubmitButton,
    /// `<input type="reset">`.
    ResetButton,
    /// `<input type="image">`.
    ImageInput,
    /// `<input type="file">`.
    FileInput,
    /// `<input type="hidden">` — carried for completeness, excluded from
    /// the parsed token set.
    HiddenInput,
}

impl TokenKind {
    /// All sixteen terminal kinds, in declaration order.
    pub const ALL: [TokenKind; 16] = [
        TokenKind::Text,
        TokenKind::Textbox,
        TokenKind::Password,
        TokenKind::TextArea,
        TokenKind::SelectionList,
        TokenKind::NumberList,
        TokenKind::MonthList,
        TokenKind::DayList,
        TokenKind::YearList,
        TokenKind::Radiobutton,
        TokenKind::Checkbox,
        TokenKind::SubmitButton,
        TokenKind::ResetButton,
        TokenKind::ImageInput,
        TokenKind::FileInput,
        TokenKind::HiddenInput,
    ];

    /// Terminal name as used in grammar listings (e.g. `textbox`).
    pub fn name(self) -> &'static str {
        match self {
            TokenKind::Text => "text",
            TokenKind::Textbox => "textbox",
            TokenKind::Password => "password",
            TokenKind::TextArea => "textarea",
            TokenKind::SelectionList => "selection_list",
            TokenKind::NumberList => "number_list",
            TokenKind::MonthList => "month_list",
            TokenKind::DayList => "day_list",
            TokenKind::YearList => "year_list",
            TokenKind::Radiobutton => "radiobutton",
            TokenKind::Checkbox => "checkbox",
            TokenKind::SubmitButton => "submit_button",
            TokenKind::ResetButton => "reset_button",
            TokenKind::ImageInput => "image_input",
            TokenKind::FileInput => "file_input",
            TokenKind::HiddenInput => "hidden_input",
        }
    }

    /// True for kinds a user types or picks values into — the `domain`
    /// carriers of a condition.
    pub fn is_input_field(self) -> bool {
        matches!(
            self,
            TokenKind::Textbox
                | TokenKind::Password
                | TokenKind::TextArea
                | TokenKind::SelectionList
                | TokenKind::NumberList
                | TokenKind::MonthList
                | TokenKind::DayList
                | TokenKind::YearList
                | TokenKind::Radiobutton
                | TokenKind::Checkbox
                | TokenKind::FileInput
        )
    }

    /// True for form-submission controls, which never carry conditions.
    pub fn is_button(self) -> bool {
        matches!(
            self,
            TokenKind::SubmitButton | TokenKind::ResetButton | TokenKind::ImageInput
        )
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One visual token: a terminal instance with its parsing attributes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Token {
    /// Dense id within the tokenized interface.
    pub id: TokenId,
    /// Terminal type.
    pub kind: TokenKind,
    /// Rendered bounding box (the universal `pos` attribute).
    pub pos: BBox,
    /// String value: text content for [`TokenKind::Text`], button caption
    /// for buttons, empty otherwise.
    pub sval: Text,
    /// HTML control `name` attribute (e.g. `query-0`, `field-0`), empty
    /// for text tokens.
    pub name: Text,
    /// Visible option labels for selection lists.
    pub options: TextList,
    /// Whether a radio button / checkbox is pre-checked.
    pub checked: bool,
}

impl Token {
    /// Builds a text token.
    pub fn text(id: u32, sval: impl Into<Text>, pos: BBox) -> Self {
        Token {
            id: TokenId(id),
            kind: TokenKind::Text,
            pos,
            sval: sval.into(),
            name: empty_text(),
            options: empty_list(),
            checked: false,
        }
    }

    /// Builds a widget token of the given kind.
    pub fn widget(id: u32, kind: TokenKind, name: impl Into<Text>, pos: BBox) -> Self {
        Token {
            id: TokenId(id),
            kind,
            pos,
            sval: empty_text(),
            name: name.into(),
            options: empty_list(),
            checked: false,
        }
    }

    /// Adds option labels (builder style), for selection lists.
    pub fn with_options(mut self, options: Vec<Text>) -> Self {
        self.options = options.into();
        self
    }

    /// Sets the string value (builder style).
    pub fn with_sval(mut self, sval: impl Into<Text>) -> Self {
        self.sval = sval.into();
        self
    }

    /// Marks the token as pre-checked (builder style).
    pub fn with_checked(mut self, checked: bool) -> Self {
        self.checked = checked;
        self
    }
}

/// The slice [`normalize_label`] lowercases: whitespace and trailing
/// punctuation decorations (`:`, `*`, `?`) trimmed, case untouched.
/// Exposed so allocation-free checks (emptiness, word count, …) can
/// run against exactly the normalized extent without building the
/// lowercased copy.
pub fn trim_label(s: &str) -> &str {
    s.trim()
        .trim_end_matches(|c: char| c == ':' || c == '*' || c == '?' || c.is_whitespace())
}

/// Normalizes a label for comparison: lowercase, trims whitespace and
/// trailing punctuation decorations (`:`, `*`, `?`).
pub fn normalize_label(s: &str) -> String {
    trim_label(s).to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_terminals_with_unique_names() {
        let mut names: Vec<_> = TokenKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 16);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16, "terminal names must be unique");
    }

    #[test]
    fn kind_classification() {
        assert!(TokenKind::Textbox.is_input_field());
        assert!(TokenKind::MonthList.is_input_field());
        assert!(!TokenKind::Text.is_input_field());
        assert!(TokenKind::SubmitButton.is_button());
        assert!(!TokenKind::SubmitButton.is_input_field());
        assert!(!TokenKind::HiddenInput.is_input_field());
    }

    #[test]
    fn builders_fill_fields() {
        let t = Token::text(0, "Author", BBox::new(10, 40, 10, 20));
        assert_eq!(t.kind, TokenKind::Text);
        assert_eq!(&*t.sval, "Author");

        let w = Token::widget(1, TokenKind::SelectionList, "dept", BBox::at(0, 0, 80, 20))
            .with_options(vec!["Any".into(), "Books".into()])
            .with_sval("Any");
        assert_eq!(w.options.len(), 2);
        assert_eq!(&*w.name, "dept");
        assert_eq!(&*w.sval, "Any");
        assert!(!w.checked);
        let r = Token::widget(2, TokenKind::Radiobutton, "fmt", BBox::at(0, 0, 13, 13))
            .with_checked(true);
        assert!(r.checked);
    }

    #[test]
    fn normalize_label_strips_decoration() {
        assert_eq!(normalize_label("  Author:  "), "author");
        assert_eq!(normalize_label("Price Range *"), "price range");
        assert_eq!(normalize_label("TITLE?"), "title");
        assert_eq!(normalize_label(""), "");
    }

    #[test]
    fn token_id_debug_format() {
        assert_eq!(format!("{:?}", TokenId(7)), "t7");
        assert_eq!(TokenId(7).index(), 7);
    }
}
