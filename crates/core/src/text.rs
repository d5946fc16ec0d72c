//! Shared text: the one representation of a page string from the
//! tokenizer to the parse payload.
//!
//! A token's caption, control name and option labels are reference
//! counted, so copying a token into a parse chart or a payload out of a
//! token bumps a count instead of copying bytes.

use std::sync::{Arc, OnceLock};

/// A shared caption, label or value text.
pub type Text = Arc<str>;

/// A shared list of texts: option labels, operator captions, domain
/// values.
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

/// `s` as a [`Text`]: the shared empty text when `s` is empty, a new
/// allocation otherwise.
pub fn share(s: &str) -> Text {
    if s.is_empty() {
        empty_text()
    } else {
        Text::from(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empties_are_shared() {
        assert!(Arc::ptr_eq(&empty_text(), &share("")));
        assert!(Arc::ptr_eq(&empty_list(), &empty_list()));
        assert_eq!(&*share("Author"), "Author");
    }
}
