//! Token text where the layout's fragments may borrow their text from
//! the DOM or own a copy: a fragment borrows while the words it joins
//! sit one space apart in the source, and owns a collapsed copy
//! otherwise. Each case pins the exact captions the tokenizer reads.

use metaform_core::TokenKind;
use metaform_layout::{layout_with, LayoutOptions};
use metaform_tokenizer::tokenize;

/// The captions of `html`'s text tokens, in reading order, laid out
/// at `viewport` pixels.
fn captions_at(html: &str, viewport: i32) -> Vec<String> {
    let doc = metaform_html::parse(html);
    let lay = layout_with(
        &doc,
        &LayoutOptions {
            viewport,
            margin: 8,
        },
    );
    tokenize(&doc, &lay)
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Text)
        .map(|t| t.sval.to_string())
        .collect()
}

fn captions(html: &str) -> Vec<String> {
    captions_at(html, 800)
}

#[test]
fn newlines_tabs_and_space_runs_collapse_to_single_spaces() {
    assert_eq!(
        captions(
            "<form>First\n  name <input type=text name=f><br>\
             Last\tname:   here <input type=text name=l><br>\
             \n  Title  <input type=text name=t></form>"
        ),
        ["First name", "Last name: here", "Title"]
    );
}

#[test]
fn entities_decode_and_nbsp_glues_words() {
    assert_eq!(
        captions(
            "<form>Price&nbsp;range <input type=text name=p><br>\
             Books &amp; Music <input type=text name=b><br>\
             Kids&amp;Teens:&nbsp; <input type=text name=k></form>"
        ),
        ["Price\u{a0}range", "Books & Music", "Kids&Teens:"]
    );
}

#[test]
fn a_wrapped_label_reads_one_caption_per_line() {
    // 184 px of line: 26 characters.
    assert_eq!(
        captions_at(
            "<form>Enter the first\n name and last name of the author \
             <input type=text name=a></form>",
            200
        ),
        ["Enter the first name and", "last name of the author"]
    );
}

#[test]
fn inline_markup_merges_into_one_caption() {
    assert_eq!(
        captions(
            "<form><b>Price</b> Range: <input type=text name=p><br>\
             <i>Depart</i><b>ing</b> <input type=text name=d><br>\
             Sort <b>results\n by</b>   <i>date</i> <input type=text name=s></form>"
        ),
        ["Price Range:", "Depart ing", "Sort results by date"]
    );
}

#[test]
fn radio_captions_split_by_a_glyph() {
    assert_eq!(
        captions(
            "<form>Match <input type=radio name=m value=1> exact\n phrase\
             <input type=radio name=m value=2> any <b>of the</b> words\
             <input type=radio name=m value=3>all</form>"
        ),
        ["Match", "exact phrase", "any of the words", "all"]
    );
}
