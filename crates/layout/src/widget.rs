//! Intrinsic sizes of form widgets and images.
//!
//! These mirror the era's default widget rendering closely enough that
//! adjacency and alignment between a widget and its caption come out as
//! the form author saw them.

use crate::font::{text_width, CHAR_W, LINE_H};
use metaform_html::{Document, NodeId};

/// Height of a single-line input widget.
pub const FIELD_H: i32 = 20;

/// Side of a radio button / checkbox glyph.
pub const GLYPH: i32 = 13;

/// Intrinsic `(width, height)` of a widget element, or `None` when the
/// element occupies no space (hidden inputs).
pub fn intrinsic_size(doc: &Document, node: NodeId) -> Option<(i32, i32)> {
    let tag = doc.tag(node)?;
    match tag {
        "input" => input_size(doc, node),
        "select" => Some(select_size(doc, node)),
        "textarea" => Some(textarea_size(doc, node)),
        "button" => Some(button_size(&doc.trimmed_text(node))),
        "img" => Some(image_size(doc, node)),
        _ => None,
    }
}

fn attr_i32(doc: &Document, node: NodeId, name: &str) -> Option<i32> {
    doc.attr(node, name).and_then(|v| v.trim().parse().ok())
}

fn input_size(doc: &Document, node: NodeId) -> Option<(i32, i32)> {
    let ty = doc.attr(node, "type").unwrap_or("text");
    let is = |name: &str| ty.eq_ignore_ascii_case(name);
    if is("hidden") {
        None
    } else if is("radio") || is("checkbox") {
        Some((GLYPH, GLYPH))
    } else if is("submit") || is("reset") || is("button") {
        let label = doc
            .attr(node, "value")
            .filter(|v| !v.trim().is_empty())
            .unwrap_or("Submit");
        Some(button_size(label))
    } else if is("image") {
        Some(image_size(doc, node))
    } else if is("file") {
        let (w, h) = text_field_size(doc, node);
        Some((w + 80, h.max(22))) // text field plus Browse… button
    } else {
        // text, password, and anything unrecognized renders as a textbox.
        Some(text_field_size(doc, node))
    }
}

fn text_field_size(doc: &Document, node: NodeId) -> (i32, i32) {
    let size = attr_i32(doc, node, "size").unwrap_or(20).clamp(1, 120);
    (size * CHAR_W + 8, FIELD_H)
}

fn button_size(label: &str) -> (i32, i32) {
    (text_width(label).max(CHAR_W * 4) + 24, 22)
}

fn image_size(doc: &Document, node: NodeId) -> (i32, i32) {
    let w = attr_i32(doc, node, "width").unwrap_or(50).clamp(1, 800);
    let h = attr_i32(doc, node, "height").unwrap_or(20).clamp(1, 600);
    (w, h)
}

fn select_size(doc: &Document, node: NodeId) -> (i32, i32) {
    let longest = options(doc, node)
        .map(|o| text_width(&doc.trimmed_text(o)))
        .max()
        .unwrap_or(0);
    let rows = attr_i32(doc, node, "size").unwrap_or(1).max(1);
    let h = if rows <= 1 {
        FIELD_H
    } else {
        rows.min(option_count(doc, node).max(1)) * LINE_H + 4
    };
    // 24px accounts for the drop-down arrow.
    (longest.max(CHAR_W * 3) + 24, h)
}

fn option_count(doc: &Document, node: NodeId) -> i32 {
    options(doc, node).count() as i32
}

/// The `<option>` elements under a `<select>`, in document order.
fn options<'d>(doc: &'d Document<'d>, node: NodeId) -> impl Iterator<Item = NodeId> + 'd {
    doc.descendants(node)
        .filter(move |&n| doc.tag(n) == Some("option"))
}

fn textarea_size(doc: &Document, node: NodeId) -> (i32, i32) {
    let cols = attr_i32(doc, node, "cols").unwrap_or(30).clamp(1, 120);
    let rows = attr_i32(doc, node, "rows").unwrap_or(3).clamp(1, 50);
    (cols * CHAR_W + 8, rows * LINE_H + 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaform_html::parse;

    fn size_of(html: &str, tag: &str) -> Option<(i32, i32)> {
        let doc = parse(html);
        let node = doc.elements_by_tag(doc.root(), tag)[0];
        intrinsic_size(&doc, node)
    }

    #[test]
    fn textbox_scales_with_size_attr() {
        let small = size_of(r#"<input type=text size=10>"#, "input").unwrap();
        let large = size_of(r#"<input type=text size=40>"#, "input").unwrap();
        assert!(large.0 > small.0);
        assert_eq!(small.1, FIELD_H);
        let default = size_of(r#"<input type=text>"#, "input").unwrap();
        assert_eq!(default.0, 20 * CHAR_W + 8);
    }

    #[test]
    fn hidden_inputs_take_no_space() {
        assert_eq!(size_of(r#"<input type=hidden name=sid>"#, "input"), None);
    }

    #[test]
    fn radio_and_checkbox_are_glyphs() {
        assert_eq!(
            size_of(r#"<input type=radio>"#, "input"),
            Some((GLYPH, GLYPH))
        );
        assert_eq!(
            size_of(r#"<input type=checkbox>"#, "input"),
            Some((GLYPH, GLYPH))
        );
    }

    #[test]
    fn select_width_tracks_longest_option() {
        let narrow = size_of("<select><option>NY</select>", "select").unwrap();
        let wide = size_of("<select><option>NY<option>Massachusetts</select>", "select").unwrap();
        assert!(wide.0 > narrow.0);
        assert_eq!(wide.1, FIELD_H, "single-row select");
    }

    #[test]
    fn multirow_select_height() {
        let s = size_of(
            "<select size=4><option>a<option>b<option>c<option>d<option>e</select>",
            "select",
        )
        .unwrap();
        assert_eq!(s.1, 4 * LINE_H + 4);
        let fewer = size_of("<select size=4><option>a</select>", "select").unwrap();
        assert_eq!(fewer.1, LINE_H + 4, "clamped to option count");
    }

    #[test]
    fn buttons_size_to_caption() {
        let go = size_of(r#"<input type=submit value=Go>"#, "input").unwrap();
        let find = size_of(r#"<input type=submit value="Find Flights Now">"#, "input").unwrap();
        assert!(find.0 > go.0);
        let unlabeled = size_of(r#"<input type=submit>"#, "input").unwrap();
        assert_eq!(unlabeled.0, text_width("Submit") + 24);
    }

    #[test]
    fn textarea_uses_cols_rows() {
        let s = size_of(r#"<textarea cols=40 rows=5></textarea>"#, "textarea").unwrap();
        assert_eq!(s, (40 * CHAR_W + 8, 5 * LINE_H + 8));
    }

    #[test]
    fn image_attrs_respected_with_clamps() {
        let s = size_of(r#"<img width=120 height=30>"#, "img").unwrap();
        assert_eq!(s, (120, 30));
        let d = size_of(r#"<img>"#, "img").unwrap();
        assert_eq!(d, (50, 20));
        let huge = size_of(r#"<img width=99999 height=99999>"#, "img").unwrap();
        assert_eq!(huge, (800, 600));
    }

    #[test]
    fn bogus_size_attr_falls_back() {
        let s = size_of(r#"<input type=text size=banana>"#, "input").unwrap();
        assert_eq!(s.0, 20 * CHAR_W + 8);
    }
}
