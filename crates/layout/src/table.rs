//! Table layout: auto column sizing, colspan/rowspan, cell padding and
//! spacing, middle vertical alignment — the workhorse of 2004-era form
//! design.

use crate::engine::{Flow, PROBE_W};
use crate::output::Layout;
use crate::style::{block_margin, CELL_PADDING, CELL_SPACING};
use metaform_core::BBox;
use metaform_html::{Document, NodeId};

/// A placed cell in the table grid.
struct Cell {
    node: NodeId,
    row: usize,
    col: usize,
    colspan: usize,
    rowspan: usize,
}

/// Lays out `<table>`; returns the flow y below it.
///
/// Each cell is laid out exactly once: at its final column width and
/// from y = 0, which yields its content height; once every row height
/// is known, the cell's content moves into its row.
pub(crate) fn layout_table(
    flow: &mut Flow<'_>,
    buf: &mut Layout,
    table: NodeId,
    x: i32,
    y: i32,
    width: i32,
) -> i32 {
    let m = block_margin("table");
    let mut cur_y = y + m;
    let doc = flow.doc;

    // Captions render as blocks above the grid.
    for &cap in doc.children(table) {
        if doc.tag(cap) == Some("caption") {
            cur_y = flow.layout_block(buf, cap, x, cur_y, width);
        }
    }

    let rows = collect_rows(doc, table);
    let cells = build_grid(doc, &rows);
    if cells.is_empty() {
        buf.set_bbox(table, BBox::new(x, cur_y, x, cur_y));
        return cur_y + m;
    }
    let nrows = rows.len();
    let col_w = column_widths(flow, &cells);
    let col_x = prefix_origins(x, &col_w);

    // Lay each cell out at its column width; its height sets its rows.
    let mut row_h = vec![0i32; nrows];
    let mut content_h = Vec::with_capacity(cells.len());
    for cell in &cells {
        let inner_w = (span_width(&col_w, cell) - 2 * CELL_PADDING).max(1);
        let children = doc.children(cell.node);
        let end = flow.layout_children(buf, children, col_x[cell.col] + CELL_PADDING, 0, inner_w);
        let h = children
            .iter()
            .fold(end, |h, &c| h.max(buf.subtree_bottom(doc, c)));
        content_h.push(h);
        if cell.rowspan == 1 {
            row_h[cell.row] = row_h[cell.row].max(h + 2 * CELL_PADDING);
        }
    }
    for (cell, &h) in cells.iter().zip(&content_h) {
        if cell.rowspan > 1 {
            let covered = cell.row..(cell.row + cell.rowspan).min(nrows);
            let have: i32 = row_h[covered.clone()].iter().sum::<i32>()
                + (cell.rowspan as i32 - 1) * CELL_SPACING;
            let need = h + 2 * CELL_PADDING;
            if need > have {
                // Give the deficit to the last covered row.
                let last = covered.end - 1;
                row_h[last] += need - have;
            }
        }
    }
    let row_y = prefix_origins(cur_y, &row_h);

    // Move each cell's content into its row.
    for (cell, &h) in cells.iter().zip(&content_h) {
        let cx = col_x[cell.col];
        let cy = row_y[cell.row];
        let rect_w = span_width(&col_w, cell);
        let rect_h = span_height(&row_h, cell);
        // Vertical alignment: HTML defaults to middle; `valign` on the
        // cell (or its row) overrides, as era markup commonly did for
        // label columns.
        let free = rect_h - 2 * CELL_PADDING - h;
        let dy = if free > 1 {
            let valign = doc
                .attr(cell.node, "valign")
                .or_else(|| doc.parent(cell.node).and_then(|r| doc.attr(r, "valign")));
            match valign {
                Some(v) if v.eq_ignore_ascii_case("top") => 0,
                Some(v) if v.eq_ignore_ascii_case("bottom") => free,
                _ => free / 2,
            }
        } else {
            0
        };
        for &c in doc.children(cell.node) {
            buf.translate_subtree(doc, c, 0, cy + CELL_PADDING + dy);
        }
        buf.set_bbox(cell.node, BBox::new(cx, cy, cx + rect_w, cy + rect_h));
    }

    // Row, section, and table boxes.
    let table_w = table_width(&col_w);
    for (r, &row) in rows.iter().enumerate() {
        buf.set_bbox(
            row,
            BBox::new(x, row_y[r], x + table_w, row_y[r] + row_h[r]),
        );
    }
    let bottom = row_y[nrows - 1] + row_h[nrows - 1] + CELL_SPACING;
    buf.set_bbox(table, BBox::new(x, cur_y, x + table_w, bottom));
    bottom + m
}

/// Preferred right edge of `<table>` placed at `x` within `width`: its
/// own width (tables size to their columns, not to the space given),
/// or a caption's content when that reaches further.
pub(crate) fn pref_table(flow: &Flow<'_>, table: NodeId, x: i32, width: i32) -> i32 {
    let doc = flow.doc;
    let captions = doc
        .children(table)
        .iter()
        .filter(|&&c| doc.tag(c) == Some("caption"))
        .map(|&cap| flow.pref_right(doc.children(cap), x, width))
        .max()
        .unwrap_or(0);
    let cells = build_grid(doc, &collect_rows(doc, table));
    let table_w = if cells.is_empty() {
        0
    } else {
        table_width(&column_widths(flow, &cells))
    };
    captions.max(x + table_w)
}

/// Auto column widths: each column takes its widest single-column
/// cell's preferred width; a spanning cell spreads any deficit across
/// the columns it covers.
fn column_widths(flow: &Flow<'_>, cells: &[Cell]) -> Vec<i32> {
    let doc = flow.doc;
    let ncols = cells.iter().map(|c| c.col + c.colspan).max().unwrap_or(1);
    let pref =
        |cell: &Cell| flow.pref_right(doc.children(cell.node), 0, PROBE_W) + 2 * CELL_PADDING;
    let mut col_w = vec![0i32; ncols];
    for cell in cells.iter().filter(|c| c.colspan == 1) {
        col_w[cell.col] = col_w[cell.col].max(pref(cell));
    }
    for cell in cells.iter().filter(|c| c.colspan > 1) {
        let p = pref(cell);
        let covered = cell.col..(cell.col + cell.colspan).min(ncols);
        let have: i32 =
            col_w[covered.clone()].iter().sum::<i32>() + (cell.colspan as i32 - 1) * CELL_SPACING;
        if p > have {
            let deficit = p - have;
            let n = covered.len() as i32;
            for (k, c) in covered.enumerate() {
                col_w[c] += deficit / n + i32::from((k as i32) < deficit % n);
            }
        }
    }
    col_w
}

/// Full table width: the columns plus the spacing around them.
fn table_width(col_w: &[i32]) -> i32 {
    col_w.iter().sum::<i32>() + (col_w.len() as i32 + 1) * CELL_SPACING
}

/// Rows of a table in document order, looking through sections.
fn collect_rows(doc: &Document, table: NodeId) -> Vec<NodeId> {
    let mut rows = Vec::new();
    for &child in doc.children(table) {
        match doc.tag(child) {
            Some("tr") => rows.push(child),
            Some("thead" | "tbody" | "tfoot") => {
                rows.extend(
                    doc.children(child)
                        .iter()
                        .copied()
                        .filter(|&c| doc.tag(c) == Some("tr")),
                );
            }
            _ => {}
        }
    }
    rows
}

/// Assigns grid coordinates honoring colspan/rowspan occupancy.
fn build_grid(doc: &Document, rows: &[NodeId]) -> Vec<Cell> {
    let mut cells = Vec::new();
    // `busy_until[c]`: first row not covered by a cell already placed
    // in column `c`. Cells arrive row by row, so a slot is free exactly
    // when every earlier cover of its column has ended.
    let mut busy_until: Vec<usize> = Vec::new();
    for (r, &row) in rows.iter().enumerate() {
        let mut c = 0usize;
        for &child in doc.children(row) {
            if !matches!(doc.tag(child), Some("td" | "th")) {
                continue;
            }
            while busy_until.get(c).is_some_and(|&until| until > r) {
                c += 1;
            }
            let colspan = attr_usize(doc, child, "colspan").clamp(1, 50);
            let rowspan = attr_usize(doc, child, "rowspan").clamp(1, rows.len() - r);
            if busy_until.len() < c + colspan {
                busy_until.resize(c + colspan, 0);
            }
            busy_until[c..c + colspan].fill(r + rowspan);
            cells.push(Cell {
                node: child,
                row: r,
                col: c,
                colspan,
                rowspan,
            });
            c += colspan;
        }
    }
    cells
}

fn attr_usize(doc: &Document, node: NodeId, name: &str) -> usize {
    doc.attr(node, name)
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1)
}

fn span_width(col_w: &[i32], cell: &Cell) -> i32 {
    let end = (cell.col + cell.colspan).min(col_w.len());
    col_w[cell.col..end].iter().sum::<i32>() + (end - cell.col - 1) as i32 * CELL_SPACING
}

fn span_height(row_h: &[i32], cell: &Cell) -> i32 {
    let end = (cell.row + cell.rowspan).min(row_h.len());
    row_h[cell.row..end].iter().sum::<i32>() + (end - cell.row - 1) as i32 * CELL_SPACING
}

/// Origins: `origin + spacing`, then `+ extent + spacing` per slot.
fn prefix_origins(origin: i32, extents: &[i32]) -> Vec<i32> {
    let mut out = Vec::with_capacity(extents.len());
    let mut cur = origin + CELL_SPACING;
    for &e in extents {
        out.push(cur);
        cur += e + CELL_SPACING;
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::engine::layout;
    use metaform_core::BBox;
    use metaform_html::parse;

    fn cell_boxes(html: &str) -> (metaform_html::Document<'_>, crate::output::Layout) {
        let doc = parse(html);
        let lay = layout(&doc);
        (doc, lay)
    }

    #[test]
    fn two_by_two_grid_alignment() {
        let (doc, lay) = cell_boxes(
            "<table><tr><td>Author</td><td><input type=text size=30></td></tr>\
             <tr><td>Title</td><td><input type=text size=30></td></tr></table>",
        );
        let tds = doc.elements_by_tag(doc.root(), "td");
        let b: Vec<BBox> = tds.iter().map(|&t| lay.bbox(t).unwrap()).collect();
        // Same column → same left edge; same row → same top edge.
        assert_eq!(b[0].left, b[2].left);
        assert_eq!(b[1].left, b[3].left);
        assert_eq!(b[0].top, b[1].top);
        assert_eq!(b[2].top, b[3].top);
        assert!(b[1].left > b[0].right);
        assert!(b[2].top > b[0].bottom);
    }

    #[test]
    fn column_width_tracks_widest_cell() {
        let (doc, lay) = cell_boxes(
            "<table><tr><td>x</td><td>y</td></tr>\
             <tr><td>a much longer label here</td><td>z</td></tr></table>",
        );
        let tds = doc.elements_by_tag(doc.root(), "td");
        let first_col_w = lay.bbox(tds[0]).unwrap().width();
        let long = lay.bbox(tds[2]).unwrap().width();
        assert_eq!(first_col_w, long, "shared column width");
        assert!(first_col_w > 24 * 7, "wide enough for the long label");
    }

    #[test]
    fn label_and_field_in_adjacent_cells_share_row() {
        let (doc, lay) =
            cell_boxes("<table><tr><td>From</td><td><input type=text name=f></td></tr></table>");
        let td_label = doc.elements_by_tag(doc.root(), "td")[0];
        let label_text = doc.children(td_label)[0];
        let frag = lay.fragments(label_text)[0].bbox;
        let input = lay
            .bbox(doc.elements_by_tag(doc.root(), "input")[0])
            .unwrap();
        assert!(frag.v_overlap(&input) > 8, "vertically centered together");
        assert!(frag.right < input.left);
    }

    #[test]
    fn colspan_spans_columns() {
        let (doc, lay) = cell_boxes(
            "<table><tr><td colspan=2>Departure date</td></tr>\
             <tr><td>aaaaaaaaaa</td><td>bbbbbbbbbb</td></tr></table>",
        );
        let tds = doc.elements_by_tag(doc.root(), "td");
        let span = lay.bbox(tds[0]).unwrap();
        let a = lay.bbox(tds[1]).unwrap();
        let b = lay.bbox(tds[2]).unwrap();
        assert_eq!(span.left, a.left);
        assert_eq!(span.right, b.right);
    }

    #[test]
    fn hr_in_spanning_cell_does_not_widen_columns() {
        // A rule across the form: its box takes whatever width the cell
        // gets, so it must not ask for any width of its own.
        let rows = "<tr><td>Author</td><td><input type=text name=a></td></tr>\
                    <tr><td>Title</td><td><input type=text name=t></td></tr>";
        let plain = format!("<table>{rows}</table>");
        let ruled = format!("<table>{rows}<tr><td colspan=2><hr></td></tr></table>");
        fn widths(html: &str) -> (metaform_html::Document<'_>, crate::output::Layout, Vec<i32>) {
            let (doc, lay) = cell_boxes(html);
            let tds = doc.elements_by_tag(doc.root(), "td");
            let w: Vec<i32> = tds[..4]
                .iter()
                .map(|&t| lay.bbox(t).unwrap().width())
                .collect();
            (doc, lay, w)
        }
        let (_, _, plain_w) = widths(&plain);
        let (doc, lay, ruled_w) = widths(&ruled);
        assert_eq!(ruled_w, plain_w, "column widths unchanged by the rule");
        let label = doc.children(doc.elements_by_tag(doc.root(), "td")[0])[0];
        let label = lay.fragments(label)[0].bbox;
        let input = lay
            .bbox(doc.elements_by_tag(doc.root(), "input")[0])
            .unwrap();
        assert!(
            input.left - label.right < 40,
            "widget stays beside its label: {label:?} {input:?}"
        );
        let hr = lay.bbox(doc.elements_by_tag(doc.root(), "hr")[0]).unwrap();
        let table = lay
            .bbox(doc.elements_by_tag(doc.root(), "table")[0])
            .unwrap();
        assert!(table.contains(&hr), "the rule spans the table, not beyond");
    }

    #[test]
    fn rowspan_occupies_grid_slot() {
        let (doc, lay) = cell_boxes(
            "<table><tr><td rowspan=2>Price</td><td>min</td></tr>\
             <tr><td>max</td></tr></table>",
        );
        let tds = doc.elements_by_tag(doc.root(), "td");
        let price = lay.bbox(tds[0]).unwrap();
        let min = lay.bbox(tds[1]).unwrap();
        let max = lay.bbox(tds[2]).unwrap();
        assert_eq!(min.left, max.left, "second column aligned");
        assert!(price.bottom >= max.top, "rowspan reaches the second row");
        assert!(max.top > min.top);
    }

    #[test]
    fn nested_table_stays_inside_cell() {
        let (doc, lay) = cell_boxes(
            "<table><tr><td><table><tr><td>inner</td></tr></table></td>\
             <td>outer</td></tr></table>",
        );
        let tables = doc.elements_by_tag(doc.root(), "table");
        let outer_cell = doc.elements_by_tag(tables[0], "td")[0];
        let inner = lay.bbox(tables[1]).unwrap();
        let cell = lay.bbox(outer_cell).unwrap();
        assert!(cell.contains(&inner));
    }

    #[test]
    fn sections_are_transparent() {
        let (doc, lay) = cell_boxes(
            "<table><thead><tr><td>h</td></tr></thead>\
             <tbody><tr><td>b</td></tr></tbody></table>",
        );
        let trs = doc.elements_by_tag(doc.root(), "tr");
        let h = lay.bbox(trs[0]).unwrap();
        let b = lay.bbox(trs[1]).unwrap();
        assert!(b.top > h.bottom - 1);
        assert_eq!(h.left, b.left);
    }

    #[test]
    fn empty_table_is_harmless() {
        let (doc, lay) = cell_boxes("before<table></table>after");
        let t = doc.elements_by_tag(doc.root(), "table")[0];
        let b = lay.bbox(t).unwrap();
        assert_eq!(b.width(), 0);
    }

    #[test]
    fn caption_sits_above_grid() {
        let (doc, lay) =
            cell_boxes("<table><caption>Search</caption><tr><td>body</td></tr></table>");
        let cap = doc.elements_by_tag(doc.root(), "caption")[0];
        let td = doc.elements_by_tag(doc.root(), "td")[0];
        assert!(lay.bbox(cap).unwrap().bottom <= lay.bbox(td).unwrap().top);
    }

    #[test]
    fn valign_top_and_bottom_override_centering() {
        let html = |valign: &str| {
            format!(
                "<table><tr><td valign={valign}>Comments</td>\
                 <td><textarea rows=5 cols=20></textarea></td></tr></table>"
            )
        };
        let frag_top = |v: &str| {
            let src = html(v);
            let (doc, lay) = cell_boxes(&src);
            let td = doc.elements_by_tag(doc.root(), "td")[0];
            let text = doc.children(td)[0];
            let row = lay.bbox(doc.elements_by_tag(doc.root(), "tr")[0]).unwrap();
            (lay.fragments(text)[0].bbox, row)
        };
        let (top_frag, row) = frag_top("top");
        assert!(top_frag.top - row.top <= 4, "label hugs the row top");
        let (bot_frag, row) = frag_top("bottom");
        assert!(
            row.bottom - bot_frag.bottom <= 4,
            "label hugs the row bottom"
        );
        let (mid_frag, row) = frag_top("middle");
        assert!(mid_frag.top - row.top > 10);
        assert!(row.bottom - mid_frag.bottom > 10);
    }

    #[test]
    fn valign_inherits_from_row() {
        let (doc, lay) = cell_boxes(
            "<table><tr valign=top><td>Label</td>\
             <td><textarea rows=4 cols=10></textarea></td></tr></table>",
        );
        let td = doc.elements_by_tag(doc.root(), "td")[0];
        let text = doc.children(td)[0];
        let frag = lay.fragments(text)[0].bbox;
        let row = lay.bbox(doc.elements_by_tag(doc.root(), "tr")[0]).unwrap();
        assert!(frag.top - row.top <= 4);
    }

    #[test]
    fn vertical_centering_in_tall_row() {
        // Second cell is tall (textarea); first cell's single text line
        // should center against it.
        let (doc, lay) = cell_boxes(
            "<table><tr><td>Comments</td><td><textarea rows=5 cols=20></textarea></td></tr></table>",
        );
        let label_td = doc.elements_by_tag(doc.root(), "td")[0];
        let text = doc.children(label_td)[0];
        let frag = lay.fragments(text)[0].bbox;
        let ta = lay
            .bbox(doc.elements_by_tag(doc.root(), "textarea")[0])
            .unwrap();
        let row = lay.bbox(doc.elements_by_tag(doc.root(), "tr")[0]).unwrap();
        assert!(frag.top > row.top + 10, "label pushed down toward center");
        assert!(frag.v_overlap(&ta) > 0);
    }
}
