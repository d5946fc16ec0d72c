//! Plain-text tables and simple series plots for experiment output.

/// A fixed-column text table.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows exist.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as RFC-4180-style CSV (quotes doubled, fields quoted
    /// when they contain commas, quotes, or newlines).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let row_line = |cells: &[String]| -> String {
            cells.iter().map(|c| field(c)).collect::<Vec<_>>().join(",")
        };
        out.push_str(&row_line(&self.headers));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row_line(row));
            out.push('\n');
        }
        out
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncol) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate().take(ncol) {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                for _ in cell.chars().count()..widths[i] {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as `0.873`.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a percentage as `87.3%`.
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Renders an ASCII bar chart line: label, value, proportional bar.
pub fn bar(label: &str, value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    }
    .min(width);
    format!("{label:<24} {value:>8.2} |{}", "#".repeat(filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(&["dataset", "P", "R"]);
        t.row(&["Basic", "0.9", "0.92"].map(String::from));
        t.row(&["NewSource", "0.95", "0.97"].map(String::from));
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("dataset"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "P" column starts at the same offset everywhere.
        let col = lines[0].find('P').unwrap();
        assert_eq!(&lines[2][col..col + 3], "0.9");
        assert_eq!(&lines[3][col..col + 4], "0.95");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn short_rows_padded() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only"].map(String::from));
        assert!(t.render().contains("only"));
    }

    #[test]
    fn csv_escapes_properly() {
        let mut t = TextTable::new(&["name", "values"]);
        t.row(&["plain", "a,b"].map(String::from));
        t.row(&["with \"quotes\"", "line\nbreak"].map(String::from));
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.split('\n').collect();
        assert_eq!(lines[0], "name,values");
        assert_eq!(lines[1], "plain,\"a,b\"");
        assert!(lines[2].starts_with("\"with \"\"quotes\"\"\""));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.87345), "0.873");
        assert_eq!(pct(69.444), "69.4%");
        let b = bar("x", 5.0, 10.0, 10);
        assert!(b.contains("|#####"));
        assert!(!bar("x", 0.0, 0.0, 10).contains('#'));
    }
}
