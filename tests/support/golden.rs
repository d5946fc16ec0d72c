//! The goldens' bless-or-compare step, shared by every test that pins
//! a file under `tests/golden/`. Include it with
//! `#[path = "support/golden.rs"] mod golden;`.

use std::path::PathBuf;

/// Compares `rendered` with `tests/golden/<file>`, or, under
/// `METAFORM_BLESS=1`, writes it there instead. On drift it panics with
/// [`divergence_report`] plus whatever `explain` adds about the first
/// differing line, given its 0-based index and its golden text.
pub fn check(file: &str, rendered: &str, explain: impl FnOnce(usize, &str) -> Option<String>) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("METAFORM_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
        std::fs::write(&path, rendered).expect("write golden file");
        println!("blessed {} ({} bytes)", path.display(), rendered.len());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(first run? bless it: {})",
            path.display(),
            bless_command()
        )
    });
    if rendered != golden {
        let mut report = divergence_report(&golden, rendered);
        let line = first_difference(&golden, rendered);
        if let Some(more) = explain(line, golden.lines().nth(line).unwrap_or("")) {
            report.push_str(&more);
        }
        panic!("{}: {report}", path.display());
    }
}

fn bless_command() -> String {
    format!(
        "METAFORM_BLESS=1 cargo test --test {}",
        env!("CARGO_CRATE_NAME")
    )
}

/// Index of the first line where the two texts differ (the shorter
/// one's length when one is a prefix of the other).
fn first_difference(golden: &str, rendered: &str) -> usize {
    let (g, r) = (golden.lines().count(), rendered.lines().count());
    golden
        .lines()
        .zip(rendered.lines())
        .position(|(g, r)| g != r)
        .unwrap_or(g.min(r))
}

/// A focused mismatch report: the bless hint, then a unified diff hunk
/// around the first differing line (golden as `-`, rendered as `+`), so
/// the failure is actionable without rerunning anything.
pub fn divergence_report(golden: &str, rendered: &str) -> String {
    const CONTEXT: usize = 3;
    let golden_lines: Vec<&str> = golden.lines().collect();
    let rendered_lines: Vec<&str> = rendered.lines().collect();
    let first = first_difference(golden, rendered);
    let start = first.saturating_sub(CONTEXT);
    let g_end = golden_lines.len().min(first + 1 + CONTEXT);
    let r_end = rendered_lines.len().min(first + 1 + CONTEXT);
    let mut out = format!(
        "drifted from the golden file\nto accept the change: {}\n",
        bless_command()
    );
    out.push_str(&format!(
        "--- golden   (blessed file)\n\
         +++ rendered (current output)\n\
         @@ -{},{} +{},{} @@ first divergence at line {}\n",
        start + 1,
        g_end - start,
        start + 1,
        r_end - start,
        first + 1,
    ));
    for k in start..g_end.max(r_end) {
        match (golden_lines.get(k), rendered_lines.get(k)) {
            (Some(g), Some(r)) if g == r => out.push_str(&format!(" {g}\n")),
            (g, r) => {
                if let Some(g) = g {
                    out.push_str(&format!("-{g}\n"));
                }
                if let Some(r) = r {
                    out.push_str(&format!("+{r}\n"));
                }
            }
        }
    }
    if golden_lines.len() != rendered_lines.len() {
        out.push_str(&format!(
            "(line counts differ: golden {}, rendered {})\n",
            golden_lines.len(),
            rendered_lines.len()
        ));
    }
    out
}
