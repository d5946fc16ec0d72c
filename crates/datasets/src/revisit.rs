//! Revisit scenarios: deterministic single-edit mutations of the
//! survey corpus, modelling a crawler re-fetching a page that changed
//! slightly since the last visit.
//!
//! Three mutation families cover the common edit shapes. An edited
//! page misses the parse cache's exact-hit tier and must parse exactly
//! as it would cold:
//!
//! - **label edit** — one attribute label reworded (token text
//!   changes, structure unchanged);
//! - **row insertion** — a new labelled textbox appears near the
//!   submit button (token count grows);
//! - **bbox jitter** — a widget's rendered width changes (geometry
//!   changes with identical text).
//!
//! Every mutator is pure string surgery on the page HTML — no
//! randomness — so a scenario list is reproducible across runs. The
//! `cache_parity` suite re-extracts each mutated page cold and via a
//! cache primed with the original and requires byte-identical reports
//! (on the survey corpus and on generated pages).

/// Which family a scenario's edit belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationKind {
    /// One label's text reworded in place.
    LabelEdit,
    /// A labelled textbox inserted before the submit button.
    InsertRow,
    /// A widget's `size` attribute (rendered width) bumped.
    BboxJitter,
}

impl MutationKind {
    /// Stable scenario-name suffix.
    pub fn as_str(self) -> &'static str {
        match self {
            MutationKind::LabelEdit => "label-edit",
            MutationKind::InsertRow => "insert-row",
            MutationKind::BboxJitter => "bbox-jitter",
        }
    }
}

/// One revisit: a corpus page and its mutated re-fetch.
#[derive(Clone, Debug)]
pub struct RevisitScenario {
    /// `"<page>/<mutation>"`, e.g. `"qam/label-edit"`.
    pub name: String,
    /// The page as first visited.
    pub original: String,
    /// The page as re-fetched, one edit applied.
    pub mutated: String,
    /// The edit family.
    pub kind: MutationKind,
}

/// Byte range of the first editable label: plain text inside the
/// page's first `<b>…</b>` or `<td>…</td>`, else the first line-start
/// text run that captions an `<input>`/`<select>` (the flow-layout
/// label shape).
fn label_span(html: &str) -> Option<(usize, usize)> {
    for (open, close) in [("<b>", "</b>"), ("<td>", "</td>")] {
        let mut from = 0;
        while let Some(rel) = html[from..].find(open) {
            let start = from + rel + open.len();
            let Some(len) = html[start..].find(close) else {
                break;
            };
            let inner = &html[start..start + len];
            if !inner.trim().is_empty() && len <= 40 && !inner.contains('<') {
                return Some((start, start + len));
            }
            from = start + len;
        }
    }
    for (at, _) in html.match_indices('\n') {
        let line = &html[at + 1..];
        let text_len = line.find('<')?;
        let text = line[..text_len].trim_end();
        if (line[text_len..].starts_with("<input") || line[text_len..].starts_with("<select"))
            && !text.is_empty()
            && text.chars().all(|c| c.is_ascii_alphabetic() || c == ' ')
        {
            return Some((at + 1, at + 1 + text.len()));
        }
    }
    None
}

/// Rewords the page's first label in place. `None` when no label-like
/// text is found.
pub fn label_edit(html: &str) -> Option<String> {
    let (start, end) = label_span(html)?;
    let replacement = if html[start..end].trim() == "Keywords" {
        "Topic"
    } else {
        "Keywords"
    };
    Some(format!("{}{replacement}{}", &html[..start], &html[end..]))
}

/// Inserts a labelled textbox just before the submit button (falling
/// back to just before `</form>`), the way sources grow a field
/// between crawls. `None` when the page has neither anchor.
pub fn insert_row(html: &str) -> Option<String> {
    let row = "Notes <input type=\"text\" name=\"revisit_note\" size=\"12\"><br>\n";
    let at = html
        .rfind("<input type=\"submit\"")
        .or_else(|| html.rfind("</form>"))?;
    Some(format!("{}{row}{}", &html[..at], &html[at..]))
}

/// Widens the first sized widget by bumping its `size` attribute —
/// the token text is unchanged but its bounding box is not. `None`
/// when no widget carries a `size`.
pub fn bbox_jitter(html: &str) -> Option<String> {
    let at = html.find("size=\"")? + "size=\"".len();
    let len = html[at..].find('"')?;
    let size: u32 = html[at..at + len].parse().ok()?;
    Some(format!("{}{}{}", &html[..at], size + 3, &html[at + len..]))
}

/// Every applicable mutation of every [`crate::survey_corpus`] page,
/// in corpus order — the revisit workload for the parity suite.
/// Deterministic: same list every call.
pub fn revisit_scenarios() -> Vec<RevisitScenario> {
    let mut out = Vec::new();
    for (name, html) in crate::survey_corpus() {
        let edits = [
            (MutationKind::LabelEdit, label_edit(&html)),
            (MutationKind::InsertRow, insert_row(&html)),
            (MutationKind::BboxJitter, bbox_jitter(&html)),
        ];
        for (kind, mutated) in edits {
            let Some(mutated) = mutated else { continue };
            out.push(RevisitScenario {
                name: format!("{name}/{}", kind.as_str()),
                original: html.clone(),
                mutated,
                kind,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutators_edit_the_qam_fixture_as_documented() {
        let qam = crate::fixtures::qam().html;
        let edited = label_edit(&qam).expect("qam has labels");
        assert!(edited.contains("<b>Keywords</b>"), "first label reworded");
        assert!(!edited.contains("<b>Author</b>"));

        let grown = insert_row(&qam).expect("qam has a submit button");
        assert!(grown.contains("name=\"revisit_note\""));
        assert!(
            grown.find("revisit_note").unwrap() < grown.find("type=\"submit\"").unwrap(),
            "row lands before the submit button"
        );

        let jittered = bbox_jitter(&qam).expect("qam has sized textboxes");
        assert!(jittered.contains("size=\"33\""), "30 bumped to 33");
        assert_eq!(jittered.len(), qam.len(), "text length preserved");
    }

    #[test]
    fn label_edit_avoids_replacing_a_label_with_itself() {
        let html = "<form><td>Keywords</td><input type=\"text\" name=\"q\"></form>";
        let edited = label_edit(html).expect("has a label");
        assert!(edited.contains("<td>Topic</td>"), "{edited}");
    }

    #[test]
    fn scenarios_cover_the_corpus_and_are_deterministic() {
        let scenarios = revisit_scenarios();
        let pages = crate::survey_corpus().len();
        assert!(
            scenarios.len() >= 2 * pages,
            "expected broad mutator coverage, got {} scenarios over {pages} pages",
            scenarios.len()
        );
        let inserted = scenarios
            .iter()
            .filter(|s| s.kind == MutationKind::InsertRow)
            .count();
        assert_eq!(inserted, pages, "insert_row applies to every page");
        for s in &scenarios {
            assert_ne!(s.mutated, s.original, "{} must change the page", s.name);
        }
        let again = revisit_scenarios();
        assert_eq!(scenarios.len(), again.len());
        assert!(scenarios
            .iter()
            .zip(&again)
            .all(|(a, b)| a.name == b.name && a.mutated == b.mutated));
    }
}
