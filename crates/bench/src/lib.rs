//! Shared helpers for the metaform benchmark suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Builds a synthetic form page with `rows` label+textbox conditions —
/// a size-controllable workload for the `parse_scaling` test (each row
/// adds two tokens plus one submit button overall).
pub fn synthetic_form(rows: usize) -> String {
    let mut html = String::from("<form>\n");
    for i in 0..rows {
        html.push_str(&format!(
            "Field{i} <input type=\"text\" name=\"f{i}\" size=\"20\"><br>\n"
        ));
    }
    html.push_str("<input type=\"submit\" value=\"Go\">\n</form>\n");
    html
}

/// Builds a synthetic form mixing pattern shapes (radio operators,
/// selects, ranges) for richer scaling workloads.
pub fn mixed_form(groups: usize) -> String {
    let mut html = String::from("<form>\n");
    for i in 0..groups {
        html.push_str(&format!(
            "Alpha{i} <input type=\"text\" name=\"a{i}\" size=\"20\"><br>\n\
             <input type=\"radio\" name=\"o{i}\" checked> exact match\n\
             <input type=\"radio\" name=\"o{i}\"> starts with<br>\n\
             Beta{i} <select name=\"b{i}\"><option>One<option>Two</select><br>\n\
             Gamma{i} <input type=\"text\" name=\"g{i}l\" size=\"6\"> to \
             <input type=\"text\" name=\"g{i}h\" size=\"6\"><br>\n"
        ));
    }
    html.push_str("<input type=\"submit\" value=\"Go\">\n</form>\n");
    html
}

/// Provenance block every `BENCH_*.json` embeds: the git revision the
/// numbers were measured at, the compiler, and the host — without
/// these, a committed benchmark file cannot be compared against a
/// fresh run with any confidence. Each field degrades to `"unknown"`
/// when the underlying probe fails (no git, sandboxed, …) rather than
/// failing the bench.
pub fn metadata_json(indent: &str) -> String {
    let run = |cmd: &str, args: &[&str]| -> Option<String> {
        let out = std::process::Command::new(cmd).args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let or_unknown = |v: Option<String>| -> String {
        match v {
            Some(s) if !s.is_empty() => s,
            _ => "unknown".into(),
        }
    };
    let git_rev = or_unknown(run("git", &["rev-parse", "--short", "HEAD"]));
    let rustc = or_unknown(run("rustc", &["--version"]));
    let host = or_unknown(std::env::var("HOSTNAME").ok().or_else(|| {
        std::fs::read_to_string("/etc/hostname")
            .ok()
            .map(|s| s.trim().to_string())
    }));
    format!(
        "{indent}\"meta\": {{\n\
         {indent}  \"git_rev\": \"{git_rev}\",\n\
         {indent}  \"rustc\": \"{rustc}\",\n\
         {indent}  \"host\": \"{host}\"\n\
         {indent}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaform_eval::timing::tokenize_source;

    #[test]
    fn synthetic_form_scales_linearly() {
        assert_eq!(tokenize_source(&synthetic_form(5)).len(), 11);
        assert_eq!(tokenize_source(&synthetic_form(12)).len(), 25);
    }

    #[test]
    fn mixed_form_has_all_widget_kinds() {
        let toks = tokenize_source(&mixed_form(2));
        use metaform_core::TokenKind;
        assert!(toks.iter().any(|t| t.kind == TokenKind::Radiobutton));
        assert!(toks.iter().any(|t| t.kind == TokenKind::SelectionList));
        assert!(toks.iter().filter(|t| t.kind == TokenKind::Textbox).count() >= 6);
    }
}
