//! The `metaform` CLI serves every page through one batch pipeline run
//! and narrates each failed page from its failure record: the warning
//! on stderr must name the same rung as the report line on stdout.

use metaform::{FormExtractor, Provenance};
use metaform_datasets::fixtures::qam;
use std::io::Write;
use std::process::{Command, Stdio};

/// Runs the CLI on `page` from stdin; returns (stdout, stderr).
fn metaform(args: &[&str], page: &str) -> (String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_metaform"))
        .args(args)
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the CLI starts");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(page.as_bytes())
        .expect("page written");
    let out = child.wait_with_output().expect("the CLI exits");
    assert!(out.status.success(), "{out:?}");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

/// The `(via …, page N)` rung named on a line of `text`, if any.
fn named_rung(text: &str) -> Option<&str> {
    text.lines().find_map(|line| {
        let start = line.find("(via ")?;
        Some(&line[start..])
    })
}

#[test]
fn warning_and_report_name_the_rung_actually_served() {
    // The lowest instance cap at which Qam's (paper Figure 3(a))
    // truncated parse is served as a salvaged partial rather than
    // degraded to the baseline.
    let qam = qam().html;
    let cap = (1..1000)
        .find(|&cap| {
            FormExtractor::new().max_instances(cap).extract(&qam).via == Provenance::PartialSalvage
        })
        .expect("some cap salvages Qam");
    let cap = cap.to_string();
    let cases = [
        (
            qam.as_str(),
            vec!["--max-instances", cap.as_str()],
            "salvaged partial parse",
        ),
        ("<form></form>", vec![], "proximity-baseline fallback"),
    ];
    for (page, args, rung) in cases {
        for adaptive in [false, true] {
            let mut args = args.clone();
            if adaptive {
                args.extend(["--adaptive", "--max-retries", "0"]);
            }
            let (stdout, stderr) = metaform(&args, page);
            let want = format!("(via {rung}, page 0)");
            assert_eq!(named_rung(&stdout), Some(want.as_str()), "{stdout}");
            let warning = stderr
                .lines()
                .find(|l| l.starts_with("warning: "))
                .unwrap_or_else(|| panic!("no warning line: {stderr}"));
            assert_eq!(named_rung(warning), Some(want.as_str()), "{stderr}");
            assert!(
                warning.contains("after 1 attempt(s)"),
                "one pipeline run per page: {warning}"
            );
        }
    }
}
