//! End-to-end pipeline tests across crates: HTML → layout → tokens →
//! parse → merge, exercising each condition-pattern family.

use metaform::{DomainKind, FormExtractor};

fn extract(html: &str) -> metaform::Extraction {
    FormExtractor::new().extract(html)
}

fn attrs(e: &metaform::Extraction) -> Vec<String> {
    e.report
        .conditions
        .iter()
        .map(|c| c.attribute.clone())
        .collect()
}

#[test]
fn every_pattern_family_in_one_form() {
    let html = r#"
    <form>
      Title <input type="text" name="title" size="25"><br>
      Genre <select name="genre"><option>Action<option>Comedy<option>Drama</select><br>
      Price <input type="text" name="plo" size="6"> to <input type="text" name="phi" size="6"><br>
      Released <select name="m"><option>January<option>February<option>March<option>April<option>May<option>June<option>July<option>August<option>September<option>October<option>November<option>December</select>
      <select name="d"><option>1<option>2<option>3<option>4<option>5<option>6<option>7<option>8<option>9<option>10<option>11<option>12<option>13<option>14<option>15<option>16<option>17<option>18<option>19<option>20<option>21<option>22<option>23<option>24<option>25<option>26<option>27<option>28<option>29<option>30<option>31</select><br>
      Copies <select name="n"><option>1<option>2<option>3<option>4</select><br>
      Format <input type="radio" name="f" checked> DVD <input type="radio" name="f"> VHS<br>
      <input type="checkbox" name="instock"> In stock only<br>
      <input type="submit" value="Search"> <input type="reset" value="Clear">
    </form>"#;
    let e = extract(html);
    let got = attrs(&e);
    for want in [
        "Title",
        "Genre",
        "Price",
        "Released",
        "Copies",
        "Format",
        "In stock only",
    ] {
        assert!(got.contains(&want.to_string()), "{want} missing: {got:?}");
    }
    let by = |a: &str| {
        e.report
            .conditions
            .iter()
            .find(|c| c.attribute == a)
            .unwrap()
    };
    assert_eq!(by("Title").domain.kind, DomainKind::Text);
    assert_eq!(by("Genre").domain.kind, DomainKind::Enumerated);
    assert_eq!(by("Price").domain.kind, DomainKind::Range);
    assert_eq!(by("Released").domain.kind, DomainKind::Date);
    assert_eq!(by("Copies").domain.kind, DomainKind::Numeric);
    assert_eq!(by("Format").domain.values, vec!["DVD", "VHS"]);
    assert_eq!(by("In stock only").domain.kind, DomainKind::Boolean);
    assert!(e.report.conflicts.is_empty(), "{:#?}", e.report.conflicts);
    assert!(e.report.missing.is_empty(), "{:?}", e.report.missing);
}

#[test]
fn operator_select_is_an_operator_not_a_condition() {
    let html = r#"
    <form>
      Keywords <select name="op"><option>contains<option>begins with<option>exact match</select>
      <input type="text" name="kw" size="22"><br>
      <input type="submit" value="Go">
    </form>"#;
    let e = extract(html);
    assert_eq!(e.report.conditions.len(), 1, "{:#?}", e.report.conditions);
    let c = &e.report.conditions[0];
    assert_eq!(c.attribute, "Keywords");
    assert_eq!(c.operators, vec!["contains", "begins with", "exact match"]);
    assert_eq!(c.domain.kind, DomainKind::Text);
}

#[test]
fn table_and_flow_render_the_same_model() {
    let flow = r#"<form>
      City <input type="text" name="c" size="20"><br>
      State <select name="s"><option>IL<option>CA</select><br>
      <input type="submit" value="Go"></form>"#;
    let table = r#"<form><table>
      <tr><td>City</td><td><input type="text" name="c" size="20"></td></tr>
      <tr><td>State</td><td><select name="s"><option>IL<option>CA</select></td></tr>
      </table><input type="submit" value="Go"></form>"#;
    let (a, b) = (extract(flow), extract(table));
    assert_eq!(attrs(&a), attrs(&b));
    assert_eq!(a.report.conditions.len(), 2);
    for (x, y) in a.report.conditions.iter().zip(&b.report.conditions) {
        assert!(x.equivalent(y), "{x} vs {y}");
    }
}

#[test]
fn unlabeled_widgets_fall_back_to_control_names() {
    let html = r#"<form>
      <input type="text" name="author" size="30"><br>
      <select name="dept"><option>Select a Department<option>Books<option>Music</select><br>
      <input type="submit" value="Go"></form>"#;
    let e = extract(html);
    let got = attrs(&e);
    assert!(got.contains(&"author".to_string()), "{got:?}");
    assert!(got.contains(&"department".to_string()), "{got:?}");
}

#[test]
fn decorated_messy_html_still_parses() {
    let html = r##"
    <!DOCTYPE html><html><head><title>MegaSearch</title>
    <style>td { color: red }</style>
    <script>var x = "<form>"; if (x < 3) alert(1);</script></head>
    <body bgcolor="#ffffff">
    <h1>Welcome &amp; enjoy!</h1>
    <form action="/q" method="GET">
      <input type="hidden" name="session" value="abc">
      <b>Author</b>&nbsp;<input type="text" name="a">
      <br>
      <input type="submit" value="Search &raquo;">
    </form>
    <p>&copy; 2004 MegaSearch Inc.</p></body></html>"##;
    let e = extract(html);
    assert_eq!(e.report.conditions.len(), 1);
    assert_eq!(e.report.conditions[0].attribute, "Author");
}

#[test]
fn pipeline_is_deterministic() {
    let html = metaform_datasets::fixtures::qaa().html;
    let a = extract(&html);
    let b = extract(&html);
    assert_eq!(a.report, b.report);
    assert_eq!(a.tokens, b.tokens);
}

#[test]
fn brute_force_and_pruned_agree_on_clean_forms() {
    // On an unambiguous form both parser modes must produce the same
    // semantic model — pruning only removes wrong interpretations.
    let html = r#"<form>
      Author <input type="text" name="a" size="20"><br>
      Title <input type="text" name="t" size="20"><br>
      <input type="submit" value="Go"></form>"#;
    let pruned = extract(html);
    let brute = FormExtractor::new()
        .parser_options(metaform::ParserOptions::brute_force())
        .extract(html);
    let pa: Vec<_> = pruned
        .report
        .conditions
        .iter()
        .map(|c| c.attribute.clone())
        .collect();
    let ba: Vec<_> = brute
        .report
        .conditions
        .iter()
        .map(|c| c.attribute.clone())
        .collect();
    for a in &pa {
        assert!(ba.contains(a), "brute force lost {a}");
    }
    assert!(brute.stats.created >= pruned.stats.created);
}

/// The productions of maximal parse trees of `html`, by name.
fn productions_in_trees(html: &str) -> Vec<String> {
    let compiled = metaform::global_compiled();
    let tokens = metaform::eval::timing::tokenize_source(html);
    let result = metaform::ParseSession::new(compiled.clone()).parse(&tokens);
    let mut names = Vec::new();
    let mut stack = result.trees.clone();
    while let Some(id) = stack.pop() {
        if let Some(p) = result.chart.prod(id) {
            names.push(compiled.grammar().production(p).name.clone());
        }
        stack.extend_from_slice(result.chart.children(id));
    }
    names
}

#[test]
fn productions_no_corpus_report_needs_fire_on_hand_pages() {
    // No report of the survey corpus, the four datasets or the
    // induction holdout changes when one of these productions is
    // removed (EXPERIMENTS E18: "unexercised"); each still reads its
    // own pattern on a page that shows it.
    let month = "<select name=m><option>January<option>February<option>March<option>April\
                 <option>May<option>June<option>July<option>August<option>September\
                 <option>October<option>November<option>December</select>";
    let day = format!(
        "<select name=d>{}</select>",
        (1..=31).map(|d| format!("<option>{d}")).collect::<String>()
    );
    let pages: [(String, &[&str]); 8] = [
        (
            "Title <input type=text name=t> <select name=op><option>contains\
             <option>exact phrase<option>starts with</select>"
                .into(),
            &["TextOpSel:op-last"],
        ),
        (
            "Password <input type=password name=p><br>Resume <input type=file name=r><br>\
             <input type=image name=go src=go.gif>"
                .into(),
            &["Val<-password", "Action<-file", "Action<-image"],
        ),
        (
            "Keyword <input type=text name=k> <input type=submit value=Search>".into(),
            &["HQI<-HQI,ActionRow"],
        ),
        (
            format!("Month {month}<br>Day {day}"),
            &["SelVal:month", "SelVal:day"],
        ),
        (
            "Passengers<br><select name=n><option>1<option>2<option>3<option>4</select>".into(),
            &["NumCond:above"],
        ),
        (
            "Amenities<br><input type=checkbox name=a> Pool <input type=checkbox name=b> Gym"
                .into(),
            &["EnumCB:above"],
        ),
        (format!("Depart<br>{month} {day}"), &["DateMD:above"]),
        ("<textarea name=q></textarea>".into(), &["KwVal<-textarea"]),
    ];
    for (form, want) in pages {
        let html = format!("<form>{form}</form>");
        let got = productions_in_trees(&html);
        for production in want {
            assert!(
                got.iter().any(|p| p == production),
                "{production} is in no maximal tree of {html}: {got:?}"
            );
        }
    }
}
