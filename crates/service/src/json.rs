//! The service's request shapes: the typed batch-submission and
//! budget-override bodies, parsed with the workspace's one JSON codec
//! ([`metaform_extractor::json`], re-exported here as [`JsonValue`]
//! and [`push_json_str`]).

pub use metaform_extractor::json::{push_json_str, JsonValue};

/// One batch submission: the `POST /v1/batches` body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchRequest {
    /// The HTML pages to extract, in batch order.
    pub pages: Vec<String>,
    /// Optional per-job override of the retry-round cap.
    pub max_retries: Option<usize>,
    /// Pages the client flagged as revisits of an earlier submission.
    /// Advisory: the parse cache serves hits whether or not a page is
    /// flagged; the count feeds the `revisit_hints` metric so operators
    /// can compare claimed revisits against observed cache hits.
    pub revisit_hints: u64,
}

/// Parses the submission body:
/// `{"pages": ["<html>...", ...], "max_retries": 2}` (the second field
/// optional). A page entry may also be an object
/// `{"html": "<html>...", "revisit": true}` to hint that the page was
/// submitted before. Unknown fields are rejected so client typos fail
/// loudly.
pub fn parse_batch_request(body: &[u8]) -> Result<BatchRequest, String> {
    let root = JsonValue::parse(body)?;
    let JsonValue::Obj(fields) = &root else {
        return Err("body must be a JSON object".to_string());
    };
    for (name, _) in fields {
        if name != "pages" && name != "max_retries" {
            return Err(format!("unknown field {name:?}"));
        }
    }
    let mut revisit_hints = 0;
    let pages = root
        .field("pages")?
        .as_arr()
        .map_err(|_| "\"pages\" must be an array of strings or page objects".to_string())?
        .iter()
        .map(|v| parse_page_entry(v, &mut revisit_hints))
        .collect::<Result<Vec<_>, _>>()?;
    let max_retries = match root.field("max_retries") {
        Err(_) => None,
        Ok(v) => Some(
            usize::try_from(v.as_num().map_err(|_| "\"max_retries\" must be a number")?)
                .map_err(|_| "\"max_retries\" out of range")?,
        ),
    };
    Ok(BatchRequest {
        pages,
        max_retries,
        revisit_hints,
    })
}

/// A manual budget override: the `POST /v1/budgets` body. Every field
/// optional — absent fields leave the control plane's value untouched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetUpdate {
    /// New per-page instance cap.
    pub max_instances: Option<usize>,
    /// New per-page wall-clock deadline, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// New retry budget multiplier.
    pub budget_growth: Option<u32>,
}

/// Parses the budget-override body:
/// `{"max_instances": 40000, "deadline_ms": 800, "budget_growth": 3}`
/// (any subset). Unknown fields are rejected so client typos fail
/// loudly — a silently-ignored misspelled budget would be a
/// particularly quiet way to not recalibrate anything.
pub fn parse_budget_update(body: &[u8]) -> Result<BudgetUpdate, String> {
    let root = JsonValue::parse(body)?;
    let JsonValue::Obj(fields) = &root else {
        return Err("body must be a JSON object".to_string());
    };
    let mut update = BudgetUpdate::default();
    for (name, value) in fields {
        let num = value
            .as_num()
            .map_err(|_| format!("{name:?} must be a number"));
        match name.as_str() {
            "max_instances" => {
                update.max_instances =
                    Some(usize::try_from(num?).map_err(|_| "\"max_instances\" out of range")?);
            }
            "deadline_ms" => update.deadline_ms = Some(num?),
            "budget_growth" => {
                update.budget_growth =
                    Some(u32::try_from(num?).map_err(|_| "\"budget_growth\" out of range")?);
            }
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    Ok(update)
}

/// One `pages[]` entry: a bare HTML string, or
/// `{"html": "...", "revisit": true|false}` (the hint optional).
fn parse_page_entry(v: &JsonValue, revisit_hints: &mut u64) -> Result<String, String> {
    match v {
        JsonValue::Str(s) => Ok(s.clone()),
        JsonValue::Obj(fields) => {
            for (name, _) in fields {
                if name != "html" && name != "revisit" {
                    return Err(format!("unknown page field {name:?}"));
                }
            }
            if let Ok(flag) = v.field("revisit") {
                match flag {
                    JsonValue::Bool(true) => *revisit_hints += 1,
                    JsonValue::Bool(false) => {}
                    _ => return Err("\"revisit\" must be a boolean".to_string()),
                }
            }
            v.field("html")?
                .as_str()
                .map(str::to_string)
                .map_err(|_| "\"html\" must be a string".to_string())
        }
        _ => Err("\"pages\" must be an array of strings or page objects".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_submission_shape() {
        let req = parse_batch_request(br#"{"pages": ["<form>a</form>", ""], "max_retries": 3}"#)
            .expect("parses");
        assert_eq!(req.pages.len(), 2);
        assert_eq!(req.pages[0], "<form>a</form>");
        assert_eq!(req.max_retries, Some(3));
        assert_eq!(req.revisit_hints, 0);
        let bare = parse_batch_request(br#"{"pages": []}"#).expect("parses");
        assert!(bare.pages.is_empty());
        assert_eq!(bare.max_retries, None);
    }

    #[test]
    fn page_objects_carry_the_revisit_hint() {
        let req = parse_batch_request(
            br#"{"pages": ["<form>a</form>",
                          {"html": "<form>b</form>", "revisit": true},
                          {"html": "<form>c</form>", "revisit": false},
                          {"html": "<form>d</form>"}]}"#,
        )
        .expect("parses");
        assert_eq!(req.pages.len(), 4);
        assert_eq!(req.pages[1], "<form>b</form>");
        assert_eq!(req.pages[3], "<form>d</form>");
        assert_eq!(req.revisit_hints, 1, "only explicit true counts");

        for bad in [
            &br#"{"pages": [{"revisit": true}]}"#[..],
            br#"{"pages": [{"html": "<form>a</form>", "revisit": 1}]}"#,
            br#"{"pages": [{"html": 7}]}"#,
            br#"{"pages": [{"html": "<form>a</form>", "surprise": true}]}"#,
        ] {
            assert!(parse_batch_request(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parses_budget_updates_and_rejects_typos() {
        let update = parse_budget_update(br#"{"max_instances": 40000, "deadline_ms": 800}"#)
            .expect("parses");
        assert_eq!(update.max_instances, Some(40_000));
        assert_eq!(update.deadline_ms, Some(800));
        assert_eq!(update.budget_growth, None);
        assert_eq!(
            parse_budget_update(b"{}").expect("empty override is a no-op"),
            BudgetUpdate::default()
        );
        for bad in [
            &b"[]"[..],
            br#"{"max_instances": "many"}"#,
            br#"{"budget_growth": true}"#,
            br#"{"deadline": 800}"#,
            br#"{"max_instance": 1}"#,
        ] {
            assert!(parse_budget_update(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn rejects_malformed_submissions() {
        for bad in [
            &b""[..],
            b"[]",
            b"{",
            b"{}",
            br#"{"pages": "not an array"}"#,
            br#"{"pages": [1]}"#,
            br#"{"pages": [], "max_retries": "soup"}"#,
            br#"{"pages": [], "surprise": 1}"#,
            br#"{"pages": []} trailing"#,
        ] {
            assert!(parse_batch_request(bad).is_err(), "{bad:?}");
        }
    }
}
