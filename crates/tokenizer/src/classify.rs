//! Selection-list classification.
//!
//! The grammar distinguishes month/day/year/number lists from generic
//! selection lists because they participate in different condition
//! patterns (a month–day–year triple is one *date* condition, not three
//! enumerations). Classification looks only at the visible option
//! labels, exactly what a user (or the paper's visual parser) sees.

use metaform_core::TokenKind;

static MONTHS: &[&str] = &[
    "january",
    "february",
    "march",
    "april",
    "may",
    "june",
    "july",
    "august",
    "september",
    "october",
    "november",
    "december",
];

fn is_month_name(s: &str) -> bool {
    let s = s.trim();
    if s.len() < 3 {
        return false;
    }
    // "Jan.", "Sept."
    let stripped = s.trim_end_matches('.');
    MONTHS.iter().any(|m| {
        m.eq_ignore_ascii_case(s)
            || (s.len() == 3 && starts_with_ignore_case(m, s))
            || (stripped.len() >= 3 && starts_with_ignore_case(m, stripped))
    })
}

/// True for placeholder options that carry no domain information.
fn is_placeholder(s: &str) -> bool {
    let t = s.trim();
    t.is_empty()
        || t.chars().all(|c| c == '-' || c == '—')
        || [
            "any",
            "all",
            "select",
            "select one",
            "choose",
            "please select",
            "n/a",
        ]
        .iter()
        .any(|p| t.eq_ignore_ascii_case(p))
        || starts_with_ignore_case(t, "select ")
        || starts_with_ignore_case(t, "choose ")
}

/// ASCII case-insensitive `starts_with`, without lowercasing a copy.
fn starts_with_ignore_case(s: &str, prefix: &str) -> bool {
    s.len() >= prefix.len() && s.as_bytes()[..prefix.len()].eq_ignore_ascii_case(prefix.as_bytes())
}

/// An option label read as a plain number: currency signs and
/// thousands separators are ignored.
fn as_number(s: &str) -> Option<i64> {
    let s = s.trim_start_matches(['$', '£', '€']);
    if s.contains(',') {
        s.replace(',', "").trim().parse().ok()
    } else {
        s.trim().parse().ok()
    }
}

/// Classifies a `<select>` by its visible option labels.
pub fn classify_select<S: AsRef<str>>(options: &[S]) -> TokenKind {
    let informative = || {
        options
            .iter()
            .map(|s| s.as_ref().trim())
            .filter(|s| !is_placeholder(s))
    };
    let n = informative().count();
    if n == 0 {
        return TokenKind::SelectionList;
    }

    let month_hits = informative().filter(|s| is_month_name(s)).count();
    if month_hits * 10 >= n * 8 && month_hits >= 3 {
        return TokenKind::MonthList;
    }

    let (mut count, mut min, mut max) = (0usize, i64::MAX, i64::MIN);
    for v in informative().filter_map(as_number) {
        count += 1;
        min = min.min(v);
        max = max.max(v);
    }
    // At least 80% of informative options must be plain numbers for the
    // numeric classifications below.
    if count * 10 >= n * 8 && count > 0 {
        if (1900..=2100).contains(&min) && (1900..=2100).contains(&max) {
            return TokenKind::YearList;
        }
        if min >= 1 && max <= 12 && count >= 10 {
            return TokenKind::MonthList;
        }
        if min >= 1 && max <= 31 && count >= 25 {
            return TokenKind::DayList;
        }
        return TokenKind::NumberList;
    }
    TokenKind::SelectionList
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn month_names_full_and_abbreviated() {
        let full = opts(MONTHS);
        assert_eq!(classify_select(&full), TokenKind::MonthList);
        let abbr = opts(&[
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
        ]);
        assert_eq!(classify_select(&abbr), TokenKind::MonthList);
    }

    #[test]
    fn numeric_months() {
        let nums: Vec<String> = (1..=12).map(|i| i.to_string()).collect();
        assert_eq!(classify_select(&nums), TokenKind::MonthList);
    }

    #[test]
    fn days_of_month() {
        let days: Vec<String> = (1..=31).map(|i| i.to_string()).collect();
        assert_eq!(classify_select(&days), TokenKind::DayList);
    }

    #[test]
    fn years() {
        let years: Vec<String> = (1995..=2005).map(|i| i.to_string()).collect();
        assert_eq!(classify_select(&years), TokenKind::YearList);
    }

    #[test]
    fn passenger_counts_are_number_lists() {
        let nums: Vec<String> = (1..=9).map(|i| i.to_string()).collect();
        assert_eq!(classify_select(&nums), TokenKind::NumberList);
    }

    #[test]
    fn prices_with_currency_are_numeric() {
        let prices = opts(&["$5", "$20", "$50", "$1,000"]);
        assert_eq!(classify_select(&prices), TokenKind::NumberList);
    }

    #[test]
    fn categorical_options_stay_generic() {
        let cats = opts(&["Hardcover", "Paperback", "Audio"]);
        assert_eq!(classify_select(&cats), TokenKind::SelectionList);
        let airlines = opts(&["Any", "American", "United", "Delta"]);
        assert_eq!(classify_select(&airlines), TokenKind::SelectionList);
    }

    #[test]
    fn placeholders_do_not_sway_classification() {
        let mut days: Vec<String> = vec!["--".into(), "Day".into()];
        // "Day" is not a placeholder, so add enough numbers to dominate.
        days.extend((1..=31).map(|i| i.to_string()));
        assert_eq!(classify_select(&days), TokenKind::DayList);

        let with_any: Vec<String> = std::iter::once("Any".to_string())
            .chain((1..=6).map(|i| i.to_string()))
            .collect();
        assert_eq!(classify_select(&with_any), TokenKind::NumberList);
    }

    #[test]
    fn empty_and_placeholder_only_lists() {
        assert_eq!(classify_select::<&str>(&[]), TokenKind::SelectionList);
        assert_eq!(
            classify_select(&opts(&["--", "Any"])),
            TokenKind::SelectionList
        );
    }

    #[test]
    fn mixed_content_is_generic() {
        let mixed = opts(&["1 star", "2 stars", "3 stars"]);
        assert_eq!(classify_select(&mixed), TokenKind::SelectionList);
    }

    #[test]
    fn may_as_word_boundary_case() {
        // A single "May" among categories must not force MonthList.
        let cats = opts(&["May", "Fiction", "History", "Science"]);
        assert_eq!(classify_select(&cats), TokenKind::SelectionList);
    }
}
