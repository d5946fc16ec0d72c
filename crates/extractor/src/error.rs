//! The extraction error taxonomy — what can go wrong with *one page*
//! of a batch, kept page-local so a poison page never takes down its
//! neighbours.
//!
//! The paper's thesis is best-effort understanding: an incomplete
//! grammar still yields a maximal interpretation. This module extends
//! that stance to the serving path. Every failure mode of the pipeline
//! is named, carries the index of the page it happened on, and maps to
//! a defined degradation (see `FormExtractor::extract_batch_adaptive`): the
//! caller always learns *which* page failed, *how*, and still receives
//! a capability description for every other page.

use std::fmt;

/// Why one page failed (or was budget-limited) during extraction.
///
/// Returned by `FormExtractor::try_extract`. The infallible APIs settle
/// each of these down the degradation ladder instead; the batch driver
/// counts them in `BatchStats` and records their kind in each
/// `FailureRecord`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExtractError {
    /// The pipeline panicked on this page. The panic was caught at the
    /// page boundary; the rest of the batch is unaffected.
    Panicked {
        /// Index of the page within the batch (0 for single-page APIs).
        page_index: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The parse hit the configured instance cap
    /// (`ParserOptions::max_instances`) and was cut short.
    Truncated {
        /// Index of the page within the batch (0 for single-page APIs).
        page_index: usize,
    },
    /// The parse blew its per-page wall-clock deadline
    /// (`ParserOptions::deadline`).
    Timeout {
        /// Index of the page within the batch (0 for single-page APIs).
        page_index: usize,
    },
    /// The page tokenized to nothing — no form content to interpret.
    EmptyForm {
        /// Index of the page within the batch (0 for single-page APIs).
        page_index: usize,
    },
    /// The batch-level cancel token fired before or while this page
    /// parsed. Unlike the budget failures this says nothing about the
    /// page itself — the caller aborted the batch — so it is never
    /// retried by the adaptive driver.
    Cancelled {
        /// Index of the page within the batch (0 for single-page APIs).
        page_index: usize,
    },
}

impl ExtractError {
    /// Index of the page this error is about.
    pub fn page_index(&self) -> usize {
        match self {
            ExtractError::Panicked { page_index, .. }
            | ExtractError::Truncated { page_index }
            | ExtractError::Timeout { page_index }
            | ExtractError::EmptyForm { page_index }
            | ExtractError::Cancelled { page_index } => *page_index,
        }
    }

    /// True for the budget failures (`Truncated`/`Timeout`) a larger
    /// budget might fix — the only errors a page's adaptive ladder
    /// climbs past. `Panicked`, `EmptyForm`, and `Cancelled` are not
    /// budget failures: re-running them with a bigger budget reproduces
    /// the same verdict (or, for `Cancelled`, fights the caller).
    pub fn is_budget_limited(&self) -> bool {
        matches!(
            self,
            ExtractError::Truncated { .. } | ExtractError::Timeout { .. }
        )
    }
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::Panicked {
                page_index,
                message,
            } => {
                write!(f, "page {page_index}: pipeline panicked: {message}")
            }
            ExtractError::Truncated { page_index } => {
                write!(f, "page {page_index}: instance budget exhausted")
            }
            ExtractError::Timeout { page_index } => {
                write!(f, "page {page_index}: wall-clock deadline exceeded")
            }
            ExtractError::EmptyForm { page_index } => {
                write!(f, "page {page_index}: no form content")
            }
            ExtractError::Cancelled { page_index } => {
                write!(f, "page {page_index}: batch cancelled")
            }
        }
    }
}

impl std::error::Error for ExtractError {}

/// Renders a caught panic payload as text (panics carry `&str` or
/// `String` in practice; anything else is reported opaquely).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_carry_page_index_and_render() {
        let e = ExtractError::Panicked {
            page_index: 7,
            message: "boom".into(),
        };
        assert_eq!(e.page_index(), 7);
        assert_eq!(e.to_string(), "page 7: pipeline panicked: boom");
        assert_eq!(ExtractError::Truncated { page_index: 1 }.page_index(), 1);
        assert!(ExtractError::Timeout { page_index: 2 }
            .to_string()
            .contains("deadline"));
        assert!(ExtractError::EmptyForm { page_index: 3 }
            .to_string()
            .contains("no form"));
        let c = ExtractError::Cancelled { page_index: 5 };
        assert_eq!(c.page_index(), 5);
        assert!(c.to_string().contains("cancelled"));
    }

    #[test]
    fn only_budget_failures_are_retryable() {
        assert!(ExtractError::Truncated { page_index: 0 }.is_budget_limited());
        assert!(ExtractError::Timeout { page_index: 0 }.is_budget_limited());
        assert!(!ExtractError::Panicked {
            page_index: 0,
            message: String::new()
        }
        .is_budget_limited());
        assert!(!ExtractError::EmptyForm { page_index: 0 }.is_budget_limited());
        assert!(!ExtractError::Cancelled { page_index: 0 }.is_budget_limited());
    }

    #[test]
    fn panic_payloads_become_text() {
        assert_eq!(panic_message(Box::new("static")), "static");
        assert_eq!(panic_message(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_message(Box::new(42u32)), "non-string panic payload");
    }
}
