//! # metaform-layout
//!
//! Deterministic visual layout engine — the second half of our
//! substitute for the paper's Internet-Explorer rendering substrate
//! (§3.4: the tokenizer "essentially builds on a layout engine for
//! rendering HTML into its visual presentation").
//!
//! Given a [`metaform_html::Document`], [`layout`] computes a bounding
//! box for every rendered node and per-line [`Fragment`]s for text,
//! using:
//!
//! - normal flow: blocks stack, inline content fills wrapped line boxes
//!   with bottom alignment (so captions bottom-align with their fields,
//!   the convention paper Figure 3(c) pattern 1 relies on);
//! - auto-layout tables with colspan/rowspan, padding, spacing, and
//!   middle vertical alignment;
//! - intrinsic widget sizes for every form control;
//! - fixed monospace font metrics for full determinism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii;
pub mod engine;
pub mod font;
pub mod output;
pub mod style;
mod table;
pub mod widget;

pub use ascii::render as ascii_render;
pub use engine::{layout, layout_in, layout_with, LayoutOptions, LayoutScratch};
pub use output::{Fragment, Layout};
