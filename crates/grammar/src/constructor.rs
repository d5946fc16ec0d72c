//! Production constructors: how a head instance's semantic payload is
//! assembled from its components.
//!
//! "Each production has a constructor, which defines how to instantiate
//! an instance of the head symbol from the components" (paper §4.1).
//! The bounding box of the new instance is always the union of the
//! components' boxes; the constructor decides the *semantic* payload.

use crate::constraint::View;
use crate::payload::{trim_shared, Cond, Domain, Payload};
use metaform_core::{empty_list, empty_text, trim_label, DomainKind, Text, TextList};
use std::sync::Arc;

/// Declarative constructor actions (indexes refer to components).
#[derive(Clone, Debug)]
pub enum Constructor {
    /// Structural grouping: no payload.
    Group,
    /// Copy component `i`'s payload (a collected list is referred to
    /// by the component's id).
    Inherit(usize),
    /// Component `i` is text: payload becomes `Attr`.
    MakeAttr(usize),
    /// Component `i` carries a caption: payload becomes `Text`.
    TextOf(usize),
    /// Start an operator/caption list from component `i`'s caption.
    ListStart(usize),
    /// Extend the caption list of `list` with `unit`'s caption.
    ListAppend {
        /// Index of the existing list component.
        list: usize,
        /// Index of the unit whose caption to append.
        unit: usize,
    },
    /// Operator list from a select component's options.
    OpsFromOptions(usize),
    /// Assemble a condition: optional attribute, optional operator
    /// list, a `Val` component, optional domain-kind override.
    MakeCond {
        /// Attribute component index (payload `Attr`/`Text`), if any.
        attr: Option<usize>,
        /// Operator-list component index (payload `Ops`), if any.
        ops: Option<usize>,
        /// Value component index (payload `Val`).
        val: usize,
        /// Forces a different domain kind (e.g. `Numeric`).
        kind: Option<DomainKind>,
    },
    /// Condition whose enumerated domain comes from a caption list
    /// (radio/checkbox groups).
    MakeEnumCond {
        /// Attribute component index, if labeled.
        attr: Option<usize>,
        /// Caption-list component index (payload `Ops`).
        list: usize,
    },
    /// Boolean condition from a single checkbox unit's caption.
    MakeBoolCond(usize),
    /// Range condition from an attribute and two value components.
    MakeRange {
        /// Attribute component index.
        attr: usize,
        /// Low endpoint component index.
        lo: usize,
        /// High endpoint component index.
        hi: usize,
    },
    /// Date condition from an attribute and date-part components.
    MakeDate(usize),
    /// Condition for an unlabeled widget: attribute from the widget's
    /// control name or placeholder option.
    MakeUnlabeledCond(usize),
    /// Union all conditions found in the components, in component
    /// order — read off the chart, never stored.
    CollectConds,
}

impl Constructor {
    /// The deepest component index this constructor dereferences, if
    /// any — compile-time validation checks it against the
    /// production's arity so [`Constructor::eval`] can index
    /// unchecked.
    pub(crate) fn max_slot(&self) -> Option<usize> {
        match self {
            Constructor::Group | Constructor::CollectConds => None,
            Constructor::Inherit(i)
            | Constructor::MakeAttr(i)
            | Constructor::TextOf(i)
            | Constructor::ListStart(i)
            | Constructor::OpsFromOptions(i)
            | Constructor::MakeBoolCond(i)
            | Constructor::MakeDate(i)
            | Constructor::MakeUnlabeledCond(i) => Some(*i),
            Constructor::ListAppend { list, unit } => Some((*list).max(*unit)),
            Constructor::MakeCond { attr, ops, val, .. } => {
                Some((*val).max(attr.unwrap_or(0)).max(ops.unwrap_or(0)))
            }
            Constructor::MakeEnumCond { attr, list } => Some((*list).max(attr.unwrap_or(0))),
            Constructor::MakeRange { attr, lo, hi } => Some((*attr).max(*lo).max(*hi)),
        }
    }

    /// Builds the head payload from component views. Every part of the
    /// result is shared with the components' payloads — no caption,
    /// list or condition is copied. Conditions carry no token lists,
    /// and collected lists are not built; the merger reads both off
    /// the chart.
    pub fn eval(&self, views: &[View<'_>]) -> Payload {
        match self {
            Constructor::Group => Payload::None,
            Constructor::Inherit(i) => match views[*i].payload {
                Payload::Collected => Payload::CollectedAt(views[*i].inst),
                other => other.clone(),
            },
            Constructor::MakeAttr(i) => Payload::Attr(trimmed(&views[*i])),
            Constructor::TextOf(i) => Payload::Text(trimmed(&views[*i])),
            Constructor::ListStart(i) => Payload::Ops(TextList::from([text_of(&views[*i])])),
            Constructor::ListAppend { list, unit } => {
                let head = ops_of(&views[*list]);
                let unit = text_of(&views[*unit]);
                Payload::Ops(head.iter().cloned().chain([unit]).collect())
            }
            Constructor::OpsFromOptions(i) => Payload::Ops(
                views[*i]
                    .token
                    .map_or_else(empty_list, |t| t.options.clone()),
            ),
            Constructor::MakeCond {
                attr,
                ops,
                val,
                kind,
            } => {
                let mut domain = views[*val]
                    .payload
                    .val()
                    .cloned()
                    .unwrap_or_else(|| Domain::of(DomainKind::Text));
                if let Some(k) = kind {
                    domain.kind = *k;
                }
                cond(
                    attr.map_or_else(empty_text, |i| text_of(&views[i])),
                    ops.map_or_else(empty_list, |i| ops_of(&views[i])),
                    domain,
                )
            }
            Constructor::MakeEnumCond { attr, list } => cond(
                attr.map_or_else(empty_text, |i| text_of(&views[i])),
                empty_list(),
                Domain {
                    kind: DomainKind::Enumerated,
                    values: ops_of(&views[*list]),
                },
            ),
            Constructor::MakeBoolCond(i) => cond(
                text_of(&views[*i]),
                empty_list(),
                Domain::of(DomainKind::Boolean),
            ),
            Constructor::MakeRange { attr, lo, hi } => {
                let [a, b] = [*lo, *hi].map(|i| {
                    views[i]
                        .payload
                        .val()
                        .map_or_else(empty_list, |d| d.values.clone())
                });
                let values = if a.is_empty() {
                    b
                } else if b.is_empty() {
                    a
                } else {
                    a.iter().chain(b.iter()).cloned().collect()
                };
                cond(
                    text_of(&views[*attr]),
                    empty_list(),
                    Domain {
                        kind: DomainKind::Range,
                        values,
                    },
                )
            }
            Constructor::MakeDate(attr) => cond(
                text_of(&views[*attr]),
                empty_list(),
                Domain::of(DomainKind::Date),
            ),
            Constructor::MakeUnlabeledCond(i) => {
                let view = &views[*i];
                let domain = view
                    .payload
                    .val()
                    .cloned()
                    .unwrap_or_else(|| Domain::of(DomainKind::Text));
                let attribute = view
                    .token
                    .map_or_else(empty_text, |t| unlabeled_attribute(&t.name, &t.options));
                cond(attribute, empty_list(), domain)
            }
            Constructor::CollectConds => Payload::Collected,
        }
    }
}

/// A new condition payload.
fn cond(attribute: Text, operators: TextList, domain: Domain) -> Payload {
    Payload::Cond(Arc::new(Cond {
        attribute,
        operators,
        domain,
    }))
}

/// A component's caption, shared (empty when it has none).
fn text_of(view: &View<'_>) -> Text {
    view.payload
        .shared_text()
        .cloned()
        .unwrap_or_else(empty_text)
}

/// A component's caption trimmed; shared when already trimmed.
fn trimmed(view: &View<'_>) -> Text {
    trim_shared(&text_of(view))
}

/// A component's caption list, shared (empty when it has none).
fn ops_of(view: &View<'_>) -> TextList {
    match view.payload {
        Payload::Ops(list) => list.clone(),
        _ => empty_list(),
    }
}

/// Placeholder-option prefixes that name the attribute after them.
const PLACEHOLDER_PREFIXES: [&str; 5] = ["select a ", "select ", "choose a ", "choose ", "pick a "];

/// Derives an attribute label for an unlabeled widget from its control
/// name (`dept`, `pub_year`) or a placeholder option ("Select a State").
/// A name with nothing to clean up is shared, not copied.
fn unlabeled_attribute(name: &Text, options: &[Text]) -> Text {
    if let Some(subject) = options.first().and_then(|o| placeholder_subject(o)) {
        return subject;
    }
    if !name.contains(['_', '-', '.']) && name.trim().len() == name.len() {
        return name.clone();
    }
    Text::from(name.replace(['_', '-', '.'], " ").trim())
}

/// What a placeholder option asks for, lowercased ("Select a State" →
/// "state"), or `None` if the option is no placeholder.
fn placeholder_subject(option: &str) -> Option<Text> {
    let label = trim_label(option);
    // Lowercasing maps only a few non-ASCII characters to ASCII ones,
    // so an ASCII label that starts with no prefix, ignoring ASCII
    // case, needs no lowercased copy to rule it out.
    let may_match = !label.is_ascii()
        || PLACEHOLDER_PREFIXES.iter().any(|p| {
            label
                .as_bytes()
                .get(..p.len())
                .is_some_and(|head| head.eq_ignore_ascii_case(p.as_bytes()))
        });
    if !may_match {
        return None;
    }
    let norm = label.to_lowercase();
    PLACEHOLDER_PREFIXES.iter().find_map(|p| {
        norm.strip_prefix(p)
            .filter(|rest| !rest.is_empty())
            .map(Text::from)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaform_core::{BBox, Condition, DomainSpec, Token, TokenKind};

    fn v(p: &Payload) -> View<'_> {
        v_at(p, 0)
    }

    fn v_at(p: &Payload, inst: u32) -> View<'_> {
        View {
            bbox: BBox::ZERO,
            payload: p,
            token: None,
            inst,
        }
    }

    fn list(items: &[&str]) -> TextList {
        items.iter().map(|&s| Text::from(s)).collect()
    }

    fn enumerated(items: &[&str]) -> Payload {
        Payload::Val(Domain {
            kind: DomainKind::Enumerated,
            values: list(items),
        })
    }

    /// The single condition a payload carries, in report form.
    fn only(p: &Payload) -> Condition {
        let Payload::Cond(c) = p else {
            panic!("one condition expected, got {p:?}")
        };
        c.to_condition(vec![])
    }

    #[test]
    fn attr_and_text_constructors_trim() {
        let p = Payload::Text("  Author:  ".into());
        assert_eq!(
            Constructor::MakeAttr(0).eval(&[v(&p)]),
            Payload::Attr("Author:".into())
        );
        assert_eq!(
            Constructor::TextOf(0).eval(&[v(&p)]),
            Payload::Text("Author:".into())
        );
    }

    #[test]
    fn trimmed_captions_are_shared_not_copied() {
        let p = Payload::Text("Author".into());
        let out = Constructor::MakeAttr(0).eval(&[v(&p)]);
        let (Payload::Text(a), Payload::Attr(b)) = (&p, &out) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(a, b));
    }

    #[test]
    fn list_building() {
        let first = Payload::Text("exact name".into());
        let started = Constructor::ListStart(0).eval(&[v(&first)]);
        assert_eq!(started.ops().unwrap(), &*list(&["exact name"]));

        let second = Payload::Text("start of name".into());
        let extended =
            Constructor::ListAppend { list: 0, unit: 1 }.eval(&[v(&started), v(&second)]);
        assert_eq!(
            extended.ops().unwrap(),
            &*list(&["exact name", "start of name"])
        );
    }

    #[test]
    fn make_cond_assembles_tuple() {
        let attr = Payload::Attr("Author".into());
        let ops = Payload::Ops(list(&["exact name"]));
        let val = Payload::Val(Domain::of(DomainKind::Text));
        let out = Constructor::MakeCond {
            attr: Some(0),
            ops: Some(1),
            val: 2,
            kind: None,
        }
        .eval(&[v(&attr), v(&ops), v(&val)]);
        let c = only(&out);
        assert_eq!(c.attribute, "Author");
        assert_eq!(c.operators, vec!["exact name"]);
        assert_eq!(c.domain.kind, DomainKind::Text);
    }

    #[test]
    fn make_cond_kind_override_and_defaults() {
        let val = enumerated(&["1", "2"]);
        let out = Constructor::MakeCond {
            attr: None,
            ops: None,
            val: 0,
            kind: Some(DomainKind::Numeric),
        }
        .eval(&[v(&val)]);
        let c = only(&out);
        assert_eq!(c.attribute, "");
        assert_eq!(c.domain.kind, DomainKind::Numeric);
        assert_eq!(c.domain.values, vec!["1", "2"]);
    }

    #[test]
    fn enum_and_bool_conditions() {
        let attr = Payload::Attr("Format".into());
        let captions = Payload::Ops(list(&["Hardcover", "Paperback"]));
        let out = Constructor::MakeEnumCond {
            attr: Some(0),
            list: 1,
        }
        .eval(&[v(&attr), v(&captions)]);
        let c = only(&out);
        assert_eq!(c.domain.kind, DomainKind::Enumerated);
        assert_eq!(c.domain.values, vec!["Hardcover", "Paperback"]);

        let caption = Payload::Text("Hardcover only".into());
        let b = only(&Constructor::MakeBoolCond(0).eval(&[v(&caption)]));
        assert_eq!(b.domain.kind, DomainKind::Boolean);
        assert_eq!(b.attribute, "Hardcover only");
    }

    #[test]
    fn range_unions_endpoint_values() {
        let attr = Payload::Attr("Price".into());
        let lo = enumerated(&["5"]);
        let hi = enumerated(&["50"]);
        let out = Constructor::MakeRange {
            attr: 0,
            lo: 1,
            hi: 2,
        }
        .eval(&[v(&attr), v(&lo), v(&hi)]);
        let c = only(&out);
        assert_eq!(c.domain.kind, DomainKind::Range);
        assert_eq!(c.domain.values, vec!["5", "50"]);
    }

    #[test]
    fn unlabeled_widget_attribute_sources() {
        let tok = Token::widget(0, TokenKind::SelectionList, "pub_year", BBox::ZERO)
            .with_options(vec!["Select a State".into(), "IL".into()]);
        let p = Payload::for_token(&tok);
        let view = View {
            bbox: BBox::ZERO,
            payload: &p,
            token: Some(&tok),
            inst: 0,
        };
        let out = Constructor::MakeUnlabeledCond(0).eval(&[view]);
        assert_eq!(only(&out).attribute, "state", "placeholder wins");

        let tok2 = Token::widget(0, TokenKind::Textbox, "pub_year", BBox::ZERO);
        let p2 = Payload::Val(Domain::of(DomainKind::Text));
        let view2 = View {
            bbox: BBox::ZERO,
            payload: &p2,
            token: Some(&tok2),
            inst: 0,
        };
        let out2 = Constructor::MakeUnlabeledCond(0).eval(&[view2]);
        assert_eq!(only(&out2).attribute, "pub year");
        assert_eq!(only(&out2).domain, DomainSpec::text());
    }

    #[test]
    fn unlabeled_attributes_share_clean_names_and_read_any_placeholder() {
        let clean: Text = "dept".into();
        let shared = unlabeled_attribute(&clean, &[]);
        assert!(Arc::ptr_eq(&shared, &clean), "a clean name is shared");
        assert_eq!(&*unlabeled_attribute(&" dept".into(), &[]), "dept");
        let options = |first: &str| -> Vec<Text> { vec![first.into(), "IL".into()] };
        for (option, want) in [
            ("Select a State:", "state"),
            ("CHOOSE color", "color"),
            ("Any", "dept"),
            ("Select", "dept"),
            // The Kelvin sign lowercases to an ASCII `k`.
            ("PIC\u{212A} A Size", "size"),
        ] {
            assert_eq!(
                &*unlabeled_attribute(&clean, &options(option)),
                want,
                "{option}"
            );
        }
    }

    #[test]
    fn collect_stores_no_list_and_inherit_refers_to_it() {
        let cond = Constructor::MakeDate(0).eval(&[v(&Payload::Attr("a".into()))]);
        let row = Constructor::CollectConds.eval(&[v_at(&cond, 1), v_at(&cond, 2)]);
        assert_eq!(row, Payload::Collected);
        assert!(row.has_conditions());
        assert_eq!(
            Constructor::Inherit(0).eval(&[v_at(&row, 5)]),
            Payload::CollectedAt(5),
            "an inherited list names the instance that collected it"
        );
        let up = Constructor::Inherit(0).eval(&[v_at(&Payload::CollectedAt(5), 6)]);
        assert_eq!(up, Payload::CollectedAt(5));
    }

    #[test]
    fn group_and_inherit() {
        let p = Payload::Ops(list(&["x"]));
        assert_eq!(Constructor::Group.eval(&[v(&p)]), Payload::None);
        assert_eq!(Constructor::Inherit(0).eval(&[v(&p)]), p);
    }
}
