//! Production constructors: how a head instance's semantic payload is
//! assembled from its components.
//!
//! "Each production has a constructor, which defines how to instantiate
//! an instance of the head symbol from the components" (paper §4.1).
//! The bounding box of the new instance is always the union of the
//! components' boxes; the constructor decides the *semantic* payload.

use crate::constraint::View;
use crate::payload::{trim_shared, Cond, Domain, Payload, PayloadTable, Texts};
use metaform_core::{empty_text, trim_label, DomainKind, Text};

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

    /// Builds the head payload from component views. Every text of the
    /// result is shared with the components' payloads — no caption is
    /// copied. A new condition or caption list goes to `out`, a table
    /// pending behind the one the views read (see
    /// [`PayloadTable::pend_after`]); a list the result only refers to
    /// is not copied. Conditions carry no token lists, and collected
    /// lists are not built; the merger reads both off the chart.
    pub fn eval(&self, views: &[View<'_>], out: &mut PayloadTable) -> Payload {
        match self {
            Constructor::Group => Payload::None,
            Constructor::Inherit(i) => match views[*i].payload {
                Payload::Collected => Payload::CollectedAt(views[*i].inst),
                other => other.clone(),
            },
            Constructor::MakeAttr(i) => Payload::Attr(trimmed(&views[*i])),
            Constructor::TextOf(i) => Payload::Text(trimmed(&views[*i])),
            Constructor::ListStart(i) => Payload::Ops(out.push_texts([text_of(&views[*i])])),
            Constructor::ListAppend { list, unit } => {
                let head = views[*list].ops().unwrap_or_default();
                let unit = text_of(&views[*unit]);
                Payload::Ops(out.push_texts(head.iter().cloned().chain([unit])))
            }
            Constructor::OpsFromOptions(i) => Payload::Ops(
                views[*i]
                    .token
                    .map_or(Texts::EMPTY, |t| Texts::Shared(t.options.clone())),
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
                out.push_cond(Cond {
                    attribute: attr.map_or_else(empty_text, |i| text_of(&views[i])),
                    operators: ops.map_or(Texts::EMPTY, |i| ops_of(&views[i])),
                    domain,
                })
            }
            Constructor::MakeEnumCond { attr, list } => out.push_cond(Cond {
                attribute: attr.map_or_else(empty_text, |i| text_of(&views[i])),
                operators: Texts::EMPTY,
                domain: Domain {
                    kind: DomainKind::Enumerated,
                    values: ops_of(&views[*list]),
                },
            }),
            Constructor::MakeBoolCond(i) => out.push_cond(Cond {
                attribute: text_of(&views[*i]),
                operators: Texts::EMPTY,
                domain: Domain::of(DomainKind::Boolean),
            }),
            Constructor::MakeRange { attr, lo, hi } => {
                let [a, b] = [*lo, *hi].map(|i| {
                    let view = &views[i];
                    let values = view.payload.val().map_or(&Texts::EMPTY, |d| &d.values);
                    (values, view.table.texts(values))
                });
                let values = if a.1.is_empty() {
                    b.0.clone()
                } else if b.1.is_empty() {
                    a.0.clone()
                } else {
                    out.push_texts(a.1.iter().chain(b.1).cloned())
                };
                out.push_cond(Cond {
                    attribute: text_of(&views[*attr]),
                    operators: Texts::EMPTY,
                    domain: Domain {
                        kind: DomainKind::Range,
                        values,
                    },
                })
            }
            Constructor::MakeDate(attr) => out.push_cond(Cond {
                attribute: text_of(&views[*attr]),
                operators: Texts::EMPTY,
                domain: Domain::of(DomainKind::Date),
            }),
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
                out.push_cond(Cond {
                    attribute,
                    operators: Texts::EMPTY,
                    domain,
                })
            }
            Constructor::CollectConds => Payload::Collected,
        }
    }
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

/// A component's caption list, referred to (empty when it has none).
fn ops_of(view: &View<'_>) -> Texts {
    match view.payload {
        Payload::Ops(list) => list.clone(),
        _ => Texts::EMPTY,
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
    use metaform_core::{BBox, Condition, DomainSpec, TextList, Token, TokenKind};
    use std::sync::Arc;

    /// Views of `payloads` (instance ids from `inst0`) over `table`.
    fn views_at<'a>(payloads: &'a [Payload], inst0: u32, table: &'a PayloadTable) -> Vec<View<'a>> {
        (inst0..)
            .zip(payloads)
            .map(|(inst, payload)| View {
                bbox: BBox::ZERO,
                payload,
                token: None,
                inst,
                table,
            })
            .collect()
    }

    /// `c` over components carrying `payloads` whose lists are in
    /// `table`; whatever it builds is committed to `table`.
    fn run(c: &Constructor, payloads: &[Payload], table: &mut PayloadTable) -> Payload {
        run_at(c, payloads, 0, table)
    }

    fn run_at(
        c: &Constructor,
        payloads: &[Payload],
        inst0: u32,
        table: &mut PayloadTable,
    ) -> Payload {
        let mut pending = PayloadTable::default();
        pending.pend_after(table);
        let out = c.eval(&views_at(payloads, inst0, table), &mut pending);
        table.commit(&mut pending);
        out
    }

    /// `c` over components whose payloads index no table.
    fn eval(c: &Constructor, payloads: &[Payload]) -> Payload {
        run(c, payloads, &mut PayloadTable::default())
    }

    fn list(items: &[&str]) -> TextList {
        items.iter().map(|&s| Text::from(s)).collect()
    }

    fn enumerated(items: &[&str]) -> Payload {
        Payload::Val(Domain {
            kind: DomainKind::Enumerated,
            values: Texts::Shared(list(items)),
        })
    }

    /// The single condition a payload carries, in report form.
    fn only(p: &Payload, table: &PayloadTable) -> Condition {
        let Payload::Cond(c) = p else {
            panic!("one condition expected, got {p:?}")
        };
        table.cond(*c).to_condition(table, vec![])
    }

    /// The single condition `c` builds over `payloads`.
    fn cond_of(c: &Constructor, payloads: &[Payload]) -> Condition {
        let mut table = PayloadTable::default();
        let out = run(c, payloads, &mut table);
        only(&out, &table)
    }

    #[test]
    fn attr_and_text_constructors_trim() {
        let p = Payload::Text("  Author:  ".into());
        assert_eq!(
            eval(&Constructor::MakeAttr(0), std::slice::from_ref(&p)),
            Payload::Attr("Author:".into())
        );
        assert_eq!(
            eval(&Constructor::TextOf(0), &[p]),
            Payload::Text("Author:".into())
        );
    }

    #[test]
    fn trimmed_captions_are_shared_not_copied() {
        let p = Payload::Text("Author".into());
        let out = eval(&Constructor::MakeAttr(0), std::slice::from_ref(&p));
        let (Payload::Text(a), Payload::Attr(b)) = (&p, &out) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(a, b));
    }

    #[test]
    fn list_building() {
        let mut table = PayloadTable::default();
        let first = Payload::Text("exact name".into());
        let started = run(&Constructor::ListStart(0), &[first], &mut table);
        let ops = |p: &Payload, table: &PayloadTable| -> Vec<String> {
            views_at(std::slice::from_ref(p), 0, table)[0]
                .ops()
                .unwrap()
                .iter()
                .map(|t| t.to_string())
                .collect()
        };
        assert_eq!(ops(&started, &table), ["exact name"]);

        let second = Payload::Text("start of name".into());
        let append = Constructor::ListAppend { list: 0, unit: 1 };
        let extended = run(&append, &[started.clone(), second], &mut table);
        assert_eq!(ops(&extended, &table), ["exact name", "start of name"]);
        assert_eq!(
            ops(&started, &table),
            ["exact name"],
            "the head is unchanged"
        );
    }

    #[test]
    fn make_cond_assembles_tuple() {
        let attr = Payload::Attr("Author".into());
        let ops = Payload::Ops(Texts::Shared(list(&["exact name"])));
        let val = Payload::Val(Domain::of(DomainKind::Text));
        let make = Constructor::MakeCond {
            attr: Some(0),
            ops: Some(1),
            val: 2,
            kind: None,
        };
        let c = cond_of(&make, &[attr, ops, val]);
        assert_eq!(c.attribute, "Author");
        assert_eq!(c.operators, vec!["exact name"]);
        assert_eq!(c.domain.kind, DomainKind::Text);
    }

    #[test]
    fn make_cond_kind_override_and_defaults() {
        let make = Constructor::MakeCond {
            attr: None,
            ops: None,
            val: 0,
            kind: Some(DomainKind::Numeric),
        };
        let c = cond_of(&make, &[enumerated(&["1", "2"])]);
        assert_eq!(c.attribute, "");
        assert_eq!(c.domain.kind, DomainKind::Numeric);
        assert_eq!(c.domain.values, vec!["1", "2"]);
    }

    #[test]
    fn enum_and_bool_conditions() {
        let mut table = PayloadTable::default();
        let captions =
            Payload::Ops(table.push_texts(list(&["Hardcover", "Paperback"]).iter().cloned()));
        let attr = Payload::Attr("Format".into());
        let make = Constructor::MakeEnumCond {
            attr: Some(0),
            list: 1,
        };
        let out = run(&make, &[attr, captions], &mut table);
        let c = only(&out, &table);
        assert_eq!(c.domain.kind, DomainKind::Enumerated);
        assert_eq!(c.domain.values, vec!["Hardcover", "Paperback"]);

        let caption = Payload::Text("Hardcover only".into());
        let b = cond_of(&Constructor::MakeBoolCond(0), &[caption]);
        assert_eq!(b.domain.kind, DomainKind::Boolean);
        assert_eq!(b.attribute, "Hardcover only");
    }

    #[test]
    fn range_unions_endpoint_values() {
        let attr = Payload::Attr("Price".into());
        let lo = enumerated(&["5"]);
        let hi = enumerated(&["50"]);
        let make = Constructor::MakeRange {
            attr: 0,
            lo: 1,
            hi: 2,
        };
        let c = cond_of(&make, &[attr, lo, hi]);
        assert_eq!(c.domain.kind, DomainKind::Range);
        assert_eq!(c.domain.values, vec!["5", "50"]);
    }

    #[test]
    fn unlabeled_widget_attribute_sources() {
        let tok = Token::widget(0, TokenKind::SelectionList, "pub_year", BBox::ZERO)
            .with_options(vec!["Select a State".into(), "IL".into()]);
        let p = Payload::for_token(&tok);
        let mut table = PayloadTable::default();
        let view = View {
            bbox: BBox::ZERO,
            payload: &p,
            token: Some(&tok),
            inst: 0,
            table: PayloadTable::empty(),
        };
        let out = Constructor::MakeUnlabeledCond(0).eval(&[view], &mut table);
        assert_eq!(only(&out, &table).attribute, "state", "placeholder wins");

        let tok2 = Token::widget(0, TokenKind::Textbox, "pub_year", BBox::ZERO);
        let p2 = Payload::Val(Domain::of(DomainKind::Text));
        let view2 = View {
            bbox: BBox::ZERO,
            payload: &p2,
            token: Some(&tok2),
            inst: 0,
            table: PayloadTable::empty(),
        };
        let out2 = Constructor::MakeUnlabeledCond(0).eval(&[view2], &mut table);
        assert_eq!(only(&out2, &table).attribute, "pub year");
        assert_eq!(only(&out2, &table).domain, DomainSpec::text());
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
        let mut table = PayloadTable::default();
        let cond = run(
            &Constructor::MakeDate(0),
            &[Payload::Attr("a".into())],
            &mut table,
        );
        let row = run_at(
            &Constructor::CollectConds,
            &[cond.clone(), cond],
            1,
            &mut table,
        );
        assert_eq!(row, Payload::Collected);
        assert!(row.has_conditions());
        assert_eq!(
            run_at(&Constructor::Inherit(0), &[row], 5, &mut table),
            Payload::CollectedAt(5),
            "an inherited list names the instance that collected it"
        );
        let up = run_at(
            &Constructor::Inherit(0),
            &[Payload::CollectedAt(5)],
            6,
            &mut table,
        );
        assert_eq!(up, Payload::CollectedAt(5));
    }

    #[test]
    fn group_and_inherit() {
        let p = Payload::Ops(Texts::Shared(list(&["x"])));
        assert_eq!(
            eval(&Constructor::Group, std::slice::from_ref(&p)),
            Payload::None
        );
        assert_eq!(eval(&Constructor::Inherit(0), std::slice::from_ref(&p)), p);
    }
}
