//! A textual format for 2P grammars.
//!
//! The paper's derived grammar was published "available online" as an
//! artifact; this module gives ours the same property: a grammar can be
//! serialized to a readable text form, edited, and loaded back — no
//! recompilation. Example:
//!
//! ```text
//! grammar QI
//! # optional: fixes the nonterminals' ids, in this order
//! nonterminals: QI Attr Val TextVal HQI RBU RBList
//!
//! # productions: NAME: HEAD <- COMPONENTS : CONSTRAINT => CONSTRUCTOR
//! Attr: Attr <- text : attrlike(0) => attr(0)
//! TextVal: TextVal <- Attr Val : left(0,1) => cond(attr=0, val=1)
//! QI-stack: QI <- QI HQI : abovewithin(0,1,12) => collect
//!
//! # preferences: NAME: WINNER > LOSER : CONDITION CRITERIA
//! R1: RBU > Attr : overlap always
//! R2: RBList > RBList : subsumed larger
//! ```

use crate::constraint::{Constraint, Pred};
use crate::constructor::Constructor;
use crate::grammar::{Grammar, GrammarBuilder, GrammarError};
use crate::preference::{ConflictCond, WinCriteria};
use metaform_core::{DomainKind, TokenKind};
use std::fmt::Write as _;

/// Errors raised while reading the textual form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DslError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for DslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DslError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, DslError> {
    Err(DslError {
        line,
        message: message.into(),
    })
}

/// Serializes a grammar to the textual form. Lossless for everything
/// the DSL can express (which is the full constraint/constructor
/// vocabulary the built-in grammars use), symbol ids included: the
/// `nonterminals:` line lists the nonterminals in id order.
pub fn to_dsl(g: &Grammar) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "grammar {}", g.symbols.name(g.start));
    let nonterminals: Vec<&str> = g
        .symbols
        .ids()
        .filter(|&id| !g.symbols.is_terminal(id))
        .map(|id| g.symbols.name(id))
        .collect();
    let _ = writeln!(out, "nonterminals: {}", nonterminals.join(" "));
    let _ = writeln!(out);
    for p in &g.productions {
        let comps: Vec<&str> = p.components.iter().map(|&c| g.symbols.name(c)).collect();
        let _ = writeln!(
            out,
            "{}: {} <- {} : {} => {}",
            p.name,
            g.symbols.name(p.head),
            comps.join(" "),
            constraint_dsl(&p.constraint),
            constructor_dsl(&p.constructor),
        );
    }
    let _ = writeln!(out);
    for r in &g.preferences {
        let cond = match r.condition {
            ConflictCond::Overlap => "overlap",
            ConflictCond::LoserSubsumed => "subsumed",
        };
        let crit = match r.criteria {
            WinCriteria::Always => "always",
            WinCriteria::WinnerLarger => "larger",
            WinCriteria::WinnerTighter => "tighter",
        };
        let _ = writeln!(
            out,
            "{}: {} > {} : {} {}",
            r.name,
            g.symbols.name(r.winner),
            g.symbols.name(r.loser),
            cond,
            crit
        );
    }
    out
}

fn constraint_dsl(c: &Constraint) -> String {
    match c {
        Constraint::True => "true".into(),
        Constraint::Left(i, j) => format!("left({i},{j})"),
        Constraint::Above(i, j) => format!("above({i},{j})"),
        Constraint::Below(i, j) => format!("below({i},{j})"),
        Constraint::LeftWithin(i, j, px) => format!("leftwithin({i},{j},{px})"),
        Constraint::AboveWithin(i, j, px) => format!("abovewithin({i},{j},{px})"),
        Constraint::SameRow(i, j) => format!("samerow({i},{j})"),
        Constraint::SameCol(i, j) => format!("samecol({i},{j})"),
        Constraint::AlignBottom(i, j) => format!("alignbottom({i},{j})"),
        Constraint::AlignTop(i, j) => format!("aligntop({i},{j})"),
        Constraint::AlignLeft(i, j) => format!("alignleft({i},{j})"),
        Constraint::MaxDist(i, j, px) => format!("maxdist({i},{j},{px})"),
        Constraint::Is(i, p) => match p {
            Pred::AttrLike => format!("attrlike({i})"),
            Pred::OpsLike => format!("opslike({i})"),
            Pred::RangeConnector => format!("connector({i})"),
            Pred::MaxWords(n) => format!("maxwords({i},{n})"),
            Pred::OptionsOpsLike => format!("optionsops({i})"),
            Pred::LowercaseText => format!("lowercase({i})"),
            Pred::MinOps(n) => format!("minops({i},{n})"),
        },
        Constraint::And(cs) => cs.iter().map(maybe_paren).collect::<Vec<_>>().join(" & "),
        Constraint::Or(cs) => cs.iter().map(maybe_paren).collect::<Vec<_>>().join(" | "),
        Constraint::Not(c) => format!("!{}", maybe_paren(c)),
    }
}

fn maybe_paren(c: &Constraint) -> String {
    match c {
        Constraint::And(_) | Constraint::Or(_) => format!("({})", constraint_dsl(c)),
        _ => constraint_dsl(c),
    }
}

fn constructor_dsl(k: &Constructor) -> String {
    fn kind_name(k: DomainKind) -> &'static str {
        match k {
            DomainKind::Text => "text",
            DomainKind::Enumerated => "enum",
            DomainKind::Range => "range",
            DomainKind::Date => "date",
            DomainKind::Time => "time",
            DomainKind::Boolean => "bool",
            DomainKind::Numeric => "numeric",
        }
    }
    match k {
        Constructor::Group => "group".into(),
        Constructor::Inherit(i) => format!("inherit({i})"),
        Constructor::MakeAttr(i) => format!("attr({i})"),
        Constructor::TextOf(i) => format!("textof({i})"),
        Constructor::ListStart(i) => format!("liststart({i})"),
        Constructor::ListAppend { list, unit } => format!("listappend({list},{unit})"),
        Constructor::OpsFromOptions(i) => format!("opsfromoptions({i})"),
        Constructor::MakeCond {
            attr,
            ops,
            val,
            kind,
        } => {
            let mut parts = Vec::new();
            if let Some(a) = attr {
                parts.push(format!("attr={a}"));
            }
            if let Some(o) = ops {
                parts.push(format!("ops={o}"));
            }
            parts.push(format!("val={val}"));
            if let Some(k) = kind {
                parts.push(format!("kind={}", kind_name(*k)));
            }
            format!("cond({})", parts.join(","))
        }
        Constructor::MakeEnumCond { attr, list } => match attr {
            Some(a) => format!("enumcond(attr={a},list={list})"),
            None => format!("enumcond(list={list})"),
        },
        Constructor::MakeBoolCond(i) => format!("boolcond({i})"),
        Constructor::MakeRange { attr, lo, hi } => format!("range({attr},{lo},{hi})"),
        Constructor::MakeDate(i) => format!("date({i})"),
        Constructor::MakeUnlabeledCond(i) => format!("unlabeled({i})"),
        Constructor::CollectConds => "collect".into(),
    }
}

/// Parses the textual form back into a [`Grammar`].
///
/// Nonterminal ids follow the optional `nonterminals:` line, which may
/// appear once, before any rule; nonterminals it does not list are
/// numbered after it in order of first appearance, the header's start
/// symbol first.
pub fn from_dsl(source: &str) -> Result<Grammar, DslError> {
    let mut start: Option<&str> = None;
    // Made by the `nonterminals:` line or, failing that, the first rule.
    let mut builder: Option<GrammarBuilder> = None;
    for (line_no, raw) in (1..).zip(source.lines()) {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("grammar ") {
            if start.is_some() {
                return err(line_no, "duplicate `grammar` header");
            }
            start = Some(name.trim());
            continue;
        }
        let Some(start) = start else {
            return err(line_no, "expected `grammar <Start>` header first");
        };
        if let Some(names) = line.strip_prefix("nonterminals:") {
            if builder.is_some() {
                return err(line_no, "`nonterminals:` may appear once, before any rule");
            }
            builder = Some(declare(start, names, line_no)?);
            continue;
        }
        let b = builder.get_or_insert_with(|| GrammarBuilder::new(start));
        // Names may contain bare colons ("TextVal:left"); the name
        // separator is colon-space.
        let Some((name, rest)) = line.split_once(": ") else {
            return err(line_no, "expected `name: …`");
        };
        let (name, rest) = (name.trim(), rest.trim());
        if rest.contains("<-") {
            parse_production(b, name, rest, line_no)?;
        } else if rest.contains('>') {
            parse_preference(b, name, rest, line_no)?;
        } else {
            return err(line_no, "expected a production (`<-`) or preference (`>`)");
        }
    }
    let b = match (builder, start) {
        (Some(b), _) => b,
        (None, Some(start)) => GrammarBuilder::new(start),
        (None, None) => return err(0, "empty grammar source"),
    };
    b.build().map_err(|e: GrammarError| DslError {
        line: 0,
        message: e.to_string(),
    })
}

/// The builder for a `nonterminals:` line: its names, each a distinct
/// non-terminal name, take the first nonterminal ids in order.
fn declare(start: &str, names: &str, line: usize) -> Result<GrammarBuilder, DslError> {
    let mut seen = std::collections::HashSet::new();
    for name in names.split_whitespace() {
        if terminal(name).is_some() {
            return err(line, format!("terminal {name:?} declared as a nonterminal"));
        }
        if !seen.insert(name) {
            return err(line, format!("nonterminal {name:?} declared twice"));
        }
    }
    Ok(GrammarBuilder::with_nonterminals(
        start,
        names.split_whitespace(),
    ))
}

fn terminal(name: &str) -> Option<TokenKind> {
    TokenKind::ALL.into_iter().find(|kind| kind.name() == name)
}

/// Symbol lookup: terminal names resolve to terminals, everything else
/// is interned as a nonterminal.
fn symbol(b: &mut GrammarBuilder, name: &str) -> crate::symbol::SymbolId {
    match terminal(name) {
        Some(kind) => b.t(kind),
        None => b.nt(name),
    }
}

fn parse_production(
    b: &mut GrammarBuilder,
    name: &str,
    rest: &str,
    line: usize,
) -> Result<(), DslError> {
    let Some((head, rest)) = rest.split_once("<-") else {
        return err(line, "missing `<-`");
    };
    let Some((comps, rest)) = rest.split_once(':') else {
        return err(line, "missing `: CONSTRAINT`");
    };
    let Some((constraint_src, constructor_src)) = rest.split_once("=>") else {
        return err(line, "missing `=> CONSTRUCTOR`");
    };
    let head_sym = symbol(b, head.trim());
    let components: Vec<_> = comps.split_whitespace().map(|c| symbol(b, c)).collect();
    if components.is_empty() {
        return err(line, "production needs at least one component");
    }
    let constraint = ConstraintParser {
        src: constraint_src.trim(),
        pos: 0,
        line,
    }
    .parse_full()?;
    let constructor = parse_constructor(constructor_src.trim(), line)?;
    b.production(name, head_sym, components, constraint, constructor);
    Ok(())
}

fn parse_preference(
    b: &mut GrammarBuilder,
    name: &str,
    rest: &str,
    line: usize,
) -> Result<(), DslError> {
    let Some((pair, clause)) = rest.split_once(':') else {
        return err(line, "missing `: CONDITION CRITERIA`");
    };
    let Some((winner, loser)) = pair.split_once('>') else {
        return err(line, "missing `WINNER > LOSER`");
    };
    let mut words = clause.split_whitespace();
    let cond = match words.next() {
        Some("overlap") => ConflictCond::Overlap,
        Some("subsumed") => ConflictCond::LoserSubsumed,
        other => return err(line, format!("unknown conflict condition {other:?}")),
    };
    let crit = match words.next() {
        Some("always") => WinCriteria::Always,
        Some("larger") => WinCriteria::WinnerLarger,
        Some("tighter") => WinCriteria::WinnerTighter,
        other => return err(line, format!("unknown winning criteria {other:?}")),
    };
    let w = symbol(b, winner.trim());
    let l = symbol(b, loser.trim());
    b.preference(name, w, l, cond, crit);
    Ok(())
}

/// Recursive-descent parser for constraint expressions:
/// `expr := term (('&'|'|') term)*`, `term := '!'? (atom | '(' expr ')')`.
/// Mixing `&` and `|` at one level requires parentheses.
struct ConstraintParser<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl ConstraintParser<'_> {
    fn parse_full(mut self) -> Result<Constraint, DslError> {
        let c = self.parse_expr()?;
        self.skip_ws();
        if self.pos != self.src.len() {
            return err(
                self.line,
                format!("trailing input at {:?}", &self.src[self.pos..]),
            );
        }
        Ok(c)
    }

    fn parse_expr(&mut self) -> Result<Constraint, DslError> {
        let first = self.parse_term()?;
        self.skip_ws();
        let op = match self.peek() {
            Some('&') => '&',
            Some('|') => '|',
            _ => return Ok(first),
        };
        let mut parts = vec![first];
        while let Some(c) = self.peek() {
            if c != '&' && c != '|' {
                break;
            }
            if c != op {
                return err(self.line, "mixing `&` and `|` requires parentheses");
            }
            self.pos += 1;
            parts.push(self.parse_term()?);
            self.skip_ws();
        }
        Ok(if op == '&' {
            Constraint::And(parts)
        } else {
            Constraint::Or(parts)
        })
    }

    fn parse_term(&mut self) -> Result<Constraint, DslError> {
        self.skip_ws();
        match self.peek() {
            Some('!') => {
                self.pos += 1;
                Ok(Constraint::Not(Box::new(self.parse_term()?)))
            }
            Some('(') => {
                self.pos += 1;
                let inner = self.parse_expr()?;
                self.skip_ws();
                if self.peek() != Some(')') {
                    return err(self.line, "expected `)`");
                }
                self.pos += 1;
                Ok(inner)
            }
            _ => self.parse_atom(),
        }
    }

    fn parse_atom(&mut self) -> Result<Constraint, DslError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            self.pos += 1;
        }
        let word = &self.src[start..self.pos];
        if word == "true" {
            return Ok(Constraint::True);
        }
        let args = self.parse_args()?;
        let get = |i: usize| -> Result<usize, DslError> {
            args.get(i).copied().map(|v| v as usize).ok_or(DslError {
                line: self.line,
                message: format!("{word}: missing argument {i}"),
            })
        };
        let geti = |i: usize| -> Result<i32, DslError> {
            args.get(i).copied().ok_or(DslError {
                line: self.line,
                message: format!("{word}: missing argument {i}"),
            })
        };
        Ok(match word {
            "left" => Constraint::Left(get(0)?, get(1)?),
            "above" => Constraint::Above(get(0)?, get(1)?),
            "below" => Constraint::Below(get(0)?, get(1)?),
            "leftwithin" => Constraint::LeftWithin(get(0)?, get(1)?, geti(2)?),
            "abovewithin" => Constraint::AboveWithin(get(0)?, get(1)?, geti(2)?),
            "samerow" => Constraint::SameRow(get(0)?, get(1)?),
            "samecol" => Constraint::SameCol(get(0)?, get(1)?),
            "alignbottom" => Constraint::AlignBottom(get(0)?, get(1)?),
            "aligntop" => Constraint::AlignTop(get(0)?, get(1)?),
            "alignleft" => Constraint::AlignLeft(get(0)?, get(1)?),
            "maxdist" => Constraint::MaxDist(get(0)?, get(1)?, geti(2)?),
            "attrlike" => Constraint::Is(get(0)?, Pred::AttrLike),
            "opslike" => Constraint::Is(get(0)?, Pred::OpsLike),
            "connector" => Constraint::Is(get(0)?, Pred::RangeConnector),
            "maxwords" => Constraint::Is(get(0)?, Pred::MaxWords(geti(1)? as u8)),
            "optionsops" => Constraint::Is(get(0)?, Pred::OptionsOpsLike),
            "lowercase" => Constraint::Is(get(0)?, Pred::LowercaseText),
            "minops" => Constraint::Is(get(0)?, Pred::MinOps(geti(1)? as u8)),
            other => return err(self.line, format!("unknown constraint {other:?}")),
        })
    }

    fn parse_args(&mut self) -> Result<Vec<i32>, DslError> {
        self.skip_ws();
        if self.peek() != Some('(') {
            return err(self.line, "expected `(`");
        }
        self.pos += 1;
        let mut args = Vec::new();
        loop {
            self.skip_ws();
            let start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit() || c == '-') {
                self.pos += 1;
            }
            let n: i32 = self.src[start..self.pos].parse().map_err(|_| DslError {
                line: self.line,
                message: "expected a number".into(),
            })?;
            args.push(n);
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some(')') => {
                    self.pos += 1;
                    return Ok(args);
                }
                _ => return err(self.line, "expected `,` or `)`"),
            }
        }
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_whitespace()) {
            self.pos += 1;
        }
    }
}

fn parse_constructor(src: &str, line: usize) -> Result<Constructor, DslError> {
    let (name, args_src) = match src.find('(') {
        Some(at) => {
            let inner = src[at + 1..].strip_suffix(')').ok_or(DslError {
                line,
                message: "constructor: expected `)`".into(),
            })?;
            (&src[..at], inner)
        }
        None => (src, ""),
    };
    // Positional and keyword args.
    let mut positional: Vec<usize> = Vec::new();
    let mut keyword: Vec<(&str, &str)> = Vec::new();
    for part in args_src.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part.split_once('=') {
            Some((k, v)) => keyword.push((k.trim(), v.trim())),
            None => positional.push(part.parse().map_err(|_| DslError {
                line,
                message: format!("constructor {name}: bad argument {part:?}"),
            })?),
        }
    }
    let kw_idx = |key: &str| -> Result<Option<usize>, DslError> {
        keyword
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| {
                v.parse().map_err(|_| DslError {
                    line,
                    message: format!("constructor {name}: bad {key}={v}"),
                })
            })
            .transpose()
    };
    let pos0 = || -> Result<usize, DslError> {
        positional.first().copied().ok_or(DslError {
            line,
            message: format!("constructor {name}: missing argument"),
        })
    };
    Ok(match name {
        "group" => Constructor::Group,
        "inherit" => Constructor::Inherit(pos0()?),
        "attr" => Constructor::MakeAttr(pos0()?),
        "textof" => Constructor::TextOf(pos0()?),
        "liststart" => Constructor::ListStart(pos0()?),
        "listappend" => Constructor::ListAppend {
            list: pos0()?,
            unit: positional.get(1).copied().ok_or(DslError {
                line,
                message: "listappend: missing unit".into(),
            })?,
        },
        "opsfromoptions" => Constructor::OpsFromOptions(pos0()?),
        "cond" => {
            let kind = keyword
                .iter()
                .find(|(k, _)| *k == "kind")
                .map(|(_, v)| match *v {
                    "text" => Ok(DomainKind::Text),
                    "enum" => Ok(DomainKind::Enumerated),
                    "range" => Ok(DomainKind::Range),
                    "date" => Ok(DomainKind::Date),
                    "time" => Ok(DomainKind::Time),
                    "bool" => Ok(DomainKind::Boolean),
                    "numeric" => Ok(DomainKind::Numeric),
                    other => err(line, format!("unknown kind {other:?}")),
                })
                .transpose()?;
            Constructor::MakeCond {
                attr: kw_idx("attr")?,
                ops: kw_idx("ops")?,
                val: kw_idx("val")?.ok_or(DslError {
                    line,
                    message: "cond: missing val=".into(),
                })?,
                kind,
            }
        }
        "enumcond" => Constructor::MakeEnumCond {
            attr: kw_idx("attr")?,
            list: kw_idx("list")?.ok_or(DslError {
                line,
                message: "enumcond: missing list=".into(),
            })?,
        },
        "boolcond" => Constructor::MakeBoolCond(pos0()?),
        "range" => Constructor::MakeRange {
            attr: pos0()?,
            lo: positional.get(1).copied().unwrap_or(1),
            hi: positional.get(2).copied().unwrap_or(2),
        },
        "date" => Constructor::MakeDate(pos0()?),
        "unlabeled" => Constructor::MakeUnlabeledCond(pos0()?),
        "collect" => Constructor::CollectConds,
        other => return err(line, format!("unknown constructor {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{global_grammar, paper_example_grammar};
    use crate::schedule::build_schedule;
    use crate::symbol::SymbolId;

    #[test]
    fn minimal_grammar_round_trips() {
        let src = "\
grammar QI
# a tiny grammar
Attr: Attr <- text : attrlike(0) => attr(0)
Val: Val <- textbox : true => inherit(0)
TextVal: TextVal <- Attr Val : left(0,1) => cond(attr=0, val=1)
QI: QI <- TextVal : true => collect

R1: TextVal > Attr : overlap always
";
        let g = from_dsl(src).expect("parses");
        assert_eq!(g.productions.len(), 4);
        assert_eq!(g.preferences.len(), 1);
        assert_eq!(g.symbols.name(g.start), "QI");
        // And again through the serializer.
        let round = from_dsl(&to_dsl(&g)).expect("round trip");
        assert_eq!(round.productions.len(), 4);
        assert_eq!(round.preferences.len(), 1);
    }

    /// Every symbol as `(id, name)`, in id order.
    fn symbols_of(g: &Grammar) -> Vec<(SymbolId, String)> {
        g.symbols
            .ids()
            .map(|id| (id, g.symbols.name(id).to_string()))
            .collect()
    }

    #[test]
    fn round_trip_keeps_every_symbol_id() {
        // Nonterminals declared in an order the rules do not mention
        // them in: `Val` before `Attr`, though `Attr` heads the first rule.
        let mut b = GrammarBuilder::new("Q");
        let (text, textbox) = (b.t(TokenKind::Text), b.t(TokenKind::Textbox));
        let (val, attr, q) = (b.nt("Val"), b.nt("Attr"), b.nt("Q"));
        b.production(
            "Attr",
            attr,
            vec![text],
            Constraint::Is(0, Pred::AttrLike),
            Constructor::MakeAttr(0),
        );
        b.production(
            "Val",
            val,
            vec![textbox],
            Constraint::True,
            Constructor::Inherit(0),
        );
        b.production(
            "Q",
            q,
            vec![attr, val],
            Constraint::Left(0, 1),
            Constructor::Group,
        );
        let declared = b.build().expect("valid");
        for g in [global_grammar(), paper_example_grammar(), declared] {
            let text = to_dsl(&g);
            let back = from_dsl(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(symbols_of(&back), symbols_of(&g), "{text}");
            assert_eq!(back.start, g.start);
            assert_eq!(to_dsl(&back), text, "serialization is a fixed point");
            build_schedule(&back).expect("still schedulable");
        }
    }

    #[test]
    fn round_tripped_global_grammar_keeps_text_val_productions() {
        // A structural check only: this crate cannot run the parser.
        // `tests/grammar_artifact.rs::shipped_grammar_extracts_like_builtin`
        // extracts through a grammar read back from its DSL text.
        let g = from_dsl(&to_dsl(&global_grammar())).expect("round trip");
        let tv = g.symbols.lookup("TextVal").expect("TextVal survives");
        assert!(!g.productions_of(tv).is_empty());
    }

    #[test]
    fn boolean_expressions() {
        let src = "\
grammar Q
a: Q <- text text : left(0,1) & (attrlike(0) | connector(1)) & !lowercase(0) => group
";
        let g = from_dsl(src).expect("parses");
        let c = &g.productions[0].constraint;
        let s = constraint_dsl(c);
        assert_eq!(
            s,
            "left(0,1) & (attrlike(0) | connector(1)) & !lowercase(0)"
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "grammar Q\nx: Q <- text : bogus(0) => group\n";
        let e = from_dsl(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));

        let no_header = "x: Q <- text : true => group\n";
        assert_eq!(from_dsl(no_header).unwrap_err().line, 1);

        assert!(from_dsl("").is_err());
        let mixed = "grammar Q\nx: Q <- text : left(0,1) & attrlike(0) | true => group\n";
        assert!(from_dsl(mixed).unwrap_err().message.contains("parentheses"));
    }

    #[test]
    fn nonterminals_line_comes_once_before_every_rule() {
        let rule = "q: Q <- A : true => group\na: A <- text : true => group\n";
        let g = from_dsl(&format!("grammar Q\nnonterminals: A\n{rule}")).expect("parses");
        let ids = |g: &Grammar| (g.symbols.lookup("A"), g.symbols.lookup("Q"));
        assert_eq!(ids(&g), (Some(SymbolId(16)), Some(SymbolId(17))));
        let g = from_dsl(&format!("grammar Q\n{rule}")).expect("parses");
        assert_eq!(ids(&g), (Some(SymbolId(17)), Some(SymbolId(16))));

        for (src, line, message) in [
            (
                "grammar Q\nnonterminals: Q\nnonterminals: A\n",
                3,
                "once, before any rule",
            ),
            (
                "grammar Q\nq: Q <- text : true => group\nnonterminals: Q\n",
                3,
                "once, before any rule",
            ),
            ("nonterminals: Q\ngrammar Q\n", 1, "header first"),
            ("grammar Q\nnonterminals: Q text\n", 2, "terminal"),
            ("grammar Q\n\nnonterminals: Q A Q\n", 3, "twice"),
        ] {
            let e = from_dsl(src).unwrap_err();
            assert_eq!(e.line, line, "{src}");
            assert!(e.message.contains(message), "{src}: {e}");
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let src = "\
# leading comment
grammar Q

q: Q <- text : true => group   # trailing comment

";
        let g = from_dsl(src).expect("parses");
        assert_eq!(g.productions.len(), 1);
    }

    #[test]
    fn terminal_names_resolve_to_terminals() {
        let src = "\
grammar Q
q: Q <- textbox month_list : samerow(0,1) => group
";
        let g = from_dsl(src).expect("parses");
        let p = &g.productions[0];
        assert!(g.symbols.is_terminal(p.components[0]));
        assert!(g.symbols.is_terminal(p.components[1]));
        assert!(!g.symbols.is_terminal(p.head));
    }
}
