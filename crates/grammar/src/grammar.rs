//! The 2P grammar: ⟨Σ, N, s, Pd, Pf⟩ (paper Definition 1) plus a
//! builder.

use crate::constraint::Constraint;
use crate::constructor::Constructor;
use crate::preference::{ConflictCond, PrefId, Preference, WinCriteria};
use crate::production::{ProdId, Production};
use crate::symbol::{SymbolId, SymbolTable};
use metaform_core::{Proximity, TokenKind};
use std::fmt;

/// Errors raised while assembling or validating a grammar.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GrammarError {
    /// A production references a head that is a terminal.
    TerminalHead(String),
    /// A production has no components.
    EmptyProduction(String),
    /// The d-edges (head → component) contain a cycle through distinct
    /// nonterminals, so symbol-by-symbol instantiation cannot be
    /// scheduled (self-recursion is allowed and handled by the
    /// per-symbol fix-point).
    CyclicProductions(String),
    /// The start symbol has no productions.
    UselessStart(String),
    /// A production or preference names a symbol id outside the
    /// grammar's symbol table — possible only for grammars assembled
    /// by hand or machine (induction), never by the builder.
    UnknownSymbol(String),
    /// A production's constraint or constructor dereferences a
    /// component slot at or beyond the production's arity.
    BadSlotIndex(String),
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::TerminalHead(n) => write!(f, "terminal symbol {n} used as head"),
            GrammarError::EmptyProduction(n) => write!(f, "production {n} has no components"),
            GrammarError::CyclicProductions(n) => {
                write!(f, "cyclic mutual recursion through symbol {n}")
            }
            GrammarError::UselessStart(n) => write!(f, "start symbol {n} has no productions"),
            GrammarError::UnknownSymbol(n) => {
                write!(f, "rule {n} names a symbol outside the symbol table")
            }
            GrammarError::BadSlotIndex(n) => {
                write!(
                    f,
                    "production {n} dereferences a component slot beyond its arity"
                )
            }
        }
    }
}

impl std::error::Error for GrammarError {}

/// A complete 2P grammar.
#[derive(Clone, Debug)]
pub struct Grammar {
    /// Σ ∪ N.
    pub symbols: SymbolTable,
    /// s — the start symbol.
    pub start: SymbolId,
    /// Pd — production rules.
    pub productions: Vec<Production>,
    /// Pf — preference rules.
    pub preferences: Vec<Preference>,
    /// Adjacency thresholds the constraints evaluate under.
    pub proximity: Proximity,
    /// Per-symbol production index (ids of productions with that head).
    heads: Vec<Vec<ProdId>>,
}

impl Grammar {
    /// Productions whose head is `symbol`.
    pub fn productions_of(&self, symbol: SymbolId) -> &[ProdId] {
        self.heads
            .get(symbol.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Borrow a production.
    pub fn production(&self, id: ProdId) -> &Production {
        &self.productions[id.index()]
    }

    /// Borrow a preference.
    pub fn preference(&self, id: PrefId) -> &Preference {
        &self.preferences[id.index()]
    }

    /// Nonterminals that no derivation from the start symbol reaches:
    /// their productions can build instances, but no tree through the
    /// start symbol ever uses them.
    pub fn unreachable_nonterminals(&self) -> Vec<&str> {
        let mut reached = vec![false; self.symbols.len()];
        reached[self.start.index()] = true;
        let mut stack = vec![self.start];
        while let Some(s) = stack.pop() {
            for &p in self.productions_of(s) {
                for &c in &self.production(p).components {
                    if !std::mem::replace(&mut reached[c.index()], true) {
                        stack.push(c);
                    }
                }
            }
        }
        self.symbols
            .ids()
            .filter(|&s| !self.symbols.is_terminal(s) && !reached[s.index()])
            .map(|s| self.symbols.name(s))
            .collect()
    }

    /// Preferences that can never fire: no terminal kind is derivable
    /// from both the winner and the loser, so no instance of one can
    /// share a token with an instance of the other, and both conflict
    /// conditions need a shared token.
    pub fn disjoint_preferences(&self) -> Vec<&str> {
        // Bit `t` of `kinds[s]`: terminal `t` is derivable from `s`
        // (terminals hold ids below 64). A fixed point over the
        // productions.
        let mut kinds: Vec<u64> = self
            .symbols
            .ids()
            .map(|s| {
                if self.symbols.is_terminal(s) {
                    1 << s.index()
                } else {
                    0
                }
            })
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for p in &self.productions {
                let derived = p.components.iter().fold(0, |acc, c| acc | kinds[c.index()]);
                let head = &mut kinds[p.head.index()];
                if derived & !*head != 0 {
                    *head |= derived;
                    changed = true;
                }
            }
        }
        self.preferences
            .iter()
            .filter(|r| kinds[r.winner.index()] & kinds[r.loser.index()] == 0)
            .map(|r| r.name.as_str())
            .collect()
    }

    /// Re-runs every structural validity check and rebuilds the
    /// per-head production index. This is the integrity gate of the
    /// grammar lifecycle: [`GrammarBuilder::build`] runs it once for
    /// hand-assembled grammars, and [`Grammar::compile`] runs it
    /// again so grammars whose `productions`/`preferences` were
    /// edited after building are fully re-validated before any parse
    /// touches them. After it succeeds, every symbol id in every
    /// production and preference is in-bounds and every
    /// constraint/constructor slot index is below its production's
    /// arity, so the parse engine can index without checks.
    pub fn validate_and_reindex(&mut self) -> Result<(), GrammarError> {
        let n = self.symbols.len();
        let mut heads: Vec<Vec<ProdId>> = vec![Vec::new(); n];
        for (i, p) in self.productions.iter().enumerate() {
            if p.head.index() >= n || p.components.iter().any(|c| c.index() >= n) {
                return Err(GrammarError::UnknownSymbol(p.name.clone()));
            }
            if self.symbols.is_terminal(p.head) {
                return Err(GrammarError::TerminalHead(p.name.clone()));
            }
            if p.components.is_empty() {
                return Err(GrammarError::EmptyProduction(p.name.clone()));
            }
            let arity = p.arity();
            if p.constraint.max_slot() >= arity
                || p.constructor.max_slot().is_some_and(|s| s >= arity)
            {
                return Err(GrammarError::BadSlotIndex(p.name.clone()));
            }
            heads[p.head.index()].push(ProdId(i as u32));
        }
        for pref in &self.preferences {
            if pref.winner.index() >= n || pref.loser.index() >= n {
                return Err(GrammarError::UnknownSymbol(pref.name.clone()));
            }
        }
        if self.start.index() >= n || heads[self.start.index()].is_empty() {
            return Err(GrammarError::UselessStart(
                self.symbols.name(self.start).to_string(),
            ));
        }
        self.heads = heads;
        Ok(())
    }

    /// Summary line for reports: counts of terminals, nonterminals,
    /// productions, preferences.
    pub fn stats(&self) -> String {
        format!(
            "{} terminals, {} nonterminals, {} productions, {} preferences",
            self.symbols.len() - self.symbols.nonterminal_count(),
            self.symbols.nonterminal_count(),
            self.productions.len(),
            self.preferences.len()
        )
    }
}

/// Incremental grammar builder.
///
/// ```
/// use metaform_core::TokenKind;
/// use metaform_grammar::{Constraint, Constructor, GrammarBuilder, Pred};
///
/// let mut b = GrammarBuilder::new("QI");
/// let text = b.t(TokenKind::Text);
/// let attr = b.nt("Attr");
/// let qi = b.nt("QI");
/// b.production("Attr", attr, vec![text],
///              Constraint::Is(0, Pred::AttrLike), Constructor::MakeAttr(0));
/// b.production("QI", qi, vec![attr], Constraint::True, Constructor::Group);
/// let grammar = b.build().unwrap();
/// assert_eq!(grammar.symbols.nonterminal_count(), 2);
/// assert_eq!(grammar.productions_of(qi).len(), 1);
/// ```
pub struct GrammarBuilder {
    symbols: SymbolTable,
    start_name: String,
    productions: Vec<Production>,
    preferences: Vec<Preference>,
    proximity: Proximity,
}

impl GrammarBuilder {
    /// Creates a builder whose start symbol is `start`.
    pub fn new(start: &str) -> Self {
        Self::with_nonterminals(start, [])
    }

    /// Creates a builder whose nonterminals `declared` take the ids
    /// after the terminals, in the order given; the start symbol
    /// follows them unless it is among them. Names interned later by
    /// [`GrammarBuilder::nt`] come after all of these.
    pub(crate) fn with_nonterminals<'a>(
        start: &str,
        declared: impl IntoIterator<Item = &'a str>,
    ) -> Self {
        let mut symbols = SymbolTable::new();
        for name in declared {
            symbols.intern(name);
        }
        symbols.intern(start);
        GrammarBuilder {
            symbols,
            start_name: start.to_string(),
            productions: Vec::new(),
            preferences: Vec::new(),
            proximity: Proximity::default(),
        }
    }

    /// Overrides adjacency thresholds.
    pub fn proximity(&mut self, p: Proximity) -> &mut Self {
        self.proximity = p;
        self
    }

    /// Terminal symbol for a token kind.
    pub fn t(&self, kind: TokenKind) -> SymbolId {
        self.symbols.terminal(kind)
    }

    /// Interns (or finds) a nonterminal.
    pub fn nt(&mut self, name: &str) -> SymbolId {
        self.symbols.intern(name)
    }

    /// Adds a production.
    pub fn production(
        &mut self,
        name: &str,
        head: SymbolId,
        components: Vec<SymbolId>,
        constraint: Constraint,
        constructor: Constructor,
    ) -> &mut Self {
        self.productions.push(Production {
            name: name.to_string(),
            head,
            components,
            constraint,
            constructor,
        });
        self
    }

    /// Adds a preference.
    pub fn preference(
        &mut self,
        name: &str,
        winner: SymbolId,
        loser: SymbolId,
        condition: ConflictCond,
        criteria: WinCriteria,
    ) -> &mut Self {
        self.preferences.push(Preference {
            name: name.to_string(),
            winner,
            loser,
            condition,
            criteria,
        });
        self
    }

    /// Validates and finishes the grammar.
    pub fn build(self) -> Result<Grammar, GrammarError> {
        let start = self
            .symbols
            .lookup(&self.start_name)
            .expect("start symbol interned in new()");
        let mut g = Grammar {
            symbols: self.symbols,
            start,
            productions: self.productions,
            preferences: self.preferences,
            proximity: self.proximity,
            heads: Vec::new(),
        };
        g.validate_and_reindex()?;
        // d-edge acyclicity (ignoring self-loops) is checked here so a
        // bad grammar fails at build time, not at first parse.
        crate::schedule::check_d_acyclic(&g)?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_minimal_grammar() {
        let mut b = GrammarBuilder::new("QI");
        let text = b.t(TokenKind::Text);
        let qi = b.nt("QI");
        b.production("only", qi, vec![text], Constraint::True, Constructor::Group);
        let g = b.build().expect("valid grammar");
        assert_eq!(g.productions_of(qi).len(), 1);
        assert_eq!(g.symbols.nonterminal_count(), 1);
        assert!(g.stats().contains("1 productions"));
    }

    #[test]
    fn static_checks_find_unreachable_symbols_and_disjoint_preferences() {
        let mut b = GrammarBuilder::new("QI");
        let text = b.t(TokenKind::Text);
        let textbox = b.t(TokenKind::Textbox);
        let qi = b.nt("QI");
        let a = b.nt("A");
        let v = b.nt("V");
        let orphan = b.nt("Orphan");
        for (name, head, body) in [
            ("QI<-A", qi, a),
            ("QI<-V", qi, v),
            ("A", a, text),
            ("V", v, textbox),
            ("Orphan", orphan, text),
        ] {
            b.production(name, head, vec![body], Constraint::True, Constructor::Group);
        }
        b.preference("QI>A", qi, a, ConflictCond::Overlap, WinCriteria::Always);
        b.preference("A>V", a, v, ConflictCond::Overlap, WinCriteria::Always);
        let g = b.build().expect("valid grammar");
        assert_eq!(g.unreachable_nonterminals(), ["Orphan"]);
        assert_eq!(g.disjoint_preferences(), ["A>V"]);
    }

    #[test]
    fn terminal_head_rejected() {
        let mut b = GrammarBuilder::new("QI");
        let text = b.t(TokenKind::Text);
        let qi = b.nt("QI");
        b.production("ok", qi, vec![text], Constraint::True, Constructor::Group);
        b.production(
            "bad",
            text,
            vec![text],
            Constraint::True,
            Constructor::Group,
        );
        assert!(matches!(b.build(), Err(GrammarError::TerminalHead(_))));
    }

    #[test]
    fn empty_production_rejected() {
        let mut b = GrammarBuilder::new("QI");
        let qi = b.nt("QI");
        b.production("bad", qi, vec![], Constraint::True, Constructor::Group);
        assert!(matches!(b.build(), Err(GrammarError::EmptyProduction(_))));
    }

    #[test]
    fn useless_start_rejected() {
        let mut b = GrammarBuilder::new("QI");
        let text = b.t(TokenKind::Text);
        let other = b.nt("Other");
        b.production(
            "other",
            other,
            vec![text],
            Constraint::True,
            Constructor::Group,
        );
        assert!(matches!(b.build(), Err(GrammarError::UselessStart(_))));
    }

    #[test]
    fn mutual_recursion_rejected_self_recursion_allowed() {
        // Self-recursive list rule: fine.
        let mut b = GrammarBuilder::new("QI");
        let text = b.t(TokenKind::Text);
        let qi = b.nt("QI");
        b.production("base", qi, vec![text], Constraint::True, Constructor::Group);
        b.production(
            "rec",
            qi,
            vec![qi, text],
            Constraint::True,
            Constructor::Group,
        );
        assert!(b.build().is_ok());

        // Mutual recursion A → B → A: unschedulable.
        let mut b = GrammarBuilder::new("A");
        let text = b.t(TokenKind::Text);
        let a = b.nt("A");
        let bb = b.nt("B");
        b.production("a", a, vec![bb], Constraint::True, Constructor::Group);
        b.production("b", bb, vec![a], Constraint::True, Constructor::Group);
        b.production("a2", a, vec![text], Constraint::True, Constructor::Group);
        assert!(matches!(b.build(), Err(GrammarError::CyclicProductions(_))));
    }

    #[test]
    fn preferences_recorded() {
        let mut b = GrammarBuilder::new("QI");
        let text = b.t(TokenKind::Text);
        let qi = b.nt("QI");
        let attr = b.nt("Attr");
        b.production("q", qi, vec![text], Constraint::True, Constructor::Group);
        b.production(
            "a",
            attr,
            vec![text],
            Constraint::True,
            Constructor::MakeAttr(0),
        );
        b.preference("R1", qi, attr, ConflictCond::Overlap, WinCriteria::Always);
        let g = b.build().unwrap();
        assert_eq!(g.preferences.len(), 1);
        assert_eq!(g.preference(PrefId(0)).name, "R1");
    }
}
