//! The compile-once grammar artifact.
//!
//! A [`Grammar`] is a *description*; a [`CompiledGrammar`] is the
//! immutable, parse-ready form of it: the validated 2P [`Schedule`],
//! a densified per-head production table, and a per-symbol preference
//! index (so enforcement at each scheduled symbol is a direct lookup
//! instead of a scan over every preference). Compiling is the only
//! fallible step on the way to parsing — once a `CompiledGrammar`
//! exists, parsing cannot fail.
//!
//! The artifact is plain immutable data, hence `Send + Sync`: wrap it
//! in an `Arc` and share it across however many parser sessions or
//! worker threads the workload needs. Compile once, parse many.

use crate::constraint::Hoisted;
use crate::grammar::{Grammar, GrammarError};
use crate::preference::PrefId;
use crate::production::ProdId;
use crate::schedule::{build_schedule, Schedule};
use crate::symbol::SymbolId;
use std::sync::atomic::{AtomicUsize, Ordering};

static COMPILE_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Process-wide count of [`CompiledGrammar`] constructions. Batch
/// paths are expected to keep this at one; tests and benches assert
/// the compile-once contract through it.
pub fn compile_count() -> usize {
    COMPILE_COUNT.load(Ordering::Relaxed)
}

/// An immutable, validated, parse-ready grammar (see module docs).
#[derive(Debug)]
pub struct CompiledGrammar {
    grammar: Grammar,
    schedule: Schedule,
    /// Preferences involving each symbol (as winner or loser), in
    /// declaration order — the enforcement points of Figure 11's inner
    /// loop, pre-resolved per symbol.
    prefs_by_symbol: Vec<Vec<PrefId>>,
    /// Productions per head symbol, flattened dense: ids of symbol `s`
    /// live at `head_prods[head_ranges[s].0 .. head_ranges[s].1]`.
    head_prods: Vec<ProdId>,
    head_ranges: Vec<(u32, u32)>,
    /// Widest production right-hand side — sessions size their
    /// enumeration scratch from this.
    max_arity: usize,
    /// Every production's constraint in enumeration form, indexed by
    /// production id (see [`hoist_constraints`]).
    hoisted: Vec<Hoisted>,
}

impl CompiledGrammar {
    /// Compiles a borrowed grammar (cloning it into the artifact).
    /// Fails only when the production graph cannot be scheduled — the
    /// same condition [`crate::GrammarBuilder::build`] rejects.
    pub fn new(grammar: &Grammar) -> Result<Self, GrammarError> {
        Self::build(grammar.clone())
    }

    fn build(mut grammar: Grammar) -> Result<Self, GrammarError> {
        // Compile is the only fallible step, so it owns the integrity
        // gate: re-validate and re-index even grammars whose
        // production/preference lists were extended after the builder
        // ran (hot-added induction candidates, deserialized DSL).
        // Without this, the dense head table below would silently miss
        // appended productions, and out-of-bounds symbol or slot
        // references would surface as panics mid-parse.
        grammar.validate_and_reindex()?;
        let schedule = build_schedule(&grammar)?;
        let prefs_by_symbol = preference_index(&grammar);
        let symbol_count = grammar.symbols.len();
        let mut head_prods = Vec::with_capacity(grammar.productions.len());
        let mut head_ranges = Vec::with_capacity(symbol_count);
        for s in 0..symbol_count {
            let start = head_prods.len() as u32;
            head_prods.extend_from_slice(grammar.productions_of(SymbolId(s as u32)));
            head_ranges.push((start, head_prods.len() as u32));
        }
        let max_arity = grammar
            .productions
            .iter()
            .map(|p| p.arity())
            .max()
            .unwrap_or(0);
        let hoisted = hoist_constraints(&grammar);
        COMPILE_COUNT.fetch_add(1, Ordering::Relaxed);
        Ok(CompiledGrammar {
            grammar,
            schedule,
            prefs_by_symbol,
            head_prods,
            head_ranges,
            max_arity,
            hoisted,
        })
    }

    /// The source grammar.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// The validated instantiation schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Preferences involving `symbol` (as winner or loser), in
    /// declaration order.
    pub fn prefs_involving(&self, symbol: SymbolId) -> &[PrefId] {
        self.prefs_by_symbol
            .get(symbol.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The per-symbol preference index, indexed by symbol id.
    pub fn preference_index(&self) -> &[Vec<PrefId>] {
        &self.prefs_by_symbol
    }

    /// Productions whose head is `symbol`, from the dense table.
    pub fn productions_of(&self, symbol: SymbolId) -> &[ProdId] {
        match self.head_ranges.get(symbol.index()) {
            Some(&(lo, hi)) => &self.head_prods[lo as usize..hi as usize],
            None => &[],
        }
    }

    /// Widest production right-hand side in the grammar.
    pub fn max_arity(&self) -> usize {
        self.max_arity
    }

    /// Every production's hoisted constraint, indexed by production id.
    pub fn hoisted(&self) -> &[Hoisted] {
        &self.hoisted
    }
}

impl Grammar {
    /// Compiles this grammar into its immutable parse-ready form —
    /// the only fallible step between grammar construction and
    /// parsing. See [`CompiledGrammar`].
    pub fn compile(self) -> Result<CompiledGrammar, GrammarError> {
        CompiledGrammar::build(self)
    }
}

/// Splits every production's constraint into its enumeration form —
/// per-slot unary predicates and depth-grouped residual terms (see
/// [`crate::Constraint::hoist`]) — indexed by production id. It depends
/// on the grammar alone, so a compiled grammar builds it once for every
/// session and parse.
pub fn hoist_constraints(grammar: &Grammar) -> Vec<Hoisted> {
    grammar
        .productions
        .iter()
        .map(|p| p.constraint.hoist(p.arity(), &grammar.proximity))
        .collect()
}

/// Builds the per-symbol preference index for a grammar: for every
/// symbol, the declaration-ordered ids of preferences naming it as
/// winner or loser.
pub fn preference_index(grammar: &Grammar) -> Vec<Vec<PrefId>> {
    let mut index = vec![Vec::new(); grammar.symbols.len()];
    for (i, pref) in grammar.preferences.iter().enumerate() {
        let id = PrefId(i as u32);
        if let Some(list) = index.get_mut(pref.winner.index()) {
            list.push(id);
        }
        if pref.loser != pref.winner {
            if let Some(list) = index.get_mut(pref.loser.index()) {
                list.push(id);
            }
        }
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::paper_example_grammar;
    use crate::symbol::SymbolKind;
    use crate::{GrammarError, Production};

    #[test]
    fn compile_preserves_grammar_and_schedule() {
        let g = paper_example_grammar();
        let direct = build_schedule(&g).unwrap();
        let compiled = g.clone().compile().expect("schedulable");
        assert_eq!(compiled.schedule().order, direct.order);
        assert_eq!(compiled.grammar().productions.len(), g.productions.len());
        assert!(compiled.max_arity() >= 2);
    }

    #[test]
    fn dense_production_table_matches_grammar() {
        let g = paper_example_grammar();
        let compiled = CompiledGrammar::new(&g).unwrap();
        for s in 0..g.symbols.len() {
            let sym = SymbolId(s as u32);
            assert_eq!(compiled.productions_of(sym), g.productions_of(sym));
        }
    }

    #[test]
    fn preference_index_covers_every_preference_once_per_side() {
        let g = paper_example_grammar();
        let compiled = CompiledGrammar::new(&g).unwrap();
        for (i, pref) in g.preferences.iter().enumerate() {
            let id = PrefId(i as u32);
            assert!(compiled.prefs_involving(pref.winner).contains(&id));
            assert!(compiled.prefs_involving(pref.loser).contains(&id));
        }
        // Index lists stay in declaration order (ascending ids).
        for s in 0..g.symbols.len() {
            let prefs = compiled.prefs_involving(SymbolId(s as u32));
            assert!(prefs.windows(2).all(|w| w[0] < w[1]));
            // Only symbols actually named by a preference appear.
            if !prefs.is_empty() {
                assert_eq!(g.symbols.kind(SymbolId(s as u32)), SymbolKind::NonTerminal);
            }
        }
    }

    #[test]
    fn constraints_are_hoisted_once_per_production() {
        let g = paper_example_grammar();
        let compiled = CompiledGrammar::new(&g).unwrap();
        assert_eq!(compiled.hoisted().len(), g.productions.len());
        for (h, p) in compiled.hoisted().iter().zip(&g.productions) {
            assert_eq!(h.slot_preds.len(), p.arity());
        }
    }

    #[test]
    fn compiled_grammar_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledGrammar>();
    }

    #[test]
    fn unschedulable_grammar_fails_to_compile() {
        // Hand-craft mutual recursion between two distinct
        // nonterminals (the builder rejects this up front, so go
        // through the public fields the way a deserializer might).
        let mut g = paper_example_grammar();
        let a = g.productions[0].head;
        let b = g
            .symbols
            .ids()
            .find(|&s| s != a && g.symbols.kind(s) == SymbolKind::NonTerminal)
            .expect("a second nonterminal");
        let template = g.productions[0].clone();
        g.productions.push(Production {
            name: "cycle-a".into(),
            head: a,
            components: vec![b],
            ..template.clone()
        });
        g.productions.push(Production {
            name: "cycle-b".into(),
            head: b,
            components: vec![a],
            ..template
        });
        let err = g.compile().expect_err("mutual recursion cannot schedule");
        assert!(matches!(err, GrammarError::CyclicProductions(_)));
    }
}
