//! The grammar alphabet: terminals and nonterminals.

use metaform_core::{Text, TokenKind};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a symbol within one grammar's symbol table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolId(pub u32);

impl SymbolId {
    /// Index form.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Whether a symbol is a terminal (token kind) or a nonterminal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SymbolKind {
    /// Terminal symbol bound to a token kind.
    Terminal(TokenKind),
    /// Nonterminal defined by productions.
    NonTerminal,
}

/// Interned symbol names and kinds. The 16 terminals are pre-registered
/// at ids `0..16` in [`TokenKind::ALL`] order. Names are shared, so
/// evidence that names a symbol copies no string.
#[derive(Clone, Debug)]
pub struct SymbolTable {
    names: Vec<Text>,
    kinds: Vec<SymbolKind>,
    by_name: HashMap<String, SymbolId>,
}

impl SymbolTable {
    /// Creates a table pre-populated with all terminal symbols.
    pub fn new() -> Self {
        let mut t = SymbolTable {
            names: Vec::new(),
            kinds: Vec::new(),
            by_name: HashMap::new(),
        };
        for kind in TokenKind::ALL {
            let id = SymbolId(t.names.len() as u32);
            t.names.push(kind.name().into());
            t.kinds.push(SymbolKind::Terminal(kind));
            t.by_name.insert(kind.name().to_string(), id);
        }
        t
    }

    /// The terminal symbol for a token kind.
    pub fn terminal(&self, kind: TokenKind) -> SymbolId {
        // Terminals were registered in ALL order.
        let idx = TokenKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("every kind is in ALL");
        SymbolId(idx as u32)
    }

    /// Interns a nonterminal, returning its id (idempotent).
    pub fn intern(&mut self, name: &str) -> SymbolId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = SymbolId(self.names.len() as u32);
        self.names.push(name.into());
        self.kinds.push(SymbolKind::NonTerminal);
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up a symbol by name.
    pub fn lookup(&self, name: &str) -> Option<SymbolId> {
        self.by_name.get(name).copied()
    }

    /// Symbol name.
    pub fn name(&self, id: SymbolId) -> &str {
        &self.names[id.index()]
    }

    /// Symbol name, shared.
    pub fn shared_name(&self, id: SymbolId) -> &Text {
        &self.names[id.index()]
    }

    /// Symbol kind.
    pub fn kind(&self, id: SymbolId) -> SymbolKind {
        self.kinds[id.index()]
    }

    /// True for terminal symbols.
    pub fn is_terminal(&self, id: SymbolId) -> bool {
        matches!(self.kinds[id.index()], SymbolKind::Terminal(_))
    }

    /// Total number of symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Always false: terminals are pre-registered.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of nonterminals.
    pub fn nonterminal_count(&self) -> usize {
        self.len() - TokenKind::ALL.len()
    }

    /// Iterates all symbol ids.
    pub fn ids(&self) -> impl Iterator<Item = SymbolId> {
        (0..self.names.len() as u32).map(SymbolId)
    }
}

impl Default for SymbolTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_preregistered() {
        let t = SymbolTable::new();
        assert_eq!(t.len(), 16);
        assert_eq!(t.nonterminal_count(), 0);
        let tb = t.terminal(TokenKind::Textbox);
        assert_eq!(t.name(tb), "textbox");
        assert!(t.is_terminal(tb));
        assert_eq!(t.kind(tb), SymbolKind::Terminal(TokenKind::Textbox));
    }

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("Attr");
        let b = t.intern("Attr");
        assert_eq!(a, b);
        assert_eq!(t.nonterminal_count(), 1);
        assert!(!t.is_terminal(a));
        assert_eq!(t.lookup("Attr"), Some(a));
        assert_eq!(t.lookup("Missing"), None);
    }

    #[test]
    fn every_terminal_resolvable() {
        let t = SymbolTable::new();
        for kind in TokenKind::ALL {
            let id = t.terminal(kind);
            assert_eq!(t.kind(id), SymbolKind::Terminal(kind));
            assert_eq!(t.lookup(kind.name()), Some(id));
        }
    }
}
