//! The 2P schedule graph (paper §5.2).
//!
//! Symbols must be instantiated children-before-parents (d-edges, from
//! productions) and winner-before-loser (r-edges, from preferences) so
//! that false instances are pruned *just in time* — before they can
//! participate in further instantiations. d-edges are mandatory;
//! r-edges are an optimization and may be *transformed* (re-targeted at
//! the loser's parents, paper Figure 13) or, failing that, dropped —
//! in which case the parser compensates with rollback.

use crate::grammar::{Grammar, GrammarError};
use crate::preference::PrefId;
use crate::symbol::SymbolId;
use std::collections::BTreeSet;
use std::sync::atomic::AtomicUsize;

static SCHEDULE_BUILDS: AtomicUsize = AtomicUsize::new(0);

/// Process-wide count of [`build_schedule`] invocations. Compile-once
/// paths (sessions over a [`crate::CompiledGrammar`]) schedule exactly
/// once per grammar; `tests/compile_once.rs` asserts that through this.
pub fn schedule_build_count() -> usize {
    SCHEDULE_BUILDS.load(std::sync::atomic::Ordering::Relaxed)
}

/// The instantiation plan for a grammar.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Nonterminals in instantiation order (terminals implicitly first).
    pub order: Vec<SymbolId>,
    /// Per-preference flag: its r-edge was dropped, so invalidating a
    /// loser under this preference must roll back the loser's ancestors.
    pub needs_rollback: Vec<bool>,
    /// Per-preference flag: its r-edge was kept only in transformed
    /// (indirect) form.
    pub transformed: Vec<bool>,
}

impl Schedule {
    /// Preferences the parser must compensate with rollback.
    pub fn rollback_prefs(&self) -> impl Iterator<Item = PrefId> + '_ {
        self.needs_rollback
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| PrefId(i as u32))
    }
}

/// Directed graph over nonterminal symbols; edge `u → v` means "`u`
/// must be instantiated before `v`".
struct Graph {
    n: usize,
    adj: Vec<BTreeSet<usize>>,
}

impl Graph {
    fn new(n: usize) -> Self {
        Graph {
            n,
            adj: vec![BTreeSet::new(); n],
        }
    }

    fn add(&mut self, u: usize, v: usize) {
        if u != v {
            self.adj[u].insert(v);
        }
    }

    /// Is `to` reachable from `from`?
    fn reaches(&self, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(u) = stack.pop() {
            for &v in &self.adj[u] {
                if v == to {
                    return true;
                }
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        false
    }

    /// Deterministic Kahn topological sort; `None` on a cycle.
    fn topo(&self) -> Option<Vec<usize>> {
        let mut indeg = vec![0usize; self.n];
        for u in 0..self.n {
            for &v in &self.adj[u] {
                indeg[v] += 1;
            }
        }
        let mut ready: BTreeSet<usize> = (0..self.n).filter(|&u| indeg[u] == 0).collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(&u) = ready.iter().next() {
            ready.remove(&u);
            order.push(u);
            for &v in &self.adj[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    ready.insert(v);
                }
            }
        }
        (order.len() == self.n).then_some(order)
    }
}

/// Maps nonterminal symbols to dense graph indexes.
struct NtIndex {
    ids: Vec<SymbolId>,
    of: Vec<Option<usize>>,
}

impl NtIndex {
    fn new(g: &Grammar) -> Self {
        let mut ids = Vec::new();
        let mut of = vec![None; g.symbols.len()];
        for s in g.symbols.ids() {
            if !g.symbols.is_terminal(s) {
                of[s.index()] = Some(ids.len());
                ids.push(s);
            }
        }
        NtIndex { ids, of }
    }

    fn idx(&self, s: SymbolId) -> Option<usize> {
        self.of[s.index()]
    }
}

fn d_graph(g: &Grammar, nts: &NtIndex) -> Graph {
    let mut graph = Graph::new(nts.ids.len());
    for p in &g.productions {
        let Some(head) = nts.idx(p.head) else {
            continue;
        };
        for &c in &p.components {
            if let Some(comp) = nts.idx(c) {
                // Component instantiates before head (self-loops are
                // excluded by Graph::add and handled by the fix-point).
                graph.add(comp, head);
            }
        }
    }
    graph
}

/// Validates that d-edges alone are schedulable (used by the builder).
pub(crate) fn check_d_acyclic(g: &Grammar) -> Result<(), GrammarError> {
    let nts = NtIndex::new(g);
    let graph = d_graph(g, &nts);
    match graph.topo() {
        Some(_) => Ok(()),
        None => {
            // Identify one symbol on a cycle for the error message.
            let culprit = nts
                .ids
                .iter()
                .find(|&&s| {
                    let i = nts.idx(s).expect("nonterminal");
                    graph.adj[i].iter().any(|&v| graph.reaches(v, i))
                })
                .map(|&s| g.symbols.name(s).to_string())
                .unwrap_or_else(|| "<unknown>".to_string());
            Err(GrammarError::CyclicProductions(culprit))
        }
    }
}

/// Parents of a symbol: heads of productions that use it as component.
fn parents_of(g: &Grammar, s: SymbolId) -> Vec<SymbolId> {
    let mut out: Vec<SymbolId> = g
        .productions
        .iter()
        .filter(|p| p.head != s && p.components.contains(&s))
        .map(|p| p.head)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Builds the 2P schedule for a validated grammar.
///
/// r-edges are added greedily in preference order; an edge that would
/// close a cycle is first transformed (winner → each parent of the
/// loser), and if the transformation also cycles, the edge is dropped
/// and the preference marked for rollback.
pub fn build_schedule(g: &Grammar) -> Result<Schedule, GrammarError> {
    SCHEDULE_BUILDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let nts = NtIndex::new(g);
    let mut graph = d_graph(g, &nts);
    if graph.topo().is_none() {
        return check_d_acyclic(g).map(|_| unreachable!("topo failed but d-graph acyclic"));
    }

    let mut needs_rollback = vec![false; g.preferences.len()];
    let mut transformed = vec![false; g.preferences.len()];

    for (i, pref) in g.preferences.iter().enumerate() {
        let (Some(w), Some(l)) = (nts.idx(pref.winner), nts.idx(pref.loser)) else {
            continue; // preferences on terminals need no scheduling
        };
        if w == l {
            // Same-symbol preference: enforcement at the end of the
            // symbol's own instantiation is inherently just-in-time.
            continue;
        }
        if !graph.reaches(l, w) {
            graph.add(w, l);
            continue;
        }
        // Direct edge would close a cycle — try the transformation.
        let parent_targets: Vec<usize> = parents_of(g, pref.loser)
            .into_iter()
            .filter_map(|p| nts.idx(p))
            .filter(|&p| p != w)
            .collect();
        let transformable = parent_targets.iter().all(|&d| !graph.reaches(d, w));
        if transformable {
            for &d in &parent_targets {
                graph.add(w, d);
            }
            transformed[i] = true;
        } else {
            needs_rollback[i] = true;
        }
    }

    let order = graph
        .topo()
        .expect("greedy insertion preserves acyclicity")
        .into_iter()
        .map(|i| nts.ids[i])
        .collect();
    Ok(Schedule {
        order,
        needs_rollback,
        transformed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::constructor::Constructor;
    use crate::grammar::GrammarBuilder;
    use crate::preference::{ConflictCond, WinCriteria};
    use metaform_core::TokenKind;

    fn pos(sched: &Schedule, g: &Grammar, name: &str) -> usize {
        let id = g.symbols.lookup(name).expect("symbol exists");
        sched
            .order
            .iter()
            .position(|&s| s == id)
            .expect("scheduled")
    }

    /// The paper's grammar G (Figure 6), skeletal.
    fn paper_grammar() -> Grammar {
        let mut b = GrammarBuilder::new("QI");
        let text = b.t(TokenKind::Text);
        let textbox = b.t(TokenKind::Textbox);
        let radio = b.t(TokenKind::Radiobutton);
        let (qi, hqi, cp) = (b.nt("QI"), b.nt("HQI"), b.nt("CP"));
        let (textval, textop, enumrb) = (b.nt("TextVal"), b.nt("TextOp"), b.nt("EnumRB"));
        let (attr, op, val) = (b.nt("Attr"), b.nt("Op"), b.nt("Val"));
        let (rblist, rbu) = (b.nt("RBList"), b.nt("RBU"));
        let c = Constraint::True;
        let k = Constructor::Group;
        b.production("P1a", qi, vec![hqi], c.clone(), k.clone());
        b.production("P1b", qi, vec![qi, hqi], c.clone(), k.clone());
        b.production("P2a", hqi, vec![cp], c.clone(), k.clone());
        b.production("P2b", hqi, vec![hqi, cp], c.clone(), k.clone());
        b.production("P3a", cp, vec![textval], c.clone(), k.clone());
        b.production("P3b", cp, vec![textop], c.clone(), k.clone());
        b.production("P3c", cp, vec![enumrb], c.clone(), k.clone());
        b.production("P4", textval, vec![attr, val], c.clone(), k.clone());
        b.production("P5", textop, vec![attr, val, op], c.clone(), k.clone());
        b.production("P6", op, vec![rblist], c.clone(), k.clone());
        b.production("P7", enumrb, vec![rblist], c.clone(), k.clone());
        b.production("P8a", rblist, vec![rbu], c.clone(), k.clone());
        b.production("P8b", rblist, vec![rblist, rbu], c.clone(), k.clone());
        b.production("P9", rbu, vec![radio, text], c.clone(), k.clone());
        b.production("P10", attr, vec![text], c.clone(), k.clone());
        b.production("P11", val, vec![textbox], c.clone(), k.clone());
        b.preference("R1", rbu, attr, ConflictCond::Overlap, WinCriteria::Always);
        b.preference(
            "R2",
            rblist,
            rblist,
            ConflictCond::LoserSubsumed,
            WinCriteria::WinnerLarger,
        );
        b.build().expect("paper grammar is valid")
    }

    #[test]
    fn children_precede_parents() {
        let g = paper_grammar();
        let s = build_schedule(&g).unwrap();
        assert!(pos(&s, &g, "RBU") < pos(&s, &g, "RBList"));
        assert!(pos(&s, &g, "RBList") < pos(&s, &g, "Op"));
        assert!(pos(&s, &g, "Attr") < pos(&s, &g, "TextVal"));
        assert!(pos(&s, &g, "Val") < pos(&s, &g, "TextOp"));
        assert!(pos(&s, &g, "CP") < pos(&s, &g, "HQI"));
        assert!(pos(&s, &g, "HQI") < pos(&s, &g, "QI"));
        assert_eq!(s.order.len(), g.symbols.nonterminal_count());
    }

    #[test]
    fn winner_precedes_loser() {
        let g = paper_grammar();
        let s = build_schedule(&g).unwrap();
        // R1: RBU wins over Attr, so RBU must be instantiated first —
        // exactly the paper's Example 5/6.
        assert!(pos(&s, &g, "RBU") < pos(&s, &g, "Attr"));
        assert!(!s.needs_rollback.iter().any(|&b| b));
        assert!(!s.transformed.iter().any(|&b| b));
    }

    #[test]
    fn figure13_cycle_is_transformed() {
        // B ← A, C ← A, D ← C, with mutually preferring B and C.
        let mut bld = GrammarBuilder::new("D");
        let ta = bld.t(TokenKind::Text);
        let (a, b, c, d) = (bld.nt("A"), bld.nt("B"), bld.nt("C"), bld.nt("D"));
        let t = Constraint::True;
        let k = Constructor::Group;
        bld.production("a", a, vec![ta], t.clone(), k.clone());
        bld.production("b", b, vec![a], t.clone(), k.clone());
        bld.production("c", c, vec![a], t.clone(), k.clone());
        bld.production("d", d, vec![c], t.clone(), k.clone());
        bld.preference(
            "RB>C",
            b,
            c,
            ConflictCond::Overlap,
            WinCriteria::WinnerTighter,
        );
        bld.preference(
            "RC>B",
            c,
            b,
            ConflictCond::Overlap,
            WinCriteria::WinnerTighter,
        );
        let g = bld.build().unwrap();
        let s = build_schedule(&g).unwrap();
        // First preference adds B→C directly. The second (C before B)
        // would cycle; transformation re-targets it at B's parents —
        // B has none, so it succeeds vacuously.
        assert!(s.transformed[1]);
        assert!(!s.needs_rollback[1]);
        assert!(pos(&s, &g, "B") < pos(&s, &g, "C"));
    }

    #[test]
    fn figure13_with_parent_d_schedules_winner_before_parent() {
        // Same but B also has a parent E, matching Figure 13's shape:
        // the transformed edge must force C before E (loser B's parent).
        let mut bld = GrammarBuilder::new("E");
        let ta = bld.t(TokenKind::Text);
        let (a, b, c, d, e) = (
            bld.nt("A"),
            bld.nt("B"),
            bld.nt("C"),
            bld.nt("D"),
            bld.nt("E"),
        );
        let t = Constraint::True;
        let k = Constructor::Group;
        bld.production("a", a, vec![ta], t.clone(), k.clone());
        bld.production("b", b, vec![a], t.clone(), k.clone());
        bld.production("c", c, vec![a], t.clone(), k.clone());
        bld.production("d", d, vec![c], t.clone(), k.clone());
        bld.production("e", e, vec![b], t.clone(), k.clone());
        bld.preference(
            "RB>C",
            b,
            c,
            ConflictCond::Overlap,
            WinCriteria::WinnerTighter,
        );
        bld.preference(
            "RC>B",
            c,
            b,
            ConflictCond::Overlap,
            WinCriteria::WinnerTighter,
        );
        let g = bld.build().unwrap();
        let s = build_schedule(&g).unwrap();
        assert!(s.transformed[1]);
        assert!(
            pos(&s, &g, "C") < pos(&s, &g, "E"),
            "winner before loser's parent"
        );
        assert!(pos(&s, &g, "B") < pos(&s, &g, "C"));
    }

    #[test]
    fn untransformable_edge_falls_back_to_rollback() {
        // B's parent is C itself, so re-targeting C→B at B's parents
        // yields C→C (filtered) plus nothing else reachable — but the
        // direct edge C→B cycles with B→C and the parent set is empty
        // after filtering, making it vacuous. Build a genuinely
        // untransformable case instead: B's parent P where P → … → C
        // already holds.
        let mut bld = GrammarBuilder::new("Z");
        let ta = bld.t(TokenKind::Text);
        let (a, b, c, p, z) = (
            bld.nt("A"),
            bld.nt("B"),
            bld.nt("C"),
            bld.nt("P"),
            bld.nt("Z"),
        );
        let t = Constraint::True;
        let k = Constructor::Group;
        bld.production("a", a, vec![ta], t.clone(), k.clone());
        bld.production("b", b, vec![a], t.clone(), k.clone());
        bld.production("p", p, vec![b], t.clone(), k.clone()); // P is B's parent
        bld.production("c", c, vec![p], t.clone(), k.clone()); // C above P: P→C in order
        bld.production("z", z, vec![c], t.clone(), k.clone());
        // Winner C must precede loser B; but B → P → C chains already
        // force C last. Direct edge C→B cycles; transformed edge C→P
        // also cycles (P reaches C). Must drop and mark rollback.
        bld.preference("RC>B", c, b, ConflictCond::Overlap, WinCriteria::Always);
        let g = bld.build().unwrap();
        let s = build_schedule(&g).unwrap();
        assert!(s.needs_rollback[0]);
        assert!(!s.transformed[0]);
        assert_eq!(s.rollback_prefs().count(), 1);
    }

    #[test]
    fn order_is_deterministic() {
        let g = paper_grammar();
        let a = build_schedule(&g).unwrap();
        let b = build_schedule(&g).unwrap();
        assert_eq!(a.order, b.order);
    }
}
