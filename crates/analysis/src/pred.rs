//! Mapping of Pegasus predicate values onto BDDs.
//!
//! The §5 rewrites reason about controlling predicates with "elementary
//! boolean manipulation": does one store's predicate imply another's, do two
//! predicates cover everything, is a rewritten predicate constant false?
//! This module interprets the predicate-producing subgraph (boolean
//! constants, and/or/xor/not over predicates) as a BDD, with every other
//! predicate source (comparisons, merges, muxes, parameters) as an opaque
//! decision variable.

use bdd::{Bdd, BddManager};
use cfgir::types::{BinOp, Type, UnOp};
use fxmap::HashMap;
use pegasus::{Graph, NodeKind, Src};

/// A memoized predicate-to-BDD translator for one graph.
#[derive(Debug, Default)]
pub struct PredicateMap {
    /// The BDD manager owning all predicate functions.
    pub mgr: BddManager,
    memo: HashMap<Src, Bdd>,
    vars: HashMap<Src, bdd::Var>,
    next_var: bdd::Var,
}

impl PredicateMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        PredicateMap {
            mgr: BddManager::new(),
            memo: HashMap::default(),
            vars: HashMap::default(),
            next_var: 0,
        }
    }

    fn leaf(&mut self, src: Src) -> Bdd {
        let v = *self.vars.entry(src).or_insert_with(|| {
            let v = self.next_var;
            self.next_var += 1;
            v
        });
        self.mgr.var(v)
    }

    /// The BDD of the predicate produced at `src`.
    pub fn of(&mut self, g: &Graph, src: Src) -> Bdd {
        if let Some(&b) = self.memo.get(&src) {
            return b;
        }
        let b = if src.port != 0 {
            self.leaf(src)
        } else {
            match g.kind(src.node) {
                NodeKind::Const { value, ty } if *ty == Type::Bool => {
                    self.mgr.constant(*value != 0)
                }
                NodeKind::BinOp { op, ty } if *ty == Type::Bool => {
                    let (ia, ib) = (g.input(src.node, 0), g.input(src.node, 1));
                    match (op, ia, ib) {
                        (BinOp::And | BinOp::LAnd, Some(x), Some(y)) => {
                            let a = self.of(g, x.src);
                            let b2 = self.of(g, y.src);
                            self.mgr.and(a, b2)
                        }
                        (BinOp::Or | BinOp::LOr, Some(x), Some(y)) => {
                            let a = self.of(g, x.src);
                            let b2 = self.of(g, y.src);
                            self.mgr.or(a, b2)
                        }
                        (BinOp::Xor, Some(x), Some(y)) => {
                            let a = self.of(g, x.src);
                            let b2 = self.of(g, y.src);
                            self.mgr.xor(a, b2)
                        }
                        _ => self.leaf(src), // comparisons etc. are opaque
                    }
                }
                NodeKind::UnOp { op: UnOp::Not, ty } if *ty == Type::Bool => {
                    match g.input(src.node, 0) {
                        Some(x) => {
                            let a = self.of(g, x.src);
                            self.mgr.not(a)
                        }
                        None => self.leaf(src),
                    }
                }
                _ => self.leaf(src),
            }
        };
        self.memo.insert(src, b);
        b
    }

    /// Does predicate `a` imply predicate `b`?
    pub fn implies(&mut self, g: &Graph, a: Src, b: Src) -> bool {
        let fa = self.of(g, a);
        let fb = self.of(g, b);
        self.mgr.implies(fa, fb)
    }

    /// Are predicates `a` and `b` never simultaneously true?
    pub fn disjoint(&mut self, g: &Graph, a: Src, b: Src) -> bool {
        let fa = self.of(g, a);
        let fb = self.of(g, b);
        self.mgr.disjoint(fa, fb)
    }

    /// Is `a & !(b₁ | … | bₙ)` constant false (i.e. the `b`s cover `a`)?
    pub fn covered_by(&mut self, g: &Graph, a: Src, bs: &[Src]) -> bool {
        let fa = self.of(g, a);
        let fbs: Vec<Bdd> = bs.iter().map(|&b| self.of(g, b)).collect();
        let cover = self.mgr.or_all(fbs);
        self.mgr.and_not(fa, cover).is_false()
    }

    /// Is the predicate at `src` constant false?
    pub fn is_false(&mut self, g: &Graph, src: Src) -> bool {
        self.of(g, src).is_false()
    }

    /// Is the predicate at `src` constant true?
    pub fn is_true(&mut self, g: &Graph, src: Src) -> bool {
        self.of(g, src).is_true()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus::Graph;

    /// Builds pred structure: c (opaque leaf), !c, true.
    #[test]
    fn structural_predicates() {
        let mut g = Graph::new();
        // An opaque comparison leaf.
        let x = g.add_node(NodeKind::Param { index: 0, ty: Type::int(32) }, 0, 0);
        let z = g.add_node(NodeKind::Const { value: 0, ty: Type::int(32) }, 0, 0);
        let c = g.add_node(NodeKind::BinOp { op: BinOp::Ne, ty: Type::Bool }, 2, 0);
        g.connect(Src::of(x), c, 0);
        g.connect(Src::of(z), c, 1);
        let notc = g.pred_not(Src::of(c), 0);
        let t = g.const_bool(true, 0);

        let mut pm = PredicateMap::new();
        // c and !c are disjoint and together cover true.
        assert!(pm.disjoint(&g, Src::of(c), Src::of(notc)));
        assert!(pm.covered_by(&g, Src::of(t), &[Src::of(c), Src::of(notc)]));
        // c implies true; true does not imply c.
        assert!(pm.implies(&g, Src::of(c), Src::of(t)));
        assert!(!pm.implies(&g, Src::of(t), Src::of(c)));
        assert!(pm.is_true(&g, Src::of(t)));
        assert!(!pm.is_false(&g, Src::of(c)));
    }

    #[test]
    fn section2_postdominance() {
        // Stores under p and !p, followed by an unconditional store: both
        // earlier predicates imply the later (constant-true) one.
        let mut g = Graph::new();
        let p = g.add_node(NodeKind::Param { index: 0, ty: Type::Bool }, 0, 0);
        let np = g.pred_not(Src::of(p), 0);
        let t = g.const_bool(true, 0);
        let mut pm = PredicateMap::new();
        assert!(pm.implies(&g, Src::of(p), Src::of(t)));
        assert!(pm.implies(&g, Src::of(np), Src::of(t)));
        // And the two stores collectively dominate a following load.
        assert!(pm.covered_by(&g, Src::of(t), &[Src::of(p), Src::of(np)]));
    }

    #[test]
    fn and_or_structure_translates() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Param { index: 0, ty: Type::Bool }, 0, 0);
        let b = g.add_node(NodeKind::Param { index: 1, ty: Type::Bool }, 0, 0);
        let ab = g.pred_and(Src::of(a), Src::of(b), 0);
        let aob = g.pred_or(Src::of(a), Src::of(b), 0);
        let mut pm = PredicateMap::new();
        assert!(pm.implies(&g, Src::of(ab), Src::of(a)));
        assert!(pm.implies(&g, Src::of(a), Src::of(aob)));
        assert!(!pm.implies(&g, Src::of(aob), Src::of(ab)));
    }

    #[test]
    fn false_constant_detected() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Param { index: 0, ty: Type::Bool }, 0, 0);
        let na = g.pred_not(Src::of(a), 0);
        let contradiction = g.pred_and(Src::of(a), Src::of(na), 0);
        let mut pm = PredicateMap::new();
        assert!(pm.is_false(&g, Src::of(contradiction)));
    }

    #[test]
    fn distinct_leaves_stay_independent() {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Param { index: 0, ty: Type::Bool }, 0, 0);
        let b = g.add_node(NodeKind::Param { index: 1, ty: Type::Bool }, 0, 0);
        let mut pm = PredicateMap::new();
        assert!(!pm.implies(&g, Src::of(a), Src::of(b)));
        assert!(!pm.disjoint(&g, Src::of(a), Src::of(b)));
        // Same source maps to the same variable.
        assert!(pm.implies(&g, Src::of(a), Src::of(a)));
    }
}
