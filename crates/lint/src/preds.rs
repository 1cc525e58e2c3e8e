//! Predicate-to-BDD translation shared by the predicate and rate rules.
//!
//! Mirrors [`analysis::pred::PredicateMap`], with one extra mode: the
//! *carrier-folding* translator recognizes predicate sources that provably
//! carry `true` on every delivery — boolean constants, activation merges
//! fed exclusively by const-true steers — and folds them to the constant
//! TRUE. The exit-partition check needs the folding mode (a hyperblock's
//! activation token means "this wave is here", i.e. true); rate filters
//! must NOT fold it, because an eta gated on an activation still passes a
//! value once per wave — which is exactly what distinguishes a gated ring
//! entry from a raw per-wave producer.

use bdd::{Bdd, BddManager};
use cfgir::types::{BinOp, Type, UnOp};
use fxmap::{HashMap, HashSet};
use pegasus::{Graph, NodeKind, Src};

pub(crate) struct PredBdds {
    pub mgr: BddManager,
    fold_carriers: bool,
    memo: HashMap<Src, Bdd>,
    vars: HashMap<Src, bdd::Var>,
    next_var: bdd::Var,
}

impl PredBdds {
    pub fn new(fold_carriers: bool) -> Self {
        PredBdds {
            mgr: BddManager::new(),
            fold_carriers,
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
        } else if self.fold_carriers && carries_true(g, src, &mut HashSet::default()) {
            Bdd::TRUE
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
}

/// Does every value ever delivered at `src` carry boolean true? True for
/// const-true, for an eta steering such a value, and for a merge all of
/// whose inputs do (the shape of an activation ring).
fn carries_true(g: &Graph, src: Src, visiting: &mut HashSet<pegasus::NodeId>) -> bool {
    if src.port != 0 || !visiting.insert(src.node) {
        return false;
    }
    let r = match g.kind(src.node) {
        NodeKind::Const { value, ty } => *ty == Type::Bool && *value != 0,
        NodeKind::Eta { .. } => {
            g.input(src.node, 0).is_some_and(|i| carries_true(g, i.src, visiting))
        }
        NodeKind::Merge { .. } => (0..g.num_inputs(src.node))
            .all(|p| g.input(src.node, p as u16).is_some_and(|i| carries_true(g, i.src, visiting))),
        _ => false,
    };
    visiting.remove(&src.node);
    r
}
