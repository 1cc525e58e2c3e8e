//! Symbolic (affine) address expressions.
//!
//! The §4.3 heuristics and the §6 loop transformations all reason about
//! addresses as linear combinations of opaque graph values plus a constant:
//! `a[i]` is `&a + 4·i`, `a[i+3]` is `&a + 4·i + 12`. Two such expressions
//! over the same opaque terms that differ by a nonzero constant can never
//! overlap (for aligned, equal-size accesses) — the "symbolic computation"
//! heuristic of the paper.

use cfgir::objects::ObjId;
use fxmap::HashMap;
use pegasus::{Graph, NodeKind, Src};
use std::collections::BTreeMap;

/// A symbolic term of an affine form: either an opaque graph value, or the
/// base address of a named memory object (canonical across duplicate
/// `Addr` nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Term {
    /// An opaque graph value.
    Src(Src),
    /// The base address of a memory object.
    Base(ObjId),
}

/// A linear form `Σ coeffᵢ·termᵢ + k` over symbolic terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Affine {
    /// Terms with nonzero coefficients.
    pub terms: BTreeMap<Term, i64>,
    /// Constant part.
    pub k: i64,
}

impl Affine {
    /// The constant `k`.
    pub fn constant(k: i64) -> Affine {
        Affine { terms: BTreeMap::new(), k }
    }

    /// A single opaque term.
    pub fn term(s: Src) -> Affine {
        let mut terms = BTreeMap::new();
        terms.insert(Term::Src(s), 1);
        Affine { terms, k: 0 }
    }

    /// The base address of `obj`.
    pub fn base(obj: ObjId) -> Affine {
        let mut terms = BTreeMap::new();
        terms.insert(Term::Base(obj), 1);
        Affine { terms, k: 0 }
    }

    /// Is this a constant?
    pub fn is_const(&self) -> bool {
        self.terms.is_empty()
    }

    /// `self + other`
    pub fn add(&self, other: &Affine) -> Affine {
        let mut terms = self.terms.clone();
        for (s, c) in &other.terms {
            let e = terms.entry(*s).or_insert(0);
            *e += c;
            if *e == 0 {
                terms.remove(s);
            }
        }
        Affine { terms, k: self.k.wrapping_add(other.k) }
    }

    /// `self - other`
    pub fn sub(&self, other: &Affine) -> Affine {
        self.add(&other.scale(-1))
    }

    /// `self * c`
    pub fn scale(&self, c: i64) -> Affine {
        if c == 0 {
            return Affine::constant(0);
        }
        Affine {
            terms: self.terms.iter().map(|(s, x)| (*s, x * c)).collect(),
            k: self.k.wrapping_mul(c),
        }
    }

    /// The coefficient of opaque term `s` (0 if absent).
    pub fn coeff(&self, s: Src) -> i64 {
        self.terms.get(&Term::Src(s)).copied().unwrap_or(0)
    }

    /// Drops opaque term `s`, returning its coefficient.
    pub fn without(&self, s: Src) -> (Affine, i64) {
        let mut a = self.clone();
        let c = a.terms.remove(&Term::Src(s)).unwrap_or(0);
        (a, c)
    }

    /// The memory object this address is anchored in, when the expression
    /// contains exactly one object base with coefficient 1. Two addresses
    /// anchored in *different* objects can never overlap (objects are
    /// disjoint storage; out-of-bounds arithmetic is undefined in the
    /// source language, as the paper also assumes).
    pub fn anchor(&self) -> Option<ObjId> {
        let mut found = None;
        for (t, c) in &self.terms {
            if let Term::Base(o) = t {
                if *c != 1 || found.is_some() {
                    return None;
                }
                found = Some(*o);
            }
        }
        found
    }
}

/// Computes the affine form of the value produced at `src`, treating
/// anything non-linear as an opaque term. Widening casts are looked
/// through (addresses are computed in 64-bit in this compiler, with small
/// 32-bit indices widened by the frontend).
pub fn affine_of(g: &Graph, src: Src) -> Affine {
    affine_of_memo(g, src, &mut HashMap::default())
}

/// [`affine_of`] with a memo shared across calls, for scans that need the
/// forms of many addresses over common subexpressions. The memo is valid
/// while the data edges feeding the memoized values are unchanged. A
/// subexpression first reached past the depth cutoff stays opaque for
/// later calls too; an opaque term only makes the form less precise, never
/// wrong.
pub(crate) fn affine_of_memo(g: &Graph, src: Src, memo: &mut HashMap<Src, Affine>) -> Affine {
    affine_rec(g, src, memo, 0)
}

fn affine_rec(g: &Graph, src: Src, memo: &mut HashMap<Src, Affine>, depth: u32) -> Affine {
    if depth > 64 {
        return Affine::term(src);
    }
    if let Some(a) = memo.get(&src) {
        return a.clone();
    }
    let a = if src.port != 0 {
        Affine::term(src)
    } else {
        match g.kind(src.node) {
            NodeKind::Const { value, ty } => Affine::constant(ty.normalize(*value)),
            NodeKind::Addr { obj } => Affine::base(*obj),
            NodeKind::BinOp { op, .. } => {
                let ia = g.input(src.node, 0);
                let ib = g.input(src.node, 1);
                match (ia, ib) {
                    (Some(x), Some(y)) => {
                        let fa = affine_rec(g, x.src, memo, depth + 1);
                        let fb = affine_rec(g, y.src, memo, depth + 1);
                        match op {
                            cfgir::types::BinOp::Add => fa.add(&fb),
                            cfgir::types::BinOp::Sub => fa.sub(&fb),
                            cfgir::types::BinOp::Mul if fa.is_const() => fb.scale(fa.k),
                            cfgir::types::BinOp::Mul if fb.is_const() => fa.scale(fb.k),
                            cfgir::types::BinOp::Shl
                                if fb.is_const() && (0..32).contains(&fb.k) =>
                            {
                                fa.scale(1 << fb.k)
                            }
                            _ => Affine::term(src),
                        }
                    }
                    _ => Affine::term(src),
                }
            }
            NodeKind::Cast { ty } if ty.size_bytes() >= 4 => {
                // Widening (or same-width) cast: transparent for the small
                // index values address arithmetic produces.
                match g.input(src.node, 0) {
                    Some(x) => affine_rec(g, x.src, memo, depth + 1),
                    None => Affine::term(src),
                }
            }
            _ => Affine::term(src),
        }
    };
    memo.insert(src, a.clone());
    a
}

/// Can two aligned accesses of the given byte sizes at these addresses ever
/// overlap? Returns `false` only when provably disjoint: identical term
/// parts and a constant difference that separates the ranges.
pub fn may_overlap(a: &Affine, size_a: u64, b: &Affine, size_b: u64) -> bool {
    if let (Some(x), Some(y)) = (a.anchor(), b.anchor()) {
        if x != y {
            return false; // anchored in different objects
        }
    }
    let d = a.sub(b);
    if !d.is_const() {
        return true; // differ by a non-constant: unknown
    }
    // Ranges [0, size_a) and [d, d+size_b) around the common base.
    let delta = d.k;
    // Overlap iff -size_b < delta < size_a.
    delta > -(size_b as i64) && delta < size_a as i64
}

/// Are the two addresses provably always equal?
pub fn always_equal(a: &Affine, b: &Affine) -> bool {
    let d = a.sub(b);
    d.is_const() && d.k == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfgir::objects::ObjId;
    use cfgir::types::{BinOp, Type};
    use pegasus::Graph;

    /// Builds `&obj + idx*4 + off` and returns the address source.
    fn indexed_addr(g: &mut Graph, base: pegasus::NodeId, idx: Src, off: i64) -> Src {
        let four = g.add_node(NodeKind::Const { value: 4, ty: Type::int(64) }, 0, 0);
        let mul = g.add_node(NodeKind::BinOp { op: BinOp::Mul, ty: Type::int(64) }, 2, 0);
        g.connect(idx, mul, 0);
        g.connect(Src::of(four), mul, 1);
        let add = g.add_node(NodeKind::BinOp { op: BinOp::Add, ty: Type::int(64) }, 2, 0);
        g.connect(Src::of(base), add, 0);
        g.connect(Src::of(mul), add, 1);
        if off == 0 {
            return Src::of(add);
        }
        let k = g.add_node(NodeKind::Const { value: off, ty: Type::int(64) }, 0, 0);
        let add2 = g.add_node(NodeKind::BinOp { op: BinOp::Add, ty: Type::int(64) }, 2, 0);
        g.connect(Src::of(add), add2, 0);
        g.connect(Src::of(k), add2, 1);
        Src::of(add2)
    }

    #[test]
    fn a_i_and_a_i_plus_1_are_disjoint() {
        // The Section 2 disambiguation: a[i] vs a[i+1] for 4-byte elements.
        let mut g = Graph::new();
        let base = g.add_node(NodeKind::Addr { obj: ObjId(1) }, 0, 0);
        let idx = g.add_node(NodeKind::Param { index: 0, ty: Type::int(64) }, 0, 0);
        let a0 = indexed_addr(&mut g, base, Src::of(idx), 0);
        let a1 = indexed_addr(&mut g, base, Src::of(idx), 4);
        let f0 = affine_of(&g, a0);
        let f1 = affine_of(&g, a1);
        assert!(!may_overlap(&f0, 4, &f1, 4));
        assert!(may_overlap(&f0, 4, &f0, 4));
        assert!(always_equal(&f0, &f0));
        assert!(!always_equal(&f0, &f1));
    }

    #[test]
    fn sub_byte_offsets_still_overlap() {
        // a[i] (4 bytes) vs a[i]+2 (4 bytes): ranges intersect.
        let mut g = Graph::new();
        let base = g.add_node(NodeKind::Addr { obj: ObjId(1) }, 0, 0);
        let idx = g.add_node(NodeKind::Param { index: 0, ty: Type::int(64) }, 0, 0);
        let a0 = indexed_addr(&mut g, base, Src::of(idx), 0);
        let a2 = indexed_addr(&mut g, base, Src::of(idx), 2);
        assert!(may_overlap(&affine_of(&g, a0), 4, &affine_of(&g, a2), 4));
        // But 1-byte accesses at +0 and +2 are disjoint.
        assert!(!may_overlap(&affine_of(&g, a0), 1, &affine_of(&g, a2), 1));
    }

    #[test]
    fn different_bases_are_unknown() {
        let mut g = Graph::new();
        let p = g.add_node(NodeKind::Param { index: 0, ty: Type::int(64) }, 0, 0);
        let q = g.add_node(NodeKind::Param { index: 1, ty: Type::int(64) }, 0, 0);
        let fp = affine_of(&g, Src::of(p));
        let fq = affine_of(&g, Src::of(q));
        assert!(may_overlap(&fp, 4, &fq, 4));
    }

    #[test]
    fn shl_is_a_scale() {
        let mut g = Graph::new();
        let idx = g.add_node(NodeKind::Param { index: 0, ty: Type::int(64) }, 0, 0);
        let three = g.add_node(NodeKind::Const { value: 3, ty: Type::int(64) }, 0, 0);
        let shl = g.add_node(NodeKind::BinOp { op: BinOp::Shl, ty: Type::int(64) }, 2, 0);
        g.connect(Src::of(idx), shl, 0);
        g.connect(Src::of(three), shl, 1);
        let f = affine_of(&g, Src::of(shl));
        assert_eq!(f.coeff(Src::of(idx)), 8);
    }

    #[test]
    fn affine_algebra() {
        let s = Src { node: pegasus::NodeId(0), port: 0 };
        let a = Affine::term(s).scale(4);
        let b = a.add(&Affine::constant(12));
        let d = b.sub(&a);
        assert!(d.is_const());
        assert_eq!(d.k, 12);
        let z = a.sub(&a);
        assert!(z.is_const());
        assert_eq!(z.k, 0);
        let (no_s, c) = b.without(s);
        assert_eq!(c, 4);
        assert!(no_s.is_const());
    }

    #[test]
    fn cast_is_transparent_when_widening() {
        let mut g = Graph::new();
        let idx = g.add_node(NodeKind::Param { index: 0, ty: Type::int(32) }, 0, 0);
        let cast = g.add_node(NodeKind::Cast { ty: Type::int(64) }, 1, 0);
        g.connect(Src::of(idx), cast, 0);
        let f = affine_of(&g, Src::of(cast));
        assert_eq!(f.coeff(Src::of(idx)), 1);
        // Narrowing casts are opaque.
        let mut g2 = Graph::new();
        let idx2 = g2.add_node(NodeKind::Param { index: 0, ty: Type::int(64) }, 0, 0);
        let cast2 = g2.add_node(NodeKind::Cast { ty: Type::int(8) }, 1, 0);
        g2.connect(Src::of(idx2), cast2, 0);
        let f2 = affine_of(&g2, Src::of(cast2));
        assert_eq!(f2.coeff(Src::of(idx2)), 0);
        assert_eq!(f2.coeff(Src::of(cast2)), 1);
    }
}
