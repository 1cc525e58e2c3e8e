//! The §4.3 disambiguation query: can two memory operations ever touch the
//! same address in the same wave of execution?
//!
//! The paper's three heuristics:
//!
//! 1. symbolic address computation (`a[i]` vs `a[i+1]`);
//! 2. induction-variable analysis (same step, provably different values);
//! 3. pointer analysis / read-write set disjointness (`a[...]` vs `b[...]`,
//!    `#pragma independent`), tried first as the cheapest.
//!
//! One function serves the optimizer's token-edge removal and the static
//! lint's race check, so the lint re-proves exactly what the optimizer
//! relied on. Address forms come from an [`AddrForms`] table built once per
//! scan over the memory operations rather than once per pair.

use crate::affine::{affine_of_memo, may_overlap, Affine};
use crate::loopinfo::IvSubst;
use cfgir::AliasOracle;
use fxmap::HashMap;
use pegasus::{Graph, NodeId, NodeKind};

/// Which disambiguation heuristics to use.
#[derive(Debug, Clone, Copy)]
pub struct Disambiguation {
    /// Symbolic address computation (§4.3 heuristic 1).
    pub symbolic: bool,
    /// Induction-variable entry-value substitution (§4.3 heuristic 2).
    pub induction: bool,
    /// Read/write-set (pointer analysis + pragma) disjointness (heuristic 3).
    pub rw_sets: bool,
}

impl Disambiguation {
    /// All heuristics on.
    pub fn full() -> Self {
        Disambiguation { symbolic: true, induction: true, rw_sets: true }
    }

    /// Everything off (no token edges removed).
    pub fn none() -> Self {
        Disambiguation { symbolic: false, induction: false, rw_sets: false }
    }
}

/// One memory operation's address, as the heuristics read it.
struct OpForm {
    /// Access size in bytes.
    size: u64,
    /// The affine form of the address.
    affine: Affine,
    /// The form with the loop's induction variables replaced by
    /// `entry + step·ITER`, and the ITER coefficient; only for operations in
    /// a loop hyperblock whose IVs the substitution understands.
    iv: Option<(Affine, i64)>,
}

/// The address forms of a set of memory operations, computed once with one
/// memo shared by all their addresses.
///
/// A table stays valid while the data edges feeding the operations'
/// addresses are unchanged. Token rewiring (edge removal, reduction,
/// re-anchoring, combines) never touches an address data edge, so one
/// table serves a whole token-edge-removal or race scan; a pass that
/// rewires data (merging operations) builds a new table after each rewrite.
pub struct AddrForms {
    forms: HashMap<NodeId, OpForm>,
}

impl AddrForms {
    /// The forms of `ops` (memory operations of `g`) that the enabled
    /// heuristics of `dis` read: none without `symbolic`, the IV-substituted
    /// forms only with `induction`.
    pub fn new(g: &Graph, ops: &[NodeId], dis: &Disambiguation) -> Self {
        let mut forms = HashMap::default();
        if !dis.symbolic {
            return AddrForms { forms };
        }
        let mut memo = HashMap::default();
        let mut iv_ctx: HashMap<u32, IvSubst> = HashMap::default();
        for &op in ops {
            let addr = g.input(op, 0).expect("memory op has an address").src;
            let affine = affine_of_memo(g, addr, &mut memo);
            let hb = g.hb(op);
            let iv = if dis.induction && g.hb_is_loop.get(hb as usize).copied().unwrap_or(false) {
                iv_ctx.entry(hb).or_insert_with(|| IvSubst::new(g, hb)).substitute(&affine)
            } else {
                None
            };
            let size = match g.kind(op) {
                NodeKind::Load { ty, .. } | NodeKind::Store { ty, .. } => ty.size_bytes(),
                other => panic!("address form of non-memory node {other:?}"),
            };
            forms.insert(op, OpForm { size, affine, iv });
        }
        AddrForms { forms }
    }

    /// The affine address form of `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` was not in the table's operation set, or the table was
    /// built without the symbolic heuristic.
    pub fn affine(&self, op: NodeId) -> &Affine {
        &self.form(op).affine
    }

    fn form(&self, op: NodeId) -> &OpForm {
        self.forms.get(&op).expect("memory op is in the scan's address table")
    }
}

/// Are the memory operations `a` and `b` provably never at overlapping
/// addresses *in the same wave of execution*, under the heuristics `dis`
/// enables? Cross-wave ordering is the token ring's (or, when decoupled,
/// the token generator's) responsibility. `forms` must hold both
/// operations, built with the same `dis`.
pub fn provably_disjoint(
    g: &Graph,
    oracle: &AliasOracle<'_>,
    dis: &Disambiguation,
    forms: &AddrForms,
    a: NodeId,
    b: NodeId,
) -> bool {
    if dis.rw_sets {
        let ma = g.kind(a).may_set().expect("memory op");
        let mb = g.kind(b).may_set().expect("memory op");
        if !oracle.sets_overlap(ma, mb) {
            return true;
        }
    }
    if dis.symbolic {
        let (fa, fb) = (forms.form(a), forms.form(b));
        if !may_overlap(&fa.affine, fa.size, &fb.affine, fb.size) {
            return true;
        }
        if dis.induction && g.hb(a) == g.hb(b) {
            if let (Some((sa, ia)), Some((sb, ib))) = (&fa.iv, &fb.iv) {
                if ia == ib && !may_overlap(sa, fa.size, sb, fb.size) {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds `src`'s `main` (inlined, points-to sets recomputed) and asks
    /// whether its only two memory operations are provably disjoint.
    fn disjoint(src: &str, dis: Disambiguation) -> bool {
        let mut module = minic::compile_to_module(src).expect("test source compiles");
        let mut flat = cfgir::inline::inline_all(&module, "main").expect("inlines");
        cfgir::pointsto::recompute_may_sets(&mut flat);
        let idx = module.functions.iter().position(|f| f.name == "main").expect("main exists");
        module.functions[idx] = flat;
        let oracle = AliasOracle::new(&module);
        let f = module.function("main").expect("main exists");
        let g = pegasus::build(f, &oracle, &pegasus::BuildOptions::default()).expect("builds");
        let ops: Vec<NodeId> = g.live_ids().filter(|&id| g.kind(id).is_memory()).collect();
        assert_eq!(ops.len(), 2, "expected one pair of memory operations");
        let forms = AddrForms::new(&g, &ops, &dis);
        provably_disjoint(&g, &oracle, &dis, &forms, ops[0], ops[1])
    }

    #[test]
    fn symbolic_offsets_are_disjoint() {
        let src = "void main(unsigned a[], int i) { a[i] = a[i + 1]; }";
        assert!(disjoint(src, Disambiguation::full()));
        assert!(disjoint(src, Disambiguation { rw_sets: false, induction: false, symbolic: true }));
        assert!(!disjoint(src, Disambiguation { symbolic: false, ..Disambiguation::full() }));
    }

    #[test]
    fn induction_variables_with_distinct_entries_are_disjoint() {
        // `a[i]` and `a[j]` are different opaque terms symbolically; as
        // `0 + ITER` and `1 + ITER` they are one element apart.
        let src = "int a[64];
             void main(int n) {
                 int j = 1;
                 for (int i = 0; i < n; i++) { a[i] = a[j]; j++; }
             }";
        assert!(disjoint(src, Disambiguation::full()));
        assert!(!disjoint(src, Disambiguation { induction: false, ..Disambiguation::full() }));
    }

    #[test]
    fn independent_objects_are_disjoint() {
        let src = "void main(int a[], int b[], int i) {
                 #pragma independent a b
                 a[i] = b[i];
             }";
        assert!(disjoint(src, Disambiguation::full()));
        assert!(disjoint(src, Disambiguation { rw_sets: true, ..Disambiguation::none() }));
        assert!(!disjoint(src, Disambiguation { rw_sets: false, ..Disambiguation::full() }));
    }

    #[test]
    fn may_aliasing_accesses_are_not_disjoint() {
        let src = "void main(unsigned a[], int i, int j) { a[i] = a[j]; }";
        assert!(!disjoint(src, Disambiguation::full()));
    }
}
