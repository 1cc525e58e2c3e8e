//! Merging of equivalent memory operations (§5.1, Figure 7).
//!
//! Generalizes global CSE, partial-redundancy elimination and code hoisting
//! for memory accesses: two operations on the same address with the same
//! token dependences become one operation executed under the disjunction of
//! their predicates. For stores, the stored value is selected by a decoded
//! mux. The rewrite must not create a cycle (e.g. when one load's predicate
//! is a function of the other load's value), which is checked with a
//! reachability query on the DAG.

use crate::store_store::reaches_forward;
use crate::util::{mem_ops, pred_of, pred_port, size_of, token_out};
use analysis::affine::always_equal;
use analysis::{AddrForms, Disambiguation, PredicateMap};
use pegasus::{direct_token_deps, Graph, NodeId, NodeKind, Src};

/// The address table reads only the affine forms.
const ADDRESSES: Disambiguation =
    Disambiguation { symbolic: true, induction: false, rw_sets: false };

/// Result counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Load pairs merged.
    pub loads: usize,
    /// Store pairs merged.
    pub stores: usize,
}

fn sorted_deps(g: &Graph, op: NodeId) -> Vec<Src> {
    let mut d = direct_token_deps(g, op);
    d.sort_unstable();
    d.dedup();
    d
}

/// Merges equivalent loads and stores until fixpoint.
pub fn merge_equivalent(g: &mut Graph, pm: &mut PredicateMap) -> MergeStats {
    let mut stats = MergeStats::default();
    loop {
        let ops = mem_ops(g);
        // Each merge rewires data edges, so the table is rebuilt after it.
        let forms = AddrForms::new(g, &ops, &ADDRESSES);
        let mut merged = false;
        'pairs: for (i, &a) in ops.iter().enumerate() {
            for &b in &ops[i + 1..] {
                if matches!(g.kind(a), NodeKind::Removed) || matches!(g.kind(b), NodeKind::Removed)
                {
                    continue;
                }
                let both_loads = matches!(g.kind(a), NodeKind::Load { .. })
                    && matches!(g.kind(b), NodeKind::Load { .. });
                let both_stores = matches!(g.kind(a), NodeKind::Store { .. })
                    && matches!(g.kind(b), NodeKind::Store { .. });
                if !both_loads && !both_stores {
                    continue;
                }
                if g.hb(a) != g.hb(b) || size_of(g, a) != size_of(g, b) {
                    continue;
                }
                if !always_equal(forms.affine(a), forms.affine(b)) {
                    continue;
                }
                if sorted_deps(g, a) != sorted_deps(g, b) {
                    continue;
                }
                let pa = pred_of(g, a);
                let pb = pred_of(g, b);
                // No cycles: the combined predicate (and mux) reads both
                // predicates, so neither may depend on the other operation.
                if reaches_forward(g, a, pb.node) || reaches_forward(g, b, pa.node) {
                    continue;
                }
                if both_stores {
                    // Two stores racing on the same address with both
                    // predicates true would be ambiguous; require disjoint.
                    let ba = pm.of(g, pa);
                    let bb = pm.of(g, pb);
                    if !pm.mgr.disjoint(ba, bb) {
                        continue;
                    }
                    let va = g.input(a, 1).expect("store value").src;
                    let vb = g.input(b, 1).expect("store value").src;
                    if reaches_forward(g, a, vb.node) || reaches_forward(g, b, va.node) {
                        continue;
                    }
                    let hb = g.hb(a);
                    let or = g.pred_or(pa, pb, hb);
                    let ty = match g.kind(a) {
                        NodeKind::Store { ty, .. } => ty.clone(),
                        _ => unreachable!(),
                    };
                    let mux = g.add_node(NodeKind::Mux { ty }, 4, hb);
                    g.connect(pa, mux, 0);
                    g.connect(va, mux, 1);
                    g.connect(pb, mux, 2);
                    g.connect(vb, mux, 3);
                    // Rewire a to the merged form.
                    let pp = pred_port(g, a);
                    g.disconnect(a, pp);
                    g.connect(Src::of(or), a, pp);
                    g.disconnect(a, 1);
                    g.connect(Src::of(mux), a, 1);
                    // b's token consumers follow a.
                    g.replace_all_uses(token_out(g, b), token_out(g, a));
                    g.remove_node(b);
                    stats.stores += 1;
                } else {
                    let hb = g.hb(a);
                    let or = g.pred_or(pa, pb, hb);
                    let pp = pred_port(g, a);
                    g.disconnect(a, pp);
                    g.connect(Src::of(or), a, pp);
                    g.replace_all_uses(Src::of(b), Src::of(a));
                    g.replace_all_uses(token_out(g, b), token_out(g, a));
                    g.remove_node(b);
                    stats.loads += 1;
                }
                pegasus::prune_dead(g);
                pegasus::transitive_reduce_tokens(g);
                merged = true;
                break 'pairs;
            }
        }
        if !merged {
            return stats;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_equivalent, compile, run};

    #[test]
    fn loads_in_both_branches_hoist_into_one() {
        // Classic PRE/hoisting: a[i] is loaded on both paths.
        let (module, g0) = compile(
            "int a[4];
             int main(int p, int i) {
                 int x;
                 if (p) x = a[i] + 1; else x = a[i] + 2;
                 return x;
             }",
        );
        let mut g = g0.clone();
        let mut pm = PredicateMap::new();
        let stats = merge_equivalent(&mut g, &mut pm);
        assert_eq!(stats.loads, 1);
        assert_eq!(g.count_memory_ops(), (1, 0));
        pegasus::verify(&g).unwrap();
        assert_equivalent(&module, &g0, &g, &[vec![0, 1], vec![1, 1]]);
    }

    #[test]
    fn same_predicate_loads_are_cse() {
        let (module, g0) = compile(
            "int a[4];
             int main(int i) { return a[i] + a[i]; }",
        );
        let mut g = g0.clone();
        let mut pm = PredicateMap::new();
        let stats = merge_equivalent(&mut g, &mut pm);
        assert_eq!(stats.loads, 1);
        assert_eq!(g.count_memory_ops(), (1, 0));
        assert_equivalent(&module, &g0, &g, &[vec![2]]);
    }

    #[test]
    fn branch_stores_merge_with_value_mux() {
        let (module, g0) = compile(
            "int a[4];
             void main(int p, int i) {
                 if (p) a[i] = 10; else a[i] = 20;
             }",
        );
        let mut g = g0.clone();
        let mut pm = PredicateMap::new();
        let stats = merge_equivalent(&mut g, &mut pm);
        assert_eq!(stats.stores, 1);
        assert_eq!(g.count_memory_ops(), (0, 1));
        pegasus::verify(&g).unwrap();
        assert_equivalent(&module, &g0, &g, &[vec![1, 0], vec![0, 0]]);
        let (_, m, r) = run(&module, &g, &[1, 0]);
        assert_eq!(m.read_elem(&module, cfgir::objects::ObjId(1), 0), 10);
        assert_eq!(r.stats.stores, 1);
    }

    #[test]
    fn overlapping_predicate_stores_not_merged() {
        // Sequential stores (second overwrites): predicates not disjoint,
        // and deps differ anyway — nothing merged.
        let (_, g0) = compile(
            "int a[4];
             void main(int i) { a[i] = 1; a[i] = 2; }",
        );
        let mut g = g0;
        let mut pm = PredicateMap::new();
        let stats = merge_equivalent(&mut g, &mut pm);
        assert_eq!(stats, MergeStats::default());
    }

    #[test]
    fn different_addresses_not_merged() {
        let (_, g0) = compile(
            "int a[8];
             int main(int i) { return a[i] + a[i+1]; }",
        );
        let mut g = g0;
        let mut pm = PredicateMap::new();
        assert_eq!(merge_equivalent(&mut g, &mut pm), MergeStats::default());
        assert_eq!(g.count_memory_ops(), (2, 0));
    }

    #[test]
    fn loads_with_intervening_store_not_merged() {
        // deps differ: second load depends on the store.
        let (module, g0) = compile(
            "int a[4];
             int main(int i) {
                 int x = a[i];
                 a[i] = x + 1;
                 return a[i] + x;
             }",
        );
        let mut g = g0.clone();
        let mut pm = PredicateMap::new();
        assert_eq!(merge_equivalent(&mut g, &mut pm), MergeStats::default());
        assert_equivalent(&module, &g0, &g, &[vec![1]]);
    }
}
