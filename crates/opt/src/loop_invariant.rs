//! Loop-invariant load motion (§5.4).
//!
//! A load whose address, predicate and token inputs are loop-invariant is
//! lifted in front of the loop: it executes once, and its value circulates
//! through a fresh merge/eta ring. In the token graph the hoisted load is
//! spliced onto the loop's entry token, so it still happens after all prior
//! side effects. (Loop-invariant *stores* are never detected — they produce
//! a fresh token each iteration, as the paper notes.)

use crate::util::{addr_of, bypass_token, mem_ops_in_hb, pred_of};
use analysis::loopinfo::{find_ivs, find_token_ring, IndVars, TokenRing};
use cfgir::AliasOracle;
use fxmap::HashMap;
use pegasus::{direct_token_deps, Graph, NodeId, NodeKind, Src, VClass};

/// Hoists loop-invariant loads. Returns how many loads were lifted.
pub fn hoist_invariant_loads(g: &mut Graph, oracle: &AliasOracle<'_>) -> usize {
    let mut hoisted = 0;
    for hb in 0..g.num_hbs {
        if !g.hb_is_loop.get(hb as usize).copied().unwrap_or(false) {
            continue;
        }
        let Some(ring) = find_token_ring(g, hb) else { continue };
        if ring.entries.len() != 1 {
            continue;
        }
        let ivs = find_ivs(g, hb);
        // At most one hoist per call: the ring shape may have changed
        // (entry slot now spliced), so callers re-invoke to a fixpoint.
        if let Some(load) = find_candidate(g, oracle, hb, &ring, &ivs) {
            if hoist_one(g, hb, &ring, &ivs, load) {
                hoisted += 1;
            }
        }
    }
    pegasus::prune_dead(g);
    pegasus::transitive_reduce_tokens(g);
    hoisted
}

fn find_candidate(
    g: &mut Graph,
    oracle: &AliasOracle<'_>,
    hb: u32,
    ring: &TokenRing,
    ivs: &IndVars,
) -> Option<NodeId> {
    let ops = mem_ops_in_hb(g, hb);
    'ops: for &op in &ops {
        let NodeKind::Load { may, .. } = g.kind(op) else { continue };
        // Nothing in the loop may write what this load reads.
        for &other in &ops {
            if let NodeKind::Store { may: smay, .. } = g.kind(other) {
                if oracle.sets_overlap(may, smay) {
                    continue 'ops;
                }
            }
        }
        // Token input must come straight from the ring entry merge.
        let deps = direct_token_deps(g, op);
        if !(deps.len() == 1 && deps[0] == Src::of(ring.merge)) {
            continue;
        }
        // Predicate: constant-true, or exactly the loop-continue predicate
        // (the load executes whenever the body does; hoisting it makes it
        // speculative across zero-trip loops, which is safe for loads).
        let p = pred_of(g, op);
        let pred_ok = crate::util::is_const_true(g, p)
            || (ring.cont_preds.len() == 1 && ring.cont_preds[0] == p);
        if !pred_ok {
            continue;
        }
        // Address must be expressible before the loop.
        if entry_value(g, addr_of(g, op), hb, ivs, &mut HashMap::default(), false).is_none() {
            continue;
        }
        return Some(op);
    }
    None
}

/// Computes (or, with `build`, materializes in the pre-loop hyperblock) the
/// value `src` has on loop entry. Returns `None` if `src` is not invariant.
fn entry_value(
    g: &mut Graph,
    src: Src,
    hb: u32,
    ivs: &IndVars,
    memo: &mut HashMap<Src, Src>,
    build: bool,
) -> Option<Src> {
    if let Some(&s) = memo.get(&src) {
        return Some(s);
    }
    let out = match g.kind(src.node).clone() {
        NodeKind::Const { .. } | NodeKind::Addr { .. } | NodeKind::Param { .. } => Some(src),
        NodeKind::Merge { .. } if g.hb(src.node) == hb => {
            // Invariant circulating value: step 0.
            if ivs.steps.get(&src) != Some(&0) {
                return None;
            }
            // Its single non-back input is the entry value. When that input
            // is a gating eta in the preheader, use the eta itself, not the
            // eta's source: the eta fires exactly once per loop activation
            // (the same gate as the entry token), while its source also
            // fires on the activation's exit wave. Consuming the source raw
            // would strand one value per activation in the channel, which
            // deadlocks nests deep enough to fill it.
            let mut entry = None;
            for p in 0..g.num_inputs(src.node) as u16 {
                let i = g.input(src.node, p)?;
                if !i.back {
                    if entry.is_some() {
                        return None;
                    }
                    entry = Some(i.src);
                }
            }
            Some(entry?)
        }
        NodeKind::BinOp { op, ty } => {
            let a = g.input(src.node, 0)?.src;
            let b = g.input(src.node, 1)?.src;
            let ea = entry_value(g, a, hb, ivs, memo, build)?;
            let eb = entry_value(g, b, hb, ivs, memo, build)?;
            if build {
                let out_hb = g.hb(ea.node).min(g.hb(eb.node));
                let n = g.add_node(NodeKind::BinOp { op, ty }, 2, out_hb);
                g.connect(ea, n, 0);
                g.connect(eb, n, 1);
                Some(Src::of(n))
            } else {
                Some(src) // existence check only
            }
        }
        NodeKind::UnOp { op, ty } => {
            let a = g.input(src.node, 0)?.src;
            let ea = entry_value(g, a, hb, ivs, memo, build)?;
            if build {
                let n = g.add_node(NodeKind::UnOp { op, ty }, 1, g.hb(ea.node));
                g.connect(ea, n, 0);
                Some(Src::of(n))
            } else {
                Some(src)
            }
        }
        NodeKind::Cast { ty } => {
            let a = g.input(src.node, 0)?.src;
            let ea = entry_value(g, a, hb, ivs, memo, build)?;
            if build {
                let n = g.add_node(NodeKind::Cast { ty }, 1, g.hb(ea.node));
                g.connect(ea, n, 0);
                Some(Src::of(n))
            } else {
                Some(src)
            }
        }
        _ => None,
    };
    if let Some(s) = out {
        memo.insert(src, s);
    }
    out
}

fn hoist_one(g: &mut Graph, hb: u32, ring: &TokenRing, ivs: &IndVars, load: NodeId) -> bool {
    let NodeKind::Load { ty, may } = g.kind(load).clone() else { return false };
    let (entry_port, entry_src) = ring.entries[0];
    let out_hb = g.hb(entry_src.node);
    // Materialize the entry-time address.
    let Some(addr) = entry_value(g, addr_of(g, load), hb, ivs, &mut HashMap::default(), true)
    else {
        return false;
    };
    // The hoisted load, spliced onto the loop's entry token.
    let lp = g.const_bool(true, out_hb);
    let l2 = g.add_node(NodeKind::Load { ty: ty.clone(), may }, 3, out_hb);
    g.connect(addr, l2, 0);
    g.connect(Src::of(lp), l2, 1);
    g.disconnect(ring.merge, entry_port);
    g.connect(entry_src, l2, 2);
    g.connect(Src::token_of_load(l2), ring.merge, entry_port);
    // Value circulation ring mirroring the token merge's slots.
    let vc = if ty == cfgir::types::Type::Bool { VClass::Pred } else { VClass::Data };
    let arity = g.num_inputs(ring.merge);
    let mv = g.add_node(NodeKind::Merge { vc, ty: ty.clone() }, arity, hb);
    g.connect(Src::of(l2), mv, entry_port);
    for (i, &(port, _)) in ring.back_etas.iter().enumerate() {
        let eta = g.add_node(NodeKind::Eta { vc, ty: ty.clone() }, 2, hb);
        g.connect(Src::of(mv), eta, 0);
        g.connect(ring.cont_preds[i], eta, 1);
        g.connect_back(Src::of(eta), mv, port);
    }
    // Swap consumers over, then drop the in-loop load.
    g.replace_all_uses(Src::of(load), Src::of(mv));
    bypass_token(g, load);
    g.remove_node(load);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_equivalent, compile, run};

    #[test]
    fn invariant_global_load_hoisted() {
        let (module, g0) = compile(
            "int s; int out;
             int main(int n) {
                 int acc = 0;
                 for (int i = 0; i < n; i++) acc += s;
                 return acc;
             }",
        );
        let mut g = g0.clone();
        let oracle = AliasOracle::new(&module);
        let h = hoist_invariant_loads(&mut g, &oracle);
        assert_eq!(h, 1);
        pegasus::verify(&g).unwrap();
        assert_equivalent(&module, &g0, &g, &[vec![0], vec![1], vec![7]]);
        // Dynamically: one load total instead of one per iteration.
        let (_, _, r) = run(&module, &g, &[10]);
        assert_eq!(r.stats.loads, 1);
        let (_, _, r0) = run(&module, &g0, &[10]);
        assert_eq!(r0.stats.loads, 10);
    }

    #[test]
    fn load_clobbered_in_loop_not_hoisted() {
        let (module, g0) = compile(
            "int s;
             int main(int n) {
                 int acc = 0;
                 for (int i = 0; i < n; i++) { acc += s; s = acc; }
                 return acc;
             }",
        );
        let mut g = g0.clone();
        let oracle = AliasOracle::new(&module);
        assert_eq!(hoist_invariant_loads(&mut g, &oracle), 0);
        assert_equivalent(&module, &g0, &g, &[vec![3]]);
    }

    #[test]
    fn varying_address_not_hoisted() {
        let (module, g0) = compile(
            "int a[16];
             int main(int n) {
                 int acc = 0;
                 for (int i = 0; i < n; i++) acc += a[i];
                 return acc;
             }",
        );
        let mut g = g0.clone();
        let oracle = AliasOracle::new(&module);
        assert_eq!(hoist_invariant_loads(&mut g, &oracle), 0);
        assert_equivalent(&module, &g0, &g, &[vec![4]]);
    }

    #[test]
    fn pointer_param_load_hoisted_with_invariant_pointer() {
        // The Figure 12 `*p` pattern: p never changes inside the loop, and
        // the only stores go to a disjoint global.
        let (module, g0) = compile(
            "int b[32];
             void f(int* p, int n) {
                 #pragma independent p b
                 for (int i = 0; i < n; i++) b[i] = *p + i;
             }
             int g2;
             int main(int n) { f(&g2, n); return b[3]; }",
        );
        let mut g = g0.clone();
        let oracle = AliasOracle::new(&module);
        // After inlining, p points at g2 precisely, so the disjointness
        // holds even without the pragma.
        let h = hoist_invariant_loads(&mut g, &oracle);
        assert_eq!(h, 1);
        pegasus::verify(&g).unwrap();
        assert_equivalent(&module, &g0, &g, &[vec![0], vec![8]]);
        let (_, _, r) = run(&module, &g, &[8]);
        // 1 hoisted load of *p + 1 load of b[3] at the end.
        assert_eq!(r.stats.loads, 2);
    }

    #[test]
    fn zero_trip_loop_is_still_correct() {
        let (module, g0) = compile(
            "int s;
             int main(int n) {
                 int acc = 100;
                 for (int i = 0; i < n; i++) acc += s;
                 return acc;
             }",
        );
        let mut g = g0.clone();
        let oracle = AliasOracle::new(&module);
        assert_eq!(hoist_invariant_loads(&mut g, &oracle), 1);
        // n = 0: the loop never runs; the speculative load must not
        // perturb the result.
        assert_equivalent(&module, &g0, &g, &[vec![0]]);
        let (r, _, _) = run(&module, &g, &[0]);
        assert_eq!(r, Some(100));
    }
}
