//! Load-after-store forwarding (§5.3, Figure 9).
//!
//! A load whose direct token dependences are all stores *to the same
//! address* can take its value straight from whichever store executed: a
//! decoded multiplexor selects among the stored values, and the load itself
//! runs only when none of the stores did. If the stores collectively
//! dominate the load (Gupta's sense — their predicates cover the load's),
//! the residual load predicate is constant false and the load disappears.

use crate::util::{addr_of, bypass_token, mem_ops, pred_of, pred_port, size_of};
use analysis::affine::{affine_of, always_equal};
use analysis::PredicateMap;
use pegasus::{direct_token_deps, Graph, NodeKind, Src};

use crate::store_store::reaches_forward;

/// Result counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStoreStats {
    /// Loads rewritten to a bypass mux but kept (partial coverage).
    pub bypassed: usize,
    /// Loads removed entirely (stores collectively dominate).
    pub removed: usize,
}

/// Applies load-after-store forwarding everywhere it fires.
pub fn load_after_store(g: &mut Graph, pm: &mut PredicateMap) -> LoadStoreStats {
    let mut stats = LoadStoreStats::default();
    let mut done: fxmap::HashSet<pegasus::NodeId> = fxmap::HashSet::default();
    loop {
        let mut changed = false;
        'outer: for l in mem_ops(g) {
            if done.contains(&l) {
                continue;
            }
            let NodeKind::Load { ty, .. } = g.kind(l).clone() else { continue };
            if !g.has_uses(l, 0) {
                continue; // dead load; §4.1's business
            }
            let deps = direct_token_deps(g, l);
            if deps.is_empty() {
                continue;
            }
            // Every dependence must be a same-address, same-size store.
            let la = affine_of(g, addr_of(g, l));
            let lsz = size_of(g, l);
            let mut stores = Vec::new();
            for d in &deps {
                if !matches!(g.kind(d.node), NodeKind::Store { .. }) {
                    continue 'outer;
                }
                let sa = affine_of(g, addr_of(g, d.node));
                if !always_equal(&la, &sa) || size_of(g, d.node) != lsz {
                    continue 'outer;
                }
                if !stores.contains(&d.node) {
                    stores.push(d.node);
                }
            }
            // Cycle safety: the store predicates/values will feed the mux
            // (and the residual predicate feeds the load); none may derive
            // from the load's value.
            for &s in &stores {
                let sp = pred_of(g, s);
                let sv = g.input(s, 1).expect("store has value").src;
                if reaches_forward(g, l, sp.node) || reaches_forward(g, l, sv.node) {
                    continue 'outer;
                }
            }
            // Residual load predicate: pL & !(p1 | ... | pk).
            let pl = pred_of(g, l);
            let store_preds: Vec<Src> = stores.iter().map(|&s| pred_of(g, s)).collect();
            let covered = pm.covered_by(g, pl, &store_preds);
            let hb = g.hb(l);

            // Collect the load's value consumers before rewiring.
            let consumers: Vec<(pegasus::NodeId, u16)> =
                g.uses(l).iter().filter(|u| u.src_port == 0).map(|u| (u.dst, u.dst_port)).collect();

            let ways = stores.len() + usize::from(!covered);
            let mux = g.add_node(NodeKind::Mux { ty: ty.clone() }, 2 * ways, hb);
            for (k, &s) in stores.iter().enumerate() {
                let sp = pred_of(g, s);
                let sv = g.input(s, 1).expect("store value").src;
                g.connect(sp, mux, (2 * k) as u16);
                g.connect(sv, mux, (2 * k + 1) as u16);
            }
            if covered {
                // The load never executes: delete it.
                for (dst, port) in &consumers {
                    g.replace_input(*dst, *port, Src::of(mux));
                }
                bypass_token(g, l);
                g.remove_node(l);
                stats.removed += 1;
            } else {
                // Residual way: the load, narrowed to the uncovered case.
                let hb_l = g.hb(l);
                let or = {
                    let mut acc = store_preds[0];
                    for &p in &store_preds[1..] {
                        acc = Src::of(g.pred_or(acc, p, hb_l));
                    }
                    acc
                };
                let nor = g.pred_not(or, hb_l);
                let np = g.pred_and(pl, Src::of(nor), hb_l);
                let pp = pred_port(g, l);
                g.disconnect(l, pp);
                g.connect(Src::of(np), l, pp);
                let k = stores.len();
                g.connect(Src::of(np), mux, (2 * k) as u16);
                g.connect(Src::of(l), mux, (2 * k + 1) as u16);
                for (dst, port) in &consumers {
                    g.replace_input(*dst, *port, Src::of(mux));
                }
                done.insert(l);
                stats.bypassed += 1;
            }
            pegasus::prune_dead(g);
            changed = true;
            break;
        }
        if !changed {
            return stats;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_equivalent, compile, run};

    #[test]
    fn unconditional_store_feeds_load() {
        let (module, g0) = compile(
            "int a[4];
             int main(int i, int v) { a[i] = v; return a[i]; }",
        );
        let mut g = g0.clone();
        let mut pm = PredicateMap::new();
        let stats = load_after_store(&mut g, &mut pm);
        assert_eq!(stats.removed, 1);
        assert_eq!(g.count_memory_ops(), (0, 1));
        pegasus::verify(&g).unwrap();
        assert_equivalent(&module, &g0, &g, &[vec![0, 42], vec![3, -7]]);
    }

    #[test]
    fn two_branch_stores_collectively_dominate() {
        // Both arms store to a[i] before the load: the load dies, a mux
        // forwards the right value (Figure 1 B -> C).
        let (module, g0) = compile(
            "int a[4];
             int main(int p, int i) {
                 if (p) a[i] = 10; else a[i] = 20;
                 return a[i];
             }",
        );
        let mut g = g0.clone();
        let mut pm = PredicateMap::new();
        let stats = load_after_store(&mut g, &mut pm);
        assert_eq!(stats.removed, 1, "{stats:?}");
        pegasus::verify(&g).unwrap();
        assert_equivalent(&module, &g0, &g, &[vec![0, 1], vec![1, 2]]);
        let (r, _, _) = run(&module, &g, &[1, 0]);
        assert_eq!(r, Some(10));
        let (r, _, _) = run(&module, &g, &[0, 0]);
        assert_eq!(r, Some(20));
    }

    #[test]
    fn partial_store_keeps_residual_load() {
        // Store under p only: the load must survive for the !p case, but
        // stops executing dynamically when p holds.
        let (module, g0) = compile(
            "int a[4];
             int main(int p, int i) {
                 if (p) a[i] = 10;
                 return a[i];
             }",
        );
        let mut g = g0.clone();
        let mut pm = PredicateMap::new();
        let stats = load_after_store(&mut g, &mut pm);
        assert_eq!(stats.bypassed, 1);
        assert_eq!(stats.removed, 0);
        assert_eq!(g.count_memory_ops(), (1, 1));
        pegasus::verify(&g).unwrap();
        assert_equivalent(&module, &g0, &g, &[vec![0, 1], vec![1, 1]]);
        // Dynamically: when p holds, the load is nullified.
        let (r, _, res) = run(&module, &g, &[1, 2]);
        assert_eq!(r, Some(10));
        assert_eq!(res.stats.loads, 0);
        let (_, _, res) = run(&module, &g, &[0, 2]);
        assert_eq!(res.stats.loads, 1);
    }

    #[test]
    fn different_address_store_blocks_forwarding() {
        let (_, g0) = compile(
            "int a[8];
             int main(int i, int j) { a[i] = 5; return a[j]; }",
        );
        let mut g = g0;
        let mut pm = PredicateMap::new();
        let stats = load_after_store(&mut g, &mut pm);
        assert_eq!(stats, LoadStoreStats::default());
        assert_eq!(g.count_memory_ops(), (1, 1));
    }

    #[test]
    fn chain_store_load_store_load() {
        // Two rounds of forwarding collapse everything to dataflow.
        let (module, g0) = compile(
            "int a[4];
             int main(int i, int v) {
                 a[i] = v;
                 int x = a[i];
                 a[i] = x + 1;
                 return a[i];
             }",
        );
        let mut g = g0.clone();
        let mut pm = PredicateMap::new();
        let stats = load_after_store(&mut g, &mut pm);
        assert_eq!(stats.removed, 2);
        pegasus::verify(&g).unwrap();
        assert_equivalent(&module, &g0, &g, &[vec![1, 9]]);
        let (r, _, _) = run(&module, &g, &[1, 9]);
        assert_eq!(r, Some(10));
    }
}
