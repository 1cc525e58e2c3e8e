//! Token-network rules: supply from the initial token, transitive
//! redundancy, and the may-alias race check.

use crate::preds::PredBdds;
use crate::{LintConfig, LintDiag, Rule};
use analysis::{provably_disjoint, AddrForms, Disambiguation};
use bdd::Bdd;
use cfgir::AliasOracle;
use fxmap::{HashMap, HashSet};
use pegasus::{direct_token_deps, token_path, Graph, NodeId, NodeKind, Src, VClass};

pub(crate) fn check(
    g: &Graph,
    oracle: &AliasOracle<'_>,
    cfg: &LintConfig,
    diags: &mut Vec<LintDiag>,
) {
    if cfg.tokens {
        reachability(g, diags);
    }
    if cfg.redundancy {
        redundancy(g, diags);
    }
    if cfg.races {
        races(g, oracle, diags);
    }
}

fn mem_ops(g: &Graph) -> Vec<NodeId> {
    g.live_ids().filter(|&id| g.kind(id).is_memory()).collect()
}

fn sup(supplied: &HashSet<Src>, g: &Graph, id: NodeId, port: u16) -> bool {
    g.input(id, port).is_some_and(|i| supplied.contains(&i.src))
}

/// Which token outputs can ever carry a token? Least fixpoint of supply
/// propagation from the initial token. Token generators prime themselves
/// (they emit ahead of their credit input), so their *output* is always
/// supplied; their credit *input* still has to be, or the generator can
/// only ever emit its first `n` tokens. A ring whose only supplied input
/// is its own back edge stays unsupplied: the least fixpoint never admits
/// a cycle with no externally supplied entry.
fn reachability(g: &Graph, diags: &mut Vec<LintDiag>) {
    let mut supplied: HashSet<Src> = HashSet::default();
    let mut changed = true;
    while changed {
        changed = false;
        for id in g.live_ids() {
            let out = match g.kind(id) {
                NodeKind::InitialToken | NodeKind::TokenGen { .. } => Some(Src::of(id)),
                NodeKind::Load { .. } if sup(&supplied, g, id, 2) => Some(Src::token_of_load(id)),
                NodeKind::Store { .. } if sup(&supplied, g, id, 3) => Some(Src::of(id)),
                NodeKind::Combine
                    if (0..g.num_inputs(id)).all(|p| sup(&supplied, g, id, p as u16)) =>
                {
                    Some(Src::of(id))
                }
                NodeKind::Merge { vc: VClass::Token, .. }
                    if (0..g.num_inputs(id)).any(|p| sup(&supplied, g, id, p as u16)) =>
                {
                    Some(Src::of(id))
                }
                NodeKind::Eta { vc: VClass::Token, .. } if sup(&supplied, g, id, 0) => {
                    Some(Src::of(id))
                }
                _ => None,
            };
            if let Some(s) = out {
                if supplied.insert(s) {
                    changed = true;
                }
            }
        }
    }
    for id in g.live_ids() {
        let (what, port) = match g.kind(id) {
            NodeKind::Load { .. } => ("load", 2u16),
            NodeKind::Store { .. } => ("store", 3),
            NodeKind::TokenGen { .. } => ("token generator", 1),
            NodeKind::Return { .. } => ("return", 1),
            _ => continue,
        };
        if !sup(&supplied, g, id, port) {
            diags.push(LintDiag {
                rule: Rule::TokenUnreachable,
                node: id,
                aux: vec![],
                message: format!(
                    "{what} token input is not supplied from the initial token: it can never fire"
                ),
            });
        }
    }
}

/// A direct token dependence is redundant when it already reaches this
/// operation through another direct dependence (§3.4). Passes keep the
/// token graph transitively reduced; a redundant edge in a final graph
/// means some rewrite forgot to re-reduce.
fn redundancy(g: &Graph, diags: &mut Vec<LintDiag>) {
    for op in mem_ops(g) {
        let deps = direct_token_deps(g, op);
        if deps.len() < 2 {
            continue;
        }
        for (i, &d) in deps.iter().enumerate() {
            let implied =
                deps.iter().enumerate().any(|(j, &e)| i != j && d != e && token_path(g, d, e.node));
            if implied {
                diags.push(LintDiag {
                    rule: Rule::TokenRedundant,
                    node: op,
                    aux: vec![d.node],
                    message: format!(
                        "direct token dependence on {} is already implied transitively",
                        d.node
                    ),
                });
            }
        }
    }
}

/// Every unordered pair of may-aliasing memory operations (at least one a
/// store) must either have provably disjoint predicates (they can never
/// both fire — the builder leaves opposite branch arms unordered on this
/// ground) or be provably address-disjoint by the optimizer's own
/// [`provably_disjoint`] with every heuristic on — otherwise the token
/// network has lost an ordering the language semantics requires.
fn races(g: &Graph, oracle: &AliasOracle<'_>, diags: &mut Vec<LintDiag>) {
    let mems = mem_ops(g);
    if mems.len() < 2 {
        return;
    }
    let dis = Disambiguation::full();
    // The lint only reads the graph, so one address table serves the scan.
    let forms = AddrForms::new(g, &mems, &dis);
    let mut pm = PredBdds::new(false);
    let mut ctx_memo: HashMap<Src, Bdd> = HashMap::default();
    let preds: HashMap<NodeId, Bdd> = mems
        .iter()
        .map(|&m| {
            let (pred_port, tok_port) =
                if matches!(g.kind(m), NodeKind::Load { .. }) { (1, 2u16) } else { (2, 3) };
            let p = g.input(m, pred_port).map(|i| pm.of(g, i.src)).unwrap_or(Bdd::TRUE);
            let c = g
                .input(m, tok_port)
                .map(|i| token_ctx(g, &mut pm, &mut ctx_memo, i.src))
                .unwrap_or(Bdd::TRUE);
            (m, pm.mgr.and(c, p))
        })
        .collect();
    let reach: HashMap<NodeId, HashSet<NodeId>> =
        mems.iter().map(|&m| (m, token_successors(g, m))).collect();
    for (i, &a) in mems.iter().enumerate() {
        for &b in &mems[i + 1..] {
            let both_loads = matches!(g.kind(a), NodeKind::Load { .. })
                && matches!(g.kind(b), NodeKind::Load { .. });
            if both_loads || provably_disjoint(g, oracle, &dis, &forms, a, b) {
                continue;
            }
            if pm.mgr.disjoint(preds[&a], preds[&b]) {
                continue;
            }
            if reach[&a].contains(&b) || reach[&b].contains(&a) {
                continue;
            }
            diags.push(LintDiag {
                rule: Rule::TokenRace,
                node: a,
                aux: vec![b],
                message: format!(
                    "may-aliasing memory operations {a} and {b} have no token path ordering them"
                ),
            });
        }
    }
}

/// The condition under which a token source delivers *within one wave*:
/// the conjunction of the eta predicates on the way from the initial
/// token. Two memory operations whose firing conditions (context ∧ own
/// predicate) are disjoint lie on mutually exclusive paths — at most one
/// of them fires per wave, so they need no ordering edge (cross-wave
/// ordering is the ring's responsibility, as in the optimizer's
/// disambiguation). Back edges are skipped and anything not understood is
/// conservatively `TRUE` (i.e. "may fire").
fn token_ctx(g: &Graph, pm: &mut PredBdds, memo: &mut HashMap<Src, Bdd>, src: Src) -> Bdd {
    if let Some(&b) = memo.get(&src) {
        return b;
    }
    // Guard against cycles through malformed graphs: a revisit during its
    // own computation reads as TRUE (conservative).
    memo.insert(src, Bdd::TRUE);
    let id = src.node;
    let fwd = |g: &Graph, pm: &mut PredBdds, memo: &mut HashMap<Src, Bdd>, port: u16| match g
        .input(id, port)
    {
        Some(i) if !i.back => token_ctx(g, pm, memo, i.src),
        _ => Bdd::TRUE,
    };
    let b = match g.kind(id) {
        NodeKind::InitialToken | NodeKind::TokenGen { .. } => Bdd::TRUE,
        NodeKind::Eta { vc: VClass::Token, .. } => {
            let c = fwd(g, pm, memo, 0);
            let p = g.input(id, 1).map(|i| pm.of(g, i.src)).unwrap_or(Bdd::TRUE);
            pm.mgr.and(c, p)
        }
        NodeKind::Combine => {
            let cs: Vec<Bdd> = (0..g.num_inputs(id)).map(|p| fwd(g, pm, memo, p as u16)).collect();
            pm.mgr.and_all(cs)
        }
        NodeKind::Merge { vc: VClass::Token, .. } => {
            let cs: Vec<Bdd> = (0..g.num_inputs(id))
                .filter(|&p| g.input(id, p as u16).is_some_and(|i| !i.back))
                .map(|p| fwd(g, pm, memo, p as u16))
                .collect();
            if cs.is_empty() {
                Bdd::TRUE
            } else {
                pm.mgr.or_all(cs)
            }
        }
        NodeKind::Load { .. } if src.port == 1 => fwd(g, pm, memo, 2),
        NodeKind::Store { .. } => fwd(g, pm, memo, 3),
        _ => Bdd::TRUE,
    };
    memo.insert(src, b);
    b
}

/// Memory operations ordered *after* `from` by the token network: forward
/// reachability through combines, token merges/etas and other memory ops.
/// A path through a token generator does NOT order — it emits ahead of its
/// credit input, which is the whole point of decoupling (§6.3). Back edges
/// are skipped, matching the reduction's per-wave view.
fn token_successors(g: &Graph, from: NodeId) -> HashSet<NodeId> {
    let start = match g.kind(from) {
        NodeKind::Load { .. } => Src::token_of_load(from),
        _ => Src::of(from),
    };
    let mut seen: HashSet<Src> = HashSet::default();
    let mut out: HashSet<NodeId> = HashSet::default();
    let mut work = vec![start];
    while let Some(s) = work.pop() {
        if !seen.insert(s) {
            continue;
        }
        for u in g.uses(s.node) {
            if u.src_port != s.port {
                continue;
            }
            if g.input(u.dst, u.dst_port).is_some_and(|i| i.back) {
                continue;
            }
            match g.kind(u.dst) {
                NodeKind::Load { .. } => {
                    out.insert(u.dst);
                    work.push(Src::token_of_load(u.dst));
                }
                NodeKind::Store { .. } => {
                    out.insert(u.dst);
                    work.push(Src::of(u.dst));
                }
                NodeKind::Combine | NodeKind::Merge { vc: VClass::Token, .. } => {
                    work.push(Src::of(u.dst));
                }
                NodeKind::Eta { vc: VClass::Token, .. } if u.dst_port == 0 => {
                    work.push(Src::of(u.dst));
                }
                _ => {} // token generators and returns do not forward order
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{compile, lint_fresh};
    use cfgir::AliasOracle;

    fn find_store(g: &Graph) -> NodeId {
        g.live_ids().find(|&id| matches!(g.kind(id), NodeKind::Store { .. })).unwrap()
    }

    #[test]
    fn severed_token_input_is_unreachable() {
        let (module, mut g) = compile("int g[4]; void main(int i) { g[0] = i; g[1] = i; }");
        // Rewire the second store's token input onto the first store's own
        // output... no: feed it from an unsupplied source — its own output
        // would panic the class check. Simplest: a fresh combine with no
        // supplied input is impossible to build legally, so instead cut the
        // chain by making the *first* store depend on the second (cycle).
        let stores: Vec<NodeId> =
            g.live_ids().filter(|&id| matches!(g.kind(id), NodeKind::Store { .. })).collect();
        assert_eq!(stores.len(), 2);
        // Find which store feeds the other, then reverse the dependence so
        // the pair forms a token cycle unanchored at the initial token.
        let (first, second) = if token_path(&g, Src::of(stores[0]), stores[1]) {
            (stores[0], stores[1])
        } else {
            (stores[1], stores[0])
        };
        g.replace_input(first, 3, Src::of(second));
        let oracle = AliasOracle::new(&module);
        let diags = crate::lint(&g, &oracle, &crate::LintConfig::default());
        assert!(
            diags.iter().any(|d| d.rule == Rule::TokenUnreachable),
            "token cycle must be unreachable: {diags:?}"
        );
    }

    #[test]
    fn bypassed_store_races() {
        let (module, mut g) =
            compile("void main(unsigned a[], int i, int j) { a[i] = 1; a[j] = 2; }");
        // Dissolve the ordering between the two may-aliasing stores: route
        // the downstream store's token input past the upstream store.
        let stores: Vec<NodeId> =
            g.live_ids().filter(|&id| matches!(g.kind(id), NodeKind::Store { .. })).collect();
        assert_eq!(stores.len(), 2);
        let (up, down) = if token_path(&g, Src::of(stores[0]), stores[1]) {
            (stores[0], stores[1])
        } else {
            (stores[1], stores[0])
        };
        let up_dep = g.input(up, 3).unwrap().src;
        g.replace_input(down, 3, up_dep);
        let oracle = AliasOracle::new(&module);
        let diags = crate::lint(&g, &oracle, &crate::LintConfig::default());
        let race: Vec<_> = diags.iter().filter(|d| d.rule == Rule::TokenRace).collect();
        assert_eq!(race.len(), 1, "exactly one racing pair expected: {diags:?}");
        let d = race[0];
        assert!(d.node == up || d.node == down);
        assert_eq!(d.aux.len(), 1);
    }

    #[test]
    fn disjoint_accesses_may_run_unordered() {
        // a[i] and a[i+1] provably never collide; cutting their edge is
        // what the optimizer does, and must not be flagged.
        let (module, mut g) = compile("void main(unsigned a[], int i) { a[i] = a[i + 1]; }");
        let store = find_store(&g);
        let load = g.live_ids().find(|&id| matches!(g.kind(id), NodeKind::Load { .. })).unwrap();
        let load_dep = g.input(load, 2).unwrap().src;
        g.replace_input(store, 3, load_dep);
        let oracle = AliasOracle::new(&module);
        let diags = crate::lint(&g, &oracle, &crate::LintConfig::default());
        assert!(
            diags.iter().all(|d| d.rule != Rule::TokenRace),
            "disjoint pair wrongly flagged: {diags:?}"
        );
    }

    #[test]
    fn unreduced_dependence_is_redundant() {
        // Three stores to one array build as a chain s1 -> s2 -> s3. Give
        // s3 an *extra* direct dependence on s1: transitively implied.
        let (module, mut g) =
            compile("int g[4]; void main(int i) { g[0] = i; g[1] = i; g[2] = i; }");
        let stores: Vec<NodeId> =
            g.live_ids().filter(|&id| matches!(g.kind(id), NodeKind::Store { .. })).collect();
        assert_eq!(stores.len(), 3);
        let mut ordered = stores.clone();
        ordered.sort_by_key(|&s| stores.iter().filter(|&&o| token_path(&g, Src::of(s), o)).count());
        let (last, first) = (ordered[0], ordered[2]);
        let old = g.input(last, 3).unwrap().src;
        let hb = g.hb(last);
        let c = g.add_node(NodeKind::Combine, 2, hb);
        g.connect(old, c, 0);
        g.connect(Src::of(first), c, 1);
        g.replace_input(last, 3, Src::of(c));
        let oracle = AliasOracle::new(&module);
        let diags = crate::lint(&g, &oracle, &crate::LintConfig::default());
        assert!(
            diags.iter().any(|d| d.rule == Rule::TokenRedundant && d.node == last),
            "implied dependence must be flagged: {diags:?}"
        );
        // The fresh-graph configuration (mid-pipeline) keeps quiet about it.
        assert!(lint_fresh(&module, &g).iter().all(|d| d.rule != Rule::TokenRedundant));
    }
}
