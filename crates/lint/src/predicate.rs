//! BDD-backed predicate rules: mux select disjointness, hyperblock exit
//! partition, and provably dead side effects.

use crate::preds::PredBdds;
use crate::{LintConfig, LintDiag, Rule};
use bdd::Bdd;
use fxmap::HashMap;
use pegasus::{Graph, NodeId, NodeKind, Src, VClass};

pub(crate) fn check(g: &Graph, cfg: &LintConfig, diags: &mut Vec<LintDiag>) {
    let mut plain = PredBdds::new(false);
    if cfg.predicates {
        mux_overlap(g, &mut plain, diags);
        exit_partition(g, diags);
    }
    if cfg.dead_code {
        dead_preds(g, &mut plain, diags);
    }
}

/// Decoded mux ways must carry pairwise disjoint select predicates: two
/// simultaneously true selects would forward two values onto one edge.
fn mux_overlap(g: &Graph, pm: &mut PredBdds, diags: &mut Vec<LintDiag>) {
    for id in g.live_ids() {
        if !matches!(g.kind(id), NodeKind::Mux { .. }) {
            continue;
        }
        let sels: Vec<(u16, Bdd)> = (0..g.num_inputs(id))
            .step_by(2)
            .filter_map(|p| g.input(id, p as u16).map(|i| (p as u16, pm.of(g, i.src))))
            .collect();
        for (i, &(pa, ba)) in sels.iter().enumerate() {
            for &(pb, bb) in &sels[i + 1..] {
                if !pm.mgr.disjoint(ba, bb) {
                    diags.push(LintDiag {
                        rule: Rule::MuxOverlap,
                        node: id,
                        aux: vec![],
                        message: format!(
                            "mux ways at ports {pa} and {pb} have overlapping select predicates"
                        ),
                    });
                }
            }
        }
    }
}

/// §3.3: the steers taking a hyperblock's token *out* — continue etas,
/// exit etas, the return — must partition its waves. If their predicates
/// do not OR to true, some wave strands its token in the block and the
/// circuit deadlocks; if two can be true at once, one wave leaves twice.
fn exit_partition(g: &Graph, diags: &mut Vec<LintDiag>) {
    // Activations fold to TRUE here: "this wave is in this block" is the
    // baseline the exits must cover.
    let mut pm = PredBdds::new(true);
    let mut per_hb: HashMap<u32, Vec<(NodeId, Src)>> = HashMap::default();
    for id in g.live_ids() {
        let steer = match g.kind(id) {
            NodeKind::Eta { vc: VClass::Token, .. } => g.input(id, 1),
            NodeKind::Return { .. } => g.input(id, 0),
            _ => None,
        };
        if let Some(i) = steer {
            per_hb.entry(g.hb(id)).or_default().push((id, i.src));
        }
    }
    let mut hbs: Vec<u32> = per_hb.keys().copied().collect();
    hbs.sort_unstable();
    for hb in hbs {
        let mut exits = per_hb.remove(&hb).unwrap();
        // Several steers legitimately share one predicate (every live-out
        // of an edge is steered by that edge's predicate): dedupe by source.
        exits.sort_by_key(|&(id, s)| (s, id));
        exits.dedup_by_key(|&mut (_, s)| s);
        let bdds: Vec<(NodeId, Bdd)> = exits.iter().map(|&(id, s)| (id, pm.of(g, s))).collect();
        let cover = pm.mgr.or_all(bdds.iter().map(|&(_, b)| b));
        if !cover.is_true() {
            diags.push(LintDiag {
                rule: Rule::ExitPartition,
                node: bdds[0].0,
                aux: bdds[1..].iter().map(|&(id, _)| id).collect(),
                message: format!(
                    "hyperblock {hb}: exit predicates do not cover every wave — \
                     uncovered waves strand their token (deadlock)"
                ),
            });
        }
        for (i, &(na, ba)) in bdds.iter().enumerate() {
            for &(nb, bb) in &bdds[i + 1..] {
                if !pm.mgr.disjoint(ba, bb) {
                    diags.push(LintDiag {
                        rule: Rule::ExitPartition,
                        node: na,
                        aux: vec![nb],
                        message: format!(
                            "hyperblock {hb}: exit predicates of {na} and {nb} overlap — \
                             some wave would leave the block twice"
                        ),
                    });
                }
            }
        }
    }
}

/// A live side effect whose predicate is provably false never fires. The
/// circuit is still correct, but dead-code elimination should have removed
/// it — so this only runs when the pipeline claims to have done so.
fn dead_preds(g: &Graph, pm: &mut PredBdds, diags: &mut Vec<LintDiag>) {
    for id in g.live_ids() {
        let (what, port) = match g.kind(id) {
            NodeKind::Load { .. } => ("load", 1u16),
            NodeKind::Store { .. } => ("store", 2),
            _ => continue,
        };
        if let Some(i) = g.input(id, port) {
            if pm.of(g, i.src).is_false() {
                diags.push(LintDiag {
                    rule: Rule::DeadPred,
                    node: id,
                    aux: vec![],
                    message: format!(
                        "{what} predicate is provably false: dead code survived elimination"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{compile, lint_fresh};
    use cfgir::AliasOracle;

    #[test]
    fn overlapping_mux_selects_are_flagged() {
        let (module, mut g) =
            compile("int main(int x) { int y; if (x > 3) { y = 1; } else { y = 2; } return y; }");
        assert!(lint_fresh(&module, &g).is_empty(), "clean branchy program must lint clean");
        // Corrupt one mux: replace a select with the *other* way's select,
        // so both ways fire on the same waves.
        let mux = g
            .live_ids()
            .find(|&id| matches!(g.kind(id), NodeKind::Mux { .. }) && g.num_inputs(id) >= 4)
            .expect("joined branch builds a mux");
        let other = g.input(mux, 2).unwrap().src;
        g.replace_input(mux, 0, other);
        let diags = lint_fresh(&module, &g);
        assert!(
            diags.iter().any(|d| d.rule == Rule::MuxOverlap && d.node == mux),
            "duplicated select must overlap: {diags:?}"
        );
    }

    #[test]
    fn non_exhaustive_exit_is_flagged() {
        let (module, mut g) = compile(
            "int main(int n) { int s = 0; int i;
               for (i = 0; i < n; i = i + 1) { s = s + i; }
               return s; }",
        );
        assert!(lint_fresh(&module, &g).is_empty(), "clean loop must lint clean");
        // Break the partition: make one continue steer's predicate
        // constant false. Waves that should have continued now strand.
        let loop_hb = (0..g.num_hbs)
            .find(|&hb| g.hb_is_loop.get(hb as usize).copied().unwrap_or(false))
            .expect("loop hyperblock");
        let eta = g
            .live_ids()
            .find(|&id| {
                g.hb(id) == loop_hb && matches!(g.kind(id), NodeKind::Eta { vc: VClass::Token, .. })
            })
            .expect("token steer in loop");
        let f = g.const_bool(false, loop_hb);
        g.replace_input(eta, 1, Src::of(f));
        let oracle = AliasOracle::new(&module);
        let cfg = crate::LintConfig { dead_code: false, ..Default::default() };
        let diags = crate::lint(&g, &oracle, &cfg);
        assert!(
            diags.iter().any(|d| d.rule == Rule::ExitPartition),
            "broken exit cover must be flagged: {diags:?}"
        );
    }

    #[test]
    fn false_predicate_store_is_dead() {
        let (module, mut g) = compile("int g[2]; void main(int i) { g[0] = i; }");
        let store = g.live_ids().find(|&id| matches!(g.kind(id), NodeKind::Store { .. })).unwrap();
        let hb = g.hb(store);
        let t = g.const_bool(true, hb);
        let f = g.pred_not(Src::of(t), hb); // !true: structurally false
        g.replace_input(store, 2, Src::of(f));
        let oracle = AliasOracle::new(&module);
        let diags = crate::lint(&g, &oracle, &crate::LintConfig::default());
        assert!(
            diags.iter().any(|d| d.rule == Rule::DeadPred && d.node == store),
            "false-predicate store must be dead: {diags:?}"
        );
        // ...but the mid-pipeline configuration tolerates it (dead-code
        // elimination simply has not run yet).
        assert!(lint_fresh(&module, &g).iter().all(|d| d.rule != Rule::DeadPred));
    }
}
