//! Loop pipelining with fine-grained synchronization (§6).
//!
//! The builder serializes each loop through a single token ring: every
//! memory operation of iteration *i+1* waits for every operation of
//! iteration *i*. This pass splits that ring into one ring per independent
//! group of accesses, so groups slip against each other (Figure 10's
//! producer/consumer loops):
//!
//! - **read-only groups** (§6.1) and **monotone-address groups** (§6.2) get
//!   a free-running *generator* ring: iterations issue as fast as the loop
//!   predicate stream allows, with a combine "collector" gathering their
//!   completion tokens for the loop exit;
//! - groups with an iteration-crossing dependence at a provable *distance d*
//!   are **decoupled** (§6.3): a token generator `tk(d)` lets the dependent
//!   ring run at most `d` iterations ahead of its producer;
//! - groups with unknown-distance conflicts stay **serial**: their ring's
//!   back eta waits for the group's per-iteration completion, as before.
//!
//! Components are computed over the (already reduced and disambiguated)
//! token edges: a surviving direct edge between two operations means "may
//! touch the same location in the same iteration", which is exactly what
//! must stay in one ring.

use crate::util::{addr_of, mem_ops_in_hb, size_of, token_in_port, token_out};
use analysis::affine::{affine_of, Affine};
use analysis::loopinfo::{
    find_activation, find_ivs, find_token_ring, iteration_conflict, Conflict,
};
use fxmap::HashMap;
use pegasus::{direct_token_deps, set_token_input, Graph, NodeId, NodeKind, Src, VClass};

/// Which of the §6 transformations are enabled.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// §6.1: pipeline read-only groups.
    pub read_only: bool,
    /// §6.2: pipeline groups whose writes march monotonically.
    pub monotone: bool,
    /// §6.3: decouple groups at a provable dependence distance.
    pub decouple: bool,
}

impl PipelineConfig {
    /// Everything on.
    pub fn full() -> Self {
        PipelineConfig { read_only: true, monotone: true, decouple: true }
    }

    /// Everything off.
    pub fn none() -> Self {
        PipelineConfig { read_only: false, monotone: false, decouple: false }
    }
}

/// Counters reported by the pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Loops restructured.
    pub loops: usize,
    /// Independent rings created (beyond the first).
    pub extra_rings: usize,
    /// Pipelined (generator-driven) rings.
    pub pipelined_rings: usize,
    /// Token generators inserted.
    pub token_gens: usize,
}

/// Small union-find.
struct Uf(Vec<usize>);

impl Uf {
    fn new(n: usize) -> Self {
        Uf((0..n).collect())
    }
    fn find(&mut self, x: usize) -> usize {
        if self.0[x] != x {
            let r = self.find(self.0[x]);
            self.0[x] = r;
            r
        } else {
            x
        }
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra] = rb;
        }
    }
}

/// Restructures every eligible loop. Uses only graph structure — run it
/// after token removal so components are maximal.
pub fn pipeline_loops(g: &mut Graph, cfg: PipelineConfig) -> PipelineStats {
    let mut stats = PipelineStats::default();
    if !(cfg.read_only || cfg.monotone || cfg.decouple) {
        return stats;
    }
    for hb in 0..g.num_hbs {
        if !g.hb_is_loop.get(hb as usize).copied().unwrap_or(false) {
            continue;
        }
        if let Some(s) = pipeline_one(g, hb, cfg) {
            stats.loops += 1;
            stats.extra_rings += s.extra_rings;
            stats.pipelined_rings += s.pipelined_rings;
            stats.token_gens += s.token_gens;
        }
    }
    if stats.loops > 0 {
        pegasus::prune_dead(g);
        pegasus::transitive_reduce_tokens(g);
    }
    stats
}

fn pipeline_one(g: &mut Graph, hb: u32, cfg: PipelineConfig) -> Option<PipelineStats> {
    let ring = find_token_ring(g, hb)?;
    let ops = mem_ops_in_hb(g, hb);
    if ops.is_empty() {
        return None;
    }
    // The ring must be self-contained: every op's token deps are either the
    // ring merge or other ops of this hyperblock.
    let mut deps_of: HashMap<NodeId, Vec<Src>> = HashMap::default();
    for &op in &ops {
        let deps = direct_token_deps(g, op);
        for d in &deps {
            let ok = d.node == ring.merge || (ops.contains(&d.node));
            if !ok {
                return None;
            }
        }
        deps_of.insert(op, deps);
    }

    // Components over direct op-to-op edges.
    let n = ops.len();
    let idx: HashMap<NodeId, usize> = ops.iter().enumerate().map(|(i, &o)| (o, i)).collect();
    let mut uf = Uf::new(n);
    for (i, &op) in ops.iter().enumerate() {
        for d in &deps_of[&op] {
            if let Some(&j) = idx.get(&d.node) {
                uf.union(i, j);
            }
        }
    }

    // Conflict classification.
    let ivs = find_ivs(g, hb);
    let affines: Vec<Affine> = ops.iter().map(|&o| affine_of(g, addr_of(g, o))).collect();
    let sizes: Vec<u64> = ops.iter().map(|&o| size_of(g, o)).collect();
    let is_store: Vec<bool> =
        ops.iter().map(|&o| matches!(g.kind(o), NodeKind::Store { .. })).collect();

    let mut serial_pair: Vec<(usize, usize)> = Vec::new(); // welded + serial
    let mut dist_edges: Vec<(usize, usize, i64)> = Vec::new(); // producer, consumer, d
    for i in 0..n {
        for j in i..n {
            if !is_store[i] && !is_store[j] {
                continue;
            }
            let c = iteration_conflict(&affines[i], sizes[i], &affines[j], sizes[j], &ivs);
            match c {
                Conflict::Never => {}
                Conflict::At(0) => {
                    if i != j {
                        // Same-iteration only: must share a ring (normally
                        // they already do through a token edge).
                        uf.union(i, j);
                    }
                }
                Conflict::At(d) if d > 0 => {
                    if i == j {
                        serial_pair.push((i, j));
                    } else {
                        dist_edges.push((i, j, d));
                    }
                }
                Conflict::At(d) => {
                    if i == j {
                        serial_pair.push((i, j));
                    } else {
                        dist_edges.push((j, i, -d));
                    }
                }
                Conflict::Unknown => {
                    serial_pair.push((i, j));
                    if i != j {
                        uf.union(i, j);
                    }
                }
            }
        }
    }
    if !cfg.decouple {
        // Without token generators, distance-related groups must share a
        // serial ring.
        for &(i, j, _) in &dist_edges {
            uf.union(i, j);
            serial_pair.push((i, j));
        }
        dist_edges.clear();
    }

    // Resolve components.
    let mut comp_of = vec![0usize; n];
    let mut comps: Vec<Vec<usize>> = Vec::new();
    {
        let mut map: HashMap<usize, usize> = HashMap::default();
        for (i, slot) in comp_of.iter_mut().enumerate() {
            let r = uf.find(i);
            let c = *map.entry(r).or_insert_with(|| {
                comps.push(Vec::new());
                comps.len() - 1
            });
            *slot = c;
            comps[c].push(i);
        }
    }
    let nc = comps.len();
    let mut serial = vec![false; nc];
    for &(i, j) in &serial_pair {
        if comp_of[i] == comp_of[j] {
            serial[comp_of[i]] = true;
        }
    }
    // Intra-component distance conflicts also force serialization.
    let mut cross: HashMap<(usize, usize), i64> = HashMap::default();
    for &(i, j, d) in &dist_edges {
        let (ci, cj) = (comp_of[i], comp_of[j]);
        if ci == cj {
            serial[ci] = true;
        } else {
            let e = cross.entry((ci, cj)).or_insert(d);
            *e = (*e).min(d);
        }
    }
    // Token-generator edges must form a DAG; weld strongly connected
    // components into serial rings.
    while let Some(cycle_pair) = find_cycle_pair(nc, &cross) {
        let (a, b) = cycle_pair;
        // Merge b into a.
        for x in &mut comp_of {
            if *x == b {
                *x = a;
            }
        }
        serial[a] = true;
        let entries: Vec<((usize, usize), i64)> = cross.iter().map(|(&k, &v)| (k, v)).collect();
        cross.clear();
        for ((mut s, mut t), d) in entries {
            if s == b {
                s = a;
            }
            if t == b {
                t = a;
            }
            if s != t {
                let e = cross.entry((s, t)).or_insert(d);
                *e = (*e).min(d);
            }
        }
    }
    // Re-canonicalize component list after welding.
    let mut comp_ids: Vec<usize> = comp_of.clone();
    comp_ids.sort_unstable();
    comp_ids.dedup();
    let comp_index: HashMap<usize, usize> =
        comp_ids.iter().enumerate().map(|(k, &c)| (c, k)).collect();
    let ncf = comp_ids.len();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); ncf];
    for i in 0..n {
        members[comp_index[&comp_of[i]]].push(i);
    }
    let mut serial_f = vec![false; ncf];
    for (old, &newi) in &comp_index {
        serial_f[newi] = serial[*old];
    }
    let cross_f: Vec<(usize, usize, i64)> =
        cross.iter().map(|(&(s, t), &d)| (comp_index[&s], comp_index[&t], d)).collect();

    // Policy gates: a non-serial component needs read_only (loads only) or
    // monotone (has stores) to be pipelined.
    for (c, m) in members.iter().enumerate() {
        if serial_f[c] {
            continue;
        }
        let has_store = m.iter().any(|&i| is_store[i]);
        if has_store && !cfg.monotone {
            serial_f[c] = true;
        }
        if !has_store && !cfg.read_only {
            serial_f[c] = true;
        }
    }

    // Nothing to gain?
    if ncf == 1 && serial_f[0] && cross_f.is_empty() {
        return None;
    }

    // The token generators count execution waves with the hyperblock's
    // activation predicate. The loop-*continue* predicate would be wrong
    // here: it may derive from the very loads a generator gates (e.g. a
    // conditional store feeding the latch), which would tie a knot.
    let activation = if cross_f.is_empty() {
        Src::of(ring.merge) // unused placeholder
    } else {
        find_activation(g, hb)? // None: cannot decouple safely
    };

    // ---- rebuild ----
    let arity = g.num_inputs(ring.merge);

    // Disconnect all op token inputs (deps already captured).
    for &op in &ops {
        let p = token_in_port(g, op);
        g.disconnect(op, p);
    }

    // Per component: generator merge + rewire ops.
    let mut gms: Vec<NodeId> = Vec::with_capacity(ncf);
    let mut ccs: Vec<Src> = Vec::with_capacity(ncf);
    for m in &members {
        let gm = g.add_node(
            NodeKind::Merge { vc: VClass::Token, ty: cfgir::types::Type::Bool },
            arity,
            hb,
        );
        for &(port, src) in &ring.entries {
            g.connect(src, gm, port);
        }
        // Rewire member ops: ring merge -> gm; op deps unchanged.
        for &i in m {
            let op = ops[i];
            let deps: Vec<Src> = deps_of[&op]
                .iter()
                .map(|d| if d.node == ring.merge { Src::of(gm) } else { *d })
                .collect();
            set_token_input(g, op, dedup(deps));
        }
        // Per-iteration completion: combine of the member tails.
        let mut tails: Vec<Src> = Vec::new();
        for &i in m {
            let op = ops[i];
            let mine = token_out(g, op);
            let used_internally = m.iter().any(|&j| j != i && deps_of[&ops[j]].contains(&mine));
            if !used_internally {
                tails.push(mine);
            }
        }
        let cc = combine(g, tails, hb);
        gms.push(gm);
        ccs.push(cc);
    }

    // Token generators for the cross-component distances.
    let mut stats = PipelineStats {
        loops: 0,
        extra_rings: ncf.saturating_sub(1),
        pipelined_rings: serial_f.iter().filter(|s| !**s).count(),
        token_gens: 0,
    };
    for &(prod, cons, d) in &cross_f {
        let tk = g.add_node(NodeKind::TokenGen { n: d.max(1) as u32 }, 2, hb);
        // One activation `true` per wave demands one grant per wave; one
        // producer completion per wave returns one credit per wave — the
        // flows balance exactly, including the nullified exit wave, and
        // the counter is back at `n` when the loop finishes (the paper's
        // reset, achieved without racing in-flight tokens).
        g.connect(activation, tk, 0);
        g.connect(ccs[prod], tk, 1);
        // Consumers: every member whose deps touched the ring merge (the
        // heads) additionally waits for the generator's grant.
        for &i in &members[cons] {
            let op = ops[i];
            if deps_of[&op].iter().any(|d| d.node == ring.merge) {
                let mut deps = direct_token_deps(g, op);
                deps.push(Src::of(tk));
                set_token_input(g, op, dedup(deps));
            }
        }
        stats.token_gens += 1;
    }

    // Back etas per component ring.
    for c in 0..ncf {
        let feed = if serial_f[c] { ccs[c] } else { Src::of(gms[c]) };
        for (k, &(port, _)) in ring.back_etas.iter().enumerate() {
            let eta = g.add_node(
                NodeKind::Eta { vc: VClass::Token, ty: cfgir::types::Type::Bool },
                2,
                hb,
            );
            g.connect(feed, eta, 0);
            g.connect(ring.cont_preds[k], eta, 1);
            g.connect_back(Src::of(eta), gms[c], port);
        }
    }

    // Exit: all components must complete every iteration.
    let final_new = combine(g, ccs.clone(), hb);
    for &eta in &ring.exit_etas {
        g.disconnect(eta, 0);
        g.connect(final_new, eta, 0);
    }
    Some(stats)
}

fn dedup(mut v: Vec<Src>) -> Vec<Src> {
    v.sort_unstable();
    v.dedup();
    v
}

fn combine(g: &mut Graph, srcs: Vec<Src>, hb: u32) -> Src {
    assert!(!srcs.is_empty());
    if srcs.len() == 1 {
        return srcs[0];
    }
    let c = g.add_node(NodeKind::Combine, srcs.len(), hb);
    for (i, s) in srcs.into_iter().enumerate() {
        g.connect(s, c, i as u16);
    }
    Src::of(c)
}

/// Finds one edge participating in a cycle of the component DAG, if any.
fn find_cycle_pair(nc: usize, edges: &HashMap<(usize, usize), i64>) -> Option<(usize, usize)> {
    // Tiny graphs: DFS from each node.
    for (&(s, t), _) in edges.iter() {
        // Is there a path t -> s?
        let mut stack = vec![t];
        let mut seen = vec![false; nc.max(1)];
        while let Some(x) = stack.pop() {
            if x == s {
                return Some((s, t));
            }
            if x < seen.len() && seen[x] {
                continue;
            }
            if x < seen.len() {
                seen[x] = true;
            }
            for (&(a, b), _) in edges.iter() {
                if a == x {
                    stack.push(b);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_equivalent, compile_rw, run};
    use crate::token_removal::remove_token_edges;
    use crate::Disambiguation;
    use cfgir::AliasOracle;

    /// Prepares a graph the way the manager would: build with rw sets, then
    /// disambiguate, then pipeline.
    fn prep(src: &str) -> (cfgir::Module, Graph, Graph) {
        let (module, g0) = compile_rw(src);
        let mut g = g0.clone();
        let oracle = AliasOracle::new(&module);
        remove_token_edges(&mut g, &oracle, Disambiguation::full());
        (module, g0, g)
    }

    #[test]
    fn figure10_producer_consumer_splits() {
        // Reads of src, writes of dst: two independent groups; both rings
        // pipeline (reads read-only, writes monotone).
        let (module, g0, mut g) = prep(
            "int src[64]; int dst[64];
             int main(int n) {
                 for (int i = 0; i < n; i++) dst[i] = src[i] * 3;
                 return dst[5];
             }",
        );
        let stats = pipeline_loops(&mut g, PipelineConfig::full());
        assert_eq!(stats.loops, 1);
        assert!(stats.extra_rings >= 1, "{stats:?}");
        assert_eq!(stats.token_gens, 0);
        assert!(stats.pipelined_rings >= 2);
        pegasus::verify(&g).unwrap();
        assert_equivalent(&module, &g0, &g, &[vec![0], vec![1], vec![32]]);
    }

    #[test]
    fn figure12_loop_gets_distance_one_generator() {
        // b[i+1] = ...; a[i] = b[i] + ... : the b-load at iteration i+1
        // depends on the b-store at iteration i -> tk(1).
        let (module, g0, mut g) = prep(
            "int a[64]; int b[65];
             int main(int n) {
                 for (int i = 0; i < n; i++) {
                     b[i+1] = i & 0xf;
                     a[i] = b[i] + 7;
                 }
                 return a[3] + b[2];
             }",
        );
        let stats = pipeline_loops(&mut g, PipelineConfig::full());
        assert_eq!(stats.loops, 1);
        assert_eq!(stats.token_gens, 1, "{stats:?}");
        assert_eq!(g.count_token_gens(), 1);
        pegasus::verify(&g).unwrap();
        assert_equivalent(&module, &g0, &g, &[vec![0], vec![1], vec![2], vec![40]]);
    }

    #[test]
    fn figure15_decoupling_distance_three() {
        // a[i] = a[i] + a[i+3]: the store trails the far load by 3.
        let (module, g0, mut g) = prep(
            "int a[67];
             int main(int n) {
                 for (int i = 0; i < n; i++) a[i] = a[i] + a[i+3];
                 return a[4];
             }",
        );
        let stats = pipeline_loops(&mut g, PipelineConfig::full());
        assert_eq!(stats.loops, 1);
        assert_eq!(stats.token_gens, 1, "{stats:?}");
        pegasus::verify(&g).unwrap();
        assert_equivalent(&module, &g0, &g, &[vec![0], vec![3], vec![10], vec![60]]);
    }

    #[test]
    fn unknown_subscript_stays_serial() {
        // a[c[i]] = i: writes at data-dependent addresses must serialize.
        let (module, g0, mut g) = prep(
            "int a[64]; int c[64];
             int main(int n) {
                 for (int i = 0; i < n; i++) a[c[i]] = i;
                 return a[0];
             }",
        );
        let stats = pipeline_loops(&mut g, PipelineConfig::full());
        // The c-loads pipeline, the a-stores stay serial.
        if stats.loops == 1 {
            pegasus::verify(&g).unwrap();
        }
        assert_equivalent(&module, &g0, &g, &[vec![0], vec![8]]);
    }

    #[test]
    fn config_none_is_identity() {
        let (_, g0, mut g) = prep(
            "int src[64]; int dst[64];
             int main(int n) {
                 for (int i = 0; i < n; i++) dst[i] = src[i];
                 return 0;
             }",
        );
        let before = g.live_count();
        let stats = pipeline_loops(&mut g, PipelineConfig::none());
        assert_eq!(stats, PipelineStats::default());
        assert_eq!(g.live_count(), before);
        let _ = g0;
    }

    #[test]
    fn decoupling_disabled_welds_groups() {
        let (module, g0, mut g) = prep(
            "int a[67];
             int main(int n) {
                 for (int i = 0; i < n; i++) a[i] = a[i] + a[i+3];
                 return a[4];
             }",
        );
        let stats = pipeline_loops(
            &mut g,
            PipelineConfig { read_only: true, monotone: true, decouple: false },
        );
        assert_eq!(stats.token_gens, 0);
        assert_eq!(g.count_token_gens(), 0);
        assert_equivalent(&module, &g0, &g, &[vec![10]]);
    }

    #[test]
    fn pipelining_actually_speeds_up_the_loop() {
        // Producer/consumer with expensive loads: pipelined rings overlap
        // iterations, the serial baseline doesn't.
        let src = "int src[256]; int dst[256];
             int main(int n) {
                 for (int i = 0; i < n; i++) dst[i] = src[i] + 1;
                 return dst[9];
             }";
        let (module, g0, mut g) = prep(src);
        pipeline_loops(&mut g, PipelineConfig::full());
        pegasus::verify(&g).unwrap();
        let (_, _, before) = run(&module, &g0, &[64]);
        let (_, _, after) = run(&module, &g, &[64]);
        assert!(
            after.cycles < before.cycles,
            "pipelined {} must beat serial {}",
            after.cycles,
            before.cycles
        );
    }
}
