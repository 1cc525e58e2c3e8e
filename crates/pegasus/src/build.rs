//! Construction of a Pegasus graph from a CFG (§3 of the paper).
//!
//! The pipeline per hyperblock:
//!
//! 1. compute *path predicates* for every block (PSSA);
//! 2. convert the block instructions into dataflow nodes, renaming scalars
//!    and inserting decoded multiplexors at internal joins;
//! 3. insert memory-dependence tokens in program order using read/write
//!    sets (§3.3), transitively reduced (§3.4);
//! 4. stitch hyperblocks together with eta (steer) and merge nodes, one
//!    merge per live register at each hyperblock entry plus one token
//!    merge; loop back edges are marked so the rest of the compiler can
//!    treat the graph as a DAG.

use crate::graph::{Graph, NodeId, NodeKind, Src, VClass};
use cfgir::dom::DomTree;
use cfgir::func::{BlockId, Function, Instr, Reg, Terminator};
use cfgir::hyperblock::{HyperblockId, Hyperblocks};
use cfgir::liveness::Liveness;
use cfgir::loops::LoopForest;
use cfgir::types::Type;
use cfgir::AliasOracle;
use fxmap::HashMap;
use std::fmt;

/// Options controlling graph construction.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Use read/write sets to skip token edges between provably disjoint
    /// accesses during construction (§3.3). When false, every pair of
    /// non-commuting memory operations on a control-flow path is
    /// serialized — the coarse baseline.
    pub use_rw_sets: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions { use_rw_sets: true }
    }
}

/// Errors from graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A call survived to graph construction; the pipeline must inline
    /// everything first.
    CallNotInlined { callee: String },
    /// A register was used before any definition reached the use (a
    /// frontend invariant violation).
    UndefinedValue { reg: Reg, block: BlockId },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::CallNotInlined { callee } => {
                write!(f, "call to `{callee}` must be inlined before building Pegasus")
            }
            BuildError::UndefinedValue { reg, block } => {
                write!(f, "{reg} used in {block} with no reaching definition")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Builds the Pegasus graph for `func`.
///
/// # Errors
///
/// See [`BuildError`].
pub fn build(
    func: &Function,
    oracle: &AliasOracle<'_>,
    options: &BuildOptions,
) -> Result<Graph, BuildError> {
    let dom = DomTree::build(func);
    let loops = LoopForest::build(func, &dom);
    let hbs = Hyperblocks::build(func, &dom, &loops);
    let live = Liveness::compute(func);
    Builder { func, oracle, options, hbs: &hbs, live: &live, graph: Graph::new() }.run()
}

/// One memory operation recorded during hyperblock construction.
struct MemOp {
    node: NodeId,
    block: BlockId,
    is_store: bool,
}

/// Entry points of a hyperblock: a merge per live-in register + the token
/// merge, plus the slot assignment for each incoming CFG edge.
struct HbEntry {
    /// reg -> merge node.
    value_merges: HashMap<Reg, NodeId>,
    /// The token merge (or the initial-token node for the entry hyperblock).
    token_in: NodeId,
    /// The hyperblock's activation predicate: constant true for the entry
    /// hyperblock (it runs exactly once), otherwise a predicate merge fed
    /// with `true` once per execution. This keeps every eta's predicate a
    /// *dynamic* per-execution stream — an eta gated by a constant would
    /// have no rate information in a self-timed implementation.
    activation: Src,
    /// (from_block, succ_index) -> merge input slot.
    edge_slot: HashMap<(BlockId, usize), u16>,
    /// Registers live into the hyperblock, sorted.
    live_in: Vec<Reg>,
}

struct Builder<'a> {
    func: &'a Function,
    oracle: &'a AliasOracle<'a>,
    options: &'a BuildOptions,
    hbs: &'a Hyperblocks,
    live: &'a Liveness,
    graph: Graph,
}

impl<'a> Builder<'a> {
    fn run(mut self) -> Result<Graph, BuildError> {
        self.graph.num_hbs = self.hbs.len() as u32;
        self.graph.hb_is_loop = self.hbs.iter().map(|h| self.hbs.is_loop_hb(h)).collect();

        // Phase 1: entry merges for every hyperblock.
        let mut entries: Vec<HbEntry> = Vec::with_capacity(self.hbs.len());
        for h in self.hbs.iter() {
            entries.push(self.make_entry(h));
        }
        // Phase 2: internals + out-edges, in topological hyperblock order.
        for h in self.hbs.iter() {
            self.build_hyperblock(h, &entries)?;
        }
        Ok(self.graph)
    }

    /// All CFG edges entering the seed of `h`, ordered deterministically.
    /// Unreachable predecessors (blocks outside every hyperblock — e.g.
    /// fall-through blocks the frontend creates after a `return`) are
    /// ignored: they never execute and would leave dangling merge slots.
    fn in_edges(&self, h: HyperblockId) -> Vec<(BlockId, usize)> {
        let seed = self.hbs.seed(h);
        let mut edges = Vec::new();
        for b in &self.func.blocks {
            if self.hbs.hb_of(b.id).is_none() {
                continue;
            }
            for (i, s) in b.term.successors().iter().enumerate() {
                if *s == seed {
                    edges.push((b.id, i));
                }
            }
        }
        edges.sort_unstable();
        edges
    }

    fn make_entry(&mut self, h: HyperblockId) -> HbEntry {
        let seed = self.hbs.seed(h);
        let hb = h.0;
        let live_in = self.live.live_in_sorted(seed);
        let edges = self.in_edges(h);
        let mut edge_slot = HashMap::default();
        for (i, e) in edges.iter().enumerate() {
            edge_slot.insert(*e, i as u16);
        }
        if edges.is_empty() {
            // The entry hyperblock: parameters and the initial token.
            let mut value_merges = HashMap::default();
            for (idx, &p) in self.func.params.iter().enumerate() {
                let ty = self.func.ty(p).clone();
                let n = self.graph.add_node(NodeKind::Param { index: idx, ty }, 0, hb);
                value_merges.insert(p, n);
            }
            let token_in = self.graph.add_node(NodeKind::InitialToken, 0, hb);
            let t = self.graph.const_bool(true, hb);
            return HbEntry { value_merges, token_in, edge_slot, live_in, activation: Src::of(t) };
        }
        let nin = edges.len();
        let mut value_merges = HashMap::default();
        for &r in &live_in {
            let ty = self.func.ty(r).clone();
            let vc = if ty == Type::Bool { VClass::Pred } else { VClass::Data };
            let m = self.graph.add_node(NodeKind::Merge { vc, ty }, nin, hb);
            value_merges.insert(r, m);
        }
        let token_in =
            self.graph.add_node(NodeKind::Merge { vc: VClass::Token, ty: Type::Bool }, nin, hb);
        let act =
            self.graph.add_node(NodeKind::Merge { vc: VClass::Pred, ty: Type::Bool }, nin, hb);
        HbEntry { value_merges, token_in, edge_slot, live_in, activation: Src::of(act) }
    }

    fn build_hyperblock(&mut self, h: HyperblockId, entries: &[HbEntry]) -> Result<(), BuildError> {
        let hb = h.0;
        let blocks: Vec<BlockId> = self.hbs.blocks_of(h).to_vec();
        let in_hb: fxmap::HashSet<BlockId> = blocks.iter().copied().collect();
        let entry = &entries[h.index()];

        // Internal reachability between the hyperblock's blocks (acyclic).
        let reach = self.internal_reachability(&blocks, &in_hb);
        let block_pos: HashMap<BlockId, usize> =
            blocks.iter().enumerate().map(|(i, &b)| (b, i)).collect();

        // Per-block state, filled in RPO order (blocks_of is already RPO).
        let mut env: Vec<HashMap<Reg, Src>> = vec![HashMap::default(); blocks.len()];
        let mut pred: Vec<Option<Src>> = vec![None; blocks.len()];
        // Incoming internal edges: target -> (edge predicate, source pos).
        let mut internal_in: HashMap<BlockId, Vec<(Src, usize)>> = HashMap::default();
        let mut mem_ops: Vec<MemOp> = Vec::new();
        // Deferred returns: (pred, value).
        let mut returns: Vec<(Src, Option<Src>)> = Vec::new();
        // Deferred out-edges: (from_pos, succ_idx, target_hb, edge_pred).
        let mut out_edges: Vec<(usize, usize, HyperblockId, Src)> = Vec::new();

        for (pos, &bid) in blocks.iter().enumerate() {
            // Block predicate and environment at entry.
            if pos == 0 {
                pred[pos] = Some(entry.activation);
                let mut e = HashMap::default();
                for (&r, &m) in &entry.value_merges {
                    e.insert(r, Src::of(m));
                }
                env[pos] = e;
            } else {
                let incoming = internal_in.remove(&bid).unwrap_or_default();
                debug_assert!(!incoming.is_empty(), "non-seed block with no internal preds");
                // Block predicate = OR of incoming edge predicates.
                let mut p = incoming[0].0;
                for &(ep, _) in &incoming[1..] {
                    p = Src::of(self.graph.pred_or(p, ep, hb));
                }
                pred[pos] = Some(p);
                // Merge environments with decoded muxes. Registers are
                // visited in sorted order: iterating the HashMap directly
                // would let the process-random hash seed pick the Mux
                // creation order, and node numbering must be a pure
                // function of the input (the waveform goldens diff it).
                let mut merged: HashMap<Reg, Src> = HashMap::default();
                let mut first_env: Vec<(Reg, Src)> =
                    env[incoming[0].1].iter().map(|(&r, &s)| (r, s)).collect();
                first_env.sort_unstable_by_key(|&(r, _)| r);
                'regs: for (r, first_src) in first_env {
                    let mut vals: Vec<(Src, Src)> = vec![(incoming[0].0, first_src)];
                    let mut all_same = true;
                    for &(ep, spos) in &incoming[1..] {
                        match env[spos].get(&r) {
                            Some(&s) => {
                                if s != first_src {
                                    all_same = false;
                                }
                                vals.push((ep, s));
                            }
                            None => continue 'regs, // not defined on all paths
                        }
                    }
                    if all_same {
                        merged.insert(r, first_src);
                    } else {
                        let ty = self.func.ty(r).clone();
                        let mux = self.graph.add_node(NodeKind::Mux { ty }, vals.len() * 2, hb);
                        for (i, (ep, v)) in vals.iter().enumerate() {
                            self.graph.connect(*ep, mux, (2 * i) as u16);
                            self.graph.connect(*v, mux, (2 * i + 1) as u16);
                        }
                        merged.insert(r, Src::of(mux));
                    }
                }
                env[pos] = merged;
            }
            let bpred = pred[pos].expect("block predicate just set");

            // Instructions.
            let blk = self.func.block(bid);
            for ins in &blk.instrs {
                self.lower_instr(ins, pos, &mut env, bpred, hb, bid, &mut mem_ops)?;
            }

            // Terminator: compute edge predicates.
            let mut edge = |builder: &mut Self, succ_idx: usize, target: BlockId, ep: Src| {
                if in_hb.contains(&target) && target != blocks[0] {
                    internal_in.entry(target).or_default().push((ep, pos));
                } else {
                    let th = builder.hbs.hb_of(target).expect("reachable target");
                    out_edges.push((pos, succ_idx, th, ep));
                }
            };
            match &blk.term {
                Terminator::Jump(t) => edge(self, 0, *t, bpred),
                Terminator::Branch { cond, then_bb, else_bb } => {
                    let c = lookup(&env[pos], *cond, bid)?;
                    let tp = self.make_and(bpred, c, hb);
                    let notc = Src::of(self.graph.pred_not(c, hb));
                    let ep = self.make_and(bpred, notc, hb);
                    edge(self, 0, *then_bb, tp);
                    edge(self, 1, *else_bb, ep);
                }
                Terminator::Ret(v) => {
                    let val = match v {
                        Some(r) => Some(lookup(&env[pos], *r, bid)?),
                        None => None,
                    };
                    returns.push((bpred, val));
                }
            }
        }

        // Token network (§3.3 + §3.4).
        let entry_token = Src::of(entry.token_in);
        let final_token = self.insert_tokens(&mem_ops, entry_token, &reach, &block_pos, hb);

        // Returns.
        for (p, v) in returns {
            let has_value = v.is_some();
            let ty = self.func.ret_ty.clone();
            let n = self.graph.add_node(
                NodeKind::Return { has_value, ty },
                if has_value { 3 } else { 2 },
                hb,
            );
            self.graph.connect(p, n, 0);
            self.graph.connect(final_token, n, 1);
            if let Some(v) = v {
                self.graph.connect(v, n, 2);
            }
        }

        // Out-edges: one eta per live-in register of the target + one token
        // eta, connected into the target's merges.
        for (pos, succ_idx, th, ep) in out_edges {
            let from_block = blocks[pos];
            let target_entry = &entries[th.index()];
            let slot = target_entry.edge_slot[&(from_block, succ_idx)];
            // Hyperblocks are created in reverse postorder of their seeds,
            // so an edge into an earlier (or the same) hyperblock is a
            // retreating edge — a loop back edge in a reducible CFG.
            let is_back = th.0 <= h.0;
            for &r in &target_entry.live_in {
                let v = lookup(&env[pos], r, from_block)?;
                let ty = self.func.ty(r).clone();
                let vc = if ty == Type::Bool { VClass::Pred } else { VClass::Data };
                let eta = self.graph.add_node(NodeKind::Eta { vc, ty }, 2, hb);
                self.graph.connect(v, eta, 0);
                self.graph.connect(ep, eta, 1);
                let m = target_entry.value_merges[&r];
                if is_back {
                    self.graph.connect_back(Src::of(eta), m, slot);
                } else {
                    self.graph.connect(Src::of(eta), m, slot);
                }
            }
            let teta =
                self.graph.add_node(NodeKind::Eta { vc: VClass::Token, ty: Type::Bool }, 2, hb);
            self.graph.connect(final_token, teta, 0);
            self.graph.connect(ep, teta, 1);
            if is_back {
                self.graph.connect_back(Src::of(teta), target_entry.token_in, slot);
            } else {
                self.graph.connect(Src::of(teta), target_entry.token_in, slot);
            }
            // Activation: one `true` per taken edge.
            let tconst = self.graph.const_bool(true, hb);
            let aeta =
                self.graph.add_node(NodeKind::Eta { vc: VClass::Pred, ty: Type::Bool }, 2, hb);
            self.graph.connect(Src::of(tconst), aeta, 0);
            self.graph.connect(ep, aeta, 1);
            let act_merge = target_entry.activation.node;
            if is_back {
                self.graph.connect_back(Src::of(aeta), act_merge, slot);
            } else {
                self.graph.connect(Src::of(aeta), act_merge, slot);
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_instr(
        &mut self,
        ins: &Instr,
        pos: usize,
        env: &mut [HashMap<Reg, Src>],
        bpred: Src,
        hb: u32,
        bid: BlockId,
        mem_ops: &mut Vec<MemOp>,
    ) -> Result<(), BuildError> {
        match ins {
            Instr::Const { dst, value } => {
                let ty = self.func.ty(*dst).clone();
                let n = self.graph.add_node(NodeKind::Const { value: *value, ty }, 0, hb);
                env[pos].insert(*dst, Src::of(n));
            }
            Instr::Copy { dst, src } => {
                let s = lookup(&env[pos], *src, bid)?;
                let dty = self.func.ty(*dst).clone();
                let sty = self.func.ty(*src).clone();
                if dty == sty {
                    env[pos].insert(*dst, s);
                } else {
                    let n = self.graph.add_node(NodeKind::Cast { ty: dty }, 1, hb);
                    self.graph.connect(s, n, 0);
                    env[pos].insert(*dst, Src::of(n));
                }
            }
            Instr::Un { dst, op, a } => {
                let s = lookup(&env[pos], *a, bid)?;
                let ty = self.func.ty(*dst).clone();
                let n = self.graph.add_node(NodeKind::UnOp { op: *op, ty }, 1, hb);
                self.graph.connect(s, n, 0);
                env[pos].insert(*dst, Src::of(n));
            }
            Instr::Bin { dst, op, a, b } => {
                let sa = lookup(&env[pos], *a, bid)?;
                let sb = lookup(&env[pos], *b, bid)?;
                // Comparisons keep their operand type so the evaluator
                // knows the signedness; their output class is still Pred.
                let ty = if op.is_comparison()
                    && !matches!(op, cfgir::types::BinOp::LAnd | cfgir::types::BinOp::LOr)
                {
                    self.func.ty(*a).clone()
                } else {
                    self.func.ty(*dst).clone()
                };
                let n = self.graph.add_node(NodeKind::BinOp { op: *op, ty }, 2, hb);
                self.graph.connect(sa, n, 0);
                self.graph.connect(sb, n, 1);
                env[pos].insert(*dst, Src::of(n));
            }
            Instr::Addr { dst, obj } => {
                let n = self.graph.add_node(NodeKind::Addr { obj: *obj }, 0, hb);
                env[pos].insert(*dst, Src::of(n));
            }
            Instr::Load { dst, addr, ty, may } => {
                let a = lookup(&env[pos], *addr, bid)?;
                let n =
                    self.graph.add_node(NodeKind::Load { ty: ty.clone(), may: may.clone() }, 3, hb);
                self.graph.connect(a, n, 0);
                self.graph.connect(bpred, n, 1);
                // Token (port 2) is connected by insert_tokens.
                env[pos].insert(*dst, Src::of(n));
                mem_ops.push(MemOp { node: n, block: bid, is_store: false });
            }
            Instr::Store { addr, value, ty, may } => {
                let a = lookup(&env[pos], *addr, bid)?;
                let v = lookup(&env[pos], *value, bid)?;
                let n = self.graph.add_node(
                    NodeKind::Store { ty: ty.clone(), may: may.clone() },
                    4,
                    hb,
                );
                self.graph.connect(a, n, 0);
                self.graph.connect(v, n, 1);
                self.graph.connect(bpred, n, 2);
                mem_ops.push(MemOp { node: n, block: bid, is_store: true });
            }
            Instr::Call { callee, .. } => {
                return Err(BuildError::CallNotInlined { callee: callee.clone() });
            }
        }
        Ok(())
    }

    /// `a & b`, folding the constant-true seed predicate.
    fn make_and(&mut self, a: Src, b: Src, hb: u32) -> Src {
        if let NodeKind::Const { value: 1, ty } = self.graph.kind(a.node) {
            if *ty == Type::Bool {
                return b;
            }
        }
        Src::of(self.graph.pred_and(a, b, hb))
    }

    /// Reachability among the hyperblock's blocks, indexed by position.
    fn internal_reachability(
        &self,
        blocks: &[BlockId],
        in_hb: &fxmap::HashSet<BlockId>,
    ) -> Vec<Vec<bool>> {
        let n = blocks.len();
        let pos: HashMap<BlockId, usize> =
            blocks.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        let mut reach = vec![vec![false; n]; n];
        // Blocks are in RPO: propagate backwards.
        for i in (0..n).rev() {
            for s in self.func.block(blocks[i]).term.successors() {
                if in_hb.contains(&s) && s != blocks[0] {
                    let j = pos[&s];
                    reach[i][j] = true;
                    let row = reach[j].clone();
                    for (dst, r) in reach[i].iter_mut().zip(row) {
                        *dst |= r;
                    }
                }
            }
        }
        reach
    }

    /// §3.3 token insertion with §3.4 transitive reduction, returning the
    /// hyperblock's final token (the combine of all dependence-chain tails).
    fn insert_tokens(
        &mut self,
        mem_ops: &[MemOp],
        entry_token: Src,
        reach: &[Vec<bool>],
        block_pos: &HashMap<BlockId, usize>,
        hb: u32,
    ) -> Src {
        let n = mem_ops.len();
        if n == 0 {
            return entry_token;
        }
        // deps[i] = set of earlier ops i directly depends on.
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        // closure[i] = all earlier ops reachable through deps.
        let mut closure: Vec<Vec<bool>> = vec![vec![false; n]; n];
        for i in 0..n {
            let oi = &mem_ops[i];
            let pi = block_pos[&oi.block];
            // Walk candidates from nearest to farthest so the transitive
            // reduction keeps only frontier edges.
            for j in (0..i).rev() {
                let oj = &mem_ops[j];
                // Two reads always commute.
                if !oi.is_store && !oj.is_store {
                    continue;
                }
                // Must lie on a control-flow path.
                let pj = block_pos[&oj.block];
                let on_path = pj == pi || reach[pj][pi];
                if !on_path {
                    continue;
                }
                // Read/write sets must overlap (when enabled).
                if self.options.use_rw_sets {
                    let mi = self.graph.kind(oi.node).may_set().expect("memory op");
                    let mj = self.graph.kind(oj.node).may_set().expect("memory op");
                    if !self.oracle.sets_overlap(mi, mj) {
                        continue;
                    }
                }
                // Transitive reduction: skip if already reachable.
                if closure[i][j] {
                    continue;
                }
                deps[i].push(j);
                closure[i][j] = true;
                let reachable: Vec<usize> =
                    (0..j + 1).filter(|&k| closure[j][k] || k == j).collect();
                for k in reachable {
                    closure[i][k] = true;
                }
            }
        }
        // Wire tokens.
        let token_out = |op: &MemOp| {
            if op.is_store {
                Src::of(op.node)
            } else {
                Src::token_of_load(op.node)
            }
        };
        let token_in_port = |op: &MemOp| if op.is_store { 3 } else { 2 };
        for i in 0..n {
            let srcs: Vec<Src> = if deps[i].is_empty() {
                vec![entry_token]
            } else {
                deps[i].iter().map(|&j| token_out(&mem_ops[j])).collect()
            };
            let tok = self.combine(srcs, hb);
            self.graph.connect(tok, mem_ops[i].node, token_in_port(&mem_ops[i]));
        }
        // Tails: ops nothing else depends on.
        let mut is_tail = vec![true; n];
        for d in &deps {
            for &j in d {
                is_tail[j] = false;
            }
        }
        let tails: Vec<Src> =
            (0..n).filter(|&i| is_tail[i]).map(|i| token_out(&mem_ops[i])).collect();
        self.combine(tails, hb)
    }

    /// A combine node over `srcs` (or the single source unwrapped).
    fn combine(&mut self, srcs: Vec<Src>, hb: u32) -> Src {
        debug_assert!(!srcs.is_empty());
        if srcs.len() == 1 {
            return srcs[0];
        }
        let c = self.graph.add_node(NodeKind::Combine, srcs.len(), hb);
        for (i, s) in srcs.into_iter().enumerate() {
            self.graph.connect(s, c, i as u16);
        }
        Src::of(c)
    }
}

fn lookup(env: &HashMap<Reg, Src>, r: Reg, block: BlockId) -> Result<Src, BuildError> {
    env.get(&r).copied().ok_or(BuildError::UndefinedValue { reg: r, block })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfgir::Module;

    // The pegasus crate cannot depend on minic (dependency direction), so
    // these tests hand-construct small CFGs; end-to-end source-level tests
    // live in the `cash` core crate and the integration suite.

    use cfgir::func::{Function, Instr, Terminator};
    use cfgir::objects::{MemObject, ObjectSet};
    use cfgir::types::{BinOp, Type};

    /// store a[0] = 1; v = load a[0]; return v
    fn straightline_mem() -> (Module, Function) {
        let mut m = Module::new();
        let oa = m.add_object(MemObject::global("a", Type::int(32), 4));
        let mut f = Function::new("f", Type::int(32));
        let base = f.new_reg(Type::ptr(Type::int(32)));
        let one = f.new_reg(Type::int(32));
        let v = f.new_reg(Type::int(32));
        let e = BlockId::ENTRY;
        f.block_mut(e).instrs.push(Instr::Addr { dst: base, obj: oa });
        f.block_mut(e).instrs.push(Instr::Const { dst: one, value: 1 });
        f.block_mut(e).instrs.push(Instr::Store {
            addr: base,
            value: one,
            ty: Type::int(32),
            may: ObjectSet::only(oa),
        });
        f.block_mut(e).instrs.push(Instr::Load {
            dst: v,
            addr: base,
            ty: Type::int(32),
            may: ObjectSet::only(oa),
        });
        f.block_mut(e).term = Terminator::Ret(Some(v));
        (m, f)
    }

    #[test]
    fn straightline_tokens_chain_store_to_load() {
        let (m, f) = straightline_mem();
        let oracle = AliasOracle::new(&m);
        let g = build(&f, &oracle, &BuildOptions::default()).unwrap();
        // Find the load and the store.
        let mut load = None;
        let mut store = None;
        for id in g.live_ids() {
            match g.kind(id) {
                NodeKind::Load { .. } => load = Some(id),
                NodeKind::Store { .. } => store = Some(id),
                _ => {}
            }
        }
        let (load, store) = (load.unwrap(), store.unwrap());
        // Load's token input comes from the store's token output.
        let tok = g.input(load, 2).unwrap();
        assert_eq!(tok.src, Src::of(store));
        // Store's token input is the initial token.
        let stok = g.input(store, 3).unwrap();
        assert!(matches!(g.kind(stok.src.node), NodeKind::InitialToken));
        // Return exists and is wired to the load's token.
        let ret = g.live_ids().find(|&id| matches!(g.kind(id), NodeKind::Return { .. })).unwrap();
        assert_eq!(g.input(ret, 1).unwrap().src, Src::token_of_load(load));
    }

    /// Two loads never get a token edge between them (reads commute).
    #[test]
    fn two_loads_commute() {
        let mut m = Module::new();
        let oa = m.add_object(MemObject::global("a", Type::int(32), 4));
        let mut f = Function::new("f", Type::int(32));
        let base = f.new_reg(Type::ptr(Type::int(32)));
        let v1 = f.new_reg(Type::int(32));
        let v2 = f.new_reg(Type::int(32));
        let s = f.new_reg(Type::int(32));
        let e = BlockId::ENTRY;
        f.block_mut(e).instrs.push(Instr::Addr { dst: base, obj: oa });
        for v in [v1, v2] {
            f.block_mut(e).instrs.push(Instr::Load {
                dst: v,
                addr: base,
                ty: Type::int(32),
                may: ObjectSet::only(oa),
            });
        }
        f.block_mut(e).instrs.push(Instr::Bin { dst: s, op: BinOp::Add, a: v1, b: v2 });
        f.block_mut(e).term = Terminator::Ret(Some(s));
        let oracle = AliasOracle::new(&m);
        let g = build(&f, &oracle, &BuildOptions::default()).unwrap();
        let loads: Vec<NodeId> =
            g.live_ids().filter(|&id| matches!(g.kind(id), NodeKind::Load { .. })).collect();
        assert_eq!(loads.len(), 2);
        // Both read the initial token directly.
        for l in loads {
            let t = g.input(l, 2).unwrap();
            assert!(matches!(g.kind(t.src.node), NodeKind::InitialToken));
        }
        // Final token for the return is a combine of the two load tokens.
        let ret = g.live_ids().find(|&id| matches!(g.kind(id), NodeKind::Return { .. })).unwrap();
        let ft = g.input(ret, 1).unwrap();
        assert!(matches!(g.kind(ft.src.node), NodeKind::Combine));
    }

    /// Disjoint objects with rw-sets on: no serialization. With rw-sets off:
    /// serialized.
    #[test]
    fn rw_sets_gate_token_insertion() {
        let mut m = Module::new();
        let oa = m.add_object(MemObject::global("a", Type::int(32), 4));
        let ob = m.add_object(MemObject::global("b", Type::int(32), 4));
        let mut f = Function::new("f", Type::Void);
        let pa = f.new_reg(Type::ptr(Type::int(32)));
        let pb = f.new_reg(Type::ptr(Type::int(32)));
        let c = f.new_reg(Type::int(32));
        let e = BlockId::ENTRY;
        f.block_mut(e).instrs.push(Instr::Addr { dst: pa, obj: oa });
        f.block_mut(e).instrs.push(Instr::Addr { dst: pb, obj: ob });
        f.block_mut(e).instrs.push(Instr::Const { dst: c, value: 7 });
        f.block_mut(e).instrs.push(Instr::Store {
            addr: pa,
            value: c,
            ty: Type::int(32),
            may: ObjectSet::only(oa),
        });
        f.block_mut(e).instrs.push(Instr::Store {
            addr: pb,
            value: c,
            ty: Type::int(32),
            may: ObjectSet::only(ob),
        });
        f.block_mut(e).term = Terminator::Ret(None);
        let oracle = AliasOracle::new(&m);

        let g = build(&f, &oracle, &BuildOptions { use_rw_sets: true }).unwrap();
        let stores: Vec<NodeId> =
            g.live_ids().filter(|&id| matches!(g.kind(id), NodeKind::Store { .. })).collect();
        for s in &stores {
            let t = g.input(*s, 3).unwrap();
            assert!(
                matches!(g.kind(t.src.node), NodeKind::InitialToken),
                "independent stores must both hang off the initial token"
            );
        }

        let g = build(&f, &oracle, &BuildOptions { use_rw_sets: false }).unwrap();
        let stores: Vec<NodeId> =
            g.live_ids().filter(|&id| matches!(g.kind(id), NodeKind::Store { .. })).collect();
        let serialized = stores.iter().any(|&s| {
            let t = g.input(s, 3).unwrap();
            stores.contains(&t.src.node)
        });
        assert!(serialized, "coarse mode must serialize the stores");
    }

    /// A loop produces merges with back edges and etas.
    #[test]
    fn loop_builds_merge_eta_cycle() {
        // i = 0; while (i < 10) i = i + 1; return i
        let m = Module::new();
        let mut f = Function::new("f", Type::int(32));
        let i = f.new_reg(Type::int(32));
        let ten = f.new_reg(Type::int(32));
        let c = f.new_reg(Type::Bool);
        let one = f.new_reg(Type::int(32));
        let head = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let e = BlockId::ENTRY;
        f.block_mut(e).instrs.push(Instr::Const { dst: i, value: 0 });
        f.block_mut(e).term = Terminator::Jump(head);
        f.block_mut(head).instrs.push(Instr::Const { dst: ten, value: 10 });
        f.block_mut(head).instrs.push(Instr::Bin { dst: c, op: BinOp::Lt, a: i, b: ten });
        f.block_mut(head).term = Terminator::Branch { cond: c, then_bb: body, else_bb: exit };
        f.block_mut(body).instrs.push(Instr::Const { dst: one, value: 1 });
        f.block_mut(body).instrs.push(Instr::Bin { dst: i, op: BinOp::Add, a: i, b: one });
        f.block_mut(body).term = Terminator::Jump(head);
        f.block_mut(exit).term = Terminator::Ret(Some(i));

        let oracle = AliasOracle::new(&m);
        let g = build(&f, &oracle, &BuildOptions::default()).unwrap();
        // There is at least one merge with a back-edge input.
        let back_merges = g
            .live_ids()
            .filter(|&id| {
                matches!(g.kind(id), NodeKind::Merge { .. })
                    && (0..g.num_inputs(id))
                        .any(|p| g.input(id, p as u16).map(|i| i.back).unwrap_or(false))
            })
            .count();
        assert!(back_merges >= 2, "value + token merges with back edges, got {back_merges}");
        // Eta nodes exist (loop steering).
        assert!(g.live_ids().any(|id| matches!(g.kind(id), NodeKind::Eta { .. })));
        // Some hyperblock is marked as a loop.
        assert!(g.hb_is_loop.iter().any(|&b| b));
    }

    /// A diamond produces a decoded mux for the merged value.
    #[test]
    fn diamond_produces_mux() {
        // if (p) x = 1; else x = 2; return x
        let m = Module::new();
        let mut f = Function::new("f", Type::int(32));
        let p = f.add_param(Type::int(32), "p");
        let c = f.new_reg(Type::Bool);
        let z = f.new_reg(Type::int(32));
        let x = f.new_reg(Type::int(32));
        let t = f.add_block();
        let el = f.add_block();
        let j = f.add_block();
        let e = BlockId::ENTRY;
        f.block_mut(e).instrs.push(Instr::Const { dst: z, value: 0 });
        f.block_mut(e).instrs.push(Instr::Bin { dst: c, op: BinOp::Ne, a: p, b: z });
        f.block_mut(e).term = Terminator::Branch { cond: c, then_bb: t, else_bb: el };
        f.block_mut(t).instrs.push(Instr::Const { dst: x, value: 1 });
        f.block_mut(t).term = Terminator::Jump(j);
        f.block_mut(el).instrs.push(Instr::Const { dst: x, value: 2 });
        f.block_mut(el).term = Terminator::Jump(j);
        f.block_mut(j).term = Terminator::Ret(Some(x));
        let oracle = AliasOracle::new(&m);
        let g = build(&f, &oracle, &BuildOptions::default()).unwrap();
        let muxes = g.live_ids().filter(|&id| matches!(g.kind(id), NodeKind::Mux { .. })).count();
        assert_eq!(muxes, 1);
        // Whole thing is a single hyperblock: no merges, no etas.
        assert!(!g.live_ids().any(|id| matches!(g.kind(id), NodeKind::Merge { .. })));
    }

    #[test]
    fn call_is_rejected() {
        let m = Module::new();
        let mut f = Function::new("f", Type::Void);
        f.block_mut(BlockId::ENTRY).instrs.push(Instr::Call {
            dst: None,
            callee: "g".into(),
            args: vec![],
        });
        let oracle = AliasOracle::new(&m);
        let err = build(&f, &oracle, &BuildOptions::default()).unwrap_err();
        assert!(matches!(err, BuildError::CallNotInlined { .. }));
    }
}
