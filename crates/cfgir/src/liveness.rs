//! Backward register liveness analysis.

use crate::func::{BlockId, Function, Terminator};
use crate::Reg;
use fxmap::HashSet;

/// Per-block live-in/live-out register sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Registers live on entry to each block.
    pub live_in: Vec<HashSet<Reg>>,
    /// Registers live on exit from each block.
    pub live_out: Vec<HashSet<Reg>>,
}

impl Liveness {
    /// Computes liveness for `f` with the usual backward fixpoint.
    pub fn compute(f: &Function) -> Self {
        let n = f.num_blocks();
        let mut live_in: Vec<HashSet<Reg>> = vec![HashSet::default(); n];
        let mut live_out: Vec<HashSet<Reg>> = vec![HashSet::default(); n];
        let mut changed = true;
        while changed {
            changed = false;
            // Reverse RPO ≈ postorder gives fast convergence.
            for &b in f.reverse_postorder().iter().rev() {
                let blk = f.block(b);
                let mut out: HashSet<Reg> = HashSet::default();
                for s in blk.term.successors() {
                    out.extend(live_in[s.index()].iter().copied());
                }
                let mut inn = out.clone();
                // Terminator uses.
                match &blk.term {
                    Terminator::Branch { cond, .. } => {
                        inn.insert(*cond);
                    }
                    Terminator::Ret(Some(r)) => {
                        inn.insert(*r);
                    }
                    _ => {}
                }
                for ins in blk.instrs.iter().rev() {
                    if let Some(d) = ins.dst() {
                        inn.remove(&d);
                    }
                    for u in ins.uses() {
                        inn.insert(u);
                    }
                }
                if inn != live_in[b.index()] {
                    live_in[b.index()] = inn;
                    changed = true;
                }
                live_out[b.index()] = out;
            }
        }
        Liveness { live_in, live_out }
    }

    /// Registers live on entry to `b`, sorted for determinism.
    pub fn live_in_sorted(&self, b: BlockId) -> Vec<Reg> {
        let mut v: Vec<Reg> = self.live_in[b.index()].iter().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Instr, Terminator};
    use crate::types::{BinOp, Type};

    #[test]
    fn loop_carried_value_is_live_at_header() {
        // entry: i = 0; jump head
        // head: c = i < n; br c body exit
        // body: i = i + 1; jump head
        // exit: ret i
        let mut f = Function::new("l", Type::int(32));
        let n = f.add_param(Type::int(32), "n");
        let i = f.new_reg(Type::int(32));
        let c = f.new_reg(Type::Bool);
        let one = f.new_reg(Type::int(32));
        let head = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        f.block_mut(BlockId::ENTRY).instrs.push(Instr::Const { dst: i, value: 0 });
        f.block_mut(BlockId::ENTRY).term = Terminator::Jump(head);
        f.block_mut(head).instrs.push(Instr::Bin { dst: c, op: BinOp::Lt, a: i, b: n });
        f.block_mut(head).term = Terminator::Branch { cond: c, then_bb: body, else_bb: exit };
        f.block_mut(body).instrs.push(Instr::Const { dst: one, value: 1 });
        f.block_mut(body).instrs.push(Instr::Bin { dst: i, op: BinOp::Add, a: i, b: one });
        f.block_mut(body).term = Terminator::Jump(head);
        f.block_mut(exit).term = Terminator::Ret(Some(i));

        let lv = Liveness::compute(&f);
        assert!(lv.live_in[head.index()].contains(&i));
        assert!(lv.live_in[head.index()].contains(&n));
        assert!(lv.live_in[body.index()].contains(&i));
        // `one` is block-local.
        assert!(!lv.live_in[body.index()].contains(&one));
        // `c` is consumed by head's branch, dead on entry to body.
        assert!(!lv.live_in[body.index()].contains(&c));
        assert!(lv.live_in[exit.index()].contains(&i));
        // Entry needs only the parameter.
        assert!(!lv.live_in[BlockId::ENTRY.index()].contains(&i));
    }

    #[test]
    fn straightline_def_kills_liveness() {
        let mut f = Function::new("s", Type::int(32));
        let a = f.new_reg(Type::int(32));
        let b = f.new_reg(Type::int(32));
        f.block_mut(BlockId::ENTRY).instrs.push(Instr::Const { dst: a, value: 1 });
        f.block_mut(BlockId::ENTRY).instrs.push(Instr::Copy { dst: b, src: a });
        f.block_mut(BlockId::ENTRY).term = Terminator::Ret(Some(b));
        let lv = Liveness::compute(&f);
        assert!(lv.live_in[0].is_empty());
        assert!(lv.live_out[0].is_empty());
    }
}
