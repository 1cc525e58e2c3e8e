//! Natural-loop discovery from back edges.

use crate::dom::DomTree;
use crate::func::{BlockId, Function};
use fxmap::HashSet;

/// One natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header (the target of its back edges).
    pub header: BlockId,
    /// All blocks in the loop body, including the header.
    pub body: HashSet<BlockId>,
    /// The sources of back edges (latches).
    pub latches: Vec<BlockId>,
    /// Blocks inside the loop with a successor outside it.
    pub exiting: Vec<BlockId>,
    /// Depth (1 = outermost).
    pub depth: usize,
    /// Index of the enclosing loop in the forest, if any.
    pub parent: Option<usize>,
}

impl Loop {
    /// Is `b` inside this loop?
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.contains(&b)
    }
}

/// All natural loops of a function, with nesting information.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// The loops; outer loops appear before the loops they contain.
    pub loops: Vec<Loop>,
    /// For each block: index of its innermost containing loop, if any.
    pub innermost: Vec<Option<usize>>,
}

impl LoopForest {
    /// Finds every natural loop of `f`.
    ///
    /// Irreducible control flow (a cycle whose entry does not dominate its
    /// other blocks) does not arise from the structured frontend, but if it
    /// did, its back-edge-less cycles are simply not reported as loops.
    pub fn build(f: &Function, dom: &DomTree) -> Self {
        let mut loops: Vec<Loop> = Vec::new();
        let preds = f.predecessors();
        // Find back edges: edge (n -> h) where h dominates n.
        for b in &f.blocks {
            for s in b.term.successors() {
                if dom.dominates(s, b.id) {
                    // b -> s is a back edge with header s.
                    if let Some(l) = loops.iter_mut().find(|l| l.header == s) {
                        l.latches.push(b.id);
                    } else {
                        loops.push(Loop {
                            header: s,
                            body: HashSet::default(),
                            latches: vec![b.id],
                            exiting: Vec::new(),
                            depth: 0,
                            parent: None,
                        });
                    }
                }
            }
        }
        // Compute each loop's body by walking predecessors from the latches.
        for l in &mut loops {
            l.body.insert(l.header);
            let mut stack: Vec<BlockId> = l.latches.clone();
            while let Some(b) = stack.pop() {
                if l.body.insert(b) {
                    // continue below
                }
                for &p in &preds[b.index()] {
                    if !l.body.contains(&p) {
                        l.body.insert(p);
                        stack.push(p);
                    }
                }
            }
            // Exiting blocks.
            for &b in &l.body {
                if f.block(b).term.successors().iter().any(|s| !l.body.contains(s)) {
                    l.exiting.push(b);
                }
            }
            l.exiting.sort_unstable();
        }
        // Sort outer loops first (bigger bodies first); compute nesting.
        loops.sort_by_key(|l| std::cmp::Reverse(l.body.len()));
        let n = loops.len();
        for i in 0..n {
            let mut parent: Option<usize> = None;
            for j in 0..i {
                if i != j
                    && loops[j].body.len() > loops[i].body.len()
                    && loops[j].body.contains(&loops[i].header)
                    && loops[i].body.iter().all(|b| loops[j].body.contains(b))
                {
                    // Innermost enclosing loop: the smallest superset, i.e.
                    // the latest j in our size-sorted order.
                    parent = Some(j);
                }
            }
            loops[i].parent = parent;
            loops[i].depth = match parent {
                Some(p) => loops[p].depth + 1,
                None => 1,
            };
        }
        // Innermost loop per block: smallest containing body.
        let mut innermost = vec![None; f.num_blocks()];
        for (idx, l) in loops.iter().enumerate() {
            for &b in &l.body {
                match innermost[b.index()] {
                    None => innermost[b.index()] = Some(idx),
                    Some(cur) => {
                        if l.body.len() < loops[cur].body.len() {
                            innermost[b.index()] = Some(idx);
                        }
                    }
                }
            }
        }
        LoopForest { loops, innermost }
    }

    /// The innermost loop containing `b`, if any.
    pub fn loop_of(&self, b: BlockId) -> Option<&Loop> {
        self.innermost.get(b.index()).copied().flatten().map(|i| &self.loops[i])
    }

    /// Is `b` a loop header?
    pub fn is_header(&self, b: BlockId) -> bool {
        self.loops.iter().any(|l| l.header == b)
    }

    /// Number of loops found.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Are there no loops?
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Function, Terminator};
    use crate::types::Type;

    /// entry → h; h → body | exit; body → h
    fn while_loop() -> Function {
        let mut f = Function::new("w", Type::Void);
        let c = f.new_reg(Type::Bool);
        let h = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        f.block_mut(BlockId::ENTRY).term = Terminator::Jump(h);
        f.block_mut(h).term = Terminator::Branch { cond: c, then_bb: body, else_bb: exit };
        f.block_mut(body).term = Terminator::Jump(h);
        f
    }

    /// Nested: entry → oh; oh → ih | exit; ih → ibody | oh_latch; ibody → ih;
    /// oh_latch → oh
    fn nested_loops() -> Function {
        let mut f = Function::new("n", Type::Void);
        let c = f.new_reg(Type::Bool);
        let oh = f.add_block(); // 1 outer header
        let ih = f.add_block(); // 2 inner header
        let ibody = f.add_block(); // 3
        let olatch = f.add_block(); // 4
        let exit = f.add_block(); // 5
        f.block_mut(BlockId::ENTRY).term = Terminator::Jump(oh);
        f.block_mut(oh).term = Terminator::Branch { cond: c, then_bb: ih, else_bb: exit };
        f.block_mut(ih).term = Terminator::Branch { cond: c, then_bb: ibody, else_bb: olatch };
        f.block_mut(ibody).term = Terminator::Jump(ih);
        f.block_mut(olatch).term = Terminator::Jump(oh);
        f
    }

    #[test]
    fn finds_while_loop() {
        let f = while_loop();
        let dom = DomTree::build(&f);
        let lf = LoopForest::build(&f, &dom);
        assert_eq!(lf.len(), 1);
        let l = &lf.loops[0];
        assert_eq!(l.header, BlockId(1));
        assert!(l.contains(BlockId(2)));
        assert!(!l.contains(BlockId(3)));
        assert_eq!(l.latches, vec![BlockId(2)]);
        assert_eq!(l.exiting, vec![BlockId(1)]);
        assert_eq!(l.depth, 1);
    }

    #[test]
    fn finds_nested_loops_with_depths() {
        let f = nested_loops();
        let dom = DomTree::build(&f);
        let lf = LoopForest::build(&f, &dom);
        assert_eq!(lf.len(), 2);
        let outer = lf.loops.iter().find(|l| l.header == BlockId(1)).unwrap();
        let inner = lf.loops.iter().find(|l| l.header == BlockId(2)).unwrap();
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert!(outer.body.len() > inner.body.len());
        // Inner body blocks report the inner loop as innermost.
        let l = lf.loop_of(BlockId(3)).unwrap();
        assert_eq!(l.header, BlockId(2));
        // The outer latch is only in the outer loop.
        let l = lf.loop_of(BlockId(4)).unwrap();
        assert_eq!(l.header, BlockId(1));
    }

    #[test]
    fn straightline_has_no_loops() {
        let f = Function::new("s", Type::Void);
        let dom = DomTree::build(&f);
        let lf = LoopForest::build(&f, &dom);
        assert!(lf.is_empty());
        assert!(lf.loop_of(BlockId::ENTRY).is_none());
    }
}
