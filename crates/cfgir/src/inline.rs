//! Procedure inlining.
//!
//! Spatial computation instantiates every operation in hardware; the CASH
//! pipeline therefore flattens the (acyclic) call tree of the program under
//! compilation into one function before building Pegasus. Recursive programs
//! are rejected — ASH has no stack to spill a recursive frame to.

use crate::func::{BlockId, Function, Instr, Reg, Terminator};
use crate::Module;
use fxmap::{HashMap, HashSet};
use std::fmt;

/// Errors produced while flattening the call tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InlineError {
    /// A called function is not defined in the module.
    UnknownFunction(String),
    /// The call graph reachable from the entry contains a cycle.
    Recursive(String),
    /// Argument count mismatch at a call site.
    ArityMismatch { callee: String, expected: usize, got: usize },
}

impl fmt::Display for InlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InlineError::UnknownFunction(n) => write!(f, "call to undefined function `{n}`"),
            InlineError::Recursive(n) => {
                write!(f, "recursive call involving `{n}` cannot be spatially instantiated")
            }
            InlineError::ArityMismatch { callee, expected, got } => {
                write!(f, "call to `{callee}` passes {got} arguments, expected {expected}")
            }
        }
    }
}

impl std::error::Error for InlineError {}

/// Returns a copy of `entry` with every reachable call inlined.
///
/// # Errors
///
/// Fails if a callee is undefined, if the reachable call graph is recursive,
/// or if a call site's arity disagrees with the callee.
pub fn inline_all(module: &Module, entry: &str) -> Result<Function, InlineError> {
    let _sp = obs::span::enter("cfg.inline");
    let f =
        module.function(entry).ok_or_else(|| InlineError::UnknownFunction(entry.to_string()))?;
    check_acyclic(module, entry)?;
    let mut out = f.clone();
    // Keep inlining the first remaining call; acyclicity bounds this.
    loop {
        let Some((bid, pos)) = find_call(&out) else {
            return Ok(out);
        };
        inline_one(module, &mut out, bid, pos)?;
    }
}

fn find_call(f: &Function) -> Option<(BlockId, usize)> {
    for b in &f.blocks {
        for (i, ins) in b.instrs.iter().enumerate() {
            if matches!(ins, Instr::Call { .. }) {
                return Some((b.id, i));
            }
        }
    }
    None
}

fn check_acyclic(module: &Module, entry: &str) -> Result<(), InlineError> {
    fn visit(
        module: &Module,
        name: &str,
        open: &mut HashSet<String>,
        done: &mut HashSet<String>,
    ) -> Result<(), InlineError> {
        if done.contains(name) {
            return Ok(());
        }
        if !open.insert(name.to_string()) {
            return Err(InlineError::Recursive(name.to_string()));
        }
        let f =
            module.function(name).ok_or_else(|| InlineError::UnknownFunction(name.to_string()))?;
        for b in &f.blocks {
            for ins in &b.instrs {
                if let Instr::Call { callee, .. } = ins {
                    visit(module, callee, open, done)?;
                }
            }
        }
        open.remove(name);
        done.insert(name.to_string());
        Ok(())
    }
    visit(module, entry, &mut HashSet::default(), &mut HashSet::default())
}

/// Inlines the call at `(bid, pos)` in `f`.
fn inline_one(
    module: &Module,
    f: &mut Function,
    bid: BlockId,
    pos: usize,
) -> Result<(), InlineError> {
    let (dst, callee_name, args) = match &f.block(bid).instrs[pos] {
        Instr::Call { dst, callee, args } => (*dst, callee.clone(), args.clone()),
        _ => unreachable!("inline_one called on a non-call"),
    };
    let callee = module
        .function(&callee_name)
        .ok_or_else(|| InlineError::UnknownFunction(callee_name.clone()))?
        .clone();
    if callee.params.len() != args.len() {
        return Err(InlineError::ArityMismatch {
            callee: callee_name,
            expected: callee.params.len(),
            got: args.len(),
        });
    }

    // Map callee registers into fresh caller registers.
    let mut reg_map: HashMap<Reg, Reg> = HashMap::default();
    for (i, ty) in callee.reg_ty.iter().enumerate() {
        let nr = f.new_reg(ty.clone());
        if let Some(n) = &callee.reg_name[i] {
            f.reg_name[nr.0 as usize] = Some(format!("{}::{}", callee.name, n));
        }
        reg_map.insert(Reg(i as u32), nr);
    }

    // Split the caller block: everything after the call moves to `cont`.
    let cont = f.add_block();
    {
        let blk = f.block_mut(bid);
        let tail: Vec<Instr> = blk.instrs.split_off(pos + 1);
        blk.instrs.pop(); // remove the call itself
        let term = std::mem::replace(&mut blk.term, Terminator::Ret(None));
        let cblk = f.block_mut(cont);
        cblk.instrs = tail;
        cblk.term = term;
    }

    // Copy callee blocks with remapped registers and block ids.
    let block_base = f.blocks.len() as u32;
    let map_block = |b: BlockId| BlockId(b.0 + block_base);
    for cb in &callee.blocks {
        let nb = f.add_block();
        debug_assert_eq!(nb, map_block(cb.id));
        let mut instrs = Vec::with_capacity(cb.instrs.len());
        for ins in &cb.instrs {
            let mut ni = ins.clone();
            ni.map_uses(&mut |r| reg_map[&r]);
            // Remap destinations too.
            match &mut ni {
                Instr::Const { dst, .. }
                | Instr::Copy { dst, .. }
                | Instr::Un { dst, .. }
                | Instr::Bin { dst, .. }
                | Instr::Addr { dst, .. }
                | Instr::Load { dst, .. } => *dst = reg_map[dst],
                Instr::Call { dst: Some(d), .. } => *d = reg_map[d],
                Instr::Call { dst: None, .. } | Instr::Store { .. } => {}
            }
            instrs.push(ni);
        }
        let term = match &cb.term {
            Terminator::Jump(t) => Terminator::Jump(map_block(*t)),
            Terminator::Branch { cond, then_bb, else_bb } => Terminator::Branch {
                cond: reg_map[cond],
                then_bb: map_block(*then_bb),
                else_bb: map_block(*else_bb),
            },
            Terminator::Ret(v) => {
                // Return becomes: copy value into dst (if any), jump to cont.
                let blk_id = nb;
                if let (Some(d), Some(v)) = (dst, v) {
                    let _ = blk_id;
                    instrs.push(Instr::Copy { dst: d, src: reg_map[v] });
                }
                Terminator::Jump(cont)
            }
        };
        let blk = f.block_mut(nb);
        blk.instrs = instrs;
        blk.term = term;
    }

    // Bind arguments, then enter the inlined body.
    {
        let mut binds = Vec::new();
        for (p, a) in callee.params.iter().zip(args.iter()) {
            binds.push(Instr::Copy { dst: reg_map[p], src: *a });
        }
        let blk = f.block_mut(bid);
        blk.instrs.extend(binds);
        blk.term = Terminator::Jump(map_block(BlockId::ENTRY));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BinOp, Type};

    /// callee: add1(x) { return x + 1; }
    fn add1() -> Function {
        let mut f = Function::new("add1", Type::int(32));
        let x = f.add_param(Type::int(32), "x");
        let one = f.new_reg(Type::int(32));
        let r = f.new_reg(Type::int(32));
        let e = BlockId::ENTRY;
        f.block_mut(e).instrs.push(Instr::Const { dst: one, value: 1 });
        f.block_mut(e).instrs.push(Instr::Bin { dst: r, op: BinOp::Add, a: x, b: one });
        f.block_mut(e).term = Terminator::Ret(Some(r));
        f
    }

    /// caller: main() { return add1(41); }
    fn caller() -> Function {
        let mut f = Function::new("main", Type::int(32));
        let a = f.new_reg(Type::int(32));
        let r = f.new_reg(Type::int(32));
        let e = BlockId::ENTRY;
        f.block_mut(e).instrs.push(Instr::Const { dst: a, value: 41 });
        f.block_mut(e).instrs.push(Instr::Call {
            dst: Some(r),
            callee: "add1".into(),
            args: vec![a],
        });
        f.block_mut(e).term = Terminator::Ret(Some(r));
        f
    }

    #[test]
    fn inlines_simple_call() {
        let mut m = Module::new();
        m.functions.push(add1());
        m.functions.push(caller());
        let flat = inline_all(&m, "main").unwrap();
        assert!(find_call(&flat).is_none());
        // The flattened function still returns through a continuation block.
        assert!(flat.num_blocks() >= 2);
    }

    #[test]
    fn rejects_recursion() {
        let mut m = Module::new();
        let mut f = Function::new("r", Type::Void);
        f.block_mut(BlockId::ENTRY).instrs.push(Instr::Call {
            dst: None,
            callee: "r".into(),
            args: vec![],
        });
        m.functions.push(f);
        assert!(matches!(
            inline_all(&m, "r"),
            Err(InlineError::Recursive(n)) if n == "r"
        ));
    }

    #[test]
    fn rejects_unknown_callee() {
        let mut m = Module::new();
        let mut f = Function::new("main", Type::Void);
        f.block_mut(BlockId::ENTRY).instrs.push(Instr::Call {
            dst: None,
            callee: "ghost".into(),
            args: vec![],
        });
        m.functions.push(f);
        assert!(matches!(
            inline_all(&m, "main"),
            Err(InlineError::UnknownFunction(n)) if n == "ghost"
        ));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let mut m = Module::new();
        m.functions.push(add1());
        let mut f = Function::new("main", Type::Void);
        f.block_mut(BlockId::ENTRY).instrs.push(Instr::Call {
            dst: None,
            callee: "add1".into(),
            args: vec![],
        });
        m.functions.push(f);
        assert!(matches!(
            inline_all(&m, "main"),
            Err(InlineError::ArityMismatch { expected: 1, got: 0, .. })
        ));
    }

    #[test]
    fn nested_inlining_terminates() {
        // main -> f -> g, both single-call chains.
        let mut m = Module::new();
        let mut g = Function::new("g", Type::Void);
        g.block_mut(BlockId::ENTRY).term = Terminator::Ret(None);
        let mut f = Function::new("f", Type::Void);
        f.block_mut(BlockId::ENTRY).instrs.push(Instr::Call {
            dst: None,
            callee: "g".into(),
            args: vec![],
        });
        let mut main = Function::new("main", Type::Void);
        main.block_mut(BlockId::ENTRY).instrs.push(Instr::Call {
            dst: None,
            callee: "f".into(),
            args: vec![],
        });
        m.functions.push(g);
        m.functions.push(f);
        m.functions.push(main);
        let flat = inline_all(&m, "main").unwrap();
        assert!(find_call(&flat).is_none());
    }
}
