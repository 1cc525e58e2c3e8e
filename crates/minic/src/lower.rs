//! Lowering from the MiniC AST to the `cfgir` three-address CFG.
//!
//! Scalars whose address is never taken live in virtual registers; arrays,
//! globals and address-taken locals become memory objects accessed through
//! loads and stores (§3.3's flow-insensitive classification). Short-circuit
//! operators and the ternary operator lower to control flow, which hyperblock
//! formation later folds back into predicated straight-line code.

use crate::ast::{Bin, Expr, ExprKind, FuncDecl, LocalDecl, Program, Stmt, Ty, Un};
use cfgir::func::{BlockId, Function, Instr, Reg, Terminator};
use cfgir::objects::{array_bytes, MemObject, ObjId, ObjectSet, MAX_IMAGE_BYTES};
use cfgir::pointsto::recompute_may_sets;
use cfgir::types::{BinOp, Type, UnOp};
use cfgir::{Module, PragmaIndependent};
use fxmap::{HashMap, HashSet};
use std::fmt;

/// A semantic error with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    pub line: u32,
    pub msg: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for LowerError {}

fn err<T>(line: u32, msg: impl Into<String>) -> Result<T, LowerError> {
    Err(LowerError { line, msg: msg.into() })
}

/// Rejects an object of `len` elements of `elem` whose byte size overflows
/// or would grow the module's memory image past [`MAX_IMAGE_BYTES`].
fn check_image(
    module: &Module,
    elem: &Type,
    len: u64,
    name: &str,
    line: u32,
) -> Result<(), LowerError> {
    match array_bytes(elem, len) {
        Some(bytes) if bytes <= MAX_IMAGE_BYTES.saturating_sub(module.static_bytes()) => Ok(()),
        _ => err(
            line,
            format!(
                "`{name}` ({len} elements) does not fit the {} MiB memory image",
                MAX_IMAGE_BYTES >> 20
            ),
        ),
    }
}

/// Converts a surface type to a `cfgir` type.
fn conv(ty: &Ty) -> Type {
    match ty {
        Ty::Int { bits, signed } => Type::Int { bits: *bits, signed: *signed },
        Ty::Ptr(inner) => Type::ptr(conv(inner)),
        Ty::Void => Type::Void,
    }
}

/// Lowers a parsed program to a `cfgir` module.
///
/// # Errors
///
/// Returns the first semantic error (unknown names, bad operand types,
/// unsupported constructs).
pub fn lower(program: &Program) -> Result<Module, LowerError> {
    let mut module = Module::new();
    let mut globals: HashMap<String, GSym> = HashMap::default();

    for g in program.globals() {
        if globals.contains_key(&g.name) {
            return err(g.line, format!("duplicate global `{}`", g.name));
        }
        let elem = conv(&g.ty);
        if elem == Type::Void {
            return err(g.line, format!("global `{}` cannot be void", g.name));
        }
        let len = g.array_len.unwrap_or(1);
        check_image(&module, &elem, len, &g.name, g.line)?;
        let obj = if g.is_const {
            let mut init = g.init.clone();
            init.resize(len as usize, 0);
            MemObject::immutable(g.name.clone(), elem.clone(), init)
        } else {
            MemObject::global(g.name.clone(), elem.clone(), len).with_init(g.init.clone())
        };
        let id = module.add_object(obj);
        globals.insert(g.name.clone(), GSym { id, elem, is_array: g.array_len.is_some() });
    }

    // Function signatures for call typing.
    let mut sigs: HashMap<String, (Type, Vec<Type>)> = HashMap::default();
    for f in program.functions() {
        if sigs.contains_key(&f.name) {
            return err(f.line, format!("duplicate function `{}`", f.name));
        }
        sigs.insert(f.name.clone(), (conv(&f.ret), f.params.iter().map(|p| conv(&p.ty)).collect()));
    }

    for f in program.functions() {
        let lowered = FnLower::run(&mut module, &globals, &sigs, f)?;
        module.functions.push(lowered);
    }
    Ok(module)
}

#[derive(Debug, Clone)]
struct GSym {
    id: ObjId,
    elem: Type,
    is_array: bool,
}

#[derive(Debug, Clone)]
enum Sym {
    Reg(Reg),
    Obj { id: ObjId, elem: Type, is_array: bool },
}

/// An assignable location.
enum Place {
    Reg(Reg),
    Mem { addr: Reg, ty: Type },
}

struct FnLower<'a> {
    module: &'a mut Module,
    globals: &'a HashMap<String, GSym>,
    sigs: &'a HashMap<String, (Type, Vec<Type>)>,
    f: Function,
    cur: BlockId,
    scopes: Vec<HashMap<String, Sym>>,
    breaks: Vec<BlockId>,
    conts: Vec<BlockId>,
    addr_taken: HashSet<String>,
    fname: String,
}

impl<'a> FnLower<'a> {
    fn run(
        module: &'a mut Module,
        globals: &'a HashMap<String, GSym>,
        sigs: &'a HashMap<String, (Type, Vec<Type>)>,
        decl: &FuncDecl,
    ) -> Result<Function, LowerError> {
        let addr_taken = self::addr_taken(decl);
        let mut f = Function::new(decl.name.clone(), conv(&decl.ret));
        let mut scope = HashMap::default();
        for p in &decl.params {
            let ty = conv(&p.ty);
            let r = if let Type::Ptr(inner) = &ty {
                let obj =
                    module.add_object(MemObject::param_ptr(&decl.name, &p.name, (**inner).clone()));
                f.add_ptr_param(ty.clone(), &p.name, obj)
            } else {
                f.add_param(ty.clone(), &p.name)
            };
            scope.insert(p.name.clone(), Sym::Reg(r));
        }
        let mut lower = FnLower {
            module,
            globals,
            sigs,
            f,
            cur: BlockId::ENTRY,
            scopes: vec![scope],
            breaks: Vec::new(),
            conts: Vec::new(),
            addr_taken,
            fname: decl.name.clone(),
        };
        for s in &decl.body {
            lower.stmt(s)?;
        }
        // Fall-off-the-end return.
        let ret = if lower.f.ret_ty == Type::Void {
            Terminator::Ret(None)
        } else {
            let z = lower.f.new_reg(lower.f.ret_ty.clone());
            lower.emit(Instr::Const { dst: z, value: 0 });
            Terminator::Ret(Some(z))
        };
        lower.f.block_mut(lower.cur).term = ret;
        let mut func = lower.f;
        recompute_may_sets(&mut func);
        cfgir::validate::validate(&func)
            .map_err(|e| LowerError { line: decl.line, msg: format!("internal: {e}") })?;
        Ok(func)
    }

    // ---- small helpers ----

    fn emit(&mut self, i: Instr) {
        self.f.block_mut(self.cur).instrs.push(i);
    }

    /// Terminates the current block and switches to a fresh one (used for
    /// `return`/`break`/`continue`; the fresh block soaks up any unreachable
    /// trailing statements).
    fn seal(&mut self, t: Terminator) {
        self.f.block_mut(self.cur).term = t;
        self.cur = self.f.add_block();
    }

    fn jump_to(&mut self, b: BlockId) {
        self.f.block_mut(self.cur).term = Terminator::Jump(b);
        self.cur = b;
    }

    fn const_reg(&mut self, ty: Type, v: i64) -> Reg {
        let r = self.f.new_reg(ty);
        self.emit(Instr::Const { dst: r, value: v });
        r
    }

    fn lookup(&self, name: &str) -> Option<Sym> {
        for s in self.scopes.iter().rev() {
            if let Some(sym) = s.get(name) {
                return Some(sym.clone());
            }
        }
        self.globals.get(name).map(|g| Sym::Obj {
            id: g.id,
            elem: g.elem.clone(),
            is_array: g.is_array,
        })
    }

    fn coerce(&mut self, r: Reg, to: &Type) -> Reg {
        if self.f.ty(r) == to {
            return r;
        }
        let d = self.f.new_reg(to.clone());
        self.emit(Instr::Copy { dst: d, src: r });
        d
    }

    fn as_bool(&mut self, r: Reg, line: u32) -> Result<Reg, LowerError> {
        let ty = self.f.ty(r).clone();
        if ty == Type::Bool {
            return Ok(r);
        }
        if ty == Type::Void {
            return err(line, "void value used in a condition");
        }
        let z = self.const_reg(ty.clone(), 0);
        let d = self.f.new_reg(Type::Bool);
        self.emit(Instr::Bin { dst: d, op: BinOp::Ne, a: r, b: z });
        Ok(d)
    }

    /// The common type of two arithmetic operands.
    fn unify(&self, a: &Type, b: &Type) -> Type {
        match (a, b) {
            (Type::Ptr(_), _) => a.clone(),
            (_, Type::Ptr(_)) => b.clone(),
            (Type::Bool, Type::Bool) => Type::Int { bits: 32, signed: true },
            (Type::Bool, t) | (t, Type::Bool) => t.clone(),
            (Type::Int { bits: ab, signed: asg }, Type::Int { bits: bb, signed: bsg }) => {
                let bits = (*ab).max(*bb).max(32); // C integer promotion
                let signed = if ab == bb {
                    *asg && *bsg
                } else if ab > bb {
                    *asg
                } else {
                    *bsg
                };
                Type::Int { bits, signed }
            }
            _ => a.clone(),
        }
    }

    /// `base + idx * sizeof(elem)`, returning the scaled address register.
    fn ptr_add(&mut self, base: Reg, idx: Reg, negate: bool) -> Result<Reg, LowerError> {
        let bty = self.f.ty(base).clone();
        let elem = bty.pointee().cloned().expect("ptr_add on non-pointer");
        let idx64 = self.coerce(idx, &Type::Int { bits: 64, signed: true });
        let scale = self.const_reg(Type::Int { bits: 64, signed: true }, elem.size_bytes() as i64);
        let off = self.f.new_reg(Type::Int { bits: 64, signed: true });
        self.emit(Instr::Bin { dst: off, op: BinOp::Mul, a: idx64, b: scale });
        let d = self.f.new_reg(bty);
        let op = if negate { BinOp::Sub } else { BinOp::Add };
        self.emit(Instr::Bin { dst: d, op, a: base, b: off });
        Ok(d)
    }

    // ---- expressions ----

    fn expr(&mut self, e: &Expr) -> Result<Reg, LowerError> {
        match &e.kind {
            ExprKind::Int(v) => Ok(self.const_reg(Type::Int { bits: 32, signed: true }, *v)),
            ExprKind::Ident(name) => match self.lookup(name) {
                Some(Sym::Reg(r)) => Ok(r),
                Some(Sym::Obj { id, elem, is_array }) => {
                    if is_array {
                        // Array name decays to a pointer to its first element.
                        let d = self.f.new_reg(Type::ptr(elem));
                        self.emit(Instr::Addr { dst: d, obj: id });
                        Ok(d)
                    } else {
                        let a = self.f.new_reg(Type::ptr(elem.clone()));
                        self.emit(Instr::Addr { dst: a, obj: id });
                        let d = self.f.new_reg(elem.clone());
                        self.emit(Instr::Load { dst: d, addr: a, ty: elem, may: ObjectSet::Top });
                        Ok(d)
                    }
                }
                None => err(e.line, format!("unknown variable `{name}`")),
            },
            ExprKind::Un(Un::AddrOf, inner) => match self.lvalue(inner)? {
                Place::Mem { addr, .. } => Ok(addr),
                Place::Reg(_) => err(
                    e.line,
                    "cannot take the address of a register variable (internal: \
                         address-taken prescan missed it)",
                ),
            },
            ExprKind::Un(Un::Deref, _) | ExprKind::Index { .. } => {
                let place = self.lvalue(e)?;
                self.load_place(place)
            }
            ExprKind::Un(op, inner) => {
                let v = self.expr(inner)?;
                let vty = self.f.ty(v).clone();
                match op {
                    Un::Neg | Un::BitNot => {
                        if !vty.is_int() && vty != Type::Bool {
                            return err(e.line, "arithmetic on a non-integer value");
                        }
                        let t = self.unify(&vty, &Type::Int { bits: 32, signed: true });
                        let v = self.coerce(v, &t);
                        let d = self.f.new_reg(t);
                        let uop = if *op == Un::Neg { UnOp::Neg } else { UnOp::BitNot };
                        self.emit(Instr::Un { dst: d, op: uop, a: v });
                        Ok(d)
                    }
                    Un::Not => {
                        let b = self.as_bool(v, e.line)?;
                        let d = self.f.new_reg(Type::Bool);
                        self.emit(Instr::Un { dst: d, op: UnOp::Not, a: b });
                        Ok(d)
                    }
                    Un::Deref | Un::AddrOf => unreachable!("handled above"),
                }
            }
            ExprKind::Bin(op, l, r) => self.binary(*op, l, r, e.line),
            ExprKind::Assign { op, lhs, rhs } => {
                let place = self.lvalue(lhs)?;
                let rv = self.expr(rhs)?;
                let stored = match op {
                    None => rv,
                    Some(binop) => {
                        let cur = self.load_place_ref(&place);
                        self.apply_bin(*binop, cur, rv, lhs.line)?
                    }
                };
                let stored = self.coerce(stored, &place_ty(&self.f, &place));
                self.store_place(&place, stored);
                Ok(stored)
            }
            ExprKind::IncDec { pre, inc, target } => {
                let place = self.lvalue(target)?;
                let cur = self.load_place_ref(&place);
                let curty = self.f.ty(cur).clone();
                let one = self.const_reg(Type::Int { bits: 32, signed: true }, 1);
                let op = if *inc { Bin::Add } else { Bin::Sub };
                let next = self.apply_bin(op, cur, one, e.line)?;
                let next = self.coerce(next, &curty);
                // Preserve the old value for postfix results.
                let old = if *pre {
                    next
                } else {
                    let t = self.f.new_reg(curty);
                    self.emit(Instr::Copy { dst: t, src: cur });
                    t
                };
                self.store_place(&place, next);
                Ok(old)
            }
            ExprKind::Cond { c, t, e: els } => {
                let cv = self.expr(c)?;
                let cb = self.as_bool(cv, e.line)?;
                let tb = self.f.add_block();
                let eb = self.f.add_block();
                let end = self.f.add_block();
                self.f.block_mut(self.cur).term =
                    Terminator::Branch { cond: cb, then_bb: tb, else_bb: eb };
                self.cur = tb;
                let tv = self.expr(t)?;
                let t_end = self.cur;
                self.cur = eb;
                let ev = self.expr(els)?;
                let e_end = self.cur;
                let ty = self.unify(&self.f.ty(tv).clone(), &self.f.ty(ev).clone());
                let d = self.f.new_reg(ty.clone());
                self.cur = t_end;
                let tvc = self.coerce(tv, &ty);
                self.emit(Instr::Copy { dst: d, src: tvc });
                self.f.block_mut(self.cur).term = Terminator::Jump(end);
                self.cur = e_end;
                let evc = self.coerce(ev, &ty);
                self.emit(Instr::Copy { dst: d, src: evc });
                self.f.block_mut(self.cur).term = Terminator::Jump(end);
                self.cur = end;
                Ok(d)
            }
            ExprKind::Call { name, args } => {
                let (ret, ptys) = self.sigs.get(name).cloned().ok_or_else(|| LowerError {
                    line: e.line,
                    msg: format!("call to undeclared function `{name}`"),
                })?;
                if ptys.len() != args.len() {
                    return err(
                        e.line,
                        format!("`{name}` expects {} arguments, got {}", ptys.len(), args.len()),
                    );
                }
                let mut regs = Vec::with_capacity(args.len());
                for (a, pt) in args.iter().zip(&ptys) {
                    let r = self.expr(a)?;
                    regs.push(self.coerce(r, pt));
                }
                let dst = if ret == Type::Void { None } else { Some(self.f.new_reg(ret)) };
                self.emit(Instr::Call { dst, callee: name.clone(), args: regs });
                match dst {
                    Some(d) => Ok(d),
                    // A void value; callers in expression position will
                    // error out when they try to use it.
                    None => Ok(self.const_reg(Type::Int { bits: 32, signed: true }, 0)),
                }
            }
        }
    }

    /// Short-circuit lowering for `&&`/`||`; plain op lowering otherwise.
    fn binary(&mut self, op: Bin, l: &Expr, r: &Expr, line: u32) -> Result<Reg, LowerError> {
        if matches!(op, Bin::LAnd | Bin::LOr) {
            let lv = self.expr(l)?;
            let lb = self.as_bool(lv, line)?;
            let rhs_bb = self.f.add_block();
            let end = self.f.add_block();
            let d = self.f.new_reg(Type::Bool);
            let shortcut = self.f.add_block();
            if op == Bin::LAnd {
                self.f.block_mut(self.cur).term =
                    Terminator::Branch { cond: lb, then_bb: rhs_bb, else_bb: shortcut };
            } else {
                self.f.block_mut(self.cur).term =
                    Terminator::Branch { cond: lb, then_bb: shortcut, else_bb: rhs_bb };
            }
            // Shortcut path: result is the constant outcome.
            self.cur = shortcut;
            let k = self.const_reg(Type::Bool, i64::from(op == Bin::LOr));
            self.emit(Instr::Copy { dst: d, src: k });
            self.f.block_mut(self.cur).term = Terminator::Jump(end);
            // Evaluate the right side.
            self.cur = rhs_bb;
            let rv = self.expr(r)?;
            let rb = self.as_bool(rv, line)?;
            self.emit(Instr::Copy { dst: d, src: rb });
            self.f.block_mut(self.cur).term = Terminator::Jump(end);
            self.cur = end;
            return Ok(d);
        }
        let lv = self.expr(l)?;
        let rv = self.expr(r)?;
        self.apply_bin(op, lv, rv, line)
    }

    /// Emits a single binary operation with the usual conversions.
    fn apply_bin(&mut self, op: Bin, lv: Reg, rv: Reg, line: u32) -> Result<Reg, LowerError> {
        let lt = self.f.ty(lv).clone();
        let rt = self.f.ty(rv).clone();
        // Pointer arithmetic.
        if lt.is_ptr() || rt.is_ptr() {
            match op {
                Bin::Add => {
                    let (p, i) = if lt.is_ptr() { (lv, rv) } else { (rv, lv) };
                    return self.ptr_add(p, i, false);
                }
                Bin::Sub if lt.is_ptr() && !rt.is_ptr() => {
                    return self.ptr_add(lv, rv, true);
                }
                Bin::Sub if lt.is_ptr() && rt.is_ptr() => {
                    return err(line, "pointer difference is not supported");
                }
                Bin::Eq | Bin::Ne | Bin::Lt | Bin::Le | Bin::Gt | Bin::Ge => {
                    // Compare as 64-bit unsigned addresses.
                    let t = Type::Int { bits: 64, signed: false };
                    let a = self.coerce(lv, &t);
                    let b = self.coerce(rv, &t);
                    let d = self.f.new_reg(Type::Bool);
                    self.emit(Instr::Bin { dst: d, op: conv_bin(op), a, b });
                    return Ok(d);
                }
                _ => return err(line, format!("operator `{op:?}` not valid on pointers")),
            }
        }
        let t = self.unify(&lt, &rt);
        let a = self.coerce(lv, &t);
        let b = self.coerce(rv, &t);
        let out_ty = if conv_bin(op).is_comparison() { Type::Bool } else { t };
        let d = self.f.new_reg(out_ty);
        self.emit(Instr::Bin { dst: d, op: conv_bin(op), a, b });
        Ok(d)
    }

    // ---- places ----

    fn lvalue(&mut self, e: &Expr) -> Result<Place, LowerError> {
        match &e.kind {
            ExprKind::Ident(name) => match self.lookup(name) {
                Some(Sym::Reg(r)) => Ok(Place::Reg(r)),
                Some(Sym::Obj { id, elem, is_array }) => {
                    if is_array {
                        err(e.line, format!("array `{name}` is not assignable"))
                    } else {
                        let a = self.f.new_reg(Type::ptr(elem.clone()));
                        self.emit(Instr::Addr { dst: a, obj: id });
                        Ok(Place::Mem { addr: a, ty: elem })
                    }
                }
                None => err(e.line, format!("unknown variable `{name}`")),
            },
            ExprKind::Un(Un::Deref, p) => {
                let pv = self.expr(p)?;
                let pt = self.f.ty(pv).clone();
                match pt.pointee() {
                    Some(inner) => Ok(Place::Mem { addr: pv, ty: inner.clone() }),
                    None => err(e.line, "dereference of a non-pointer"),
                }
            }
            ExprKind::Index { base, idx } => {
                let bv = self.expr(base)?;
                let bt = self.f.ty(bv).clone();
                let elem = match bt.pointee() {
                    Some(t) => t.clone(),
                    None => return err(e.line, "indexing a non-pointer"),
                };
                let iv = self.expr(idx)?;
                let addr = self.ptr_add(bv, iv, false)?;
                Ok(Place::Mem { addr, ty: elem })
            }
            _ => err(e.line, "expression is not assignable"),
        }
    }

    fn load_place(&mut self, p: Place) -> Result<Reg, LowerError> {
        Ok(self.load_place_ref(&p))
    }

    fn load_place_ref(&mut self, p: &Place) -> Reg {
        match p {
            Place::Reg(r) => *r,
            Place::Mem { addr, ty } => {
                let d = self.f.new_reg(ty.clone());
                self.emit(Instr::Load { dst: d, addr: *addr, ty: ty.clone(), may: ObjectSet::Top });
                d
            }
        }
    }

    fn store_place(&mut self, p: &Place, v: Reg) {
        match p {
            Place::Reg(r) => self.emit(Instr::Copy { dst: *r, src: v }),
            Place::Mem { addr, ty } => self.emit(Instr::Store {
                addr: *addr,
                value: v,
                ty: ty.clone(),
                may: ObjectSet::Top,
            }),
        }
    }

    // ---- statements ----

    fn stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        match s {
            Stmt::Empty => Ok(()),
            Stmt::Pragma(p, q) => {
                self.module.pragmas.push(PragmaIndependent {
                    function: self.fname.clone(),
                    ptrs: (p.clone(), q.clone()),
                });
                Ok(())
            }
            Stmt::Expr(e) => {
                self.expr(e)?;
                Ok(())
            }
            Stmt::Decl(decls) => {
                for d in decls {
                    self.local_decl(d)?;
                }
                Ok(())
            }
            Stmt::Block(stmts) => {
                self.scopes.push(HashMap::default());
                for st in stmts {
                    self.stmt(st)?;
                }
                self.scopes.pop();
                Ok(())
            }
            Stmt::If { c, t, e } => {
                let cv = self.expr(c)?;
                let cb = self.as_bool(cv, c.line)?;
                let tb = self.f.add_block();
                let end = self.f.add_block();
                let eb = if e.is_some() { self.f.add_block() } else { end };
                self.f.block_mut(self.cur).term =
                    Terminator::Branch { cond: cb, then_bb: tb, else_bb: eb };
                self.cur = tb;
                self.stmt(t)?;
                self.f.block_mut(self.cur).term = Terminator::Jump(end);
                if let Some(e) = e {
                    self.cur = eb;
                    self.stmt(e)?;
                    self.f.block_mut(self.cur).term = Terminator::Jump(end);
                }
                self.cur = end;
                Ok(())
            }
            Stmt::While { c, body } => {
                let head = self.f.add_block();
                let body_bb = self.f.add_block();
                let end = self.f.add_block();
                self.jump_to(head);
                let cv = self.expr(c)?;
                let cb = self.as_bool(cv, c.line)?;
                self.f.block_mut(self.cur).term =
                    Terminator::Branch { cond: cb, then_bb: body_bb, else_bb: end };
                self.cur = body_bb;
                self.breaks.push(end);
                self.conts.push(head);
                self.stmt(body)?;
                self.breaks.pop();
                self.conts.pop();
                self.f.block_mut(self.cur).term = Terminator::Jump(head);
                self.cur = end;
                Ok(())
            }
            Stmt::DoWhile { body, c } => {
                let body_bb = self.f.add_block();
                let check = self.f.add_block();
                let end = self.f.add_block();
                self.jump_to(body_bb);
                self.breaks.push(end);
                self.conts.push(check);
                self.stmt(body)?;
                self.breaks.pop();
                self.conts.pop();
                self.f.block_mut(self.cur).term = Terminator::Jump(check);
                self.cur = check;
                let cv = self.expr(c)?;
                let cb = self.as_bool(cv, c.line)?;
                self.f.block_mut(self.cur).term =
                    Terminator::Branch { cond: cb, then_bb: body_bb, else_bb: end };
                self.cur = end;
                Ok(())
            }
            Stmt::For { init, cond, step, body } => {
                self.scopes.push(HashMap::default());
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let head = self.f.add_block();
                let body_bb = self.f.add_block();
                let step_bb = self.f.add_block();
                let end = self.f.add_block();
                self.jump_to(head);
                match cond {
                    Some(c) => {
                        let cv = self.expr(c)?;
                        let cb = self.as_bool(cv, c.line)?;
                        self.f.block_mut(self.cur).term =
                            Terminator::Branch { cond: cb, then_bb: body_bb, else_bb: end };
                    }
                    None => {
                        self.f.block_mut(self.cur).term = Terminator::Jump(body_bb);
                    }
                }
                self.cur = body_bb;
                self.breaks.push(end);
                self.conts.push(step_bb);
                self.stmt(body)?;
                self.breaks.pop();
                self.conts.pop();
                self.f.block_mut(self.cur).term = Terminator::Jump(step_bb);
                self.cur = step_bb;
                if let Some(st) = step {
                    self.expr(st)?;
                }
                self.f.block_mut(self.cur).term = Terminator::Jump(head);
                self.cur = end;
                self.scopes.pop();
                Ok(())
            }
            Stmt::Return(e, line) => {
                let t = match e {
                    Some(e) => {
                        if self.f.ret_ty == Type::Void {
                            return err(*line, "returning a value from a void function");
                        }
                        let v = self.expr(e)?;
                        let ret_ty = self.f.ret_ty.clone();
                        let v = self.coerce(v, &ret_ty);
                        Terminator::Ret(Some(v))
                    }
                    None => {
                        if self.f.ret_ty != Type::Void {
                            return err(*line, "missing return value");
                        }
                        Terminator::Ret(None)
                    }
                };
                self.seal(t);
                Ok(())
            }
            Stmt::Break(line) => match self.breaks.last().copied() {
                Some(b) => {
                    self.seal(Terminator::Jump(b));
                    Ok(())
                }
                None => err(*line, "`break` outside a loop"),
            },
            Stmt::Continue(line) => match self.conts.last().copied() {
                Some(b) => {
                    self.seal(Terminator::Jump(b));
                    Ok(())
                }
                None => err(*line, "`continue` outside a loop"),
            },
        }
    }

    fn local_decl(&mut self, d: &LocalDecl) -> Result<(), LowerError> {
        let ty = conv(&d.ty);
        if ty == Type::Void {
            return err(d.line, format!("variable `{}` cannot be void", d.name));
        }
        if let Some(len) = d.array_len {
            if d.init.is_some() {
                return err(d.line, "local array initializers are not supported");
            }
            check_image(self.module, &ty, len, &d.name, d.line)?;
            let id = self.module.add_object(MemObject::local(
                format!("{}::{}", self.fname, d.name),
                ty.clone(),
                len,
            ));
            self.scopes
                .last_mut()
                .expect("scope stack never empty")
                .insert(d.name.clone(), Sym::Obj { id, elem: ty, is_array: true });
            return Ok(());
        }
        if self.addr_taken.contains(&d.name) {
            // Address-taken scalar: allocate one memory cell.
            let id = self.module.add_object(MemObject::local(
                format!("{}::{}", self.fname, d.name),
                ty.clone(),
                1,
            ));
            self.scopes
                .last_mut()
                .expect("scope stack never empty")
                .insert(d.name.clone(), Sym::Obj { id, elem: ty.clone(), is_array: false });
            if let Some(e) = &d.init {
                let v = self.expr(e)?;
                let v = self.coerce(v, &ty);
                let a = self.f.new_reg(Type::ptr(ty.clone()));
                self.emit(Instr::Addr { dst: a, obj: id });
                self.emit(Instr::Store { addr: a, value: v, ty, may: ObjectSet::Top });
            }
            return Ok(());
        }
        let r = self.f.new_named_reg(ty.clone(), &d.name);
        match &d.init {
            Some(e) => {
                let v = self.expr(e)?;
                let v = self.coerce(v, &ty);
                self.emit(Instr::Copy { dst: r, src: v });
            }
            None => self.emit(Instr::Const { dst: r, value: 0 }),
        }
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(d.name.clone(), Sym::Reg(r));
        Ok(())
    }
}

fn place_ty(f: &Function, p: &Place) -> Type {
    match p {
        Place::Reg(r) => f.ty(*r).clone(),
        Place::Mem { ty, .. } => ty.clone(),
    }
}

fn conv_bin(op: Bin) -> BinOp {
    match op {
        Bin::Add => BinOp::Add,
        Bin::Sub => BinOp::Sub,
        Bin::Mul => BinOp::Mul,
        Bin::Div => BinOp::Div,
        Bin::Rem => BinOp::Rem,
        Bin::And => BinOp::And,
        Bin::Or => BinOp::Or,
        Bin::Xor => BinOp::Xor,
        Bin::Shl => BinOp::Shl,
        Bin::Shr => BinOp::Shr,
        Bin::Eq => BinOp::Eq,
        Bin::Ne => BinOp::Ne,
        Bin::Lt => BinOp::Lt,
        Bin::Le => BinOp::Le,
        Bin::Gt => BinOp::Gt,
        Bin::Ge => BinOp::Ge,
        Bin::LAnd => BinOp::LAnd,
        Bin::LOr => BinOp::LOr,
    }
}

/// The set of variable names whose address is taken anywhere in `f`'s
/// body — the same prescan lowering uses to decide which scalars live in
/// memory rather than registers. Public so an independent executable
/// semantics (the reference interpreter) classifies locals identically.
pub fn addr_taken(f: &FuncDecl) -> HashSet<String> {
    let mut out = HashSet::default();
    for s in &f.body {
        collect_addr_taken_stmt(s, &mut out);
    }
    out
}

fn collect_addr_taken_stmt(s: &Stmt, out: &mut HashSet<String>) {
    match s {
        Stmt::Expr(e) | Stmt::Return(Some(e), _) => collect_addr_taken_expr(e, out),
        Stmt::Decl(ds) => {
            for d in ds {
                if let Some(e) = &d.init {
                    collect_addr_taken_expr(e, out);
                }
            }
        }
        Stmt::If { c, t, e } => {
            collect_addr_taken_expr(c, out);
            collect_addr_taken_stmt(t, out);
            if let Some(e) = e {
                collect_addr_taken_stmt(e, out);
            }
        }
        Stmt::While { c, body } | Stmt::DoWhile { body, c } => {
            collect_addr_taken_expr(c, out);
            collect_addr_taken_stmt(body, out);
        }
        Stmt::For { init, cond, step, body } => {
            if let Some(i) = init {
                collect_addr_taken_stmt(i, out);
            }
            if let Some(c) = cond {
                collect_addr_taken_expr(c, out);
            }
            if let Some(st) = step {
                collect_addr_taken_expr(st, out);
            }
            collect_addr_taken_stmt(body, out);
        }
        Stmt::Block(ss) => {
            for st in ss {
                collect_addr_taken_stmt(st, out);
            }
        }
        Stmt::Return(None, _)
        | Stmt::Break(_)
        | Stmt::Continue(_)
        | Stmt::Pragma(..)
        | Stmt::Empty => {}
    }
}

fn collect_addr_taken_expr(e: &Expr, out: &mut HashSet<String>) {
    match &e.kind {
        ExprKind::Un(Un::AddrOf, inner) => {
            if let ExprKind::Ident(n) = &inner.kind {
                out.insert(n.clone());
            }
            collect_addr_taken_expr(inner, out);
        }
        ExprKind::Un(_, a) => collect_addr_taken_expr(a, out),
        ExprKind::Bin(_, a, b) => {
            collect_addr_taken_expr(a, out);
            collect_addr_taken_expr(b, out);
        }
        ExprKind::Assign { lhs, rhs, .. } => {
            collect_addr_taken_expr(lhs, out);
            collect_addr_taken_expr(rhs, out);
        }
        ExprKind::Cond { c, t, e } => {
            collect_addr_taken_expr(c, out);
            collect_addr_taken_expr(t, out);
            collect_addr_taken_expr(e, out);
        }
        ExprKind::Index { base, idx } => {
            collect_addr_taken_expr(base, out);
            collect_addr_taken_expr(idx, out);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                collect_addr_taken_expr(a, out);
            }
        }
        ExprKind::IncDec { target, .. } => collect_addr_taken_expr(target, out),
        ExprKind::Int(_) | ExprKind::Ident(_) => {}
    }
}
