//! ashsim: a self-timed hardware simulator for Pegasus circuits.
//!
//! This crate is the reproduction's stand-in for the coarse hardware
//! simulator of §7.3: spatial computation is executed directly — every
//! Pegasus node is an operator, every edge a handshaking channel — with the
//! paper's memory system: a load-store queue with a finite number of ports,
//! an 8 KB / 2-cycle L1, a 256 KB / 8-cycle L2, 72-cycle DRAM with a 4-cycle
//! inter-word gap, and a 64-entry TLB with a 30-cycle miss penalty. A
//! perfect-memory model is available for functional testing and for the
//! Figure 19 memory-system sweep.
//!
//! # Examples
//!
//! Build a tiny circuit from a CFG and run it:
//!
//! ```
//! use cfgir::func::{BlockId, Function, Instr, Terminator};
//! use cfgir::types::{BinOp, Type};
//! use cfgir::{AliasOracle, Module};
//! use ashsim::{simulate, Machine, SimConfig};
//!
//! // return 2 + 3
//! let module = Module::new();
//! let mut f = Function::new("main", Type::int(32));
//! let a = f.new_reg(Type::int(32));
//! let b = f.new_reg(Type::int(32));
//! let c = f.new_reg(Type::int(32));
//! let e = BlockId::ENTRY;
//! f.block_mut(e).instrs.push(Instr::Const { dst: a, value: 2 });
//! f.block_mut(e).instrs.push(Instr::Const { dst: b, value: 3 });
//! f.block_mut(e).instrs.push(Instr::Bin { dst: c, op: BinOp::Add, a, b });
//! f.block_mut(e).term = Terminator::Ret(Some(c));
//!
//! let oracle = AliasOracle::new(&module);
//! let graph = pegasus::build(&f, &oracle, &pegasus::BuildOptions::default())?;
//! let mut machine = Machine::new(&module, ashsim::MemSystem::Perfect { latency: 2 });
//! let result = simulate(&graph, &mut machine, &[], &SimConfig::perfect())?;
//! assert_eq!(result.ret, Some(5));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod critpath;
pub mod exec;
pub mod memory;
pub mod profile;
pub mod replay;
mod sched;
mod spare;
pub mod trace;
#[cfg(test)]
#[path = "waves_tests.rs"]
mod wavecap;
pub mod waves;

pub use critpath::{CritEdge, CritSummary, EdgeClass};
pub use exec::{diagnose, simulate, BlockedNode, SimConfig, SimError, SimResult};
pub use memory::{CacheParams, Machine, MemStats, MemSystem, MemTimeline};
pub use profile::{kind_label, NodeProfile, SimProfile, StallCause};
pub use replay::{Breakpoint, Cmp, Replay, StopReason};
pub use trace::{Trace, TraceEvent};
pub use waves::{stall_code, stall_label, Wave};

#[cfg(test)]
mod tests {
    use super::*;
    use cfgir::func::{BlockId, Function, Instr, Terminator};
    use cfgir::objects::{MemObject, ObjectSet};
    use cfgir::types::{BinOp, Type, UnOp};
    use cfgir::{AliasOracle, Module};
    use pegasus::{BuildOptions, NodeKind, Src};

    fn run_cfg(module: &Module, f: &Function, args: &[i64]) -> SimResult {
        let oracle = AliasOracle::new(module);
        let g = pegasus::build(f, &oracle, &BuildOptions::default()).unwrap();
        pegasus::verify(&g).unwrap();
        let mut machine = Machine::new(module, MemSystem::Perfect { latency: 2 });
        simulate(&g, &mut machine, args, &SimConfig::perfect()).unwrap()
    }

    #[test]
    fn returns_arithmetic() {
        let module = Module::new();
        let mut f = Function::new("main", Type::int(32));
        let p = f.add_param(Type::int(32), "x");
        let c = f.new_reg(Type::int(32));
        let r = f.new_reg(Type::int(32));
        let e = BlockId::ENTRY;
        f.block_mut(e).instrs.push(Instr::Const { dst: c, value: 10 });
        f.block_mut(e).instrs.push(Instr::Bin { dst: r, op: BinOp::Mul, a: p, b: c });
        f.block_mut(e).term = Terminator::Ret(Some(r));
        assert_eq!(run_cfg(&module, &f, &[7]).ret, Some(70));
    }

    #[test]
    fn store_then_load_roundtrips_through_memory() {
        let mut module = Module::new();
        let oa = module.add_object(MemObject::global("a", Type::int(32), 4));
        let mut f = Function::new("main", Type::int(32));
        let base = f.new_reg(Type::ptr(Type::int(32)));
        let v = f.new_reg(Type::int(32));
        let out = f.new_reg(Type::int(32));
        let e = BlockId::ENTRY;
        f.block_mut(e).instrs.push(Instr::Addr { dst: base, obj: oa });
        f.block_mut(e).instrs.push(Instr::Const { dst: v, value: 1234 });
        f.block_mut(e).instrs.push(Instr::Store {
            addr: base,
            value: v,
            ty: Type::int(32),
            may: ObjectSet::only(oa),
        });
        f.block_mut(e).instrs.push(Instr::Load {
            dst: out,
            addr: base,
            ty: Type::int(32),
            may: ObjectSet::only(oa),
        });
        f.block_mut(e).term = Terminator::Ret(Some(out));
        let r = run_cfg(&module, &f, &[]);
        assert_eq!(r.ret, Some(1234));
        assert_eq!(r.stats.stores, 1);
        assert_eq!(r.stats.loads, 1);
    }

    /// sum of 0..n via a real loop — exercises merge/eta rings, muxes and
    /// loop-carried values.
    fn sum_loop_fn() -> (Module, Function) {
        let module = Module::new();
        let mut f = Function::new("main", Type::int(32));
        let n = f.add_param(Type::int(32), "n");
        let i = f.new_reg(Type::int(32));
        let s = f.new_reg(Type::int(32));
        let c = f.new_reg(Type::Bool);
        let one = f.new_reg(Type::int(32));
        let head = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let e = BlockId::ENTRY;
        f.block_mut(e).instrs.push(Instr::Const { dst: i, value: 0 });
        f.block_mut(e).instrs.push(Instr::Const { dst: s, value: 0 });
        f.block_mut(e).term = Terminator::Jump(head);
        f.block_mut(head).instrs.push(Instr::Bin { dst: c, op: BinOp::Lt, a: i, b: n });
        f.block_mut(head).term = Terminator::Branch { cond: c, then_bb: body, else_bb: exit };
        f.block_mut(body).instrs.push(Instr::Bin { dst: s, op: BinOp::Add, a: s, b: i });
        f.block_mut(body).instrs.push(Instr::Const { dst: one, value: 1 });
        f.block_mut(body).instrs.push(Instr::Bin { dst: i, op: BinOp::Add, a: i, b: one });
        f.block_mut(body).term = Terminator::Jump(head);
        f.block_mut(exit).term = Terminator::Ret(Some(s));
        (module, f)
    }

    #[test]
    fn loop_sums_correctly() {
        let (module, f) = sum_loop_fn();
        for n in [0i64, 1, 2, 10, 31] {
            let r = run_cfg(&module, &f, &[n]);
            assert_eq!(r.ret, Some(n * (n - 1) / 2), "n={n}");
        }
    }

    /// Observed runs hand their run-length buffers to the thread's spares
    /// when their results drop; a bare run neither takes nor gives one.
    #[test]
    fn observed_runs_recycle_their_collector_buffers() {
        let (module, f) = sum_loop_fn();
        let g = pegasus::build(&f, &AliasOracle::new(&module), &BuildOptions::default()).unwrap();
        let run = |cfg: &SimConfig| {
            let mut machine = Machine::new(&module, MemSystem::Perfect { latency: 2 });
            simulate(&g, &mut machine, &[40], cfg).unwrap();
        };
        let spares = || {
            [
                spare::take(&waves::LOG_SPARE).capacity(),
                spare::take(&critpath::RECS_SPARE).capacity(),
                spare::take(&critpath::HOPS_SPARE).capacity(),
            ]
        };
        spares();
        run(&SimConfig::perfect());
        assert_eq!(spares(), [0; 3], "a bare run touched a spare");
        run(&SimConfig::perfect().with_critpath(true).with_waves(true));
        let kept = spares();
        assert!(kept.iter().all(|&c| c > 0), "dropped results kept their buffers: {kept:?}");
    }

    #[test]
    fn predicated_store_skips_memory_when_false() {
        // if (x) a[0] = 9; return a[0];
        let mut module = Module::new();
        let oa = module.add_object(MemObject::global("a", Type::int(32), 1).with_init(vec![5]));
        let mut f = Function::new("main", Type::int(32));
        let x = f.add_param(Type::int(32), "x");
        let z = f.new_reg(Type::int(32));
        let c = f.new_reg(Type::Bool);
        let base = f.new_reg(Type::ptr(Type::int(32)));
        let nine = f.new_reg(Type::int(32));
        let out = f.new_reg(Type::int(32));
        let then_bb = f.add_block();
        let join = f.add_block();
        let e = BlockId::ENTRY;
        f.block_mut(e).instrs.push(Instr::Const { dst: z, value: 0 });
        f.block_mut(e).instrs.push(Instr::Bin { dst: c, op: BinOp::Ne, a: x, b: z });
        f.block_mut(e).term = Terminator::Branch { cond: c, then_bb, else_bb: join };
        f.block_mut(then_bb).instrs.push(Instr::Addr { dst: base, obj: oa });
        f.block_mut(then_bb).instrs.push(Instr::Const { dst: nine, value: 9 });
        f.block_mut(then_bb).instrs.push(Instr::Store {
            addr: base,
            value: nine,
            ty: Type::int(32),
            may: ObjectSet::only(oa),
        });
        f.block_mut(then_bb).term = Terminator::Jump(join);
        f.block_mut(join).instrs.push(Instr::Addr { dst: base, obj: oa });
        f.block_mut(join).instrs.push(Instr::Load {
            dst: out,
            addr: base,
            ty: Type::int(32),
            may: ObjectSet::only(oa),
        });
        f.block_mut(join).term = Terminator::Ret(Some(out));

        let taken = run_cfg(&module, &f, &[1]);
        assert_eq!(taken.ret, Some(9));
        assert_eq!(taken.stats.stores, 1);
        let skipped = run_cfg(&module, &f, &[0]);
        assert_eq!(skipped.ret, Some(5));
        assert_eq!(skipped.stats.stores, 0, "false-predicate store must not access memory");
    }

    #[test]
    fn deadlock_is_detected() {
        // A return whose token never arrives: an eta with a dynamically
        // false predicate swallows it.
        let module = Module::new();
        let mut machine = Machine::new(&module, MemSystem::Perfect { latency: 2 });
        let mut g = pegasus::Graph::new();
        let t = g.add_node(NodeKind::InitialToken, 0, 0);
        let ptrue = g.const_bool(true, 0);
        let addr = g.add_node(NodeKind::Const { value: 0x1000, ty: Type::int(64) }, 0, 0);
        let l = g.add_node(NodeKind::Load { ty: Type::int(32), may: ObjectSet::Top }, 3, 0);
        g.connect(Src::of(addr), l, 0);
        g.connect(Src::of(ptrue), l, 1);
        g.connect(Src::of(t), l, 2);
        // pred = (v < 0), dynamically false since memory is zeroed.
        let zero = g.add_node(NodeKind::Const { value: 0, ty: Type::int(32) }, 0, 0);
        let lt = g.add_node(NodeKind::BinOp { op: BinOp::Lt, ty: Type::Bool }, 2, 0);
        g.connect(Src::of(l), lt, 0);
        g.connect(Src::of(zero), lt, 1);
        let eta = g.add_node(NodeKind::Eta { vc: pegasus::VClass::Token, ty: Type::Bool }, 2, 0);
        g.connect(Src::token_of_load(l), eta, 0);
        g.connect(Src::of(lt), eta, 1);
        let ret = g.add_node(NodeKind::Return { has_value: false, ty: Type::Void }, 2, 0);
        g.connect(Src::of(ptrue), ret, 0);
        g.connect(Src::of(eta), ret, 1);
        let err = simulate(&g, &mut machine, &[], &SimConfig::perfect()).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn missing_argument_is_reported() {
        let module = Module::new();
        let mut f = Function::new("main", Type::int(32));
        let p = f.add_param(Type::int(32), "x");
        f.block_mut(BlockId::ENTRY).term = Terminator::Ret(Some(p));
        let oracle = AliasOracle::new(&module);
        let g = pegasus::build(&f, &oracle, &BuildOptions::default()).unwrap();
        let mut machine = Machine::new(&module, MemSystem::Perfect { latency: 2 });
        let err = simulate(&g, &mut machine, &[], &SimConfig::perfect()).unwrap_err();
        assert_eq!(err, SimError::MissingArgument { index: 0 });
    }

    #[test]
    fn negation_and_not() {
        let module = Module::new();
        let mut f = Function::new("main", Type::int(32));
        let p = f.add_param(Type::int(32), "x");
        let n = f.new_reg(Type::int(32));
        f.block_mut(BlockId::ENTRY).instrs.push(Instr::Un { dst: n, op: UnOp::Neg, a: p });
        f.block_mut(BlockId::ENTRY).term = Terminator::Ret(Some(n));
        assert_eq!(run_cfg(&module, &f, &[42]).ret, Some(-42));
    }

    #[test]
    fn lsq_port_limit_slows_execution() {
        // 8 independent load/store pairs between two disjoint arrays: with
        // 1 port the 16 accesses serialize at the LSQ, with 4 they overlap.
        let mut module = Module::new();
        let oa = module.add_object(
            MemObject::global("a", Type::int(32), 8).with_init((1..=8).collect::<Vec<i64>>()),
        );
        let ob = module.add_object(MemObject::global("b", Type::int(32), 8));
        let mut f = Function::new("main", Type::int(32));
        let ba = f.new_reg(Type::ptr(Type::int(32)));
        let bb = f.new_reg(Type::ptr(Type::int(32)));
        let e = BlockId::ENTRY;
        f.block_mut(e).instrs.push(Instr::Addr { dst: ba, obj: oa });
        f.block_mut(e).instrs.push(Instr::Addr { dst: bb, obj: ob });
        for k in 0..8u32 {
            let off = f.new_reg(Type::int(64));
            let src = f.new_reg(Type::ptr(Type::int(32)));
            let dst = f.new_reg(Type::ptr(Type::int(32)));
            let v = f.new_reg(Type::int(32));
            f.block_mut(e).instrs.push(Instr::Const { dst: off, value: i64::from(k) * 4 });
            f.block_mut(e).instrs.push(Instr::Bin { dst: src, op: BinOp::Add, a: ba, b: off });
            f.block_mut(e).instrs.push(Instr::Bin { dst, op: BinOp::Add, a: bb, b: off });
            f.block_mut(e).instrs.push(Instr::Load {
                dst: v,
                addr: src,
                ty: Type::int(32),
                may: ObjectSet::only(oa),
            });
            f.block_mut(e).instrs.push(Instr::Store {
                addr: dst,
                value: v,
                ty: Type::int(32),
                may: ObjectSet::only(ob),
            });
        }
        let z = f.new_reg(Type::int(32));
        f.block_mut(e).instrs.push(Instr::Const { dst: z, value: 0 });
        f.block_mut(e).term = Terminator::Ret(Some(z));

        let oracle = AliasOracle::new(&module);
        let g = pegasus::build(&f, &oracle, &BuildOptions::default()).unwrap();
        let run = |ports: u32| {
            let mem = MemSystem::Perfect { latency: 4 };
            let mut machine = Machine::new(&module, mem.clone());
            let cfg = SimConfig { mem, lsq_ports: ports, ..SimConfig::default() };
            let r = simulate(&g, &mut machine, &[], &cfg).unwrap();
            // Functional check: b is a copy of a.
            for i in 0..8 {
                assert_eq!(machine.read_elem(&module, ob, i), (i + 1) as i64);
            }
            r
        };
        let slow = run(1);
        let fast = run(4);
        assert_eq!(slow.stats.loads, 8);
        assert_eq!(slow.stats.stores, 8);
        assert!(
            fast.cycles < slow.cycles,
            "4 ports ({}) must beat 1 port ({})",
            fast.cycles,
            slow.cycles
        );
    }

    #[test]
    fn loop_with_memory_traffic() {
        // for (i = 0; i < 16; i++) a[i] = i; then return a[10].
        let mut module = Module::new();
        let oa = module.add_object(MemObject::global("a", Type::int(32), 16));
        let mut f = Function::new("main", Type::int(32));
        let i = f.new_reg(Type::int(32));
        let c = f.new_reg(Type::Bool);
        let lim = f.new_reg(Type::int(32));
        let one = f.new_reg(Type::int(32));
        let base = f.new_reg(Type::ptr(Type::int(32)));
        let off = f.new_reg(Type::int(64));
        let four = f.new_reg(Type::int(64));
        let i64r = f.new_reg(Type::int(64));
        let addr = f.new_reg(Type::ptr(Type::int(32)));
        let out = f.new_reg(Type::int(32));
        let outaddr = f.new_reg(Type::ptr(Type::int(32)));
        let outoff = f.new_reg(Type::int(64));
        let head = f.add_block();
        let body = f.add_block();
        let exit = f.add_block();
        let e = BlockId::ENTRY;
        f.block_mut(e).instrs.push(Instr::Const { dst: i, value: 0 });
        f.block_mut(e).term = Terminator::Jump(head);
        f.block_mut(head).instrs.push(Instr::Const { dst: lim, value: 16 });
        f.block_mut(head).instrs.push(Instr::Bin { dst: c, op: BinOp::Lt, a: i, b: lim });
        f.block_mut(head).term = Terminator::Branch { cond: c, then_bb: body, else_bb: exit };
        let b = f.block_mut(body);
        b.instrs.push(Instr::Addr { dst: base, obj: oa });
        b.instrs.push(Instr::Copy { dst: i64r, src: i });
        b.instrs.push(Instr::Const { dst: four, value: 4 });
        b.instrs.push(Instr::Bin { dst: off, op: BinOp::Mul, a: i64r, b: four });
        b.instrs.push(Instr::Bin { dst: addr, op: BinOp::Add, a: base, b: off });
        b.instrs.push(Instr::Store { addr, value: i, ty: Type::int(32), may: ObjectSet::only(oa) });
        b.instrs.push(Instr::Const { dst: one, value: 1 });
        b.instrs.push(Instr::Bin { dst: i, op: BinOp::Add, a: i, b: one });
        f.block_mut(body).term = Terminator::Jump(head);
        let x = f.block_mut(exit);
        x.instrs.push(Instr::Addr { dst: outaddr, obj: oa });
        x.instrs.push(Instr::Const { dst: outoff, value: 40 });
        x.instrs.push(Instr::Bin { dst: outaddr, op: BinOp::Add, a: outaddr, b: outoff });
        x.instrs.push(Instr::Load {
            dst: out,
            addr: outaddr,
            ty: Type::int(32),
            may: ObjectSet::only(oa),
        });
        f.block_mut(exit).term = Terminator::Ret(Some(out));

        let r = run_cfg(&module, &f, &[]);
        assert_eq!(r.ret, Some(10));
        assert_eq!(r.stats.stores, 16);
        assert_eq!(r.stats.loads, 1);
    }

    #[test]
    fn hierarchy_and_perfect_agree_functionally() {
        let (module, f) = sum_loop_fn();
        let oracle = AliasOracle::new(&module);
        let g = pegasus::build(&f, &oracle, &BuildOptions::default()).unwrap();
        let mut m1 = Machine::new(&module, MemSystem::Perfect { latency: 2 });
        let r1 = simulate(&g, &mut m1, &[20], &SimConfig::perfect()).unwrap();
        let mut m2 = Machine::new(&module, MemSystem::default());
        let r2 = simulate(&g, &mut m2, &[20], &SimConfig::default()).unwrap();
        assert_eq!(r1.ret, r2.ret);
    }
}
