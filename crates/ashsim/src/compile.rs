//! Lowering Pegasus graphs to a flat opcode program ("bytecode") for the
//! compiled backend.
//!
//! The event backend consults `Graph` on every firing: a `NodeKind` match
//! through a per-node struct, `input`/`uses` table walks for port lookups,
//! and a second indirection through [`FlatPorts`] for the CSR adjacency.
//! Lowering hoists all of that to compile time: each node becomes one
//! compact [`Op`] whose opcode is already specialized by kind (with the
//! evaluated `Type` and ALU latency baked in) and whose operand slots are
//! the node's *flat* input/output port bases — the executor addresses
//! every per-port array with `in_base + port` and never touches the graph
//! on the hot path. Side tables (`in_src`, `in_class`, `out_class`,
//! sticky-source ids) are struct-of-arrays, indexed the same way, so a
//! batch of runs over one [`LoweredProgram`] shares all decode work.
//!
//! Lowering is purely structural: no simulation state lives here, so one
//! lowered program can back any number of concurrent runs.

use crate::critpath::EdgeClass;
use crate::exec::alu_latency;
use crate::sched::input_classes;
use cfgir::objects::ObjId;
use cfgir::types::{BinOp, Type, UnOp};
use pegasus::{FlatPorts, Graph, NodeId, NodeKind, VClass};

/// One lowered operation's opcode: the node kind with its dynamic
/// parameters (type, latency, payload) resolved at lower time. `Type`s
/// are cloned in so evaluation calls the exact `cfgir` semantics
/// (`BinOp::eval`, `Type::normalize`) the event backend uses — zero room
/// for semantic drift between backends.
#[derive(Debug, Clone)]
pub(crate) enum OpCode {
    /// Removed node: occupies its index, never scheduled.
    Skip,
    /// Run-time constant source, pre-normalized at lower time.
    Const {
        value: i64,
    },
    /// Argument source; normalized against the run's argument vector.
    Param {
        index: usize,
        ty: Type,
    },
    /// Object base-address source; resolved against the run's machine.
    Addr {
        obj: ObjId,
    },
    /// Initial token: delivers once at cycle 0.
    InitialToken,
    /// Two-input ALU op with its latency baked in.
    Bin {
        op: BinOp,
        ty: Type,
        lat: u64,
    },
    Un {
        op: UnOp,
        ty: Type,
    },
    Cast {
        ty: Type,
    },
    Mux {
        ty: Type,
    },
    Merge,
    Eta,
    Combine,
    TokenGen {
        credits: u32,
    },
    Load {
        ty: Type,
    },
    Store {
        ty: Type,
    },
    Ret {
        has_value: bool,
    },
}

impl OpCode {
    /// Stable mnemonic for disassembly.
    pub(crate) fn mnemonic(&self) -> &'static str {
        match self {
            OpCode::Skip => "skip",
            OpCode::Const { .. } => "const",
            OpCode::Param { .. } => "param",
            OpCode::Addr { .. } => "addr",
            OpCode::InitialToken => "token0",
            OpCode::Bin { .. } => "bin",
            OpCode::Un { .. } => "un",
            OpCode::Cast { .. } => "cast",
            OpCode::Mux { .. } => "mux",
            OpCode::Merge => "merge",
            OpCode::Eta => "eta",
            OpCode::Combine => "combine",
            OpCode::TokenGen { .. } => "tokengen",
            OpCode::Load { .. } => "load",
            OpCode::Store { .. } => "store",
            OpCode::Ret { .. } => "ret",
        }
    }
}

/// One lowered operation: opcode plus the operand-slot bases. Input port
/// `p` of this op is flat input id `in_base + p`; output port `q` is flat
/// output id `out_base + q` — dense indices into the FIFO slab,
/// reservation counters and CSR offsets.
#[derive(Debug, Clone)]
pub(crate) struct Op {
    pub(crate) code: OpCode,
    /// Input arity (`Graph::num_inputs`, including variadic joins).
    pub(crate) nin: u16,
    pub(crate) in_base: u32,
    pub(crate) out_base: u32,
}

/// A graph lowered to flat opcodes plus struct-of-arrays side tables.
/// Structural only — build once with [`LoweredProgram::lower`], run many
/// times (see [`crate::waves`] and [`crate::BatchRunner`]).
pub struct LoweredProgram {
    /// One op per node index (removed nodes hold [`OpCode::Skip`]).
    pub(crate) ops: Vec<Op>,
    /// Dense port numbering + CSR consumer adjacency of the same graph.
    pub(crate) flat: FlatPorts,
    /// Topological node order, for the per-run sticky-constant pass.
    pub(crate) topo: Vec<NodeId>,
    /// Per flat input port: producer node (`u32::MAX` if unconnected).
    pub(crate) in_src: Vec<u32>,
    /// Per flat input port: producer node when connected to the
    /// producer's output 0, else `u32::MAX` — output 0 is the only port
    /// that can carry a sticky value, so this is the sticky-source table.
    pub(crate) in_src0: Vec<u32>,
    /// Per flat input port: the value class it carries.
    pub(crate) in_class: Vec<VClass>,
    /// Per flat output port: the critical-path edge class, as `u8`.
    pub(crate) out_class: Vec<u8>,
}

impl LoweredProgram {
    /// Lowers `g`. `O(nodes + edges)`, no simulation state.
    pub fn lower(g: &Graph) -> LoweredProgram {
        let flat = FlatPorts::new(g);
        let num_in = flat.num_in_ports();
        let num_out = flat.num_out_ports();
        let mut ops = Vec::with_capacity(g.len());
        for id in g.ids() {
            let code = match g.kind(id) {
                NodeKind::Removed => OpCode::Skip,
                NodeKind::Const { value, ty } => OpCode::Const { value: ty.normalize(*value) },
                NodeKind::Param { index, ty } => OpCode::Param { index: *index, ty: ty.clone() },
                NodeKind::Addr { obj } => OpCode::Addr { obj: *obj },
                NodeKind::InitialToken => OpCode::InitialToken,
                NodeKind::BinOp { op, ty } => {
                    OpCode::Bin { op: *op, ty: ty.clone(), lat: alu_latency(*op) }
                }
                NodeKind::UnOp { op, ty } => OpCode::Un { op: *op, ty: ty.clone() },
                NodeKind::Cast { ty } => OpCode::Cast { ty: ty.clone() },
                NodeKind::Mux { ty } => OpCode::Mux { ty: ty.clone() },
                NodeKind::Merge { .. } => OpCode::Merge,
                NodeKind::Eta { .. } => OpCode::Eta,
                NodeKind::Combine => OpCode::Combine,
                NodeKind::TokenGen { n } => OpCode::TokenGen { credits: *n },
                NodeKind::Load { ty, .. } => OpCode::Load { ty: ty.clone() },
                NodeKind::Store { ty, .. } => OpCode::Store { ty: ty.clone() },
                NodeKind::Return { has_value, .. } => OpCode::Ret { has_value: *has_value },
            };
            ops.push(Op {
                code,
                nin: g.num_inputs(id) as u16,
                in_base: flat.in_range(id).0,
                out_base: flat.out_range(id).0,
            });
        }
        let mut in_src = vec![u32::MAX; num_in];
        let mut in_src0 = vec![u32::MAX; num_in];
        for id in g.ids() {
            for p in 0..g.num_inputs(id) as u16 {
                let fp = flat.in_id(id, p) as usize;
                if let Some(i) = g.input(id, p) {
                    in_src[fp] = i.src.node.0;
                    if i.src.port == 0 {
                        in_src0[fp] = i.src.node.0;
                    }
                }
            }
        }
        let in_class = input_classes(g, &flat);
        let mut out_class = vec![EdgeClass::Data as u8; num_out];
        for id in g.ids() {
            let k = g.kind(id);
            for port in 0..k.num_outputs() {
                out_class[flat.out_id(id, port) as usize] =
                    EdgeClass::of_vclass(k.output_class(port)) as u8;
            }
        }
        LoweredProgram {
            ops,
            flat,
            topo: pegasus::topo_order(g),
            in_src,
            in_src0,
            in_class,
            out_class,
        }
    }

    /// Number of ops (== node slots of the lowered graph).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Disassembles the program into one structural record per op, so
    /// tests can compare operand-slot resolution against the graph and
    /// its [`FlatPorts`] CSR adjacency directly (lower → disassemble →
    /// compare), catching slot-arithmetic bugs without running anything.
    pub fn disasm(&self) -> Vec<OpView> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let id = NodeId(i as u32);
                let (in_base, in_end) = self.flat.in_range(id);
                let (out_base, out_end) = self.flat.out_range(id);
                debug_assert_eq!((in_base, out_base), (op.in_base, op.out_base));
                let inputs = (in_base..in_end)
                    .map(|fp| InPortView {
                        flat: fp,
                        class: self.in_class[fp as usize],
                        src: match self.in_src[fp as usize] {
                            u32::MAX => None,
                            s => Some(s),
                        },
                    })
                    .collect();
                let outputs = (out_base..out_end)
                    .map(|oid| {
                        self.flat
                            .consumers_of(oid)
                            .iter()
                            .map(|u| (u.dst.0, u.dst_port, u.dst_flat))
                            .collect()
                    })
                    .collect();
                OpView {
                    node: i as u32,
                    mnemonic: op.code.mnemonic(),
                    nin: op.nin,
                    nout: (out_end - out_base) as u16,
                    in_base: op.in_base,
                    out_base: op.out_base,
                    inputs,
                    outputs,
                }
            })
            .collect()
    }
}

/// Disassembly of one [`Op`] (see [`LoweredProgram::disasm`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpView {
    /// Node index the op was lowered from.
    pub node: u32,
    /// Opcode mnemonic (`"bin"`, `"load"`, `"skip"`, …).
    pub mnemonic: &'static str,
    /// Input arity.
    pub nin: u16,
    /// Output arity.
    pub nout: u16,
    /// First flat input-port id.
    pub in_base: u32,
    /// First flat output-port id.
    pub out_base: u32,
    /// Per input port, in port order.
    pub inputs: Vec<InPortView>,
    /// Per output port, in port order: consumers as
    /// `(dst node, dst port, dst flat input id)` in CSR order.
    pub outputs: Vec<Vec<(u32, u16, u32)>>,
}

/// One input-port slot of a disassembled op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InPortView {
    /// The port's flat id (`in_base + port`).
    pub flat: u32,
    /// Value class the port carries.
    pub class: VClass,
    /// Producer node, if connected.
    pub src: Option<u32>,
}
