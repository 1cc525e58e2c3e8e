//! The compiled backend: executes a [`LoweredProgram`] instead of
//! interpreting the `Graph`.
//!
//! Execution proceeds in *dataflow waves*: marking a node ready enqueues
//! it on a FIFO worklist guarded by a ready bitset, and draining the list
//! fires one breadth-first cascade — every zero-latency consequence of
//! this cycle's deliveries — before time advances. The event backend
//! computes the same waves through its dirty queue; here the worklist is
//! a dense `u32` ring plus one bit per node, and each firing dispatches
//! on a pre-specialized opcode with its operand slots already resolved to
//! flat port ids, so the wave loop never touches `Graph`.
//!
//! **Equivalence contract**: this executor must be *bit-identical* to
//! [`crate::exec`] — same ready-queue order, same global sequence-number
//! assignment, same calendar event queue, same LSQ discipline. Delivery
//! sequence numbers arbitrate `Merge` nodes, so any reordering would be
//! observable in cycle counts and results; `tests/backend_equiv.rs` and
//! the `sim_determinism` goldens pin this. Speed comes from lowering
//! (static dispatch, dense slot addressing) and from batching
//! ([`BatchRunner`] amortizes lowering over a sweep), never from
//! reordering.

use crate::backend::BackendKind;
use crate::compile::{LoweredProgram, Op, OpCode};
use crate::critpath::{self, CritState, EdgeClass, NO_REC};
use crate::exec::{observe, BlockedNode, SimConfig, SimError, SimResult};
use crate::memory::Machine;
use crate::profile::{kind_label, NodeProfile, SimProfile, StallCause};
use crate::sched::{
    self, Ev, EventQueue, MemRequest, PendingOut, PortFifos, TokenGenState, RECENT_CAP,
};
use crate::trace::{Trace, TraceEvent};
use crate::wavecap::{stall_code, WaveState};
use pegasus::{Graph, NodeId};
use std::collections::VecDeque;

/// Runs a pre-lowered program with the full telemetry wrapper — the
/// batched entry point. Lower once ([`LoweredProgram::lower`] or
/// [`BatchRunner::new`]), then call this per run; `graph` must be the
/// graph the program was lowered from (used only on cold paths:
/// deadlock reports, profile/critical-path summaries).
///
/// # Errors
///
/// See [`SimError`].
pub fn simulate_lowered(
    prog: &LoweredProgram,
    graph: &Graph,
    machine: &mut Machine,
    args: &[i64],
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    observe(|| run_lowered(prog, graph, machine, args, config))
}

/// Raw (un-instrumented) entry point for the compiled backend.
pub(crate) fn run_lowered(
    prog: &LoweredProgram,
    graph: &Graph,
    machine: &mut Machine,
    args: &[i64],
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    CompiledExec::new(prog, graph, machine, args, config).and_then(CompiledExec::run)
}

/// A graph lowered once and runnable many times: the struct-of-arrays
/// batching handle. Independent runs (argument sweeps, memory-system
/// rows, generator seeds) share one decode of the graph; each `run` gets
/// fresh dynamic state, so results are identical to per-run lowering.
pub struct BatchRunner<'g> {
    g: &'g Graph,
    prog: LoweredProgram,
}

impl<'g> BatchRunner<'g> {
    /// Lowers `g` once, up front.
    pub fn new(g: &'g Graph) -> BatchRunner<'g> {
        BatchRunner { g, prog: LoweredProgram::lower(g) }
    }

    /// One run of the batch, honoring `config.backend`: the compiled
    /// backend reuses this runner's lowered program; the event backend
    /// ignores it (there is nothing to amortize) and interprets the
    /// graph. Either way the result is bit-identical.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(
        &self,
        machine: &mut Machine,
        args: &[i64],
        config: &SimConfig,
    ) -> Result<SimResult, SimError> {
        match config.backend {
            BackendKind::Compiled => simulate_lowered(&self.prog, self.g, machine, args, config),
            BackendKind::Event => crate::exec::simulate(self.g, machine, args, config),
        }
    }

    /// The lowered program (e.g. for disassembly).
    pub fn program(&self) -> &LoweredProgram {
        &self.prog
    }
}

/// The compiled-backend executor. Field-for-field mirror of
/// `exec::Executor`, with the graph/`FlatPorts` pair replaced by the
/// lowered program (the graph stays only for cold paths).
struct CompiledExec<'a> {
    prog: &'a LoweredProgram,
    /// Cold paths only: deadlock labels, profile/crit summaries.
    g: &'a Graph,
    machine: &'a mut Machine,
    config: &'a SimConfig,
    fifos: PortFifos,
    /// Sticky value of each flat input port's source (per run — sticky
    /// values depend on the arguments and object bases).
    in_sticky: Vec<Option<i64>>,
    reserved: Vec<u32>,
    out_horizon: Vec<u64>,
    mem_out: Vec<VecDeque<PendingOut>>,
    sticky: Vec<Option<i64>>,
    once_only: Vec<bool>,
    has_fired: Vec<bool>,
    events: EventQueue,
    /// The wave worklist: nodes to (re-)examine this cycle, FIFO.
    ready: VecDeque<u32>,
    /// Membership bitset for `ready`, one bit per node.
    ready_bits: Vec<u64>,
    tokengen: Vec<Option<TokenGenState>>,
    lsq_queue: VecDeque<MemRequest>,
    lsq_in_flight: u32,
    seq: u64,
    now: u64,
    fired: u64,
    deferrals: u64,
    result: Option<(Option<i64>, u64)>,
    prof: Option<Vec<NodeProfile>>,
    stall_since: Vec<Option<(u64, StallCause)>>,
    trace: Option<Vec<TraceEvent>>,
    recent: Vec<(u32, u64)>,
    recent_next: usize,
    crit_on: bool,
    crit: CritState,
    /// Waveform capture, hooked at the same sites as the event backend's
    /// (`wavecap` module docs): the captures are element-identical, so
    /// both backends render byte-identical VCD.
    waves_on: bool,
    wave: WaveState,
}

impl<'a> CompiledExec<'a> {
    fn new(
        prog: &'a LoweredProgram,
        g: &'a Graph,
        machine: &'a mut Machine,
        args: &[i64],
        config: &'a SimConfig,
    ) -> Result<Self, SimError> {
        let n = prog.ops.len();
        let num_in = prog.flat.num_in_ports();
        let num_out = prog.flat.num_out_ports();
        // Sticky propagation over the lowered topological order: the same
        // pass as the event backend's, evaluated against the op table.
        let mut sticky: Vec<Option<i64>> = vec![None; n];
        for &id in &prog.topo {
            let op = &prog.ops[id.index()];
            let s0 = |p: u32, sticky: &[Option<i64>]| -> Option<i64> {
                match prog.in_src0[(op.in_base + p) as usize] {
                    u32::MAX => None,
                    src => sticky[src as usize],
                }
            };
            let v = match &op.code {
                OpCode::Const { value } => Some(*value),
                OpCode::Param { index, ty } => match args.get(*index) {
                    Some(v) => Some(ty.normalize(*v)),
                    None => return Err(SimError::MissingArgument { index: *index }),
                },
                OpCode::Addr { obj } => Some(machine.obj_base(*obj) as i64),
                OpCode::Bin { op: b, ty, .. } => match (s0(0, &sticky), s0(1, &sticky)) {
                    (Some(a), Some(c)) => Some(b.eval(ty, a, c)),
                    _ => None,
                },
                OpCode::Un { op: u, ty } => s0(0, &sticky).map(|a| u.eval(ty, a)),
                OpCode::Cast { ty } => s0(0, &sticky).map(|a| ty.normalize(a)),
                OpCode::Mux { ty } => {
                    let nin = op.nin as usize;
                    let mut vals = Vec::with_capacity(nin);
                    for p in 0..nin as u32 {
                        match s0(p, &sticky) {
                            Some(v) => vals.push(v),
                            None => {
                                vals.clear();
                                break;
                            }
                        }
                    }
                    if vals.len() == nin && nin >= 2 {
                        let mut out = 0i64;
                        for k in 0..nin / 2 {
                            if vals[2 * k] != 0 {
                                out = ty.normalize(vals[2 * k + 1]);
                            }
                        }
                        Some(out)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            sticky[id.index()] = v;
        }
        let mut once_only = vec![false; n];
        let mut tokengen: Vec<Option<TokenGenState>> = vec![None; n];
        for (i, op) in prog.ops.iter().enumerate() {
            if matches!(op.code, OpCode::Skip) {
                continue;
            }
            if let OpCode::TokenGen { credits } = op.code {
                tokengen[i] = Some(TokenGenState {
                    credits: u64::from(credits),
                    queue: VecDeque::new(),
                    last_arrival: None,
                });
            }
            if sticky[i].is_some() || op.nin == 0 {
                continue;
            }
            once_only[i] =
                (0..u32::from(op.nin)).all(|p| match prog.in_src0[(op.in_base + p) as usize] {
                    u32::MAX => false,
                    src => sticky[src as usize].is_some(),
                });
        }
        let mut in_sticky: Vec<Option<i64>> = vec![None; num_in];
        for (fp, s) in in_sticky.iter_mut().enumerate() {
            if let Some(&src) = prog.in_src0.get(fp) {
                if src != u32::MAX {
                    *s = sticky[src as usize];
                }
            }
        }
        let crit_on = config.critpath;
        let crit = if crit_on {
            CritState::new(num_in, config.channel_capacity.max(1), prog.out_class.clone())
        } else {
            CritState::new(0, 1, Vec::new())
        };
        let mut ex = CompiledExec {
            prog,
            g,
            machine,
            config,
            fifos: PortFifos::new(num_in, config.channel_capacity.max(1)),
            in_sticky,
            reserved: vec![0; num_in],
            out_horizon: vec![0; num_out],
            mem_out: (0..num_out).map(|_| VecDeque::new()).collect(),
            sticky,
            once_only,
            has_fired: vec![false; n],
            events: EventQueue::new(),
            ready: VecDeque::new(),
            ready_bits: vec![0; n.div_ceil(64)],
            tokengen,
            lsq_queue: VecDeque::new(),
            lsq_in_flight: 0,
            seq: 0,
            now: 0,
            fired: 0,
            deferrals: 0,
            result: None,
            prof: config.profile.then(|| vec![NodeProfile::default(); n]),
            stall_since: if config.profile { vec![None; n] } else { Vec::new() },
            trace: config.trace.then(Vec::new),
            recent: Vec::with_capacity(RECENT_CAP),
            recent_next: 0,
            crit_on,
            crit,
            waves_on: config.waves,
            wave: if config.waves { WaveState::new(num_out, num_in, n) } else { WaveState::off() },
        };
        // Kick off, in node order like the event backend: initial tokens
        // deliver at cycle 0; everything else joins the first wave.
        for i in 0..n {
            match ex.prog.ops[i].code {
                OpCode::Skip => {}
                OpCode::InitialToken => {
                    let fire = if ex.crit_on {
                        ex.crit.push_rec(i as u32, NO_REC, EdgeClass::Token, 0)
                    } else {
                        NO_REC
                    };
                    ex.push_event(
                        0,
                        Ev::Deliver { node: NodeId(i as u32), port: 0, value: 1, fire },
                    )
                }
                _ => ex.mark_ready(i as u32),
            }
        }
        Ok(ex)
    }

    fn push_event(&mut self, t: u64, ev: Ev) {
        self.seq += 1;
        self.events.push(t, self.seq, ev);
    }

    /// Enqueues node `i` on the wave worklist unless its ready bit is
    /// already set. Same FIFO discipline as the event backend's dirty
    /// queue — order is observable through merge arbitration.
    #[inline]
    fn mark_ready(&mut self, i: u32) {
        let (w, b) = ((i >> 6) as usize, i & 63);
        if self.ready_bits[w] & (1 << b) == 0 {
            self.ready_bits[w] |= 1 << b;
            self.ready.push_back(i);
        }
    }

    fn run(mut self) -> Result<SimResult, SimError> {
        loop {
            match self.step_once() {
                Ok(Some(r)) => return Ok(r),
                Ok(None) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// One scheduler round: deliveries, LSQ issue, one firing wave, time
    /// advance. Mirrors `exec::Executor::step_once` exactly.
    fn step_once(&mut self) -> Result<Option<SimResult>, SimError> {
        let due = self.events.take_due(self.now);
        for &(_, _, ev) in &due {
            match ev {
                Ev::Deliver { node, port, value, fire } => {
                    let oid = self.prog.ops[node.index()].out_base + u32::from(port);
                    self.deliver(oid, value, fire)
                }
                Ev::LsqRelease { level } => {
                    self.lsq_in_flight -= 1;
                    if self.crit_on {
                        self.crit.timeline.release(self.now, level);
                    }
                    if let Some(tr) = self.trace.as_mut() {
                        tr.push(TraceEvent::Lsq {
                            cycle: self.now,
                            in_flight: self.lsq_in_flight,
                            queued: self.lsq_queue.len() as u32,
                        });
                    }
                }
            }
        }
        self.events.recycle(due);
        self.lsq_issue();
        // Drain the wave: breadth-first over the ready worklist, with the
        // same spin guard as the event backend.
        let mut steps = 0usize;
        let step_cap = 64 * self.prog.ops.len() + 1024;
        while let Some(i) = self.ready.pop_front() {
            self.ready_bits[(i >> 6) as usize] &= !(1 << (i & 63));
            self.try_fire(i);
            if self.result.is_some() {
                break;
            }
            steps += 1;
            if steps > step_cap {
                self.deferrals += 1;
                break;
            }
        }
        if let Some((ret, cycles)) = self.result {
            return Ok(Some(self.finish(ret, cycles)));
        }
        let busy = !self.ready.is_empty() || !self.lsq_queue.is_empty();
        let next = if busy {
            self.now + 1
        } else {
            match self.events.next_time() {
                Some(t) => t.max(self.now + 1),
                None => {
                    return Err(SimError::Deadlock {
                        cycle: self.now,
                        blocked: self.blocked_nodes(),
                    })
                }
            }
        };
        if next > self.config.max_cycles {
            return Err(SimError::MaxCycles { limit: self.config.max_cycles });
        }
        self.now = next;
        Ok(None)
    }

    /// Pushes `value` into the FIFO of every consumer of flat output
    /// `oid`, assigning the delivery's global sequence number.
    fn deliver(&mut self, oid: u32, value: i64, fire: u32) {
        self.seq += 1;
        let seq = self.seq;
        let crit_class = if self.crit_on {
            EdgeClass::from_u8(self.prog.out_class[oid as usize])
        } else {
            EdgeClass::Data
        };
        if self.waves_on {
            self.wave.record_out(oid as usize, self.now, value);
        }
        let (start, end) = self.prog.flat.consumer_range_of(oid);
        for i in start..end {
            let u = self.prog.flat.consumer_at(i);
            let r = &mut self.reserved[u.dst_flat as usize];
            if *r > 0 {
                *r -= 1;
            }
            let at = self.fifos.push_back(u.dst_flat as usize, (seq, value));
            if self.crit_on {
                self.crit.channel_push(at, fire, self.now, crit_class);
            }
            if self.waves_on {
                self.wave.record_occ_push(u.dst_flat as usize, self.now);
            }
            self.mark_ready(u.dst.0);
        }
    }

    #[inline]
    fn avail(&self, fp: usize) -> bool {
        self.in_sticky[fp].is_some() || !self.fifos.is_empty(fp)
    }

    #[inline]
    fn front_seq(&self, fp: usize) -> Option<u64> {
        self.fifos.front(fp).map(|(s, _)| s)
    }

    /// Pops flat input `fp` (no-op for sticky inputs), waking the
    /// producer on a full→non-full transition.
    fn pop_input(&mut self, fp: usize) -> i64 {
        if let Some(v) = self.in_sticky[fp] {
            return v;
        }
        let was_full =
            self.fifos.len(fp) + self.reserved[fp] as usize >= self.config.channel_capacity;
        let ((_, v), at) = self.fifos.pop_front(fp).expect("pop of available input");
        if self.crit_on {
            self.crit.pop_and_offer(at);
        }
        if self.waves_on {
            self.wave.record_occ_pop(fp, self.now);
        }
        if was_full {
            self.mark_ready(self.prog.in_src[fp]);
        }
        v
    }

    /// Do all consumers of flat output `oid` have space for one value?
    fn space_for(&self, oid: u32) -> bool {
        for u in self.prog.flat.consumers_of(oid) {
            let len = self.fifos.len(u.dst_flat as usize);
            let res = self.reserved[u.dst_flat as usize] as usize;
            if len + res >= self.config.channel_capacity {
                return false;
            }
        }
        true
    }

    fn reserve(&mut self, oid: u32) {
        let (start, end) = self.prog.flat.consumer_range_of(oid);
        for i in start..end {
            let u = self.prog.flat.consumer_at(i);
            self.reserved[u.dst_flat as usize] += 1;
        }
    }

    #[inline]
    fn crit_fire_rec(&mut self) -> u32 {
        if self.crit_on {
            self.crit.fire_rec(self.now)
        } else {
            NO_REC
        }
    }

    #[inline]
    fn crit_grant_rec(&mut self, i: u32) -> u32 {
        if !self.crit_on {
            return NO_REC;
        }
        if self.crit.best().is_none() {
            if let Some(b) = self.tokengen[i as usize].as_ref().and_then(|st| st.last_arrival) {
                self.crit.seed_best(b);
            }
        }
        let r = self.crit.fire_rec(self.now);
        self.crit.begin_fire(i);
        r
    }

    fn emit_now(&mut self, oid: u32, value: i64, fire: u32) {
        self.deliver(oid, value, fire);
    }

    fn emit_later(&mut self, id: u32, port: u16, value: i64, lat: u64, fire: u32) {
        let oid = self.prog.ops[id as usize].out_base + u32::from(port);
        self.reserve(oid);
        self.push_event(self.now + lat, Ev::Deliver { node: NodeId(id), port, value, fire });
    }

    /// Schedules a delivery no earlier than any previously scheduled
    /// delivery on the same output port (in-order channels).
    fn emit_ordered(&mut self, id: u32, port: u16, value: i64, t: u64, fire: u32) {
        let oid = self.prog.ops[id as usize].out_base + u32::from(port);
        let h = &mut self.out_horizon[oid as usize];
        let t2 = t.max(*h);
        *h = t2;
        self.push_event(t2, Ev::Deliver { node: NodeId(id), port, value, fire });
    }

    /// Nullified-memory-output emission: instant unless real requests are
    /// outstanding on this port (see `exec::Executor::emit_mem_or_defer`).
    fn emit_mem_or_defer(&mut self, id: u32, port: u16, value: i64, fire: u32) {
        let oid = self.prog.ops[id as usize].out_base + u32::from(port);
        if self.mem_out[oid as usize].is_empty() {
            self.emit_ordered(id, port, value, self.now, fire);
        } else {
            self.mem_out[oid as usize].push_back(PendingOut::Null(value, fire));
        }
    }

    fn expect_mem_result(&mut self, id: u32, port: u16) {
        let oid = self.prog.ops[id as usize].out_base + u32::from(port);
        self.mem_out[oid as usize].push_back(PendingOut::Real);
    }

    fn complete_mem(&mut self, id: u32, port: u16, value: i64, t: u64, fire: u32) {
        let oid = (self.prog.ops[id as usize].out_base + u32::from(port)) as usize;
        let front = self.mem_out[oid].pop_front();
        debug_assert!(matches!(front, Some(PendingOut::Real)), "slot order broken");
        self.emit_ordered(id, port, value, t, fire);
        while let Some(&PendingOut::Null(v, f)) = self.mem_out[oid].front() {
            self.mem_out[oid].pop_front();
            self.emit_ordered(id, port, v, self.now, f);
        }
    }

    fn finish(&mut self, ret: Option<i64>, cycles: u64) -> SimResult {
        let profile = self.prof.take().map(|mut nodes| {
            for (i, open) in self.stall_since.iter_mut().enumerate() {
                if let Some((start, cause)) = open.take() {
                    nodes[i].add_stall(cause, cycles.saturating_sub(start));
                }
            }
            SimProfile { nodes, cycles }
        });
        let trace = self.trace.take().map(|events| Trace { events });
        let crit = self.crit_on.then(|| {
            self.crit.timeline.finish(cycles);
            critpath::summarize(&self.crit, self.g)
        });
        let waves = self.waves_on.then(|| std::mem::take(&mut self.wave).into_wave(cycles));
        SimResult {
            ret,
            cycles,
            stats: self.machine.stats.clone(),
            fired: self.fired,
            deferrals: self.deferrals,
            wall_us: 0, // stamped by the public entry points
            backend: BackendKind::Compiled.label(),
            profile,
            trace,
            crit,
            waves,
        }
    }

    /// Deadlock report (cold path — allowed to consult the graph for
    /// labels and hyperblock ids).
    fn blocked_nodes(&self) -> Vec<BlockedNode> {
        let mut out = Vec::new();
        for (i, op) in self.prog.ops.iter().enumerate() {
            if matches!(op.code, OpCode::Skip)
                || self.sticky[i].is_some()
                || (self.once_only[i] && self.has_fired[i])
            {
                continue;
            }
            let nin = op.nin;
            if nin == 0 {
                continue;
            }
            let mut have = Vec::new();
            let mut missing = Vec::new();
            let mut queued = false;
            for p in 0..nin {
                let fp = (op.in_base + u32::from(p)) as usize;
                if self.avail(fp) {
                    have.push(p);
                    queued |= !self.fifos.is_empty(fp);
                } else {
                    missing.push((p, self.prog.in_class[fp]));
                }
            }
            if (!have.is_empty() && !missing.is_empty()) || (missing.is_empty() && queued) {
                let id = NodeId(i as u32);
                out.push(BlockedNode {
                    node: id,
                    op: kind_label(self.g.kind(id)),
                    hb: self.g.hb(id),
                    have,
                    missing,
                });
            }
        }
        out
    }

    /// Stall attribution — the event backend's rule
    /// ([`sched::classify_stall`]) over the lowered tables.
    fn classify_stall(&self, i: u32) -> Option<StallCause> {
        let op = &self.prog.ops[i as usize];
        let start = op.in_base as usize;
        sched::classify_stall(
            start..start + usize::from(op.nin),
            &self.fifos,
            &self.in_sticky,
            &self.prog.in_class,
        )
    }

    fn note_fire(&mut self, i: u32) {
        let now = self.now;
        let prof = self.prof.as_mut().expect("note_fire only when profiling");
        let p = &mut prof[i as usize];
        p.fires += 1;
        if p.first_fire.is_none() {
            p.first_fire = Some(now);
        }
        p.last_fire = Some(now);
        if let Some((start, cause)) = self.stall_since[i as usize].take() {
            p.add_stall(cause, now.saturating_sub(start));
        }
    }

    /// Bookkeeping for a failed firing attempt, sharing one stall
    /// classification: profiling opens a stall window (once) attributed to
    /// whatever is holding the node up, and waveform capture records the
    /// stall class.
    fn note_stall(&mut self, i: u32) {
        let open = self.prof.is_some() && self.stall_since[i as usize].is_none();
        if !open && !self.waves_on {
            return;
        }
        let cause = self.classify_stall(i);
        if open {
            self.stall_since[i as usize] = cause.map(|c| (self.now, c));
        }
        if self.waves_on {
            self.wave.record_stall(i as usize, self.now, stall_code(cause));
        }
    }

    fn try_fire(&mut self, i: u32) {
        // At most a few back-to-back firings per visit, like the event
        // backend, so one node cannot monopolize a wave.
        for _ in 0..4 {
            if !self.fire_once(i) {
                if self.prof.is_some() || self.waves_on {
                    self.note_stall(i);
                }
                return;
            }
            self.fired += 1;
            self.has_fired[i as usize] = true;
            if self.recent.len() < RECENT_CAP {
                self.recent.push((i, self.now));
            } else {
                self.recent[self.recent_next] = (i, self.now);
            }
            self.recent_next = (self.recent_next + 1) % RECENT_CAP;
            if self.prof.is_some() {
                self.note_fire(i);
            }
            if self.waves_on {
                self.wave.record_fire(i as usize, self.now);
                self.wave.record_stall(i as usize, self.now, 0);
            }
            if let Some(tr) = self.trace.as_mut() {
                tr.push(TraceEvent::Fire { node: NodeId(i), cycle: self.now });
            }
        }
        self.mark_ready(i);
    }

    /// Attempts one firing of op `i`; returns whether it fired. One
    /// static dispatch on the lowered opcode — no graph access.
    fn fire_once(&mut self, i: u32) -> bool {
        if self.sticky[i as usize].is_some() {
            return false; // sticky nodes never fire dynamically
        }
        if self.once_only[i as usize] && self.has_fired[i as usize] {
            return false; // entry-hyperblock op: one execution only
        }
        if self.crit_on {
            self.crit.begin_fire(i);
        }
        // Copy the program reference out of `self` so matching on the op
        // borrows the lowered program (which outlives this call), not
        // `self`.
        let prog = self.prog;
        let op: &Op = &prog.ops[i as usize];
        let inb = op.in_base;
        let outb = op.out_base;
        match &op.code {
            OpCode::Skip
            | OpCode::Const { .. }
            | OpCode::Param { .. }
            | OpCode::Addr { .. }
            | OpCode::InitialToken => false,
            OpCode::Bin { op: b, ty, lat } => {
                if !(self.avail(inb as usize)
                    && self.avail(inb as usize + 1)
                    && self.space_for(outb))
                {
                    return false;
                }
                let a = self.pop_input(inb as usize);
                let c = self.pop_input(inb as usize + 1);
                let v = b.eval(ty, a, c);
                let fr = self.crit_fire_rec();
                self.emit_later(i, 0, v, *lat, fr);
                true
            }
            OpCode::Un { op: u, ty } => {
                if !(self.avail(inb as usize) && self.space_for(outb)) {
                    return false;
                }
                let a = self.pop_input(inb as usize);
                let fr = self.crit_fire_rec();
                self.emit_later(i, 0, u.eval(ty, a), 1, fr);
                true
            }
            OpCode::Cast { ty } => {
                if !(self.avail(inb as usize) && self.space_for(outb)) {
                    return false;
                }
                let a = self.pop_input(inb as usize);
                let fr = self.crit_fire_rec();
                self.emit_now(outb, ty.normalize(a), fr);
                true
            }
            OpCode::Mux { ty } => {
                let nin = op.nin as usize;
                for p in 0..nin {
                    if !self.avail(inb as usize + p) {
                        return false;
                    }
                }
                if !self.space_for(outb) {
                    return false;
                }
                // Exactly one predicate is true in a well-formed program;
                // the last true one wins otherwise.
                let mut out = 0i64;
                for k in 0..nin / 2 {
                    let p = self.pop_input(inb as usize + 2 * k);
                    let v = self.pop_input(inb as usize + 2 * k + 1);
                    if p != 0 {
                        out = ty.normalize(v);
                    }
                }
                let fr = self.crit_fire_rec();
                self.emit_now(outb, out, fr);
                true
            }
            OpCode::Merge => {
                if !self.space_for(outb) {
                    return false;
                }
                // Pop the globally oldest waiting input. Strictly smaller
                // wins, first port wins ties — same as the event backend.
                let nin = op.nin as usize;
                let mut best_seq = u64::MAX;
                let mut best_p = usize::MAX;
                for p in 0..nin {
                    let s = self.fifos.front_seq_or_max(inb as usize + p);
                    if s < best_seq {
                        best_seq = s;
                        best_p = p;
                    }
                }
                if best_p == usize::MAX {
                    return false;
                }
                let v = self.pop_input(inb as usize + best_p);
                let fr = self.crit_fire_rec();
                self.emit_now(outb, v, fr);
                true
            }
            OpCode::Eta => {
                if !(self.avail(inb as usize)
                    && self.avail(inb as usize + 1)
                    && self.space_for(outb))
                {
                    return false;
                }
                let v = self.pop_input(inb as usize);
                let p = self.pop_input(inb as usize + 1);
                if self.waves_on {
                    self.wave.record_pred(i as usize, self.now, p != 0);
                }
                if p != 0 {
                    let fr = self.crit_fire_rec();
                    self.emit_now(outb, v, fr);
                }
                true
            }
            OpCode::Combine => {
                let nin = op.nin as usize;
                for p in 0..nin {
                    if !self.avail(inb as usize + p) {
                        return false;
                    }
                }
                if !self.space_for(outb) {
                    return false;
                }
                for p in 0..nin {
                    self.pop_input(inb as usize + p);
                }
                let fr = self.crit_fire_rec();
                self.emit_now(outb, 1, fr);
                true
            }
            OpCode::TokenGen { .. } => self.fire_tokengen(i),
            OpCode::Load { .. } => {
                if !(self.avail(inb as usize)
                    && self.avail(inb as usize + 1)
                    && self.avail(inb as usize + 2)
                    && self.space_for(outb)
                    && self.space_for(outb + 1))
                {
                    return false;
                }
                let addr = self.pop_input(inb as usize) as u64;
                let pred = self.pop_input(inb as usize + 1);
                self.pop_input(inb as usize + 2); // token
                if self.waves_on {
                    self.wave.record_pred(i as usize, self.now, pred != 0);
                }
                let fr = self.crit_fire_rec();
                self.reserve(outb);
                self.reserve(outb + 1);
                if pred == 0 {
                    // Nullified: arbitrary value, instant token (§3.1) —
                    // but never overtaking earlier in-flight results.
                    self.emit_mem_or_defer(i, 0, 0, fr);
                    self.emit_mem_or_defer(i, 1, 1, fr);
                } else {
                    self.expect_mem_result(i, 0);
                    self.expect_mem_result(i, 1);
                    self.lsq_queue.push_back(MemRequest {
                        node: NodeId(i),
                        addr,
                        value: 0,
                        is_store: false,
                        enqueued: self.now,
                        fire: fr,
                    });
                }
                true
            }
            OpCode::Store { .. } => {
                if !(self.avail(inb as usize)
                    && self.avail(inb as usize + 1)
                    && self.avail(inb as usize + 2)
                    && self.avail(inb as usize + 3)
                    && self.space_for(outb))
                {
                    return false;
                }
                let addr = self.pop_input(inb as usize) as u64;
                let value = self.pop_input(inb as usize + 1);
                let pred = self.pop_input(inb as usize + 2);
                self.pop_input(inb as usize + 3); // token
                if self.waves_on {
                    self.wave.record_pred(i as usize, self.now, pred != 0);
                }
                let fr = self.crit_fire_rec();
                self.reserve(outb);
                if pred == 0 {
                    self.emit_mem_or_defer(i, 0, 1, fr);
                } else {
                    self.expect_mem_result(i, 0);
                    self.lsq_queue.push_back(MemRequest {
                        node: NodeId(i),
                        addr,
                        value,
                        is_store: true,
                        enqueued: self.now,
                        fire: fr,
                    });
                }
                true
            }
            OpCode::Ret { has_value } => {
                let has_value = *has_value;
                let need = if has_value { 3 } else { 2 };
                for p in 0..need {
                    if !self.avail(inb as usize + p) {
                        return false;
                    }
                }
                let pred = self.pop_input(inb as usize);
                self.pop_input(inb as usize + 1);
                let v = if has_value { Some(self.pop_input(inb as usize + 2)) } else { None };
                if self.waves_on {
                    self.wave.record_pred(i as usize, self.now, pred != 0);
                }
                if pred != 0 {
                    if self.crit_on {
                        let fr = self.crit.fire_rec(self.now);
                        self.crit.ret_rec = Some(fr);
                    }
                    self.result = Some((if has_value { v } else { None }, self.now));
                }
                true
            }
        }
    }

    fn fire_tokengen(&mut self, i: u32) -> bool {
        let inb = self.prog.ops[i as usize].in_base as usize;
        let outb = self.prog.ops[i as usize].out_base;
        let mut progressed = false;
        // Absorb every available input in arrival order: predicates queue
        // up for grants, returned tokens add credits.
        loop {
            let pred_seq = self.front_seq(inb);
            let tok_seq = self.front_seq(inb + 1);
            let pick = match (pred_seq, tok_seq) {
                (None, None) => break,
                (Some(_), None) => 0u16,
                (None, Some(_)) => 1u16,
                (Some(a), Some(b)) => {
                    if a < b {
                        0
                    } else {
                        1
                    }
                }
            };
            if pick == 0 {
                let p = self.pop_input(inb);
                let st = self.tokengen[i as usize].as_mut().expect("tokengen state");
                st.queue.push_back(p != 0);
            } else {
                self.pop_input(inb + 1);
                let st = self.tokengen[i as usize].as_mut().expect("tokengen state");
                st.credits += 1;
            }
            progressed = true;
        }
        // Remember the newest absorb so credit-banked grants in later
        // calls still chain into the path instead of becoming roots.
        if self.crit_on {
            if let Some(b) = self.crit.best() {
                if let Some(st) = self.tokengen[i as usize].as_mut() {
                    st.last_arrival = Some(b);
                }
            }
        }
        // Emit grants in order while credits (or free exit grants) allow
        // and the consumers have space.
        loop {
            let st = self.tokengen[i as usize].as_mut().expect("tokengen state");
            let Some(&needs_credit) = st.queue.front() else { break };
            if needs_credit && st.credits == 0 {
                break;
            }
            if !self.space_for(outb) {
                break;
            }
            let st = self.tokengen[i as usize].as_mut().expect("tokengen state");
            if needs_credit {
                st.credits -= 1;
            }
            st.queue.pop_front();
            let fr = self.crit_grant_rec(i);
            self.emit_now(outb, 1, fr);
            progressed = true;
        }
        progressed
    }

    /// Issues queued memory requests subject to ports and LSQ size.
    fn lsq_issue(&mut self) {
        let prog = self.prog;
        let mut issued = 0;
        while issued < self.config.lsq_ports
            && self.lsq_in_flight < self.config.lsq_size
            && !self.lsq_queue.is_empty()
        {
            let req = self.lsq_queue.pop_front().expect("nonempty queue");
            let snap = (
                self.machine.stats.l1_misses,
                self.machine.stats.l2_misses,
                self.machine.stats.tlb_misses,
            );
            let lat = self.machine.access_cycles(req.addr, req.is_store);
            // Where in the hierarchy did the access land? Recovered from
            // the stats delta: 0 = L1 (or perfect memory), 1 = L2,
            // 2 = DRAM. A TLB miss counts as a miss at its level.
            let missed =
                self.machine.stats.l1_misses != snap.0 || self.machine.stats.tlb_misses != snap.2;
            let level: u8 = if self.machine.stats.l1_misses == snap.0 {
                0
            } else if self.machine.stats.l2_misses == snap.1 {
                1
            } else {
                2
            };
            if let Some(prof) = self.prof.as_mut() {
                // Port contention: cycles the request sat queued.
                prof[req.node.index()]
                    .add_stall(StallCause::LsqPort, self.now.saturating_sub(req.enqueued));
            }
            // An LSQ-order self-edge when the request sat queued behind
            // ports/occupancy: the wait is the LSQ's fault, not the input's.
            let mut fire = req.fire;
            if self.crit_on {
                self.crit.timeline.issue(self.now, level);
                if self.now > req.enqueued {
                    fire = self.crit.push_rec(req.node.0, fire, EdgeClass::LsqOrder, self.now);
                }
            }
            if req.is_store {
                let ty = match &prog.ops[req.node.index()].code {
                    OpCode::Store { ty } => ty,
                    _ => unreachable!("store request from non-store"),
                };
                self.machine.store(req.addr, ty, req.value);
                // Token as soon as the store is ordered (§3.2: "the token
                // can be generated before memory has been updated"). The
                // store's memory latency is deliberately absent from the
                // path: nothing downstream waits on the write completing.
                let ft = if self.crit_on {
                    self.crit.push_rec(req.node.0, fire, EdgeClass::Token, self.now + 1)
                } else {
                    fire
                };
                self.complete_mem(req.node.0, 0, 1, self.now + 1, ft);
            } else {
                let ty = match &prog.ops[req.node.index()].code {
                    OpCode::Load { ty } => ty,
                    _ => unreachable!("load request from non-load"),
                };
                let v = self.machine.load(req.addr, ty);
                // Value when the access completes (a memory-latency
                // self-edge, split hit vs. miss); token once ordered.
                let (fv, ft) = if self.crit_on {
                    let cls = if missed { EdgeClass::CacheMiss } else { EdgeClass::MemLat };
                    (
                        self.crit.push_rec(req.node.0, fire, cls, self.now + lat),
                        self.crit.push_rec(req.node.0, fire, EdgeClass::Token, self.now + 1),
                    )
                } else {
                    (fire, fire)
                };
                self.complete_mem(req.node.0, 0, v, self.now + lat, fv);
                self.complete_mem(req.node.0, 1, 1, self.now + 1, ft);
            }
            self.lsq_in_flight += 1;
            self.push_event(self.now + lat, Ev::LsqRelease { level });
            if let Some(tr) = self.trace.as_mut() {
                tr.push(TraceEvent::Mem {
                    node: req.node,
                    cycle: self.now,
                    latency: lat,
                    addr: req.addr,
                    is_store: req.is_store,
                });
                tr.push(TraceEvent::Lsq {
                    cycle: self.now,
                    in_flight: self.lsq_in_flight,
                    queued: self.lsq_queue.len() as u32,
                });
            }
            issued += 1;
        }
    }
}
