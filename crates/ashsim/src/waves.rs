//! Cycle-accurate waveform capture: one time-ordered change log fed by
//! the executor's delivery/fire hooks, decoded lazily into per-signal
//! views and exportable as VCD.
//!
//! # Capture model
//!
//! When [`SimConfig::waves`](crate::SimConfig) is on, the executor
//! ([`crate::exec`]) calls into a [`WaveState`] at five hook points:
//!
//! - **value** — at delivery, per flat *output* port: recorded only when
//!   the value differs from the last recorded one (a change list, not a
//!   sample list);
//! - **occupancy** — per flat *input* port, on every FIFO push and pop;
//! - **fire** — per node, the cycle of every successful firing;
//! - **stall** — per node, transitions of the classified stall cause
//!   (0 = not stalled, then [`StallCause`] codes), deduplicated;
//! - **pred** — per node with a predicate input (eta, load, store,
//!   return), the popped predicate outcome, deduplicated.
//!
//! # Log layout
//!
//! Every change lands in **one append-only `Vec<u32>`**, in the order the
//! hooks run. A record starts with a tag word: the kind in the top three
//! bits, the signal id (flat output port, flat input port or node index)
//! in the low 29. Output values follow their tag as two words (low, high
//! half of the `i64`); stall codes and predicate outcomes as one. Fires
//! and occupancy pushes/pops are the bare tag: depth is not stored but
//! rebuilt when the log is decoded. The cycle is not stored per record
//! either — a cycle-marker word (the delta since the previous marker, or
//! an escape followed by the absolute cycle as two words when the delta
//! does not fit in 29 bits) is written only when the cycle advances.
//!
//! Deduplication reads dense per-signal arrays (last output value, last
//! stall code, last predicate) instead of the tail of a per-signal list,
//! so a hook touches one small array and the end of one vector — the
//! scattered appends into thousands of live vector tails that the capture
//! used to pay are gone.
//!
//! # Views
//!
//! [`Wave`] keeps the log as captured. When the run finishes, `changes`
//! is the log's length less its marker and value words (tallied on the
//! rare paths that write them) and `signals` is read off the
//! deduplication arrays — no pass over the log. The per-signal lists
//! behind [`Wave::out_list`] and friends are decoded on first access, in
//! one sequential pass cached for the capture's lifetime: a run whose
//! capture only feeds the `cash-stats-v1` summary never builds them.
//! Equality compares the decoded views, not the logs: two captures are
//! equal when every per-signal list is, whatever order different
//! signals' hooks ran in within a cycle. The VCD is rendered from the
//! same views (pinned **byte-for-byte** by the goldens in
//! `tests/waves.rs`).
//!
//! The replay debugger positions breakpoints on the log: a [`LogMark`]
//! taken before a step, and a scan of only the records the step appended.
//!
//! # VCD rendering
//!
//! [`Wave::to_vcd`] renders through [`obs::vcd::VcdWriter`] with a scope
//! tree mirroring hyperblocks (`hb0`, `hb1_loop`, …, `global`) and
//! per-node variables named off [`pegasus::name::node_stem`]:
//! `<stem>_out<p>` (64-bit value), `<stem>_in<p>_occ` (occupancy, 8 bits
//! or as wide as the deepest FIFO the capture saw), `<stem>_fire` (32-bit
//! cumulative fire counter), `<stem>_stall` (3-bit cause code) and
//! `<stem>_pred` (1-bit). One simulator cycle maps to one `1ns` tick.

use std::fmt::Write as _;
use std::sync::OnceLock;

use pegasus::{FlatPorts, Graph, NodeId, NodeKind};

use crate::profile::StallCause;

/// Stall-cause code as stored in stall records: 0 = not stalled.
pub fn stall_code(cause: Option<StallCause>) -> u8 {
    match cause {
        None => 0,
        Some(StallCause::DataInput) => 1,
        Some(StallCause::PredInput) => 2,
        Some(StallCause::TokenInput) => 3,
        Some(StallCause::LsqPort) => 4,
        Some(StallCause::OutputSpace) => 5,
    }
}

/// Human label for a stall code (for `cashdbg` and the diagnose tail).
pub fn stall_label(code: u8) -> &'static str {
    match code {
        0 => "ready",
        1 => "data",
        2 => "pred",
        3 => "token",
        4 => "lsq",
        5 => "output",
        _ => "?",
    }
}

/// Tag word layout: kind above `KIND_SHIFT`, signal id (or cycle delta)
/// below.
const KIND_SHIFT: u32 = 29;
pub(crate) const ID_MASK: u32 = (1 << KIND_SHIFT) - 1;
const OUT: u32 = 0;
const PUSH: u32 = 1;
const POP: u32 = 2;
const FIRE: u32 = 3;
const STALL: u32 = 4;
const PRED: u32 = 5;
const CYCLE: u32 = 6;
/// `last_pred` before a node's first predicate: matches neither outcome.
const NO_PRED: u8 = 2;

/// One decoded change record; ids are flat output ports (`Out`), flat
/// input ports (`Push`, `Pop`) or node indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rec {
    Out(usize, i64),
    Push(usize),
    Pop(usize),
    Fire(usize),
    Stall(usize, u8),
    Pred(usize, u8),
}

/// Signal counts of a capture's geometry: flat output ports, flat input
/// ports, nodes.
#[derive(Debug, Clone, Copy, Default)]
struct Dims {
    outs: usize,
    ins: usize,
    nodes: usize,
}

/// A position in a change log: word offset plus the cycle in force there.
/// Taken before a replay step so the breakpoint scan sees only what the
/// step appended.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LogMark {
    pos: usize,
    t: u64,
}

/// Sequential decoder over a log suffix, yielding `(cycle, record)`.
#[derive(Debug, Clone)]
pub(crate) struct Records<'a> {
    log: &'a [u32],
    pos: usize,
    t: u64,
}

impl<'a> Records<'a> {
    fn new(log: &'a [u32], from: LogMark) -> Records<'a> {
        Records { log, pos: from.pos, t: from.t }
    }

    fn word(&mut self) -> u32 {
        let w = self.log[self.pos];
        self.pos += 1;
        w
    }

    fn wide(&mut self) -> u64 {
        let lo = u64::from(self.word());
        lo | u64::from(self.word()) << 32
    }
}

impl Iterator for Records<'_> {
    type Item = (u64, Rec);

    fn next(&mut self) -> Option<(u64, Rec)> {
        loop {
            let w = *self.log.get(self.pos)?;
            self.pos += 1;
            let id = (w & ID_MASK) as usize;
            let rec = match w >> KIND_SHIFT {
                OUT => Rec::Out(id, self.wide() as i64),
                PUSH => Rec::Push(id),
                POP => Rec::Pop(id),
                FIRE => Rec::Fire(id),
                STALL => Rec::Stall(id, self.word() as u8),
                PRED => Rec::Pred(id, self.word() as u8),
                _ => {
                    self.t = if w & ID_MASK == ID_MASK {
                        self.wide()
                    } else {
                        self.t + u64::from(w & ID_MASK)
                    };
                    continue;
                }
            };
            return Some((self.t, rec));
        }
    }
}

/// The per-signal lists decoded from a log, indexed like the accessors.
#[derive(Debug, Clone, Default, PartialEq)]
struct Views {
    out: Vec<Vec<(u64, i64)>>,
    occ: Vec<Vec<(u64, u16)>>,
    fire: Vec<Vec<u64>>,
    stall: Vec<Vec<(u64, u8)>>,
    pred: Vec<Vec<(u64, u8)>>,
    /// Deepest FIFO occupancy anywhere in the capture.
    max_occ: u16,
}

/// A completed waveform capture: the change log plus lazily decoded
/// per-signal views (see the module docs).
///
/// Indices follow the simulator's dense port numbering: value lists by
/// flat output-port id, occupancy lists by flat input-port id, the rest
/// by node index. Accessors return an empty slice for out-of-range
/// indices so callers need not special-case waves-off results.
#[derive(Debug, Clone, Default)]
pub struct Wave {
    log: Vec<u32>,
    dims: Dims,
    cycles: u64,
    changes: u64,
    signals: usize,
    views: OnceLock<Views>,
}

impl PartialEq for Wave {
    fn eq(&self, other: &Wave) -> bool {
        self.cycles == other.cycles
            && self.changes == other.changes
            && self.signals == other.signals
            && self.views() == other.views()
    }
}

impl Wave {
    fn views(&self) -> &Views {
        self.views.get_or_init(|| {
            let d = self.dims;
            let mut v = Views {
                out: vec![Vec::new(); d.outs],
                occ: vec![Vec::new(); d.ins],
                fire: vec![Vec::new(); d.nodes],
                stall: vec![Vec::new(); d.nodes],
                pred: vec![Vec::new(); d.nodes],
                max_occ: 0,
            };
            let mut depth = vec![0u16; d.ins];
            for (t, r) in self.records_since(LogMark::default()) {
                match r {
                    Rec::Out(i, x) => v.out[i].push((t, x)),
                    Rec::Push(i) => {
                        depth[i] = depth[i].saturating_add(1);
                        v.max_occ = v.max_occ.max(depth[i]);
                        v.occ[i].push((t, depth[i]));
                    }
                    Rec::Pop(i) => {
                        depth[i] = depth[i].saturating_sub(1);
                        v.occ[i].push((t, depth[i]));
                    }
                    Rec::Fire(i) => v.fire[i].push(t),
                    Rec::Stall(i, c) => v.stall[i].push((t, c)),
                    Rec::Pred(i, p) => v.pred[i].push((t, p)),
                }
            }
            v
        })
    }

    /// The records appended since `from`, oldest first.
    pub(crate) fn records_since(&self, from: LogMark) -> Records<'_> {
        Records::new(&self.log, from)
    }

    /// Total change records across all signals.
    pub fn num_changes(&self) -> u64 {
        self.changes
    }

    /// Number of signals that recorded at least one change.
    pub fn num_signals(&self) -> usize {
        self.signals
    }

    /// Size of the change log in bytes.
    pub fn log_bytes(&self) -> usize {
        self.log.len() * std::mem::size_of::<u32>()
    }

    /// Final simulated cycle of the capture.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Value changes of a flat output port: `(cycle, value)`.
    pub fn out_list(&self, oid: usize) -> &[(u64, i64)] {
        self.views().out.get(oid).map_or(&[], |v| v)
    }

    /// Occupancy changes of a flat input port: `(cycle, depth)`.
    pub fn occ_list(&self, fp: usize) -> &[(u64, u16)] {
        self.views().occ.get(fp).map_or(&[], |v| v)
    }

    /// Cycles at which a node fired.
    pub fn fire_list(&self, node: usize) -> &[u64] {
        self.views().fire.get(node).map_or(&[], |v| v)
    }

    /// Stall-state transitions of a node: `(cycle, code)`, see
    /// [`stall_code`].
    pub fn stall_list(&self, node: usize) -> &[(u64, u8)] {
        self.views().stall.get(node).map_or(&[], |v| v)
    }

    /// Predicate outcomes popped by a node: `(cycle, 0|1)`, deduplicated.
    pub fn pred_list(&self, node: usize) -> &[(u64, u8)] {
        self.views().pred.get(node).map_or(&[], |v| v)
    }

    /// The `"waves"` section of `cash-stats-v1` (stable key order, no
    /// whitespace).
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"signals\":{},\"changes\":{},\"cycles\":{}}}",
            self.signals, self.changes, self.cycles
        )
    }

    /// Renders the capture as a byte-stable VCD document for `g` — the
    /// graph this capture was recorded against.
    pub fn to_vcd(&self, g: &Graph) -> String {
        let flat = FlatPorts::new(g);
        let views = self.views();
        // Occupancy is declared 8 bits wide unless a deeper FIFO was seen:
        // the writer masks values to the declared width.
        let occ_bits = (u16::BITS - views.max_occ.leading_zeros()).max(8);
        let mut w = obs::vcd::VcdWriter::new("cash-wavecap-v1", "1ns");
        // (list kind, list index, var) triples gathered during declaration
        // so the change pass replays them in declaration order — ties at
        // the same timestamp then resolve identically on every render.
        let mut emits: Vec<(u8, usize, obs::vcd::VarId)> = Vec::new();
        w.scope("cash");
        for (scope, nodes) in pegasus::name::scoped_nodes(g) {
            w.scope(&scope);
            for id in nodes {
                let stem = pegasus::name::node_stem(g, id);
                let kind = g.kind(id);
                for p in 0..kind.num_outputs() {
                    let v = w.var(&format!("{stem}_out{p}"), 64);
                    emits.push((0, flat.out_id(id, p) as usize, v));
                }
                for p in 0..g.num_inputs(id) as u16 {
                    let v = w.var(&format!("{stem}_in{p}_occ"), occ_bits);
                    emits.push((1, flat.in_id(id, p) as usize, v));
                }
                let v = w.var(&format!("{stem}_fire"), 32);
                emits.push((2, id.index(), v));
                let v = w.var(&format!("{stem}_stall"), 3);
                emits.push((3, id.index(), v));
                if matches!(
                    kind,
                    NodeKind::Eta { .. }
                        | NodeKind::Load { .. }
                        | NodeKind::Store { .. }
                        | NodeKind::Return { .. }
                ) {
                    let v = w.var(&format!("{stem}_pred"), 1);
                    emits.push((4, id.index(), v));
                }
            }
            w.upscope();
        }
        w.upscope();
        for (kind, idx, var) in emits {
            match kind {
                0 => {
                    for &(t, val) in self.out_list(idx) {
                        w.change(t, var, val as u64);
                    }
                }
                1 => {
                    for &(t, occ) in self.occ_list(idx) {
                        w.change(t, var, u64::from(occ));
                    }
                }
                2 => {
                    for (i, &t) in self.fire_list(idx).iter().enumerate() {
                        w.change(t, var, i as u64 + 1);
                    }
                }
                3 => {
                    for &(t, code) in self.stall_list(idx) {
                        w.change(t, var, u64::from(code));
                    }
                }
                _ => {
                    for &(t, p) in self.pred_list(idx) {
                        w.change(t, var, u64::from(p));
                    }
                }
            }
        }
        w.render()
    }

    /// The last-32-cycles activity report appended to deadlock diagnoses:
    /// for each blocked node, the recent occupancy changes on its input
    /// ports and the recent value changes on the producing outputs.
    pub(crate) fn tail_report(
        &self,
        g: &Graph,
        flat: &FlatPorts,
        blocked: &[NodeId],
        now: u64,
        window: u64,
    ) -> String {
        let since = now.saturating_sub(window);
        let mut s = format!("wave tail (cycles {since}..{now}) on blocked inputs:\n");
        for &id in blocked {
            for p in 0..g.num_inputs(id) as u16 {
                let fp = flat.in_id(id, p) as usize;
                let occ: Vec<_> = self.occ_list(fp).iter().filter(|(t, _)| *t >= since).collect();
                let Some(input) = g.input(id, p) else { continue };
                let oid = flat.out_id(input.src.node, input.src.port) as usize;
                let vals: Vec<_> = self.out_list(oid).iter().filter(|(t, _)| *t >= since).collect();
                let _ = write!(s, "  {id}.in{p} <- {}.out{}: ", input.src.node, input.src.port);
                if occ.is_empty() && vals.is_empty() {
                    s.push_str("quiet\n");
                    continue;
                }
                s.push_str("occ[");
                for (i, (t, d)) in occ.iter().enumerate() {
                    let _ = write!(s, "{}c{t}:{d}", if i > 0 { " " } else { "" });
                }
                s.push_str("] val[");
                for (i, (t, v)) in vals.iter().enumerate() {
                    let _ = write!(s, "{}c{t}:{v}", if i > 0 { " " } else { "" });
                }
                s.push_str("]\n");
            }
        }
        s
    }
}

/// Per-node recorder state, kept in one element so a firing's fire and
/// stall hooks touch one cache line.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    /// Last recorded stall code (0 before the first record).
    stall: u8,
    /// Last recorded predicate, `NO_PRED` before the first.
    pred: u8,
    fired: bool,
    stalled: bool,
}

/// The live recorder owned by an executor: the change log plus the dense
/// deduplication state. Hooks are only reached behind the executor's
/// single `waves_on` test, so the waves-off cost is one predictable
/// branch per hook site (gated by the `obs_smoke` noise-floor check).
///
/// Besides deduplication, the dense arrays say which signals recorded
/// anything, so the finished capture's counts need no pass over the log:
/// a record's length depends on its tag, and a scan that must decode one
/// record to find the next is a serial chain of dependent loads.
#[derive(Debug, Clone, Default)]
pub(crate) struct WaveState {
    log: Vec<u32>,
    /// Cycle of the last marker written (0 before the first).
    t: u64,
    /// Cycle-marker and value words in the log: every other word is a
    /// record's tag, so the change count needs no per-record work.
    aux_words: usize,
    last_out: Vec<Option<i64>>,
    /// Per flat input port: has it recorded a push? (Every pop follows a
    /// push on the same port, so this marks every occupancy signal.)
    pushed: Vec<bool>,
    node: Vec<NodeState>,
}

impl WaveState {
    /// Recorder for the graph's flat geometry.
    pub(crate) fn new(num_out: usize, num_in: usize, nodes: usize) -> WaveState {
        assert!(
            num_out.max(num_in).max(nodes) <= ID_MASK as usize,
            "graph too large for the wave log's 29-bit signal ids"
        );
        WaveState {
            log: Vec::new(),
            t: 0,
            aux_words: 0,
            last_out: vec![None; num_out],
            pushed: vec![false; num_in],
            node: vec![NodeState { stall: 0, pred: NO_PRED, fired: false, stalled: false }; nodes],
        }
    }

    /// Zero-capacity recorder for waves-off runs; hooks must not be
    /// reached (they would index out of bounds), matching `CritState`'s
    /// discipline.
    pub(crate) fn off() -> WaveState {
        WaveState::default()
    }

    /// Appends the tag word of a record at cycle `t`, preceded by a cycle
    /// marker when the cycle has advanced.
    #[inline]
    fn tag(&mut self, t: u64, kind: u32, id: usize) {
        if t != self.t {
            self.mark_cycle(t);
        }
        self.log.push(kind << KIND_SHIFT | id as u32);
    }

    /// Writes the marker that moves the log to cycle `t`. Once per active
    /// cycle, so kept out of line: the hooks inline into the executor's
    /// delivery and pop paths, which stay as small as with waves off.
    #[inline(never)]
    fn mark_cycle(&mut self, t: u64) {
        let delta = t.wrapping_sub(self.t);
        if delta < u64::from(ID_MASK) {
            self.log.push(CYCLE << KIND_SHIFT | delta as u32);
            self.aux_words += 1;
        } else {
            self.log.extend_from_slice(&[
                CYCLE << KIND_SHIFT | ID_MASK,
                t as u32,
                (t >> 32) as u32,
            ]);
            self.aux_words += 3;
        }
        self.t = t;
    }

    #[inline]
    pub(crate) fn record_out(&mut self, oid: usize, t: u64, value: i64) {
        if self.last_out[oid] != Some(value) {
            self.last_out[oid] = Some(value);
            self.tag(t, OUT, oid);
            self.log.extend_from_slice(&[value as u32, (value as u64 >> 32) as u32]);
            self.aux_words += 2;
        }
    }

    #[inline]
    pub(crate) fn record_occ_push(&mut self, fp: usize, t: u64) {
        self.pushed[fp] = true;
        self.tag(t, PUSH, fp);
    }

    #[inline]
    pub(crate) fn record_occ_pop(&mut self, fp: usize, t: u64) {
        self.tag(t, POP, fp);
    }

    #[inline]
    pub(crate) fn record_fire(&mut self, node: usize, t: u64) {
        self.node[node].fired = true;
        self.tag(t, FIRE, node);
    }

    #[inline]
    pub(crate) fn record_stall(&mut self, node: usize, t: u64, code: u8) {
        let n = &mut self.node[node];
        if n.stall != code {
            n.stall = code;
            n.stalled = true;
            self.tag(t, STALL, node);
            self.log.push(u32::from(code));
            self.aux_words += 1;
        }
    }

    #[inline]
    pub(crate) fn record_pred(&mut self, node: usize, t: u64, pred: bool) {
        let p = u8::from(pred);
        let n = &mut self.node[node];
        if n.pred != p {
            n.pred = p;
            self.tag(t, PRED, node);
            self.log.push(u32::from(p));
            self.aux_words += 1;
        }
    }

    /// Wraps `log` (this recorder's log, or a copy) as a [`Wave`]: every
    /// word that is not auxiliary is a record, and the dense arrays say
    /// which signals recorded anything.
    fn package(&self, log: Vec<u32>, cycles: u64) -> Wave {
        let signals = self.last_out.iter().filter(|v| v.is_some()).count()
            + self.pushed.iter().filter(|&&p| p).count()
            + self
                .node
                .iter()
                .map(|n| {
                    usize::from(n.fired) + usize::from(n.stalled) + usize::from(n.pred != NO_PRED)
                })
                .sum::<usize>();
        Wave {
            changes: (log.len() - self.aux_words) as u64,
            log,
            dims: Dims {
                outs: self.last_out.len(),
                ins: self.pushed.len(),
                nodes: self.node.len(),
            },
            cycles,
            signals,
            views: OnceLock::new(),
        }
    }

    /// The current end of the log.
    pub(crate) fn mark(&self) -> LogMark {
        LogMark { pos: self.log.len(), t: self.t }
    }

    /// The records appended since `from`, oldest first.
    pub(crate) fn records_since(&self, from: LogMark) -> Records<'_> {
        Records::new(&self.log, from)
    }

    /// The capture so far as a [`Wave`] (copies the log; `cycles` stays 0
    /// until the run finishes).
    pub(crate) fn to_wave(&self) -> Wave {
        self.package(self.log.clone(), 0)
    }

    /// Packages the capture at end of run, stamping the final cycle.
    pub(crate) fn into_wave(mut self, cycles: u64) -> Wave {
        let log = std::mem::take(&mut self.log);
        self.package(log, cycles)
    }
}
