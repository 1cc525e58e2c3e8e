//! Self-timed execution of Pegasus circuits.
//!
//! The simulator implements the asynchronous-circuit semantics of §3.1:
//! every edge is a bounded FIFO channel ("wires with registers"), and a node
//! fires as soon as its required inputs are available and its consumers have
//! space — there is no program counter and no instruction issue. Loop
//! pipelining therefore *emerges*: multiple iterations flow through the
//! merge/eta rings concurrently, throttled only by data dependences, token
//! edges and channel capacity. Memory operations go through a load-store
//! queue with a configurable number of ports (§7.3).
//!
//! A run is deterministic: for a fixed graph, arguments and [`SimConfig`],
//! each channel delivers its values in order and the event queue drains in
//! its fixed `(cycle, seq)` order, so the run produces the same cycles,
//! firings, values and memory image every time. Replay
//! ([`crate::replay`]) and the committed goldens rely on exactly this.
//! It is not Kahn-network determinism: a `Merge` pops its globally oldest
//! waiting input, and that arrival-order arbitration is not invariant under
//! channel capacity. ROADMAP item 1's nested-loop reproducer returns a
//! different value at capacity 1, 2, 3 and 8. Run-time constants are
//! modeled as always-available *sticky* sources.
//!
//! The executor comes in two instantiations of one type, chosen by the
//! `OBSERVED` const parameter. [`simulate`] runs `Executor<false>` when
//! `profile`, `trace`, `critpath` and `waves` are all off: every collector
//! hook and the recent-firings ring compile out of that loop. Any collector
//! flag selects `Executor<true>`, where each hook still tests its own
//! runtime flag; [`diagnose`] and [`crate::replay`] always use it. Both
//! instantiations run the same scheduler code, so they produce the same
//! cycles, firings and memory image.

use crate::critpath::{self, CritState, CritSummary, EdgeClass, NO_REC};
use crate::memory::{Machine, MemStats, MemSystem};
use crate::profile::{kind_label, NodeProfile, SimProfile, StallCause};
use crate::sched::{
    self, Ev, EventQueue, MemRequest, PendingOut, PortFifos, TokenGenState, RECENT_CAP,
};
use crate::trace::{Trace, TraceEvent};
use crate::waves::{stall_code, Wave, WaveState};
use cfgir::types::{BinOp, Type};
use pegasus::{FlatPorts, Graph, NodeId, NodeKind, Src, VClass};
use std::collections::VecDeque;
use std::fmt;
use std::sync::OnceLock;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The memory system timing model.
    pub mem: MemSystem,
    /// Memory operations that may issue per cycle (LSQ ports).
    pub lsq_ports: u32,
    /// Maximum memory operations in flight (LSQ size).
    pub lsq_size: u32,
    /// FIFO depth of every channel (hardware registers per wire).
    pub channel_capacity: usize,
    /// Hard cycle limit; exceeding it is an error.
    pub max_cycles: u64,
    /// Collect a per-node firing/stall profile ([`SimResult::profile`]).
    /// Off by default. With `profile`, `trace`, `critpath` and `waves` all
    /// off, [`simulate`] runs the bare executor, which has no collector
    /// code; any of them selects the observed one.
    pub profile: bool,
    /// Record the event stream for Chrome-trace export
    /// ([`SimResult::trace`]). Substantially more memory than `profile`.
    pub trace: bool,
    /// Record every firing's last-arriving input and extract the dynamic
    /// critical path at completion ([`SimResult::crit`]). Adds one flat
    /// record per firing stage and a slab mirroring the channel FIFOs.
    pub critpath: bool,
    /// Capture per-signal waveforms — value changes, FIFO occupancy,
    /// firings, predicate outcomes and stall transitions — into
    /// [`SimResult::waves`] for VCD export and `cashdbg` replay. Memory
    /// scales with total channel activity (comparable to `trace`).
    pub waves: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mem: MemSystem::default(),
            lsq_ports: 2,
            lsq_size: 16,
            channel_capacity: 2,
            max_cycles: 200_000_000,
            profile: false,
            trace: false,
            critpath: false,
            waves: false,
        }
    }
}

impl SimConfig {
    /// A perfect-memory configuration (useful for functional tests).
    pub fn perfect() -> Self {
        SimConfig { mem: MemSystem::Perfect { latency: 2 }, ..SimConfig::default() }
    }

    /// This configuration with profiling (and optionally tracing) enabled.
    pub fn with_observability(mut self, profile: bool, trace: bool) -> Self {
        self.profile = profile;
        self.trace = trace;
        self
    }

    /// This configuration with critical-path recording enabled.
    pub fn with_critpath(mut self, critpath: bool) -> Self {
        self.critpath = critpath;
        self
    }

    /// This configuration with waveform capture enabled.
    pub fn with_waves(mut self, waves: bool) -> Self {
        self.waves = waves;
        self
    }
}

/// The outcome of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The value returned (if the returning `Return` carried one).
    pub ret: Option<i64>,
    /// Cycle at which the program returned.
    pub cycles: u64,
    /// Memory statistics (dynamic loads/stores count only predicate-true
    /// accesses).
    pub stats: MemStats,
    /// Total node firings — a proxy for dynamic operation count.
    pub fired: u64,
    /// Times the scheduler's zero-latency spin guard tripped and pushed
    /// the rest of a same-cycle cascade into the next cycle. Zero for
    /// every well-formed circuit; a nonzero count flags a (near-)livelock
    /// that would otherwise be silently absorbed as extra cycles.
    pub deferrals: u64,
    /// Wall-clock time the simulation took, microseconds (the simulator's
    /// own cost, not the simulated circuit's — mirrors `opt.us`).
    pub wall_us: u64,
    /// Provenance label of the executor that produced this result, always
    /// `"event"`. Kept as the `cash-stats-v1` `"backend"` key because
    /// stats readers (`bench_diff --history`, the benchmark's tally) check
    /// it.
    pub backend: &'static str,
    /// Per-node firing/stall profile ([`SimConfig::profile`]).
    pub profile: Option<SimProfile>,
    /// Recorded event stream ([`SimConfig::trace`]).
    pub trace: Option<Trace>,
    /// Aggregated dynamic critical path ([`SimConfig::critpath`]).
    pub crit: Option<CritSummary>,
    /// Captured waveforms ([`SimConfig::waves`]).
    pub waves: Option<Wave>,
}

impl SimResult {
    /// Serializes the aggregate simulation outcome in the shared
    /// `cash-stats-v1` JSON dialect (stable key order, no whitespace).
    /// Per-node profiles and traces are exported separately
    /// ([`SimProfile::to_json`], [`Trace::to_chrome_json`]).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = format!(
            "{{\"ret\":{},\"cycles\":{},\"fired\":{},\"deferrals\":{},\"us\":{},\"mem\":{},\"backend\":\"{}\"",
            self.ret.map_or("null".to_string(), |v| v.to_string()),
            self.cycles,
            self.fired,
            self.deferrals,
            self.wall_us,
            self.stats.to_json(),
            self.backend,
        );
        if let Some(p) = &self.profile {
            // Stall-cause totals across all nodes, same keys as the
            // per-node profile's "stalled" object.
            let mut tot = [0u64; 5];
            for n in &p.nodes {
                tot[0] += n.stalled_data;
                tot[1] += n.stalled_pred;
                tot[2] += n.stalled_token;
                tot[3] += n.stalled_lsq;
                tot[4] += n.stalled_output;
            }
            let _ = write!(
                s,
                ",\"stalled\":{{\"data\":{},\"pred\":{},\"token\":{},\"lsq\":{},\"out\":{}}}",
                tot[0], tot[1], tot[2], tot[3], tot[4]
            );
        }
        if let Some(c) = &self.crit {
            let _ = write!(s, ",\"crit\":{}", c.to_json());
        }
        if let Some(w) = &self.waves {
            let _ = write!(s, ",\"waves\":{}", w.summary_json());
        }
        s.push('}');
        s
    }
}

/// One node that could not make progress when a deadlock was declared:
/// which input ports already held a value and which were still missing,
/// with the value class (data vs. predicate vs. token) of each missing
/// port. An empty `missing` list means the node was ready to fire but
/// blocked on consumer channel space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedNode {
    /// The stuck node.
    pub node: NodeId,
    /// Short operation label (e.g. `"load"`, `"eta"`).
    pub op: String,
    /// Hyperblock the node belongs to.
    pub hb: u32,
    /// Input ports whose value had arrived.
    pub have: Vec<u16>,
    /// Input ports still waiting, with the class each carries.
    pub missing: Vec<(u16, VClass)>,
}

impl fmt::Display for BlockedNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.missing.is_empty() {
            return write!(
                f,
                "{}({} hb{}) ready but blocked on output space",
                self.node, self.op, self.hb
            );
        }
        write!(f, "{}({} hb{}) waiting on", self.node, self.op, self.hb)?;
        for (i, (port, class)) in self.missing.iter().enumerate() {
            let kind = match class {
                VClass::Data => "data",
                VClass::Pred => "pred",
                VClass::Token => "token",
            };
            write!(f, "{} {kind}@{port}", if i == 0 { "" } else { "," })?;
        }
        Ok(())
    }
}

/// Why a simulation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Nothing can fire, nothing is in flight, and no return has happened.
    /// `blocked` reports every node with partial inputs and what it was
    /// waiting for (see [`BlockedNode`]).
    Deadlock { cycle: u64, blocked: Vec<BlockedNode> },
    /// The cycle limit was reached (often an infinite source-level loop).
    MaxCycles { limit: u64 },
    /// A `Param` node had no corresponding argument.
    MissingArgument { index: usize },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, blocked } => {
                write!(f, "dataflow deadlock at cycle {cycle}")?;
                if !blocked.is_empty() {
                    write!(f, " ({} blocked node(s):", blocked.len())?;
                    for b in blocked.iter().take(4) {
                        write!(f, " {b};")?;
                    }
                    if blocked.len() > 4 {
                        write!(f, " …")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            SimError::MaxCycles { limit } => write!(f, "exceeded {limit} simulated cycles"),
            SimError::MissingArgument { index } => {
                write!(f, "no argument supplied for parameter {index}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Runs `graph` on `machine` with the given arguments, under the shared
/// telemetry (span, metrics, flight note), and stamps the wall time.
///
/// # Errors
///
/// See [`SimError`].
pub fn simulate(
    graph: &Graph,
    machine: &mut Machine,
    args: &[i64],
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    let sp = obs::span::enter("sim.run");
    let observed = config.profile || config.trace || config.critpath || config.waves;
    let out = if observed {
        Executor::<true>::new(graph, machine, args, config).and_then(Executor::run)
    } else {
        Executor::<false>::new(graph, machine, args, config).and_then(Executor::run)
    };
    let wall_us = sp.end_us();
    obs::metrics::histogram("sim.us").observe(wall_us);
    match out {
        Ok(mut r) => {
            r.wall_us = wall_us;
            obs::metrics::counter("sim.runs").inc();
            obs::metrics::counter("sim.fired").add(r.fired);
            obs::metrics::histogram("sim.cycles").observe(r.cycles);
            obs::flight::note("sim.run", "ok", r.cycles as i64, r.fired as i64);
            Ok(r)
        }
        Err(e) => {
            obs::metrics::counter("sim.errors").inc();
            obs::flight::note("sim.run", "err", 0, 0);
            Err(e)
        }
    }
}

/// Diagnostic: runs the graph and, on failure, returns a textual dump of
/// the stuck state alongside the error. The structured per-node blockage
/// report also travels *inside* [`SimError::Deadlock`] itself, so plain
/// [`simulate`] callers get the same information; this entry point adds
/// FIFO depths and token-generator credit state for debugging.
pub fn diagnose(
    graph: &Graph,
    machine: &mut Machine,
    args: &[i64],
    config: &SimConfig,
) -> Result<SimResult, (SimError, String)> {
    let t0 = std::time::Instant::now();
    let mut ex =
        Executor::<true>::new(graph, machine, args, config).map_err(|e| (e, String::new()))?;
    loop {
        match ex.step_once() {
            Ok(Some(mut r)) => {
                r.wall_us = t0.elapsed().as_micros() as u64;
                break Ok(r);
            }
            Ok(None) => continue,
            Err(e) => {
                use std::fmt::Write;
                let mut s = String::new();
                for b in ex.blocked_nodes() {
                    let lens: Vec<usize> = (0..ex.g.num_inputs(b.node))
                        .map(|p| ex.fifos.len(ex.flat.in_id(b.node, p as u16) as usize))
                        .collect();
                    let _ = writeln!(s, "{b}, fifo lens {lens:?}");
                }
                for (i, st) in ex.tokengen.iter().enumerate() {
                    let Some(st) = st else { continue };
                    let id = NodeId(i as u32);
                    let _ = writeln!(s, "{id} TK credits={} queued={:?}", st.credits, st.queue);
                }
                // Flight-recorder tail: the last firings before the stall,
                // oldest first, with cycle stamps — what the circuit was
                // doing when it stopped making progress.
                let tail = ex.recent_firings();
                let _ = writeln!(s, "recent firings (last {}, oldest first):", tail.len());
                for &(node, cycle) in &tail {
                    let id = NodeId(node);
                    let _ = writeln!(
                        s,
                        "  cycle {cycle}: {id} [{}]",
                        crate::profile::kind_label(ex.g.kind(id))
                    );
                }
                // With waveform capture on, show what actually moved on the
                // blocked nodes' input signals in the last 32 cycles —
                // usually enough to see which producer went quiet.
                if ex.waves_on() {
                    let blocked: Vec<NodeId> = ex.blocked_nodes().iter().map(|b| b.node).collect();
                    s.push_str(
                        &ex.wave.to_wave().tail_report(ex.g, &ex.flat, &blocked, ex.now, 32),
                    );
                }
                break Err((e, s));
            }
        }
    }
}

/// The self-timed executor. With `OBSERVED = false` every collector hook
/// (profile, trace, critpath, waves) and the recent-firings ring is
/// compiled out; with `OBSERVED = true` each hook runs when its
/// [`SimConfig`] flag is set.
pub(crate) struct Executor<'a, const OBSERVED: bool> {
    g: &'a Graph,
    /// Dense port ids + CSR consumer adjacency (see [`pegasus::flat`]):
    /// the hot loop never walks `Graph`'s per-node `Vec`s.
    flat: FlatPorts,
    machine: &'a mut Machine,
    config: &'a SimConfig,
    /// Per flat input port: FIFO of (global sequence, value), all ports in
    /// one slab.
    fifos: PortFifos,
    /// Sticky value of each flat input port's source, precomputed so the
    /// firing path never consults the graph's input tables.
    in_sticky: Vec<Option<i64>>,
    /// Value class of each flat input port, for stall attribution (empty
    /// unless profiling or waveform capture classifies stalls).
    in_class: Vec<VClass>,
    /// Producer node of each flat input port (`u32::MAX` if unconnected) —
    /// the node to wake when a pop frees channel space.
    in_src: Vec<u32>,
    /// Space reserved for in-flight deliveries, per flat input port.
    reserved: Vec<u32>,
    /// Latest scheduled delivery time per flat output port: deliveries on
    /// one edge must stay in FIFO order even when latencies vary (a
    /// nullified memory operation completes instantly; a cache miss takes
    /// dozens of cycles).
    out_horizon: Vec<u64>,
    /// Outstanding output slots per memory-node flat output port, in
    /// firing order: a `Real` slot is an LSQ request whose result has not
    /// been scheduled yet; `Null` slots are nullified-firing values
    /// waiting behind it (see [`Self::emit_mem_or_defer`]).
    mem_out: Vec<VecDeque<PendingOut>>,
    /// Sticky (run-time constant) value of each node's output 0.
    sticky: Vec<Option<i64>>,
    /// Nodes with all-sticky inputs: they fire exactly once.
    once_only: Vec<bool>,
    has_fired: Vec<bool>,
    /// Pending deliveries/releases, bucketed by cycle.
    events: EventQueue,
    /// Nodes to re-examine this cycle.
    dirty: VecDeque<NodeId>,
    in_dirty: Vec<bool>,
    /// Token-generator state, dense by node index (`None` elsewhere).
    tokengen: Vec<Option<TokenGenState>>,
    lsq_queue: VecDeque<MemRequest>,
    lsq_in_flight: u32,
    seq: u64,
    now: u64,
    fired: u64,
    deferrals: u64,
    result: Option<(Option<i64>, u64)>,
    /// The last input FIFO the current firing attempt emptied
    /// (`usize::MAX` if none): lets [`Self::try_fire`] skip a retry that
    /// must fail.
    emptied: usize,
    /// Per-node profile, allocated only when `config.profile` is set.
    prof: Option<Vec<NodeProfile>>,
    /// Open stall window per node: (start cycle, cause). Only allocated
    /// when profiling.
    stall_since: Vec<Option<(u64, StallCause)>>,
    /// Recorded event stream, allocated only when `config.trace` is set.
    trace: Option<Vec<TraceEvent>>,
    /// Flight ring of the most recent firings `(node, cycle)`, embedded in
    /// deadlock diagnoses. Kept only by the observed instantiation (which
    /// [`diagnose`] and replay use); the bare one compiles it out.
    recent: Vec<(u32, u64)>,
    recent_next: usize,
    /// Is critical-path recording on? Gates every `crit` access through
    /// [`Self::crit_on`]; never set in the bare instantiation.
    crit_on: bool,
    /// Critical-path recorder, stored inline so the instrumented hot path
    /// pays a field offset instead of a pointer chase. Built with zero
    /// capacity when recording is off, so the uninstrumented executor
    /// allocates nothing for it.
    crit: CritState,
    /// Is waveform capture on? Gates every `wave` access, same discipline
    /// as `crit_on`.
    waves_on: bool,
    /// Waveform recorder (zero capacity when off).
    wave: WaveState,
}

/// A deterministic checkpoint of an [`Executor`]'s complete run-time
/// state, including the memory image — everything that evolves during a
/// run. Taken every K cycles by the replay driver ([`crate::replay`]);
/// restoring one onto a fresh executor for the same (graph, args, config)
/// and re-stepping reproduces the original run bit-for-bit (the pinned
/// `(cycle, seq)` delivery order leaves no hidden scheduler state).
#[derive(Clone)]
pub(crate) struct ExecSnapshot {
    pub(crate) machine: Machine,
    fifos: PortFifos,
    reserved: Vec<u32>,
    out_horizon: Vec<u64>,
    mem_out: Vec<VecDeque<PendingOut>>,
    has_fired: Vec<bool>,
    events: EventQueue,
    dirty: VecDeque<NodeId>,
    in_dirty: Vec<bool>,
    tokengen: Vec<Option<TokenGenState>>,
    lsq_queue: VecDeque<MemRequest>,
    lsq_in_flight: u32,
    seq: u64,
    pub(crate) now: u64,
    pub(crate) fired: u64,
    deferrals: u64,
    result: Option<(Option<i64>, u64)>,
    prof: Option<Vec<NodeProfile>>,
    stall_since: Vec<Option<(u64, StallCause)>>,
    trace: Option<Vec<TraceEvent>>,
    recent: Vec<(u32, u64)>,
    recent_next: usize,
    crit: CritState,
    wave: WaveState,
    /// The capture as a [`Wave`], built on first request.
    wave_view: OnceLock<Wave>,
}

impl ExecSnapshot {
    /// The waveform capture frozen in this checkpoint (complete history
    /// since cycle 0 — the capture travels with the snapshot).
    pub(crate) fn wave_ref(&self) -> &Wave {
        self.wave_view.get_or_init(|| self.wave.to_wave())
    }
}

impl<'a, const OBSERVED: bool> Executor<'a, OBSERVED> {
    pub(crate) fn new(
        g: &'a Graph,
        machine: &'a mut Machine,
        args: &[i64],
        config: &'a SimConfig,
    ) -> Result<Self, SimError> {
        let n = g.len();
        let flat = FlatPorts::new(g);
        let fifos = PortFifos::new(flat.num_in_ports(), config.channel_capacity.max(1));
        // Sticky propagation over topological order.
        let mut sticky: Vec<Option<i64>> = vec![None; n];
        for id in pegasus::topo_order(g) {
            let v = match g.kind(id) {
                NodeKind::Const { value, ty } => Some(ty.normalize(*value)),
                NodeKind::Param { index, ty } => match args.get(*index) {
                    Some(v) => Some(ty.normalize(*v)),
                    None => return Err(SimError::MissingArgument { index: *index }),
                },
                NodeKind::Addr { obj } => Some(machine.obj_base(*obj) as i64),
                NodeKind::BinOp { op, ty } => {
                    let a = g.input(id, 0).and_then(|i| sticky_of(&sticky, i.src));
                    let b = g.input(id, 1).and_then(|i| sticky_of(&sticky, i.src));
                    match (a, b) {
                        (Some(a), Some(b)) => Some(op.eval(ty, a, b)),
                        _ => None,
                    }
                }
                NodeKind::UnOp { op, ty } => {
                    g.input(id, 0).and_then(|i| sticky_of(&sticky, i.src)).map(|a| op.eval(ty, a))
                }
                NodeKind::Cast { ty } => {
                    g.input(id, 0).and_then(|i| sticky_of(&sticky, i.src)).map(|a| ty.normalize(a))
                }
                NodeKind::Mux { ty } => {
                    let nin = g.num_inputs(id);
                    let mut vals = Vec::with_capacity(nin);
                    for p in 0..nin as u16 {
                        match g.input(id, p).and_then(|i| sticky_of(&sticky, i.src)) {
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
        // Dynamic nodes whose inputs are *all* sticky correspond to
        // operations of the entry hyperblock (executed exactly once): they
        // must fire once, not continuously.
        let mut once_only = vec![false; n];
        for id in g.live_ids() {
            if sticky[id.index()].is_some() {
                continue;
            }
            let nin = g.num_inputs(id);
            if nin == 0 {
                continue;
            }
            let all = (0..nin as u16).all(|p| {
                g.input(id, p).map(|i| sticky_of(&sticky, i.src).is_some()).unwrap_or(false)
            });
            once_only[id.index()] = all;
        }
        let mut tokengen: Vec<Option<TokenGenState>> = vec![None; n];
        for id in g.live_ids() {
            if let NodeKind::TokenGen { n } = g.kind(id) {
                tokengen[id.index()] = Some(TokenGenState {
                    credits: u64::from(*n),
                    queue: VecDeque::new(),
                    last_arrival: None,
                });
            }
        }
        let num_in = flat.num_in_ports();
        let num_out = flat.num_out_ports();
        // Flatten the input side: each flat port's sticky source value and
        // producer node, so `avail`/`pop_input` never walk the graph.
        let mut in_sticky: Vec<Option<i64>> = vec![None; num_in];
        let mut in_src: Vec<u32> = vec![u32::MAX; num_in];
        for id in g.ids() {
            for p in 0..g.num_inputs(id) as u16 {
                if let Some(i) = g.input(id, p) {
                    let fp = flat.in_id(id, p) as usize;
                    in_sticky[fp] = sticky_of(&sticky, i.src);
                    in_src[fp] = i.src.node.0;
                }
            }
        }
        // Critical-path recorder, with the per-output-port edge class
        // precomputed so delivery indexes a table instead of matching on
        // `NodeKind` (built here, before `flat` moves into the executor).
        // The bare instantiation allocates no collector state at all.
        let profile = OBSERVED && config.profile;
        let waves = OBSERVED && config.waves;
        let crit_on = OBSERVED && config.critpath;
        let crit = if crit_on {
            let mut out_class = vec![EdgeClass::Data as u8; num_out];
            for id in g.ids() {
                let k = g.kind(id);
                for port in 0..k.num_outputs() {
                    out_class[flat.out_id(id, port) as usize] =
                        EdgeClass::of_vclass(k.output_class(port)) as u8;
                }
            }
            CritState::new(num_in, config.channel_capacity.max(1), out_class)
        } else {
            CritState::off()
        };
        let mut ex = Executor {
            g,
            machine,
            config,
            in_class: if profile || waves { sched::input_classes(g, &flat) } else { Vec::new() },
            fifos,
            in_sticky,
            in_src,
            reserved: vec![0; num_in],
            out_horizon: vec![0; num_out],
            mem_out: (0..num_out).map(|_| VecDeque::new()).collect(),
            flat,
            sticky,
            once_only,
            has_fired: vec![false; n],
            events: EventQueue::new(),
            dirty: VecDeque::new(),
            in_dirty: vec![false; n],
            tokengen,
            lsq_queue: VecDeque::new(),
            lsq_in_flight: 0,
            seq: 0,
            now: 0,
            fired: 0,
            deferrals: 0,
            result: None,
            emptied: usize::MAX,
            prof: profile.then(|| vec![NodeProfile::default(); n]),
            stall_since: if profile { vec![None; n] } else { Vec::new() },
            trace: (OBSERVED && config.trace).then(Vec::new),
            recent: if OBSERVED { Vec::with_capacity(RECENT_CAP) } else { Vec::new() },
            recent_next: 0,
            crit_on,
            crit,
            waves_on: waves,
            wave: if waves { WaveState::new(num_out, num_in, n) } else { WaveState::off() },
        };
        // Kick off: initial tokens fire at cycle 0 (each is a root of the
        // last-arrival DAG); every node with only sticky inputs is
        // examined once.
        for id in g.live_ids() {
            match g.kind(id) {
                NodeKind::InitialToken => {
                    let fire = if ex.crit_on() {
                        ex.crit.push_rec(id.0, NO_REC, EdgeClass::Token, 0)
                    } else {
                        NO_REC
                    };
                    ex.push_event(0, Ev::Deliver { node: id, port: 0, value: 1, fire })
                }
                _ => ex.mark_dirty(id),
            }
        }
        Ok(ex)
    }

    /// Is critical-path recording on? Constant `false` in the bare
    /// instantiation, so every guarded hook compiles out.
    #[inline(always)]
    fn crit_on(&self) -> bool {
        OBSERVED && self.crit_on
    }

    /// Is waveform capture on? (Same discipline as [`Self::crit_on`].)
    #[inline(always)]
    fn waves_on(&self) -> bool {
        OBSERVED && self.waves_on
    }

    /// Is per-node profiling on?
    #[inline(always)]
    fn profiling(&self) -> bool {
        OBSERVED && self.prof.is_some()
    }

    fn push_event(&mut self, t: u64, ev: Ev) {
        self.seq += 1;
        self.events.push(t, self.seq, ev);
    }

    fn mark_dirty(&mut self, id: NodeId) {
        if !self.in_dirty[id.index()] {
            self.in_dirty[id.index()] = true;
            self.dirty.push_back(id);
        }
    }

    pub(crate) fn run(mut self) -> Result<SimResult, SimError> {
        loop {
            match self.step_once() {
                Ok(Some(r)) => return Ok(r),
                Ok(None) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// One scheduler round: deliveries, LSQ issue, firing, time advance.
    /// Returns `Ok(Some(result))` on completion, `Ok(None)` to continue.
    pub(crate) fn step_once(&mut self) -> Result<Option<SimResult>, SimError> {
        {
            // 1. Deliver everything scheduled for `now`. Delivery never
            // schedules new same-cycle events (zero-latency emission calls
            // `deliver` directly), so one drain is exhaustive.
            let due = self.events.take_due(self.now);
            for &ev in &due {
                match ev {
                    Ev::Deliver { node, port, value, fire } => {
                        self.deliver(node, port, value, fire)
                    }
                    Ev::LsqRelease { level } => {
                        self.lsq_in_flight -= 1;
                        if self.crit_on() {
                            self.crit.timeline.release(self.now, level);
                        }
                        if let Some(tr) = self.trace.as_mut().filter(|_| OBSERVED) {
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
            // 2. Issue LSQ requests for this cycle.
            self.lsq_issue();
            // 3. Fire ready nodes; zero-latency cascades iterate.
            let mut steps = 0usize;
            let step_cap = 64 * self.g.len() + 1024;
            while let Some(id) = self.dirty.pop_front() {
                self.in_dirty[id.index()] = false;
                self.try_fire(id);
                if self.result.is_some() {
                    break;
                }
                steps += 1;
                if steps > step_cap {
                    // Zero-latency spin guard: defer the rest of the
                    // cascade to the next cycle — and *count* it, so a
                    // livelocked circuit shows up in the stats instead of
                    // silently burning cycles.
                    self.deferrals += 1;
                    break;
                }
            }
            if let Some((ret, cycles)) = self.result {
                return Ok(Some(self.finish(ret, cycles)));
            }
            // 4. Advance time. The bucket scan in `next_time` only runs
            // when the circuit is quiescent and we must jump to the next
            // scheduled event; a busy circuit advances one cycle for free.
            let busy = !self.dirty.is_empty() || !self.lsq_queue.is_empty();
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
        }
        Ok(None)
    }

    /// Pushes `value` into the FIFO of every consumer of `(node, port)`.
    fn deliver(&mut self, node: NodeId, port: u16, value: i64, fire: u32) {
        self.seq += 1;
        let seq = self.seq;
        // Edge class once per delivery: a table lookup on the producing
        // flat output port (precomputed at init, no `NodeKind` match here).
        let crit_class = if self.crit_on() {
            EdgeClass::from_u8(self.crit.out_class[self.flat.out_id(node, port) as usize])
        } else {
            EdgeClass::Data
        };
        if self.waves_on() {
            self.wave.record_out(self.flat.out_id(node, port) as usize, self.now, value);
        }
        let (start, end) = self.flat.consumer_range(node, port);
        for i in start..end {
            let u = self.flat.consumer_at(i);
            let r = &mut self.reserved[u.dst_flat as usize];
            if *r > 0 {
                *r -= 1;
            }
            let at = self.fifos.push_back(u.dst_flat as usize, (seq, value));
            if self.crit_on() {
                self.crit.channel_push(at, fire, self.now, crit_class);
            }
            if self.waves_on() {
                self.wave.record_occ_push(u.dst_flat as usize, self.now);
            }
            self.mark_dirty(u.dst);
        }
        // The producer may be waiting for space that just got consumed
        // elsewhere; consumers of space changes are handled in `pop_input`.
    }

    /// Is input `port` of `id` available? (Unconnected ports have neither
    /// a sticky source nor deliveries, so they report unavailable.)
    fn avail(&self, id: NodeId, port: u16) -> bool {
        let fp = self.flat.in_id(id, port) as usize;
        self.in_sticky[fp].is_some() || !self.fifos.is_empty(fp)
    }

    /// Oldest sequence number waiting on input `port` (non-sticky only).
    fn front_seq(&self, id: NodeId, port: u16) -> Option<u64> {
        self.fifos.front(self.flat.in_id(id, port) as usize).map(|(s, _)| s)
    }

    /// Pops input `port` (no-op for sticky inputs), waking the producer.
    fn pop_input(&mut self, id: NodeId, port: u16) -> i64 {
        let fp = self.flat.in_id(id, port) as usize;
        if let Some(v) = self.in_sticky[fp] {
            return v;
        }
        let was_full =
            self.fifos.len(fp) + self.reserved[fp] as usize >= self.config.channel_capacity;
        let ((_, v), at) = self.fifos.pop_front(fp).expect("pop of available input");
        if self.fifos.is_empty(fp) {
            self.emptied = fp;
        }
        if self.crit_on() {
            self.crit.pop_and_offer(at);
        }
        if self.waves_on() {
            self.wave.record_occ_pop(fp, self.now);
        }
        // Wake the producer only on a full→non-full transition: a producer
        // can be space-blocked on this channel only if it was full, and
        // `space_for` rechecks every consumer when it retries.
        if was_full {
            self.mark_dirty(NodeId(self.in_src[fp]));
        }
        v
    }

    /// Do all consumers of output `port` of `id` have space for one value?
    fn space_for(&self, id: NodeId, port: u16) -> bool {
        for u in self.flat.consumers(id, port) {
            let len = self.fifos.len(u.dst_flat as usize);
            let res = self.reserved[u.dst_flat as usize] as usize;
            if len + res >= self.config.channel_capacity {
                return false;
            }
        }
        true
    }

    /// Reserves one slot in every consumer of `(id, port)` (for deliveries
    /// that complete later).
    fn reserve(&mut self, id: NodeId, port: u16) {
        let (start, end) = self.flat.consumer_range(id, port);
        for i in start..end {
            let u = self.flat.consumer_at(i);
            self.reserved[u.dst_flat as usize] += 1;
        }
    }

    /// The current firing's critical-path record (`NO_REC` when recording
    /// is off). Call only after all of the firing's pops.
    #[inline]
    fn crit_fire_rec(&mut self) -> u32 {
        if self.crit_on() {
            self.crit.fire_rec(self.now)
        } else {
            NO_REC
        }
    }

    /// Like [`Self::crit_fire_rec`], for one token-generator grant: a grant
    /// enabled purely by banked credits (nothing popped this call) chains
    /// to the generator's most recent absorb, and per-firing state is reset
    /// so each grant in a burst gets its own record.
    #[inline]
    fn crit_grant_rec(&mut self, id: NodeId) -> u32 {
        if !self.crit_on() {
            return NO_REC;
        }
        if self.crit.best().is_none() {
            if let Some(b) = self.tokengen[id.index()].as_ref().and_then(|st| st.last_arrival) {
                self.crit.seed_best(b);
            }
        }
        let r = self.crit.fire_rec(self.now);
        self.crit.begin_fire(id.0);
        r
    }

    /// Emits synchronously (zero latency): consumers see the value in this
    /// same cycle.
    fn emit_now(&mut self, id: NodeId, port: u16, value: i64, fire: u32) {
        self.deliver(id, port, value, fire);
    }

    /// Emits after `lat` cycles, reserving consumer space.
    fn emit_later(&mut self, id: NodeId, port: u16, value: i64, lat: u64, fire: u32) {
        self.reserve(id, port);
        self.push_event(self.now + lat, Ev::Deliver { node: id, port, value, fire });
    }

    /// Schedules a delivery no earlier than any previously scheduled
    /// delivery on the same output port (in-order channels). The caller
    /// reserves consumer space.
    fn emit_ordered(&mut self, id: NodeId, port: u16, value: i64, t: u64, fire: u32) {
        let h = &mut self.out_horizon[self.flat.out_id(id, port) as usize];
        let t2 = t.max(*h);
        *h = t2;
        self.push_event(t2, Ev::Deliver { node: id, port, value, fire });
    }

    /// Emission path for a *nullified* memory operation's outputs. The
    /// horizon alone is not enough to keep the channel in FIFO order: a
    /// predicate-true firing only *queues* an LSQ request, and its result
    /// stamps the horizon at issue time — after a same-cycle nullified
    /// firing would already have scheduled its instant value. So when real
    /// requests are outstanding on this port, the nullified value queues
    /// behind them and is flushed by [`Self::complete_mem`].
    fn emit_mem_or_defer(&mut self, id: NodeId, port: u16, value: i64, fire: u32) {
        let q = &mut self.mem_out[self.flat.out_id(id, port) as usize];
        if q.is_empty() {
            self.emit_ordered(id, port, value, self.now, fire);
        } else {
            q.push_back(PendingOut::Null(value, fire));
        }
    }

    /// Records that a predicate-true firing of `(id, port)` has a queued
    /// LSQ request whose output slot must be filled before any later
    /// nullified value on the same port.
    fn expect_mem_result(&mut self, id: NodeId, port: u16) {
        self.mem_out[self.flat.out_id(id, port) as usize].push_back(PendingOut::Real);
    }

    /// Delivers a completed memory access's output: fills the oldest
    /// outstanding `Real` slot, then flushes nullified values queued
    /// behind it (the LSQ issues one node's requests in firing order, so
    /// slots complete front-to-back).
    fn complete_mem(&mut self, id: NodeId, port: u16, value: i64, t: u64, fire: u32) {
        let idx = self.flat.out_id(id, port) as usize;
        let front = self.mem_out[idx].pop_front();
        debug_assert!(matches!(front, Some(PendingOut::Real)), "slot order broken");
        self.emit_ordered(id, port, value, t, fire);
        while let Some(&PendingOut::Null(v, f)) = self.mem_out[idx].front() {
            self.mem_out[idx].pop_front();
            self.emit_ordered(id, port, v, self.now, f);
        }
    }

    /// Builds the final [`SimResult`], closing open stall windows and
    /// packaging the profile/trace when enabled.
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
        let crit = self.crit_on().then(|| {
            self.crit.timeline.finish(cycles);
            critpath::summarize(&self.crit, self.g.len())
        });
        let waves = self.waves_on().then(|| std::mem::take(&mut self.wave).into_wave(cycles));
        SimResult {
            ret,
            cycles,
            stats: self.machine.stats.clone(),
            fired: self.fired,
            deferrals: self.deferrals,
            wall_us: 0, // stamped by the public entry points
            backend: "event",
            profile,
            trace,
            crit,
            waves,
        }
    }

    /// Current simulated cycle (for the replay driver).
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// The live waveform recorder (for replay breakpoint evaluation).
    pub(crate) fn wave_state(&self) -> &WaveState {
        &self.wave
    }

    /// Clones every piece of run-time state into a restorable checkpoint.
    /// Static, rebuild-from-graph state (flat ports, sticky tables,
    /// once-only sets) is deliberately excluded: [`Self::restore`] is
    /// applied to a freshly constructed executor for the same
    /// (graph, args, config), which recomputes it deterministically.
    pub(crate) fn snapshot(&self) -> ExecSnapshot {
        ExecSnapshot {
            machine: self.machine.clone(),
            fifos: self.fifos.clone(),
            reserved: self.reserved.clone(),
            out_horizon: self.out_horizon.clone(),
            mem_out: self.mem_out.clone(),
            has_fired: self.has_fired.clone(),
            events: self.events.clone(),
            dirty: self.dirty.clone(),
            in_dirty: self.in_dirty.clone(),
            tokengen: self.tokengen.clone(),
            lsq_queue: self.lsq_queue.clone(),
            lsq_in_flight: self.lsq_in_flight,
            seq: self.seq,
            now: self.now,
            fired: self.fired,
            deferrals: self.deferrals,
            result: self.result,
            prof: self.prof.clone(),
            stall_since: self.stall_since.clone(),
            trace: self.trace.clone(),
            recent: self.recent.clone(),
            recent_next: self.recent_next,
            crit: self.crit.clone(),
            wave: self.wave.clone(),
            wave_view: OnceLock::new(),
        }
    }

    /// Overwrites this executor's run-time state with a checkpoint taken
    /// by [`Self::snapshot`] on an executor for the same (graph, args,
    /// config). Because delivery order is pinned by `(cycle, seq)` and the
    /// snapshot carries `seq`, re-execution from here is bit-identical to
    /// the original run — the invariant the replay debugger rests on.
    pub(crate) fn restore(&mut self, s: &ExecSnapshot) {
        *self.machine = s.machine.clone();
        self.fifos = s.fifos.clone();
        self.reserved = s.reserved.clone();
        self.out_horizon = s.out_horizon.clone();
        self.mem_out = s.mem_out.clone();
        self.has_fired = s.has_fired.clone();
        self.events = s.events.clone();
        self.dirty = s.dirty.clone();
        self.in_dirty = s.in_dirty.clone();
        self.tokengen = s.tokengen.clone();
        self.lsq_queue = s.lsq_queue.clone();
        self.lsq_in_flight = s.lsq_in_flight;
        self.seq = s.seq;
        self.now = s.now;
        self.fired = s.fired;
        self.deferrals = s.deferrals;
        self.result = s.result;
        self.prof = s.prof.clone();
        self.stall_since = s.stall_since.clone();
        self.trace = s.trace.clone();
        self.recent = s.recent.clone();
        self.recent_next = s.recent_next;
        self.crit = s.crit.clone();
        self.wave = s.wave.clone();
    }

    /// Every node that holds partial inputs (or is ready but blocked on
    /// output space): the deadlock report. Nodes in their quiescent state —
    /// no values queued anywhere — are not "blocked", they are done.
    /// The recent-firings ring, oldest first.
    fn recent_firings(&self) -> Vec<(u32, u64)> {
        let n = self.recent.len();
        if n < RECENT_CAP {
            return self.recent.clone();
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(self.recent[(self.recent_next + i) % n]);
        }
        out
    }

    fn blocked_nodes(&self) -> Vec<BlockedNode> {
        let mut out = Vec::new();
        for id in self.g.live_ids() {
            if self.sticky[id.index()].is_some()
                || (self.once_only[id.index()] && self.has_fired[id.index()])
            {
                continue;
            }
            let nin = self.g.num_inputs(id);
            if nin == 0 {
                continue;
            }
            let mut have = Vec::new();
            let mut missing = Vec::new();
            let mut queued = false;
            for p in 0..nin as u16 {
                if self.avail(id, p) {
                    have.push(p);
                    queued |= !self.fifos.is_empty(self.flat.in_id(id, p) as usize);
                } else {
                    missing.push((p, self.g.kind(id).input_class(p)));
                }
            }
            // Partially supplied (anything available — a queued value or a
            // sticky source — while something is missing), or fully ready
            // yet unable to fire (output space). Sticky availability
            // counts here, unlike in stall profiling: in a deadlock the
            // circuit is permanently stuck, so a node waiting next to a
            // forever-valid constant is exactly what to report.
            if (!have.is_empty() && !missing.is_empty()) || (missing.is_empty() && queued) {
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

    /// Classifies why `id` could not fire just now, or `None` if it is
    /// simply idle: nothing is queued on any input. Otherwise the first
    /// input with neither a sticky source nor a queued value names the
    /// cause by its class; with every input present the node is blocked on
    /// output space. Attribution by the first missing port is an
    /// approximation for variadic joins, exact for fixed-arity operators.
    /// Nodes whose inputs are all sticky (sticky nodes themselves, and
    /// entry operations that fire once) need no special case: a sticky
    /// producer never fires, so its consumers' FIFOs stay empty and they
    /// classify as idle.
    fn classify_stall(&self, id: NodeId) -> Option<StallCause> {
        let (start, end) = self.flat.in_range(id);
        let mut queued = false;
        let mut missing = None;
        for fp in start as usize..end as usize {
            if !self.fifos.is_empty(fp) {
                queued = true;
            } else if missing.is_none() && self.in_sticky[fp].is_none() {
                missing = Some(fp);
            }
        }
        if !queued {
            return None;
        }
        Some(match missing.map(|fp| self.in_class[fp]) {
            Some(VClass::Data) => StallCause::DataInput,
            Some(VClass::Pred) => StallCause::PredInput,
            Some(VClass::Token) => StallCause::TokenInput,
            None => StallCause::OutputSpace,
        })
    }

    /// Profiling bookkeeping for a successful firing of `id`.
    fn note_fire(&mut self, id: NodeId) {
        let now = self.now;
        let prof = self.prof.as_mut().expect("note_fire only when profiling");
        let p = &mut prof[id.index()];
        p.fires += 1;
        if p.first_fire.is_none() {
            p.first_fire = Some(now);
        }
        p.last_fire = Some(now);
        if let Some((start, cause)) = self.stall_since[id.index()].take() {
            p.add_stall(cause, now.saturating_sub(start));
        }
    }

    /// Bookkeeping for a failed firing attempt, sharing one stall
    /// classification: profiling opens a stall window (once) attributed to
    /// whatever is holding the node up, and waveform capture records the
    /// stall class.
    fn note_stall(&mut self, id: NodeId) {
        let open = self.profiling() && self.stall_since[id.index()].is_none();
        if !open && !self.waves_on() {
            return;
        }
        let cause = self.classify_stall(id);
        if open {
            self.stall_since[id.index()] = cause.map(|c| (self.now, c));
        }
        if self.waves_on() {
            self.wave.record_stall(id.index(), self.now, stall_code(cause));
        }
    }

    fn try_fire(&mut self, id: NodeId) {
        // Loop: a node may be able to fire several times per cycle when
        // multiple waves are queued; we fire at most a few to let others go.
        for attempt in 0..4 {
            self.emptied = usize::MAX;
            let fired = self.fire_once(id);
            if fired {
                self.fired += 1;
                self.has_fired[id.index()] = true;
                if OBSERVED {
                    self.note_observed_fire(id);
                }
            }
            // A node that needs every input cannot fire again once this
            // firing left one of its popped FIFOs empty: skip the retry
            // that must fail, and note the stall it would have noted.
            if !fired || (attempt < 3 && self.retry_must_fail(id)) {
                if self.profiling() || self.waves_on() {
                    self.note_stall(id);
                }
                return;
            }
        }
        // Still more queued? Come back later this cycle.
        self.mark_dirty(id);
    }

    /// After a successful firing of `id`: would an immediate retry find an
    /// input missing? True when the firing emptied a popped input FIFO that
    /// is still empty, and `id` fires only with all inputs present — every
    /// kind but `Merge` (one input per firing) and `TokenGen` (absorbs
    /// whatever arrived, grants from banked credits).
    #[inline]
    fn retry_must_fail(&self, id: NodeId) -> bool {
        self.emptied != usize::MAX
            && self.fifos.is_empty(self.emptied)
            && !matches!(self.g.kind(id), NodeKind::Merge { .. } | NodeKind::TokenGen { .. })
    }

    /// Collector bookkeeping for a successful firing (observed
    /// instantiation only): the recent-firings ring, then each enabled
    /// collector.
    fn note_observed_fire(&mut self, id: NodeId) {
        if self.recent.len() < RECENT_CAP {
            self.recent.push((id.0, self.now));
        } else {
            self.recent[self.recent_next] = (id.0, self.now);
        }
        self.recent_next = (self.recent_next + 1) % RECENT_CAP;
        if self.profiling() {
            self.note_fire(id);
        }
        if self.waves_on() {
            self.wave.record_fire(id.index(), self.now);
            self.wave.record_stall(id.index(), self.now, 0);
        }
        if let Some(tr) = self.trace.as_mut().filter(|_| OBSERVED) {
            tr.push(TraceEvent::Fire { node: id, cycle: self.now });
        }
    }

    /// Attempts one firing; returns whether it fired.
    fn fire_once(&mut self, id: NodeId) -> bool {
        if self.sticky[id.index()].is_some() {
            return false; // sticky nodes never fire dynamically
        }
        if self.once_only[id.index()] && self.has_fired[id.index()] {
            return false; // entry-hyperblock op: one execution only
        }
        if self.crit_on() {
            self.crit.begin_fire(id.0);
        }
        // Copy the graph reference out of `self` so matching on the node
        // kind borrows the graph (which outlives this call), not `self` —
        // no per-firing `NodeKind` clone.
        let g = self.g;
        match g.kind(id) {
            NodeKind::Removed
            | NodeKind::Const { .. }
            | NodeKind::Param { .. }
            | NodeKind::Addr { .. }
            | NodeKind::InitialToken => false,
            NodeKind::BinOp { op, ty } => {
                if !(self.avail(id, 0) && self.avail(id, 1) && self.space_for(id, 0)) {
                    return false;
                }
                let a = self.pop_input(id, 0);
                let b = self.pop_input(id, 1);
                let v = op.eval(ty, a, b);
                let fr = self.crit_fire_rec();
                self.emit_later(id, 0, v, alu_latency(*op), fr);
                true
            }
            NodeKind::UnOp { op, ty } => {
                if !(self.avail(id, 0) && self.space_for(id, 0)) {
                    return false;
                }
                let a = self.pop_input(id, 0);
                let fr = self.crit_fire_rec();
                self.emit_later(id, 0, op.eval(ty, a), 1, fr);
                true
            }
            NodeKind::Cast { ty } => {
                if !(self.avail(id, 0) && self.space_for(id, 0)) {
                    return false;
                }
                let a = self.pop_input(id, 0);
                let fr = self.crit_fire_rec();
                self.emit_now(id, 0, ty.normalize(a), fr);
                true
            }
            NodeKind::Mux { ty } => {
                let nin = self.g.num_inputs(id);
                for p in 0..nin {
                    if !self.avail(id, p as u16) {
                        return false;
                    }
                }
                if !self.space_for(id, 0) {
                    return false;
                }
                // Exactly one predicate is true in a well-formed program;
                // the last true one wins otherwise.
                let mut out = 0i64;
                for k in 0..nin / 2 {
                    let p = self.pop_input(id, (2 * k) as u16);
                    let v = self.pop_input(id, (2 * k + 1) as u16);
                    if p != 0 {
                        out = ty.normalize(v);
                    }
                }
                let fr = self.crit_fire_rec();
                self.emit_now(id, 0, out, fr);
                true
            }
            NodeKind::Merge { .. } => {
                if !self.space_for(id, 0) {
                    return false;
                }
                // Pop the globally oldest waiting input.
                let nin = self.g.num_inputs(id);
                let mut best: Option<(u64, u16)> = None;
                for p in 0..nin as u16 {
                    if let Some(s) = self.front_seq(id, p) {
                        if best.map(|(bs, _)| s < bs).unwrap_or(true) {
                            best = Some((s, p));
                        }
                    }
                }
                match best {
                    Some((_, p)) => {
                        let v = self.pop_input(id, p);
                        let fr = self.crit_fire_rec();
                        self.emit_now(id, 0, v, fr);
                        true
                    }
                    None => false,
                }
            }
            NodeKind::Eta { .. } => {
                if !(self.avail(id, 0) && self.avail(id, 1) && self.space_for(id, 0)) {
                    return false;
                }
                let v = self.pop_input(id, 0);
                let p = self.pop_input(id, 1);
                if self.waves_on() {
                    self.wave.record_pred(id.index(), self.now, p != 0);
                }
                if p != 0 {
                    let fr = self.crit_fire_rec();
                    self.emit_now(id, 0, v, fr);
                }
                true
            }
            NodeKind::Combine => {
                let nin = self.g.num_inputs(id);
                for p in 0..nin as u16 {
                    if !self.avail(id, p) {
                        return false;
                    }
                }
                if !self.space_for(id, 0) {
                    return false;
                }
                for p in 0..nin as u16 {
                    self.pop_input(id, p);
                }
                let fr = self.crit_fire_rec();
                self.emit_now(id, 0, 1, fr);
                true
            }
            NodeKind::TokenGen { .. } => self.fire_tokengen(id),
            NodeKind::Load { ty, .. } => {
                if !(self.avail(id, 0)
                    && self.avail(id, 1)
                    && self.avail(id, 2)
                    && self.space_for(id, 0)
                    && self.space_for(id, 1))
                {
                    return false;
                }
                let addr = self.pop_input(id, 0) as u64;
                let pred = self.pop_input(id, 1);
                self.pop_input(id, 2); // token
                if self.waves_on() {
                    self.wave.record_pred(id.index(), self.now, pred != 0);
                }
                let fr = self.crit_fire_rec();
                self.reserve(id, 0);
                self.reserve(id, 1);
                if pred == 0 {
                    // Nullified: arbitrary value, instant token (§3.1) —
                    // but never overtaking earlier in-flight results.
                    self.emit_mem_or_defer(id, 0, 0, fr);
                    self.emit_mem_or_defer(id, 1, 1, fr);
                } else {
                    self.expect_mem_result(id, 0);
                    self.expect_mem_result(id, 1);
                    self.lsq_queue.push_back(MemRequest {
                        node: id,
                        addr,
                        value: 0,
                        is_store: false,
                        enqueued: self.now,
                        fire: fr,
                    });
                    let _ = ty;
                }
                true
            }
            NodeKind::Store { .. } => {
                if !(self.avail(id, 0)
                    && self.avail(id, 1)
                    && self.avail(id, 2)
                    && self.avail(id, 3)
                    && self.space_for(id, 0))
                {
                    return false;
                }
                let addr = self.pop_input(id, 0) as u64;
                let value = self.pop_input(id, 1);
                let pred = self.pop_input(id, 2);
                self.pop_input(id, 3); // token
                if self.waves_on() {
                    self.wave.record_pred(id.index(), self.now, pred != 0);
                }
                let fr = self.crit_fire_rec();
                self.reserve(id, 0);
                if pred == 0 {
                    self.emit_mem_or_defer(id, 0, 1, fr);
                } else {
                    self.expect_mem_result(id, 0);
                    self.lsq_queue.push_back(MemRequest {
                        node: id,
                        addr,
                        value,
                        is_store: true,
                        enqueued: self.now,
                        fire: fr,
                    });
                }
                true
            }
            NodeKind::Return { has_value, .. } => {
                let has_value = *has_value;
                let need = if has_value { 3 } else { 2 };
                for p in 0..need {
                    if !self.avail(id, p) {
                        return false;
                    }
                }
                let pred = self.pop_input(id, 0);
                self.pop_input(id, 1);
                let v = if has_value { Some(self.pop_input(id, 2)) } else { None };
                if self.waves_on() {
                    self.wave.record_pred(id.index(), self.now, pred != 0);
                }
                if pred != 0 {
                    if self.crit_on() {
                        let fr = self.crit.fire_rec(self.now);
                        self.crit.ret_rec = Some(fr);
                    }
                    self.result = Some((if has_value { v } else { None }, self.now));
                }
                true
            }
        }
    }

    fn fire_tokengen(&mut self, id: NodeId) -> bool {
        let mut progressed = false;
        // Absorb every available input in arrival order: predicates queue
        // up for grants, returned tokens add credits.
        loop {
            let pred_seq = self.front_seq(id, 0);
            let tok_seq = self.front_seq(id, 1);
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
                let p = self.pop_input(id, 0);
                let st = self.tokengen[id.index()].as_mut().expect("tokengen state");
                st.queue.push_back(p != 0);
            } else {
                self.pop_input(id, 1);
                let st = self.tokengen[id.index()].as_mut().expect("tokengen state");
                st.credits += 1;
            }
            progressed = true;
        }
        // Remember the newest absorb so credit-banked grants in later
        // calls still chain into the path instead of becoming roots.
        if self.crit_on() {
            if let Some(b) = self.crit.best() {
                if let Some(st) = self.tokengen[id.index()].as_mut() {
                    st.last_arrival = Some(b);
                }
            }
        }
        // Emit grants in order while credits (or free exit grants) allow
        // and the consumers have space.
        loop {
            let st = self.tokengen[id.index()].as_mut().expect("tokengen state");
            let Some(&needs_credit) = st.queue.front() else { break };
            if needs_credit && st.credits == 0 {
                break;
            }
            if !self.space_for(id, 0) {
                break;
            }
            let st = self.tokengen[id.index()].as_mut().expect("tokengen state");
            if needs_credit {
                st.credits -= 1;
            }
            st.queue.pop_front();
            let fr = self.crit_grant_rec(id);
            self.emit_now(id, 0, 1, fr);
            progressed = true;
        }
        progressed
    }

    /// Issues queued memory requests subject to ports and LSQ size.
    fn lsq_issue(&mut self) {
        let g = self.g;
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
            if let Some(prof) = self.prof.as_mut().filter(|_| OBSERVED) {
                // Port contention: cycles the request sat queued.
                prof[req.node.index()]
                    .add_stall(StallCause::LsqPort, self.now.saturating_sub(req.enqueued));
            }
            // An LSQ-order self-edge when the request sat queued behind
            // ports/occupancy: the wait is the LSQ's fault, not the input's.
            let mut fire = req.fire;
            if self.crit_on() {
                self.crit.timeline.issue(self.now, level);
                if self.now > req.enqueued {
                    fire = self.crit.push_rec(req.node.0, fire, EdgeClass::LsqOrder, self.now);
                }
            }
            if req.is_store {
                let ty = match g.kind(req.node) {
                    NodeKind::Store { ty, .. } => ty,
                    _ => unreachable!("store request from non-store"),
                };
                self.machine.store(req.addr, ty, req.value);
                // Token as soon as the store is ordered (§3.2: "the token
                // can be generated before memory has been updated"). The
                // store's memory latency is deliberately absent from the
                // path: nothing downstream waits on the write completing.
                let ft = if self.crit_on() {
                    self.crit.push_rec(req.node.0, fire, EdgeClass::Token, self.now + 1)
                } else {
                    fire
                };
                self.complete_mem(req.node, 0, 1, self.now + 1, ft);
            } else {
                let ty = match g.kind(req.node) {
                    NodeKind::Load { ty, .. } => ty,
                    _ => unreachable!("load request from non-load"),
                };
                let v = self.machine.load(req.addr, ty);
                // Value when the access completes (a memory-latency
                // self-edge, split hit vs. miss); token once ordered.
                let (fv, ft) = if self.crit_on() {
                    let cls = if missed { EdgeClass::CacheMiss } else { EdgeClass::MemLat };
                    (
                        self.crit.push_rec(req.node.0, fire, cls, self.now + lat),
                        self.crit.push_rec(req.node.0, fire, EdgeClass::Token, self.now + 1),
                    )
                } else {
                    (fire, fire)
                };
                self.complete_mem(req.node, 0, v, self.now + lat, fv);
                self.complete_mem(req.node, 1, 1, self.now + 1, ft);
            }
            self.lsq_in_flight += 1;
            self.push_event(self.now + lat, Ev::LsqRelease { level });
            if let Some(tr) = self.trace.as_mut().filter(|_| OBSERVED) {
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

fn sticky_of(sticky: &[Option<i64>], src: Src) -> Option<i64> {
    if src.port == 0 {
        sticky[src.node.index()]
    } else {
        None
    }
}

pub(crate) fn alu_latency(op: BinOp) -> u64 {
    match op {
        BinOp::Mul => 3,
        BinOp::Div | BinOp::Rem => 20,
        _ => 1,
    }
}

/// Normalization helper for tests.
#[doc(hidden)]
pub fn normalize(ty: &Type, v: i64) -> i64 {
    ty.normalize(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfgir::objects::{MemObject, ObjectSet};
    use cfgir::Module;

    fn one_cell_module(init: i64) -> (Module, u64) {
        let mut m = Module::new();
        m.add_object(MemObject::global("a", Type::int(32), 1).with_init(vec![init]));
        (m, 0x1000) // first object lands at BASE_ADDR
    }

    fn perfect(latency: u64) -> SimConfig {
        SimConfig {
            mem: MemSystem::Perfect { latency },
            max_cycles: 10_000,
            ..SimConfig::default()
        }
    }

    /// store a[0] = 7 ; token-ordered load a[0] ; return it.
    fn store_then_load(store_pred: bool) -> (Module, Graph) {
        let (module, base) = one_cell_module(5);
        let mut g = Graph::new();
        let t = g.add_node(NodeKind::InitialToken, 0, 0);
        let ptrue = g.const_bool(true, 0);
        let sp = g.const_bool(store_pred, 0);
        let addr = g.add_node(NodeKind::Const { value: base as i64, ty: Type::int(64) }, 0, 0);
        let seven = g.add_node(NodeKind::Const { value: 7, ty: Type::int(32) }, 0, 0);
        let st = g.add_node(NodeKind::Store { ty: Type::int(32), may: ObjectSet::Top }, 4, 0);
        g.connect(Src::of(addr), st, 0);
        g.connect(Src::of(seven), st, 1);
        g.connect(Src::of(sp), st, 2);
        g.connect(Src::of(t), st, 3);
        let ld = g.add_node(NodeKind::Load { ty: Type::int(32), may: ObjectSet::Top }, 3, 0);
        g.connect(Src::of(addr), ld, 0);
        g.connect(Src::of(ptrue), ld, 1);
        g.connect(Src::of(st), ld, 2); // the store's token orders the load
        let ret = g.add_node(NodeKind::Return { has_value: true, ty: Type::int(32) }, 3, 0);
        g.connect(Src::of(ptrue), ret, 0);
        g.connect(Src::token_of_load(ld), ret, 1);
        g.connect(Src::of(ld), ret, 2);
        (module, g)
    }

    #[test]
    fn token_ordered_load_sees_an_in_flight_store() {
        // §3.2 / §7.3: the store's token is generated as soon as the access
        // is ordered in the LSQ, not when it completes, and the dependent
        // load is forwarded the stored value. With a 40-cycle memory the
        // pair must finish in well under two full round trips.
        let (module, g) = store_then_load(true);
        let mut machine = Machine::new(&module, MemSystem::Perfect { latency: 40 });
        let r = simulate(&g, &mut machine, &[], &perfect(40)).unwrap();
        assert_eq!(r.ret, Some(7));
        assert_eq!(r.stats.stores, 1);
        assert_eq!(r.stats.loads, 1);
        assert!(r.cycles < 80, "no forwarding: {} cycles", r.cycles);
    }

    #[test]
    fn nullified_store_releases_its_token_without_touching_memory() {
        let (module, g) = store_then_load(false);
        let mut machine = Machine::new(&module, MemSystem::Perfect { latency: 2 });
        let r = simulate(&g, &mut machine, &[], &perfect(2)).unwrap();
        assert_eq!(r.ret, Some(5), "load must see the initial value");
        assert_eq!(r.stats.stores, 0, "nullified store must not access memory");
        assert_eq!(r.stats.loads, 1);
    }

    #[test]
    fn nullified_firing_does_not_overtake_an_in_flight_result() {
        // Regression test: a load fires twice on one wave — first with a
        // true predicate (a real, slow access), then with a false one (an
        // instant nullified result). Channel delivery must stay in firing
        // order: the consumer reads the real value first, not the filler.
        let mut module = Module::new();
        module.add_object(MemObject::global("a", Type::int(32), 1).with_init(vec![42]));
        module.add_object(MemObject::global("b", Type::int(32), 2).with_init(vec![1, 0]));
        let (base_a, base_b) = (0x1000i64, 0x1008i64);
        let mut g = Graph::new();
        let ptrue = g.const_bool(true, 0);
        let addr = g.add_node(NodeKind::Const { value: base_a, ty: Type::int(64) }, 0, 0);
        // Predicate sequence [1, 0] on one edge: two token-chained loads of
        // b[0]=1 and b[1]=0 (load results are never sticky, so they queue),
        // cast to bool, merged in completion order.
        let t0 = g.add_node(NodeKind::InitialToken, 0, 0);
        let ab0 = g.add_node(NodeKind::Const { value: base_b, ty: Type::int(64) }, 0, 0);
        let ab1 = g.add_node(NodeKind::Const { value: base_b + 4, ty: Type::int(64) }, 0, 0);
        let pl1 = g.add_node(NodeKind::Load { ty: Type::int(32), may: ObjectSet::Top }, 3, 0);
        g.connect(Src::of(ab0), pl1, 0);
        g.connect(Src::of(ptrue), pl1, 1);
        g.connect(Src::of(t0), pl1, 2);
        let pl2 = g.add_node(NodeKind::Load { ty: Type::int(32), may: ObjectSet::Top }, 3, 0);
        g.connect(Src::of(ab1), pl2, 0);
        g.connect(Src::of(ptrue), pl2, 1);
        g.connect(Src::token_of_load(pl1), pl2, 2); // pl1 completes first
        let c1 = g.add_node(NodeKind::Cast { ty: Type::Bool }, 1, 0);
        g.connect(Src::of(pl1), c1, 0);
        let c2 = g.add_node(NodeKind::Cast { ty: Type::Bool }, 1, 0);
        g.connect(Src::of(pl2), c2, 0);
        let pm = g.add_node(NodeKind::Merge { vc: VClass::Pred, ty: Type::Bool }, 2, 0);
        g.connect(Src::of(c1), pm, 0);
        g.connect(Src::of(c2), pm, 1);
        // Two wave tokens at once: both firings are enabled back to back.
        let t1 = g.add_node(NodeKind::InitialToken, 0, 0);
        let t2 = g.add_node(NodeKind::InitialToken, 0, 0);
        let tm = g.add_node(NodeKind::Merge { vc: VClass::Token, ty: Type::Void }, 2, 0);
        g.connect(Src::of(t1), tm, 0);
        g.connect(Src::of(t2), tm, 1);
        let ld = g.add_node(NodeKind::Load { ty: Type::int(32), may: ObjectSet::Top }, 3, 0);
        g.connect(Src::of(addr), ld, 0);
        g.connect(Src::of(pm), ld, 1);
        g.connect(Src::of(tm), ld, 2);
        // The return rides the same predicate sequence: it must see the
        // real 42 on the true wave, not the nullified wave's filler. If
        // channel order broke, the filler 0 would pair with the true
        // predicate and become the result.
        let ret = g.add_node(NodeKind::Return { has_value: true, ty: Type::int(32) }, 3, 0);
        g.connect(Src::of(pm), ret, 0);
        g.connect(Src::token_of_load(ld), ret, 1);
        g.connect(Src::of(ld), ret, 2);

        let mut machine = Machine::new(&module, MemSystem::Perfect { latency: 10 });
        let r = simulate(&g, &mut machine, &[], &perfect(10)).unwrap();
        assert_eq!(r.ret, Some(42), "nullified filler overtook the real load result");
        assert_eq!(
            r.stats.loads, 3,
            "only the true-predicate firing of the main load accesses memory"
        );
    }

    #[test]
    fn simulation_stats_carry_the_cache_breakdown() {
        let (module, g) = store_then_load(true);
        let mem = MemSystem::Hierarchy(crate::memory::CacheParams::default());
        let mut machine = Machine::new(&module, mem.clone());
        let cfg = SimConfig { mem, max_cycles: 10_000, ..SimConfig::default() };
        let r = simulate(&g, &mut machine, &[], &cfg).unwrap();
        assert_eq!(r.ret, Some(7));
        // Cold store misses everywhere; the dependent load hits in L1.
        assert_eq!(r.stats.l1_misses, 1);
        assert_eq!(r.stats.l1_hits, 1);
        assert_eq!(r.stats.tlb_misses, 1);
        assert_eq!(r.stats.tlb_hits, 1);
    }
}
