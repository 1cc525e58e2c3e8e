//! Deterministic replay over the event executor: checkpoint every K
//! cycles, then travel anywhere in the run — forward by stepping,
//! backward by restoring the nearest checkpoint and re-executing.
//!
//! # Why this is sound
//!
//! The simulator's ordering contract pins the entire schedule to the
//! global `(cycle, seq)` delivery order: an executor's run-time state is
//! *all* of its state — there is no hidden scheduler nondeterminism.
//! [`ExecSnapshot`](crate::exec) therefore
//! clones the FIFO slab, the event queue, the LSQ, the memory image and
//! the `seq` counter, and re-stepping from a restored snapshot reproduces
//! the original run bit-for-bit. The checkpoint round-trip test in
//! `tests/waves.rs` asserts exactly that: resuming at any cycle C yields
//! a final stats record identical to the uninterrupted run's.
//!
//! # Capture discipline
//!
//! [`Replay::new`] performs the full run once up front (waveforms on),
//! harvesting checkpoints and the final result, then runs once more with
//! critical-path recording to pin the path for the `crit` command. After that, every navigation command rebuilds a throwaway
//! executor, restores the in-memory snapshot, steps, and snapshots back —
//! a few milliseconds even for the larger kernels, which is what makes
//! "reverse-step" feel instant in `cashdbg`.

use pegasus::{FlatPorts, Graph, NodeId};

use crate::exec::{ExecSnapshot, Executor, SimConfig, SimError, SimResult};
use crate::memory::Machine;
use crate::waves::{stall_label, Rec, Records, Wave};

/// A comparison operator for value breakpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    /// Parses the C spelling (`==`, `!=`, `<`, `<=`, `>`, `>=`).
    pub fn parse(s: &str) -> Option<Cmp> {
        Some(match s {
            "==" => Cmp::Eq,
            "!=" => Cmp::Ne,
            "<" => Cmp::Lt,
            "<=" => Cmp::Le,
            ">" => Cmp::Gt,
            ">=" => Cmp::Ge,
            _ => return None,
        })
    }

    fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
        }
    }

    /// The operator's source spelling (as accepted by [`Cmp::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            Cmp::Eq => "==",
            Cmp::Ne => "!=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
        }
    }
}

/// A condition that stops [`Replay::cont`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Breakpoint {
    /// Stop when this node fires.
    Fire(NodeId),
    /// Stop when output `port` of `node` produces a value satisfying
    /// `cmp value` (a change-list hit — unchanged repeats don't trigger).
    Value { node: NodeId, port: u16, cmp: Cmp, value: i64 },
    /// Stop when a node enters this stall class (see
    /// [`crate::waves::stall_code`]); `node: None` watches every node.
    Stall { node: Option<NodeId>, code: u8 },
}

impl std::fmt::Display for Breakpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Breakpoint::Fire(n) => write!(f, "fire {n}"),
            Breakpoint::Value { node, port, cmp, value } => {
                write!(f, "value {node}.out{port} {} {value}", cmp.label())
            }
            Breakpoint::Stall { node: Some(n), code } => {
                write!(f, "stall {n} {}", stall_label(*code))
            }
            Breakpoint::Stall { node: None, code } => {
                write!(f, "stall * {}", stall_label(*code))
            }
        }
    }
}

impl Breakpoint {
    /// First hit among `recs` — the records one step appended — as
    /// `(cycle, description)`. The log is time-ordered, so the first
    /// matching record of a signal is that signal's earliest new change;
    /// a wildcard stall break reports the lowest-numbered node among the
    /// earliest hits.
    fn hit(&self, mut recs: Records<'_>, flat: &FlatPorts) -> Option<(u64, String)> {
        match *self {
            Breakpoint::Fire(node) => recs
                .find(|&(_, r)| r == Rec::Fire(node.index()))
                .map(|(t, _)| (t, format!("{node} fired at cycle {t}"))),
            Breakpoint::Value { node, port, cmp, value } => {
                let oid = flat.out_id(node, port) as usize;
                recs.find_map(|(t, r)| match r {
                    Rec::Out(i, v) if i == oid && cmp.eval(v, value) => Some((t, v)),
                    _ => None,
                })
                .map(|(t, v)| (t, format!("{node}.out{port} = {v} at cycle {t}")))
            }
            Breakpoint::Stall { node, code } => recs
                .filter_map(|(t, r)| match r {
                    Rec::Stall(i, c) if c == code && node.is_none_or(|n| n.index() == i) => {
                        Some((t, i))
                    }
                    _ => None,
                })
                .min()
                .map(|(t, i)| {
                    let id = NodeId(i as u32);
                    (t, format!("{id} stalled on {} at cycle {t}", stall_label(code)))
                }),
        }
    }
}

/// Why a navigation command stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The program completed; see [`Replay::finished`].
    Finished,
    /// Reached the requested cycle (the actual stop cycle — a quiescent
    /// circuit can jump past the exact target).
    Cycle(u64),
    /// Breakpoint `index` hit, with the cycle and a description.
    Breakpoint { index: usize, cycle: u64, what: String },
}

/// The deterministic replay session driving `cashdbg`.
pub struct Replay<'g> {
    g: &'g Graph,
    flat: FlatPorts,
    args: Vec<i64>,
    config: SimConfig,
    machine: Machine,
    interval: u64,
    checkpoints: Vec<ExecSnapshot>,
    cur: ExecSnapshot,
    finished: Option<SimResult>,
    final_result: SimResult,
    hops: Vec<(NodeId, u64)>,
    breaks: Vec<Option<Breakpoint>>,
}

impl<'g> Replay<'g> {
    /// Builds a replay session: one full recording run (checkpoints every
    /// `interval` cycles, waveforms on), plus one untimed critical-path run
    /// for [`Self::hops`].
    /// `machine` must be the pristine pre-run memory image.
    pub fn new(
        g: &'g Graph,
        machine: Machine,
        args: &[i64],
        config: &SimConfig,
        interval: u64,
    ) -> Result<Replay<'g>, SimError> {
        let mut config = config.clone();
        config.waves = true;
        config.profile = false;
        config.trace = false;
        config.critpath = false;
        let interval = interval.max(1);

        let mut checkpoints = Vec::new();
        let mut rec_machine = machine.clone();
        let final_result = {
            let mut ex = Executor::<true>::new(g, &mut rec_machine, args, &config)?;
            let mut next_cp = 0u64;
            loop {
                if ex.now() >= next_cp {
                    checkpoints.push(ex.snapshot());
                    while next_cp <= ex.now() {
                        next_cp += interval;
                    }
                }
                if let Some(r) = ex.step_once()? {
                    break r;
                }
            }
        };

        let hops = {
            let mut crit_machine = machine.clone();
            let mut crit_config = config.clone();
            crit_config.waves = false;
            crit_config.critpath = true;
            Executor::<true>::new(g, &mut crit_machine, args, &crit_config)
                .and_then(Executor::run)?
                .crit
                .map(|mut c| std::mem::take(&mut c.hops))
                .unwrap_or_default()
        };

        let cur = checkpoints[0].clone();
        Ok(Replay {
            g,
            flat: FlatPorts::new(g),
            args: args.to_vec(),
            config,
            machine,
            interval,
            checkpoints,
            cur,
            finished: None,
            final_result,
            hops,
            breaks: Vec::new(),
        })
    }

    /// Current cycle of the replay cursor.
    pub fn now(&self) -> u64 {
        self.cur.now
    }

    /// Firings so far at the cursor position.
    pub fn fired(&self) -> u64 {
        self.cur.fired
    }

    /// Checkpoint spacing in cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Cycles at which checkpoints were taken (ascending).
    pub fn checkpoint_cycles(&self) -> Vec<u64> {
        self.checkpoints.iter().map(|s| s.now).collect()
    }

    /// The uninterrupted run's result (waveforms included).
    pub fn final_result(&self) -> &SimResult {
        &self.final_result
    }

    /// The result at the cursor, once the cursor has run to completion.
    pub fn finished(&self) -> Option<&SimResult> {
        self.finished.as_ref()
    }

    /// The waveform capture at the cursor position (history since cycle 0
    /// — snapshots carry their capture, so restores keep it complete).
    /// Once the cursor has run to completion the finished result owns the
    /// capture (`finish` drains the live recorder), so serve that one.
    pub fn wave(&self) -> &Wave {
        self.finished.as_ref().and_then(|r| r.waves.as_ref()).unwrap_or_else(|| self.cur.wave_ref())
    }

    /// The recorded critical path as forward `(node, cycle)` hops.
    pub fn hops(&self) -> &[(NodeId, u64)] {
        &self.hops
    }

    /// Registers a breakpoint; returns its index.
    pub fn add_break(&mut self, b: Breakpoint) -> usize {
        self.breaks.push(Some(b));
        self.breaks.len() - 1
    }

    /// Deletes breakpoint `i`; returns whether it existed.
    pub fn delete_break(&mut self, i: usize) -> bool {
        match self.breaks.get_mut(i) {
            Some(slot @ Some(_)) => {
                *slot = None;
                true
            }
            _ => false,
        }
    }

    /// Active breakpoints as `(index, breakpoint)`.
    pub fn breaks(&self) -> Vec<(usize, &Breakpoint)> {
        self.breaks.iter().enumerate().filter_map(|(i, b)| b.as_ref().map(|b| (i, b))).collect()
    }

    /// Moves the cursor to `target` — backward via nearest checkpoint +
    /// re-execution, forward by stepping. Ignores breakpoints.
    pub fn run_to(&mut self, target: u64) -> Result<StopReason, SimError> {
        self.advance(target, false)
    }

    /// Steps forward `n` cycles.
    pub fn step(&mut self, n: u64) -> Result<StopReason, SimError> {
        self.advance(self.cur.now.saturating_add(n.max(1)), false)
    }

    /// Steps backward `n` cycles (nearest checkpoint + re-execute).
    pub fn reverse_step(&mut self, n: u64) -> Result<StopReason, SimError> {
        self.advance(self.cur.now.saturating_sub(n.max(1)), false)
    }

    /// Runs forward until a breakpoint hits or the program completes.
    pub fn cont(&mut self) -> Result<StopReason, SimError> {
        self.advance(u64::MAX, true)
    }

    fn advance(&mut self, target: u64, honor_breaks: bool) -> Result<StopReason, SimError> {
        if target < self.cur.now {
            let idx = match self.checkpoints.binary_search_by_key(&target, |s| s.now) {
                Ok(i) => i,
                Err(0) => 0,
                Err(i) => i - 1,
            };
            self.cur = self.checkpoints[idx].clone();
            self.finished = None;
        }
        if self.finished.is_some() {
            return Ok(StopReason::Finished);
        }
        let config = self.config.clone();
        let mut ex = Executor::<true>::new(self.g, &mut self.machine, &self.args, &config)?;
        ex.restore(&self.cur);
        let reason = loop {
            if ex.now() >= target {
                break StopReason::Cycle(ex.now());
            }
            let mark = ex.wave_state().mark();
            let done = ex.step_once()?;
            if honor_breaks {
                // The final step hands the capture to the result.
                let recs = match done.as_ref().and_then(|r| r.waves.as_ref()) {
                    Some(w) => w.records_since(mark),
                    None => ex.wave_state().records_since(mark),
                };
                let hit = self.breaks.iter().enumerate().find_map(|(i, b)| {
                    let (cycle, what) = b.as_ref()?.hit(recs.clone(), &self.flat)?;
                    Some((i, cycle, what))
                });
                if let Some((index, cycle, what)) = hit {
                    if let Some(r) = done {
                        self.finished = Some(r);
                    }
                    break StopReason::Breakpoint { index, cycle, what };
                }
            }
            if let Some(r) = done {
                self.finished = Some(r);
                break StopReason::Finished;
            }
        };
        self.cur = ex.snapshot();
        Ok(reason)
    }
}
