//! What a run collects, and the metrics it reports from it.

use crate::chain::CompileCounts;
use crate::stats::{beyond, median, percentile, shifted_geomean, Metrics};
use cash::{MemStats, SimResult};
use std::collections::{BTreeMap, BTreeSet};

/// The best (lowest) time of each item of a fixed list over its
/// repetitions, nanoseconds. The host's speed drifts by tens of percent
/// over seconds; an item repeated across the whole run keeps the time it
/// took when the host ran fastest.
#[derive(Default)]
pub struct Best(Vec<u64>);

impl Best {
    pub fn add(&mut self, item: usize, ns: u64) {
        if self.0.len() <= item {
            self.0.resize(item + 1, u64::MAX);
        }
        self.0[item] = self.0[item].min(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn ms(&self) -> Vec<f64> {
        self.0.iter().map(|&ns| ns as f64 / 1e6).collect()
    }

    pub fn total_s(&self) -> f64 {
        self.0.iter().map(|&ns| ns as f64).sum::<f64>() / 1e9
    }
}

/// End-to-end observations of a run.
#[derive(Default)]
pub struct EndToEnd {
    /// Set-up rounds done, and the best time of each set-up item (a
    /// circuit's compile, a program's generation) over them.
    pub setup_rounds: usize,
    pub setup: Best,
    /// Best time of each operation of the list, of the simulate calls in
    /// it, and of each `Compiler::compile` call.
    pub op: Best,
    pub sim: Best,
    pub compile: Best,
    /// Firings of one pass over the operation list.
    pub fired: u64,
    /// Simulated cycles and dynamic loads + stores of every run of the
    /// first pass whose operation passed its checks.
    pub cycles: Vec<u64>,
    pub mem_ops: Vec<u64>,
}

impl EndToEnd {
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", self.setup.total_s(), "s");
        m.put("ops_per_s", self.op.len() as f64 / self.op.total_s(), "1/s");
        m.put("op_ms_p50", median(&self.op.ms()), "ms");
        m.put("op_ms_p90", percentile(&self.op.ms(), 0.9), "ms");
        m.put("sim_mfires_per_s", self.fired as f64 / self.sim.total_s() / 1e6, "Mfire/s");
        m.put("compile_ms_p50", median(&self.compile.ms()), "ms");
        m.put("compile_ms_p90", percentile(&self.compile.ms(), 0.9), "ms");
        m.put("sim_cycles_geomean", shifted_geomean(&self.cycles), "cycles");
        m.put("mem_ops_geomean", shifted_geomean(&self.mem_ops), "count");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m
    }

    /// The sample counts behind the percentiles.
    pub fn notes(&self) -> Vec<String> {
        let tail = |n: usize| format!("{n} items, {} beyond p90", beyond(n, 0.9));
        vec![
            format!("operations: {}", tail(self.op.len())),
            format!("compiles: {}", tail(self.compile.len())),
            format!("set-up rounds: {}", self.setup_rounds),
        ]
    }
}

/// `VmHWM` of this process, in MB; `NaN` where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The simulated statistics of one run that must repeat exactly: return
/// value, cycles, firings and memory statistics.
pub type Signature = (Option<i64>, u64, u64, MemStats);

pub fn signature(r: &SimResult) -> Signature {
    (r.ret, r.cycles, r.fired, r.stats.clone())
}

/// Deterministic simulator counts, summed over runs.
#[derive(Default, Clone, PartialEq, Eq, Debug)]
pub struct SimCounts {
    pub fired: u64,
    pub cycles: u64,
    pub deferrals: u64,
    pub mem: MemStats,
}

impl SimCounts {
    pub fn add(&mut self, r: &SimResult) {
        self.fired += r.fired;
        self.cycles += r.cycles;
        self.deferrals += r.deferrals;
        let (m, s) = (&mut self.mem, &r.stats);
        m.loads += s.loads;
        m.stores += s.stores;
        m.l1_hits += s.l1_hits;
        m.l1_misses += s.l1_misses;
        m.l2_hits += s.l2_hits;
        m.l2_misses += s.l2_misses;
        m.tlb_hits += s.tlb_hits;
        m.tlb_misses += s.tlb_misses;
    }
}

/// Per-layer observations of a traced run.
#[derive(Default)]
pub struct Layers {
    /// Self time per span name, one map per round (a set-up round or a
    /// traced pass over the operation list).
    pub rounds: Vec<BTreeMap<&'static str, u64>>,
    /// Counts of one compile round and of one traced pass.
    pub compile: CompileCounts,
    pub sim: SimCounts,
    /// Interpreter steps of one oracle round.
    pub interp_steps: u64,
    /// Extra host time per firing of each collector, measured by
    /// re-running programs bare and with exactly that collector on.
    pub profile_ns_per_fire: f64,
    pub critpath_ns_per_fire: f64,
    pub waves_ns_per_fire: f64,
    /// Best time of each operation in traced passes; the untraced passes
    /// of the same run fill `EndToEnd::op`.
    pub traced_op: Best,
    /// Traced minus untraced time of one operation, microseconds.
    pub overhead_us_per_op: f64,
}

impl Layers {
    /// Median over the rounds that ran `names` of their summed self time,
    /// nanoseconds.
    fn ns(&self, names: &[&str]) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .filter(|r| names.iter().any(|n| r.contains_key(n)))
            .map(|r| names.iter().filter_map(|n| r.get(n)).sum::<u64>() as f64)
            .collect();
        median(&per_round)
    }

    fn us(&self, names: &[&str]) -> f64 {
        self.ns(names) / 1e3
    }

    pub fn metrics(&self) -> Metrics {
        let c = &self.compile;
        let s = &self.sim;
        let per = |ns: f64, n: u64| ns / n as f64;
        let mut m = Metrics::default();
        m.put("minic.us", self.us(&["minic"]), "us");
        m.put("minic.instrs", c.instrs as f64, "count");
        m.put("minic.ns_per_instr", per(self.ns(&["minic"]), c.instrs), "ns");
        m.put("cfgir.inline.us", self.us(&["cfgir.inline"]), "us");
        m.put("cfgir.pointsto.us", self.us(&["cfgir.pointsto"]), "us");
        m.put("cfgir.blocks", c.blocks as f64, "count");
        m.put("pegasus.build.us", self.us(&["pegasus.build"]), "us");
        m.put("pegasus.verify.us", self.us(&["pegasus.verify"]), "us");
        m.put("pegasus.nodes", c.nodes as f64, "count");
        m.put("pegasus.edges", c.edges as f64, "count");
        m.put("pegasus.build.ns_per_node", per(self.ns(&["pegasus.build"]), c.nodes), "ns");
        m.put("opt.us", self.us(&["opt"]), "us");
        m.put("opt.passes", c.opt_passes as f64, "count");
        m.put("opt.rewrites", c.opt_rewrites as f64, "count");
        m.put("opt.nodes_removed", c.opt_nodes_removed as f64, "count");
        m.put("opt.token_edges_removed", c.opt_token_edges_removed as f64, "count");
        m.put("opt.ns_per_node", per(self.ns(&["opt"]), c.nodes), "ns");
        m.put("lint.us", self.us(&["lint"]), "us");
        m.put("lint.diags", c.lint_diags as f64, "count");
        m.put("lint.ns_per_node", per(self.ns(&["lint"]), c.lint_nodes), "ns");
        m.put("ashsim.setup.us", self.us(&["ashsim.machine", "ashsim.flatports"]), "us");
        m.put("ashsim.run.us", self.us(&["ashsim.run"]), "us");
        m.put("ashsim.fired", s.fired as f64, "count");
        m.put("ashsim.cycles", s.cycles as f64, "cycles");
        m.put("ashsim.deferrals", s.deferrals as f64, "count");
        m.put("ashsim.run.ns_per_fire", per(self.ns(&["ashsim.run"]), s.fired), "ns");
        m.put("ashsim.mem.loads", s.mem.loads as f64, "count");
        m.put("ashsim.mem.stores", s.mem.stores as f64, "count");
        let l1 = s.mem.l1_hits + s.mem.l1_misses;
        let miss_rate = if l1 == 0 { 0.0 } else { s.mem.l1_misses as f64 / l1 as f64 };
        m.put("ashsim.mem.l1_miss_rate", miss_rate, "ratio");
        m.put("ashsim.mem.l2_misses", s.mem.l2_misses as f64, "count");
        m.put("ashsim.mem.tlb_misses", s.mem.tlb_misses as f64, "count");
        m.put("ashsim.profile.ns_per_fire", self.profile_ns_per_fire, "ns");
        m.put("ashsim.critpath.ns_per_fire", self.critpath_ns_per_fire, "ns");
        m.put("ashsim.waves.ns_per_fire", self.waves_ns_per_fire, "ns");
        m.put("cash.stats.us", self.us(&["cash.stats"]), "us");
        m.put("refinterp.gen.us", self.us(&["refinterp.gen"]), "us");
        m.put("refinterp.interp.us", self.us(&["refinterp.interp"]), "us");
        m.put("refinterp.steps", self.interp_steps as f64, "count");
        m.put(
            "refinterp.ns_per_step",
            per(self.ns(&["refinterp.interp"]), self.interp_steps),
            "ns",
        );
        m.put("trace.overhead_us_per_op", self.overhead_us_per_op, "us");
        m
    }
}

/// Failed operations, and the benchmark's own invariants.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    /// Operations that errored (compile error, deadlock, cycle limit) or
    /// whose output the checks rejected (wrong return value or memory
    /// image, lint findings).
    pub failed: u64,
    pub failures: Vec<String>,
    /// Broken invariants of the measurement itself: simulated statistics
    /// that do not repeat, a traced chain that builds another circuit, a
    /// collector that changes the simulation, a non-default executor. Any
    /// entry makes the run incorrect.
    pub broken: Vec<String>,
    /// `SimResult::backend` of every simulation in the timed loop.
    pub executors: BTreeSet<&'static str>,
}

impl Tally {
    pub fn op(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
        }
        self.failures.extend(failures);
    }

    pub fn invariant(&mut self, broken: Option<String>) {
        self.broken.extend(broken);
    }

    /// Records which executor ran a simulation; results are defined on the
    /// default `event` executor only.
    pub fn executor(&mut self, backend: &'static str) {
        if self.executors.insert(backend) && backend != "event" {
            self.broken.push(format!("a simulation ran on the {backend} executor"));
        }
    }
}
