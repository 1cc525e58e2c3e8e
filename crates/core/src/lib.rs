//! CASH: a compiler from a C subset to spatial-computation dataflow
//! circuits, reproducing "Optimizing Memory Accesses for Spatial
//! Computation" (Budiu & Goldstein) — the memory-optimization half of the
//! ASPLOS 2004 *Spatial Computation* system.
//!
//! The pipeline mirrors the paper:
//!
//! 1. the MiniC frontend lowers C to a CFG with read/write sets (§3.3);
//! 2. the call tree is flattened (spatial hardware instantiates every
//!    operation), hyperblocks are formed, and the **Pegasus** dataflow
//!    graph is built with predication, SSA and memory-dependence tokens;
//! 3. the optimizer removes unnecessary dependences (§4), eliminates
//!    redundant memory traffic (§5) and pipelines/decouples loops (§6);
//! 4. the result runs on `ashsim`, a self-timed circuit simulator with the
//!    paper's LSQ + two-level-cache memory system (§7.3).
//!
//! # Examples
//!
//! ```
//! use cash::{Compiler, OptLevel};
//!
//! let program = Compiler::new()
//!     .level(OptLevel::Full)
//!     .compile(
//!         "int a[16];
//!          int main(int n) {
//!              for (int i = 0; i < n; i++) a[i] = i * 2;
//!              return a[5];
//!          }",
//!     )?;
//! let result = program.simulate(&[10], &cash::SimConfig::perfect())?;
//! assert_eq!(result.ret, Some(10));
//! # Ok::<(), cash::Error>(())
//! ```

use cfgir::{AliasOracle, Module};
use pegasus::Graph;
use std::fmt;

pub mod par;
pub mod stats;

pub use ashsim::{
    diagnose, kind_label, stall_label, BlockedNode, Breakpoint, CacheParams, Cmp, CritEdge,
    CritSummary, EdgeClass, Machine, MemStats, MemSystem, MemTimeline, NodeProfile, Replay,
    SimConfig, SimError, SimProfile, SimResult, StallCause, StopReason, Trace, TraceEvent, Wave,
};
pub use lint::{lint, LintConfig, LintDiag, LintReport, Rule as LintRule};
pub use obs::SpanRec;
pub use opt::{lint_config, OptConfig, OptLevel, OptReport, PassStat};
pub use pegasus::NodeHeat;
pub use stats::StatsRecord;

/// Any failure along the compilation pipeline.
#[derive(Debug)]
pub enum Error {
    /// Lexing, parsing or semantic analysis failed.
    Frontend(minic::CompileError),
    /// Call-tree flattening failed (recursion, undefined functions).
    Inline(cfgir::inline::InlineError),
    /// Pegasus construction failed.
    Build(pegasus::BuildError),
    /// The graph failed verification (an internal compiler error).
    Verify(pegasus::VerifyError),
    /// Simulation failed.
    Sim(SimError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Frontend(e) => write!(f, "{e}"),
            Error::Inline(e) => write!(f, "{e}"),
            Error::Build(e) => write!(f, "{e}"),
            Error::Verify(e) => write!(f, "internal: {e}"),
            Error::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<minic::CompileError> for Error {
    fn from(e: minic::CompileError) -> Self {
        Error::Frontend(e)
    }
}
impl From<cfgir::inline::InlineError> for Error {
    fn from(e: cfgir::inline::InlineError) -> Self {
        Error::Inline(e)
    }
}
impl From<pegasus::BuildError> for Error {
    fn from(e: pegasus::BuildError) -> Self {
        Error::Build(e)
    }
}
impl From<pegasus::VerifyError> for Error {
    fn from(e: pegasus::VerifyError) -> Self {
        Error::Verify(e)
    }
}
impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        Error::Sim(e)
    }
}

/// The compiler: configure, then [`Compiler::compile`].
#[derive(Debug, Clone)]
pub struct Compiler {
    level: OptLevel,
    custom: Option<OptConfig>,
    entry: String,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new()
    }
}

impl Compiler {
    /// A compiler at [`OptLevel::Full`] with entry point `main`.
    pub fn new() -> Self {
        Compiler { level: OptLevel::Full, custom: None, entry: "main".into() }
    }

    /// Selects a named optimization level.
    pub fn level(mut self, level: OptLevel) -> Self {
        self.level = level;
        self.custom = None;
        self
    }

    /// Uses a custom pass configuration instead of a named level.
    pub fn config(mut self, cfg: OptConfig) -> Self {
        self.custom = Some(cfg);
        self
    }

    /// Selects the entry function (default `main`).
    pub fn entry(mut self, name: impl Into<String>) -> Self {
        self.entry = name.into();
        self
    }

    /// Limits the active configuration to its first `n` optimizer pass
    /// invocations (see [`OptConfig::prefix`]). Differential harnesses use
    /// this to bisect a miscompile to the first offending pass; the full
    /// invocation sequence is reported in [`OptReport::passes`].
    pub fn pass_limit(mut self, n: usize) -> Self {
        self.custom = Some(self.opt_config().prefix(n));
        self
    }

    /// The active pass configuration.
    pub fn opt_config(&self) -> OptConfig {
        self.custom.unwrap_or_else(|| self.level.config())
    }

    /// Compiles `source` to an optimized spatial program.
    ///
    /// The whole pipeline runs under an `obs` span capture: the finished
    /// span tree (frontend, CFG construction, Pegasus build, each opt
    /// pass, lint) travels in [`Program::spans`], feeds the additive
    /// `spans` field of `cash-stats-v1` records and merges into Perfetto
    /// trace exports ([`Program::merged_trace_json`]).
    ///
    /// # Errors
    ///
    /// See [`Error`].
    pub fn compile(&self, source: &str) -> Result<Program, Error> {
        obs::flight::install_panic_hook();
        let (result, spans) = obs::span::capture(|| self.compile_uncaptured(source));
        obs::metrics::counter("compile.runs").inc();
        obs::metrics::flush_thread();
        result.map(|mut p| {
            p.spans = spans;
            p
        })
    }

    fn compile_uncaptured(&self, source: &str) -> Result<Program, Error> {
        let sp = obs::span::enter("compile");
        let cfg = self.opt_config();
        let mut module = minic::compile_to_module(source)?;
        let mut flat = cfgir::inline::inline_all(&module, &self.entry)?;
        cfgir::pointsto::recompute_may_sets(&mut flat);
        let idx = module
            .functions
            .iter()
            .position(|f| f.name == self.entry)
            .expect("inline_all verified the entry exists");
        module.functions[idx] = flat;

        let (graph, report, static_unopt) = {
            let oracle = AliasOracle::new(&module);
            let f = module.function(&self.entry).expect("entry exists");
            let mut graph = {
                let _sp = obs::span::enter("pegasus.build");
                pegasus::build(
                    f,
                    &oracle,
                    &pegasus::BuildOptions { use_rw_sets: cfg.rw_sets_at_build },
                )?
            };
            {
                let _sp = obs::span::enter("pegasus.verify");
                pegasus::verify(&graph)?;
            }
            let static_unopt = graph.count_memory_ops();
            let report = opt::optimize(&mut graph, &oracle, &cfg);
            let _sp = obs::span::enter("pegasus.verify");
            pegasus::verify(&graph)?;
            (graph, report, static_unopt)
        };
        let us = sp.end_us();
        obs::metrics::histogram("compile.us").observe(us);
        Ok(Program {
            module,
            graph,
            report,
            entry: self.entry.clone(),
            static_unoptimized: static_unopt,
            spans: Vec::new(),
        })
    }
}

/// A compiled spatial program: the Pegasus circuit plus its module.
#[derive(Debug, Clone)]
pub struct Program {
    /// Memory objects and (flattened) functions.
    pub module: Module,
    /// The optimized circuit.
    pub graph: Graph,
    /// What the optimizer did.
    pub report: OptReport,
    /// Entry function name.
    pub entry: String,
    /// `(loads, stores)` in the graph before optimization.
    pub static_unoptimized: (usize, usize),
    /// The compile's observability span tree (completion order), captured
    /// by [`Compiler::compile`]. Empty when recording is disabled.
    pub spans: Vec<SpanRec>,
}

impl Program {
    /// `(loads, stores)` in the optimized circuit.
    pub fn static_memory_ops(&self) -> (usize, usize) {
        self.graph.count_memory_ops()
    }

    /// A fresh machine with this program's memory image.
    pub fn machine(&self, mem: MemSystem) -> Machine {
        Machine::new(&self.module, mem)
    }

    /// Runs the program on a fresh machine.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures (deadlock, cycle limit, missing
    /// arguments).
    pub fn simulate(&self, args: &[i64], config: &SimConfig) -> Result<SimResult, Error> {
        let mut machine = self.machine(config.mem.clone());
        Ok(ashsim::simulate(&self.graph, &mut machine, args, config)?)
    }

    /// Runs the program on a caller-provided machine (to inspect memory
    /// afterwards).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn simulate_on(
        &self,
        machine: &mut Machine,
        args: &[i64],
        config: &SimConfig,
    ) -> Result<SimResult, Error> {
        Ok(ashsim::simulate(&self.graph, machine, args, config)?)
    }

    /// Graphviz rendering of the circuit.
    pub fn to_dot(&self) -> String {
        pegasus::to_dot(&self.graph, &self.entry)
    }

    /// Graphviz rendering with a heat-map overlay from a profiled run
    /// (fill encodes firing count, border encodes stall fraction). Collect
    /// the profile by simulating with [`SimConfig::profile`] set.
    pub fn to_dot_heat(&self, profile: &SimProfile) -> String {
        pegasus::to_dot_heat(&self.graph, &self.entry, &profile.node_heat())
    }

    /// Graphviz rendering with a lint overlay: diagnosed nodes are
    /// outlined and labelled with their rule, race pairs are linked —
    /// mirroring the heat-map overlay. Pass the diagnostics from
    /// [`OptReport::lint`] (`self.report.lint.diags`) or a fresh
    /// [`Program::lint`] run.
    pub fn to_dot_lint(&self, diags: &[LintDiag]) -> String {
        pegasus::to_dot_lint(&self.graph, &self.entry, &lint::overlay(diags))
    }

    /// Graphviz rendering with the dynamic critical path overlaid: nodes
    /// the path visits are filled orange by visit count, critical edges
    /// are bold and labelled with their attributed cycles. Collect the
    /// summary by simulating with [`SimConfig::critpath`] set.
    pub fn to_dot_crit(&self, crit: &CritSummary) -> String {
        let mut overlay =
            pegasus::CritOverlay { node_counts: crit.node_counts.clone(), edges: Vec::new() };
        // Merge the per-class edge aggregation down to (src, dst) pairs;
        // self-edges (memory latency, LSQ order, backpressure) are node
        // properties, already visible through the fill.
        for e in &crit.edges {
            if e.src == e.dst {
                continue;
            }
            match overlay.edges.iter_mut().find(|(s, d, _)| *s == e.src && *d == e.dst) {
                Some((_, _, cy)) => *cy += e.cycles,
                None => overlay.edges.push((e.src, e.dst, e.cycles)),
            }
        }
        pegasus::to_dot_crit(&self.graph, &self.entry, &overlay)
    }

    /// Re-runs the static lint over the compiled circuit.
    pub fn lint(&self, cfg: &LintConfig) -> Vec<LintDiag> {
        let oracle = AliasOracle::new(&self.module);
        lint::lint(&self.graph, &oracle, cfg)
    }

    /// Exports a profiled-and-traced run's event stream as Chrome
    /// trace-event JSON, loadable in Perfetto. Collect the trace by
    /// simulating with [`SimConfig::trace`] set.
    pub fn trace_to_chrome_json(&self, trace: &Trace) -> String {
        trace.to_chrome_json(&self.graph)
    }

    /// Like [`Program::trace_to_chrome_json`], but with this program's
    /// compiler spans spliced in as their own process track — one Perfetto
    /// timeline showing the compiler (per-pass, microseconds) next to the
    /// simulated circuit and memory system (cycles).
    pub fn merged_trace_json(&self, trace: &Trace) -> String {
        obs::perfetto::merge_chrome_trace(&self.trace_to_chrome_json(trace), &self.spans)
    }

    /// Serializes a profiled run's per-node profile as JSON.
    pub fn profile_to_json(&self, profile: &SimProfile) -> String {
        profile.to_json(&self.graph)
    }

    /// Number of live nodes in the circuit (the paper's IR-size metric).
    pub fn circuit_size(&self) -> usize {
        self.graph.live_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_compiles_and_runs() {
        let p = Compiler::new()
            .compile(
                "int a[16];
                 int main(int n) {
                     for (int i = 0; i < n; i++) a[i] = i * 2;
                     return a[5];
                 }",
            )
            .unwrap();
        let r = p.simulate(&[10], &SimConfig::perfect()).unwrap();
        assert_eq!(r.ret, Some(10));
    }

    #[test]
    fn all_levels_agree_functionally() {
        let src = "
            int a[32]; int b[33];
            int main(int n) {
                for (int i = 0; i < n; i++) {
                    b[i+1] = i * 3;
                    a[i] = b[i] + 1;
                }
                int acc = 0;
                for (int i = 0; i < n; i++) acc += a[i];
                return acc;
            }";
        let mut results = Vec::new();
        for level in OptLevel::ALL {
            let p = Compiler::new().level(level).compile(src).unwrap();
            let r = p.simulate(&[16], &SimConfig::perfect()).unwrap();
            results.push((level, r.ret));
        }
        for w in results.windows(2) {
            assert_eq!(w[0].1, w[1].1, "{:?} vs {:?}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn full_level_reduces_static_ops() {
        let src = "
            int a[8];
            int main(int p, int i) {
                if (p) a[i] += p;
                else a[i] = 1;
                a[i] <<= a[i+1];
                return a[i];
            }";
        let p = Compiler::new().level(OptLevel::Full).compile(src).unwrap();
        let (l0, s0) = p.static_unoptimized;
        let (l1, s1) = p.static_memory_ops();
        assert!(l1 < l0, "loads {l0} -> {l1}");
        assert!(s1 < s0, "stores {s0} -> {s1}");
    }

    #[test]
    fn functions_are_inlined() {
        let p = Compiler::new()
            .compile(
                "int sq(int x) { return x * x; }
                 int main(int n) { return sq(n) + sq(n + 1); }",
            )
            .unwrap();
        let r = p.simulate(&[3], &SimConfig::perfect()).unwrap();
        assert_eq!(r.ret, Some(9 + 16));
    }

    #[test]
    fn recursion_is_rejected() {
        let err = Compiler::new()
            .compile("int main(int n) { if (n) return main(n - 1); return 0; }")
            .unwrap_err();
        assert!(matches!(err, Error::Inline(_)));
    }

    #[test]
    fn frontend_errors_propagate() {
        assert!(matches!(Compiler::new().compile("int main( {"), Err(Error::Frontend(_))));
    }

    #[test]
    fn dot_export_mentions_nodes() {
        let p = Compiler::new().compile("int main(void) { return 1; }").unwrap();
        let dot = p.to_dot();
        assert!(dot.contains("digraph"));
        assert!(p.circuit_size() > 0);
    }
}
