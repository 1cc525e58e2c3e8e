//! The compile and simulate chain, called layer by layer through each
//! crate's public functions so every layer gets a span of its own. It
//! performs the same steps as `Compiler::compile`; the traced run checks
//! that both produce the same circuit.

use crate::trace::Tracer;
use cash::{Error, Machine, OptConfig, OptLevel, Program, SimConfig, SimResult};
use cfgir::AliasOracle;

const ENTRY: &str = "main";

/// Deterministic work counts of the compile layers, summed over compiles.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
pub struct CompileCounts {
    pub compiles: u64,
    /// CFG instructions the frontend produced.
    pub instrs: u64,
    /// Blocks of the flattened entry function.
    pub blocks: u64,
    /// Live nodes and connected edges of the graph as built.
    pub nodes: u64,
    pub edges: u64,
    pub opt_passes: u64,
    pub opt_rewrites: u64,
    pub opt_nodes_removed: u64,
    pub opt_token_edges_removed: u64,
    /// Live nodes left for the lint.
    pub lint_nodes: u64,
    pub lint_diags: u64,
}

/// Compiles `src` at `level`, one span per layer call, under a `compile`
/// span.
pub fn compile(
    t: &mut Tracer,
    src: &str,
    level: OptLevel,
    counts: &mut CompileCounts,
) -> Result<Program, Error> {
    let root = t.enter("compile");
    let out = compile_layers(t, src, &level.config(), counts);
    t.exit(root);
    out
}

fn compile_layers(
    t: &mut Tracer,
    src: &str,
    cfg: &OptConfig,
    c: &mut CompileCounts,
) -> Result<Program, Error> {
    c.compiles += 1;
    let mut module = t.span("minic", || minic::compile_to_module(src))?;
    c.instrs +=
        module.functions.iter().flat_map(|f| &f.blocks).map(|b| b.instrs.len() as u64).sum::<u64>();
    let mut flat = t.span("cfgir.inline", || cfgir::inline::inline_all(&module, ENTRY))?;
    t.span("cfgir.pointsto", || cfgir::pointsto::recompute_may_sets(&mut flat));
    c.blocks += flat.blocks.len() as u64;
    let idx = module
        .functions
        .iter()
        .position(|f| f.name == ENTRY)
        .expect("inline_all found the entry function");
    module.functions[idx] = flat;

    let (graph, report, static_unoptimized) = {
        let oracle = AliasOracle::new(&module);
        let f = module.function(ENTRY).expect("the entry function exists");
        let build = pegasus::BuildOptions { use_rw_sets: cfg.rw_sets_at_build };
        let mut graph = t.span("pegasus.build", || pegasus::build(f, &oracle, &build))?;
        t.span("pegasus.verify", || pegasus::verify(&graph))?;
        let built = graph.live_count() as u64;
        c.nodes += built;
        c.edges += graph.count_edges() as u64;
        let static_unoptimized = graph.count_memory_ops();
        let no_lint = OptConfig { lint: false, ..*cfg };
        let mut report = t.span("opt", || opt::optimize(&mut graph, &oracle, &no_lint));
        let left = graph.live_count() as u64;
        c.opt_passes += report.passes.len() as u64;
        c.opt_rewrites += report.passes.iter().map(|p| p.rewrites as u64).sum::<u64>();
        c.opt_nodes_removed += built.saturating_sub(left);
        c.opt_token_edges_removed += report.token_edges_removed as u64;
        let s = t.enter("lint");
        let diags = lint::lint(&graph, &oracle, &opt::lint_config(cfg));
        let micros = t.exit(s) / 1000;
        c.lint_nodes += left;
        c.lint_diags += diags.len() as u64;
        report.lint = lint::LintReport { diags, micros };
        t.span("pegasus.verify", || pegasus::verify(&graph))?;
        (graph, report, static_unoptimized)
    };
    Ok(Program {
        module,
        graph,
        report,
        entry: ENTRY.into(),
        static_unoptimized,
        spans: Vec::new(),
    })
}

/// Simulates `p` on a fresh machine: `Machine::new`, `FlatPorts::new` and
/// `Program::simulate_on` each get a span. The executor builds its own
/// port table inside `simulate_on`; the separate `FlatPorts::new` call
/// measures that set-up cost from outside.
pub fn simulate(
    t: &mut Tracer,
    p: &Program,
    args: &[i64],
    cfg: &SimConfig,
) -> (Result<SimResult, Error>, Machine) {
    let mut machine = t.span("ashsim.machine", || Machine::new(&p.module, cfg.mem.clone()));
    t.span("ashsim.flatports", || std::hint::black_box(pegasus::FlatPorts::new(&p.graph)));
    let r = t.span("ashsim.run", || p.simulate_on(&mut machine, args, cfg));
    (r, machine)
}

/// Checks that the chain built the circuit `Compiler::compile` builds: the
/// same live node and edge counts, and the same return value, cycles and
/// firings on the same run. Returns a description of the first difference.
pub fn same_circuit(
    traced: &Program,
    src: &str,
    level: OptLevel,
    args: &[i64],
    cfg: &SimConfig,
) -> Option<String> {
    let reference = match cash::Compiler::new().level(level).compile(src) {
        Ok(p) => p,
        Err(e) => return Some(format!("Compiler::compile failed where the chain did not: {e}")),
    };
    let shape = |p: &Program| (p.graph.live_count(), p.graph.count_edges());
    if shape(traced) != shape(&reference) {
        return Some(format!(
            "graph (nodes, edges): chain {:?}, Compiler::compile {:?}",
            shape(traced),
            shape(&reference)
        ));
    }
    let run = |p: &Program| p.simulate(args, cfg).map(|r| (r.ret, r.cycles, r.fired));
    match (run(traced), run(&reference)) {
        (Ok(a), Ok(b)) if a == b => None,
        (a, b) => Some(format!(
            "(ret, cycles, fired): chain {:?}, Compiler::compile {:?}",
            a.map_err(|e| e.to_string()),
            b.map_err(|e| e.to_string())
        )),
    }
}
