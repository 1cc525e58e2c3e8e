//! `sweep-bare` and `sweep-observed`: the Figure 19 grid, 16 kernels ×
//! {None, Medium, Full} × {perfect, cache-1p, cache-2p, cache-4p}, one
//! `Program::simulate` on a fresh machine per operation.

use crate::chain::{self, CompileCounts};
use crate::report::{signature, Signature};
use crate::trace::Tracer;
use crate::{Run, FUEL};
use cash::{CacheParams, MemSystem, OptLevel, Program, SimConfig, SimResult, StatsRecord};
use std::hint::black_box;
use std::time::Instant;
use workloads::Workload;

const LEVELS: [OptLevel; 3] = [OptLevel::None, OptLevel::Medium, OptLevel::Full];

/// The Figure 19 memory systems, with every collector off.
fn systems() -> [(&'static str, SimConfig); 4] {
    let cache = |ports| SimConfig {
        mem: MemSystem::Hierarchy(CacheParams::default()),
        lsq_ports: ports,
        ..SimConfig::default()
    };
    [
        ("perfect", SimConfig { mem: MemSystem::Perfect { latency: 2 }, ..SimConfig::default() }),
        ("cache-1p", cache(1)),
        ("cache-2p", cache(2)),
        ("cache-4p", cache(4)),
    ]
}

fn observed(cfg: &SimConfig) -> SimConfig {
    SimConfig { profile: true, critpath: true, waves: true, ..cfg.clone() }
}

/// One grid cell: indices into the kernels, `LEVELS` and `systems()`.
#[derive(Clone, Copy)]
struct Cell {
    kernel: usize,
    level: usize,
    sys: usize,
}

struct Grid {
    suite: Vec<Workload>,
    /// `args[kernel]`: the kernel's default argument.
    args: Vec<[i64; 1]>,
    expect: Vec<i64>,
    /// `programs[kernel][level]`.
    programs: Vec<Vec<Program>>,
    systems: [(&'static str, SimConfig); 4],
    cells: Vec<Cell>,
    observe: bool,
}

impl Grid {
    fn program(&self, c: Cell) -> &Program {
        &self.programs[c.kernel][c.level]
    }

    fn config(&self, c: Cell) -> SimConfig {
        let cfg = &self.systems[c.sys].1;
        if self.observe {
            observed(cfg)
        } else {
            cfg.clone()
        }
    }

    fn stats_line(&self, c: Cell, r: &SimResult) -> String {
        let p = self.program(c);
        StatsRecord {
            bench: "fig19",
            kernel: self.suite[c.kernel].name,
            level: &LEVELS[c.level].to_string(),
            system: self.systems[c.sys].0,
            opt: &p.report,
            sim: r,
            spans: &p.spans,
        }
        .to_json()
    }

    /// Checks one result against the kernel's reference: (failures,
    /// broken invariants).
    fn check(&self, c: Cell, r: &Result<SimResult, cash::Error>) -> (Vec<String>, Vec<String>) {
        let name = self.suite[c.kernel].name;
        let at = format!("{name} {} {}", LEVELS[c.level], self.systems[c.sys].0);
        match r {
            Err(e) => (vec![format!("{at}: {e}")], vec![]),
            Ok(r) => {
                let mut failures = Vec::new();
                let mut broken = Vec::new();
                if r.ret != Some(self.expect[c.kernel]) {
                    failures.push(format!(
                        "{at}: ret {:?}, reference {}",
                        r.ret, self.expect[c.kernel]
                    ));
                }
                let collected = [r.profile.is_some(), r.crit.is_some(), r.waves.is_some()];
                if collected != [self.observe; 3] {
                    broken
                        .push(format!("{at}: collectors (profile, critpath, waves) {collected:?}"));
                }
                (failures, broken)
            }
        }
    }
}

/// Compiles the grid once: one set-up round. Traced rounds go through the
/// layer chain; untraced rounds time each `Compiler::compile` call.
fn compile_grid(run: &mut Run, suite: &[Workload]) -> Result<Vec<Vec<Program>>, String> {
    let mark = run.tracer.as_ref().map(Tracer::mark);
    let mut counts = CompileCounts::default();
    let mut programs = Vec::new();
    for (k, w) in suite.iter().enumerate() {
        let mut row = Vec::new();
        for (l, &level) in LEVELS.iter().enumerate() {
            run.begin_op();
            let p = match run.tracer.as_mut() {
                Some(t) => chain::compile(t, w.source, level, &mut counts),
                None => {
                    let t0 = Instant::now();
                    let p = w.compile(level);
                    let ns = t0.elapsed().as_nanos() as u64;
                    run.e2e.compile.add(k * LEVELS.len() + l, ns);
                    run.e2e.setup.add(k * LEVELS.len() + l, ns);
                    p
                }
            };
            row.push(p.map_err(|e| format!("{} at {level}: {e}", w.name))?);
        }
        programs.push(row);
    }
    run.e2e.setup_rounds += 1;
    if let (Some(t), Some(mark)) = (&run.tracer, mark) {
        run.layers.rounds.push(t.self_ns_since(mark));
        if run.layers.compile.compiles == 0 {
            run.layers.compile = counts;
        } else if run.layers.compile != counts {
            run.tally.invariant(Some("compile counts differ between set-up rounds".into()));
        }
    }
    Ok(programs)
}

/// Live node and edge counts of every compiled circuit.
fn shapes(programs: &[Vec<Program>]) -> Vec<(usize, usize)> {
    programs.iter().flatten().map(|p| (p.graph.live_count(), p.graph.count_edges())).collect()
}

pub fn run(run: &mut Run, observe: bool) -> Result<(), String> {
    let suite = workloads::suite();
    let expect: Vec<i64> = suite.iter().map(|w| (w.reference)(w.default_arg)).collect();
    // A traced run compiles every set-up round before the loop, so that
    // set-up spans never land inside a traced pass.
    let rounds = if run.tracer.is_some() { crate::SETUP_ROUNDS } else { 1 };
    let mut programs = compile_grid(run, &suite)?;
    for _ in 1..rounds {
        programs = compile_grid(run, &suite)?;
    }

    let mut cells = Vec::new();
    for kernel in 0..suite.len() {
        for level in 0..LEVELS.len() {
            for sys in 0..4 {
                cells.push(Cell { kernel, level, sys });
            }
        }
    }
    crate::stats::shuffle(&mut cells, run.seed);
    let grid = Grid {
        args: suite.iter().map(|w| [w.default_arg]).collect(),
        suite,
        expect,
        programs,
        systems: systems(),
        cells,
        observe,
    };

    if run.tracer.is_some() {
        traced_checks(run, &grid);
    }
    let shape = shapes(&grid.programs);
    let mut first: Vec<Option<Signature>> = vec![None; grid.cells.len()];
    crate::timed_passes(
        run,
        grid.cells.len(),
        grid.cells.len(),
        |run, i, pass| operation(run, &grid, i, pass, &mut first[i]),
        |run| match compile_grid(run, &grid.suite) {
            Ok(p) if shapes(&p) == shape => {}
            Ok(_) => run.tally.invariant(Some("a set-up round compiled other circuits".into())),
            Err(e) => run.tally.invariant(Some(format!("a set-up round failed: {e}"))),
        },
    );
    if run.tracer.is_some() {
        collectors(run, &grid);
        oracle_sample(run, &grid);
    }
    Ok(())
}

/// The traced chain must build the circuits `Compiler::compile` builds.
fn traced_checks(run: &mut Run, g: &Grid) {
    let perfect = SimConfig { mem: MemSystem::Perfect { latency: 1 }, ..SimConfig::default() };
    for (k, w) in g.suite.iter().enumerate() {
        for (l, &level) in LEVELS.iter().enumerate() {
            let diff =
                chain::same_circuit(&g.programs[k][l], w.source, level, &[w.default_arg], &perfect);
            run.tally.invariant(diff.map(|d| format!("{} at {level}: {d}", w.name)));
        }
    }
}

/// Operation `i`: one simulation of grid cell `g.cells[i]` on a fresh
/// machine; the observed sweep also renders its `cash-stats-v1` line.
fn operation(run: &mut Run, g: &Grid, i: usize, pass: crate::Pass, first: &mut Option<Signature>) {
    let c = g.cells[i];
    let args = g.args[c.kernel];
    let cfg = g.config(c);
    run.begin_op();
    let r = match run.tracer.as_mut().filter(|_| pass.traced) {
        Some(t) => {
            let op = t.enter("op");
            let (r, _machine) = chain::simulate(t, g.program(c), &args, &cfg);
            if g.observe {
                if let Ok(r) = &r {
                    t.span("cash.stats", || black_box(g.stats_line(c, r)));
                }
            }
            run.layers.traced_op.add(i, t.exit(op));
            if !g.observe {
                // Rendered outside the operation: the bare sweep does not
                // pay for it, but the layer is measured all the same.
                if let Ok(r) = &r {
                    t.span("cash.stats", || black_box(g.stats_line(c, r)));
                }
            }
            r
        }
        None => {
            let t0 = Instant::now();
            let r = g.program(c).simulate(&args, &cfg);
            run.e2e.sim.add(i, t0.elapsed().as_nanos() as u64);
            if g.observe {
                if let Ok(r) = &r {
                    black_box(g.stats_line(c, r));
                }
            }
            run.e2e.op.add(i, t0.elapsed().as_nanos() as u64);
            r
        }
    };
    let (failures, broken) = g.check(c, &r);
    run.tally.broken.extend(broken);
    if let Ok(r) = &r {
        run.tally.executor(r.backend);
        match first {
            None => {
                *first = Some(signature(r));
                run.e2e.fired += r.fired;
                if failures.is_empty() {
                    run.e2e.cycles.push(r.cycles);
                    run.e2e.mem_ops.push(r.stats.loads + r.stats.stores);
                }
                if pass.traced {
                    run.layers.sim.add(r);
                }
            }
            Some(s) if *s != signature(r) => run
                .tally
                .invariant(Some(format!("cell {i}: simulated statistics changed between passes"))),
            Some(_) => {}
        }
    }
    run.tally.op(failures);
}

/// Collector costs and the collector on/off identity, on every cell.
fn collectors(run: &mut Run, g: &Grid) {
    let circuits: Vec<_> = g
        .cells
        .iter()
        .map(|&c| {
            let label =
                format!("{} {} {}", g.suite[c.kernel].name, LEVELS[c.level], g.systems[c.sys].0);
            (label, g.program(c), &g.args[c.kernel][..], g.systems[c.sys].1.clone())
        })
        .collect();
    crate::collector_costs(run, circuits);
}

/// The oracle's cost on this workload's inputs: the reference interpreter
/// runs every kernel (and must agree with its Rust reference), and the
/// generator draws the `gen-diff` programs of this seed. Neither is part
/// of the sweep's timed loop.
fn oracle_sample(run: &mut Run, g: &Grid) {
    run.begin_op();
    let t = run.tracer.as_mut().expect("traced run");
    let mark = t.mark();
    let mut steps = 0;
    for (k, w) in g.suite.iter().enumerate() {
        match t.span("refinterp.interp", || {
            refinterp::run_source(w.source, "main", &[w.default_arg], FUEL)
        }) {
            Ok(o) => {
                steps += o.steps;
                if o.ret != Some(g.expect[k]) {
                    run.tally.invariant(Some(format!(
                        "{}: interpreter {:?}, reference {}",
                        w.name, o.ret, g.expect[k]
                    )));
                }
            }
            Err(e) => run.tally.invariant(Some(format!("{}: interpreter: {e}", w.name))),
        }
    }
    for seed in crate::gendiff::program_seeds(run.seed) {
        t.span("refinterp.gen", || black_box(refinterp::render(&refinterp::gen::gen(seed))));
    }
    run.layers.rounds.push(t.self_ns_since(mark));
    run.layers.interp_steps = steps;
}
