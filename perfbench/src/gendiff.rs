//! `gen-diff`: generated programs checked against the reference
//! interpreter. One operation runs the oracle once, then compiles at every
//! `OptLevel` and simulates each circuit on perfect latency-1 memory,
//! comparing the return value, the final memory image and lint
//! cleanliness.

use crate::chain::{self, CompileCounts};
use crate::report::{signature, EndToEnd, Signature};
use crate::trace::Tracer;
use crate::{Run, FUEL};
use cash::{Compiler, MemSystem, OptLevel, Program, SimConfig, SimResult, StatsRecord};
use std::hint::black_box;
use std::time::Instant;

/// Programs per run. Seed `s` checks generator seeds `s * PROGRAMS ..
/// (s + 1) * PROGRAMS`, so different benchmark seeds never share a
/// program and a held-out seed is a held-out program set. An untraced run
/// checks all of them once, in its first pass.
const PROGRAMS: u64 = 1000;

/// The first `TIMED` programs are the operation list every later pass
/// repeats, and the only ones the timings cover: a pass over them is
/// short enough to repeat some twenty times in a run, so each keeps a
/// best time from the host's fast phases. The deterministic metrics cover
/// all `PROGRAMS`, whose geometric means vary less from seed to seed.
const TIMED: usize = 250;

/// The differential harness's simulator settings.
fn sim_config() -> SimConfig {
    SimConfig {
        mem: MemSystem::Perfect { latency: 1 },
        max_cycles: 1_000_000,
        ..SimConfig::default()
    }
}

pub fn program_seeds(seed: u64) -> impl Iterator<Item = u64> {
    let base = seed.wrapping_mul(PROGRAMS);
    (0..PROGRAMS).map(move |k| base.wrapping_add(k))
}

struct Case {
    seed: u64,
    src: String,
    args: [i64; 1],
}

/// One level's circuit run, with what the checks need.
struct LevelRun {
    level: OptLevel,
    program: Result<Program, cash::Error>,
    sim: Option<(Result<SimResult, cash::Error>, Vec<u8>)>,
}

/// Runs one operation. With a tracer, every layer call gets a span;
/// without, each `Compiler::compile` call (item `i * 4 + level`) and the
/// operation's simulate calls (item `i`) are timed.
fn operation(
    case: &Case,
    i: usize,
    tracer: Option<&mut Tracer>,
    counts: &mut CompileCounts,
    steps: &mut u64,
    e2e: &mut EndToEnd,
) -> (Result<refinterp::Outcome, String>, Vec<LevelRun>) {
    let cfg = sim_config();
    let mut tracer = tracer;
    let oracle = match tracer.as_deref_mut() {
        Some(t) => t.span("refinterp.interp", || {
            refinterp::run_source(&case.src, "main", &case.args, FUEL)
        }),
        None => refinterp::run_source(&case.src, "main", &case.args, FUEL),
    }
    .map_err(|e| e.to_string());
    if let Ok(o) = &oracle {
        *steps += o.steps;
    }
    let mut sim_ns = 0;
    let mut runs = Vec::with_capacity(OptLevel::ALL.len());
    for (l, level) in OptLevel::ALL.into_iter().enumerate() {
        let program = match tracer.as_deref_mut() {
            Some(t) => chain::compile(t, &case.src, level, counts),
            None => {
                let t0 = Instant::now();
                let p = Compiler::new().level(level).compile(&case.src);
                if i < TIMED {
                    e2e.compile.add(i * OptLevel::ALL.len() + l, t0.elapsed().as_nanos() as u64);
                }
                p
            }
        };
        let sim = program.as_ref().ok().map(|p| match tracer.as_deref_mut() {
            Some(t) => {
                let (r, m) = chain::simulate(t, p, &case.args, &cfg);
                (r, m.image().to_vec())
            }
            None => {
                let mut m = p.machine(cfg.mem.clone());
                let t0 = Instant::now();
                let r = p.simulate_on(&mut m, &case.args, &cfg);
                sim_ns += t0.elapsed().as_nanos() as u64;
                (r, m.image().to_vec())
            }
        });
        runs.push(LevelRun { level, program, sim });
    }
    if tracer.is_none() && i < TIMED {
        e2e.sim.add(i, sim_ns);
    }
    (oracle, runs)
}

/// Describes every failure of one operation: errors and rejected outputs.
fn check(
    case: &Case,
    oracle: &Result<refinterp::Outcome, String>,
    runs: &[LevelRun],
) -> Vec<String> {
    let at = |level: Option<OptLevel>| match level {
        Some(l) => format!("program {} at {l}", case.seed),
        None => format!("program {}", case.seed),
    };
    let mut failures = Vec::new();
    let oracle = match oracle {
        Ok(o) => Some(o),
        Err(e) => {
            failures.push(format!("{}: oracle: {e}", at(None)));
            None
        }
    };
    for run in runs {
        let here = at(Some(run.level));
        let program = match &run.program {
            Ok(p) => p,
            Err(e) => {
                failures.push(format!("{here}: compile: {e}"));
                continue;
            }
        };
        if !program.report.lint.is_clean() {
            failures.push(format!("{here}: lint: {}", program.report.lint.diags[0]));
        }
        let Some((sim, image)) = &run.sim else { continue };
        match (sim, oracle) {
            (Err(e), _) => failures.push(format!("{here}: simulate: {e}")),
            (Ok(r), Some(o)) => {
                if r.ret != o.ret {
                    failures.push(format!("{here}: ret {:?}, oracle {:?}", r.ret, o.ret));
                } else if image.as_slice() != o.machine.image() {
                    failures.push(format!("{here}: final memory image differs from the oracle's"));
                }
            }
            (Ok(_), None) => {}
        }
    }
    failures
}

fn stats_line(case: &Case, run: &LevelRun, r: &SimResult) -> Option<String> {
    let p = run.program.as_ref().ok()?;
    Some(
        StatsRecord {
            bench: "gen-diff",
            kernel: &case.seed.to_string(),
            level: &run.level.to_string(),
            system: "perfect-1",
            opt: &p.report,
            sim: r,
            spans: &p.spans,
        }
        .to_json(),
    )
}

/// Draws the program set once: one set-up round. Traced rounds give each
/// generation a span; untraced rounds time it as a set-up item.
fn setup_round(run: &mut Run) -> Vec<Case> {
    run.begin_op();
    let mark = run.tracer.as_ref().map(Tracer::mark);
    let mut cases = Vec::new();
    for (i, seed) in program_seeds(run.seed).enumerate() {
        let make = || refinterp::render(&refinterp::gen::gen(seed));
        let src = match run.tracer.as_mut() {
            Some(t) => t.span("refinterp.gen", make),
            None => {
                let t0 = Instant::now();
                let src = make();
                run.e2e.setup.add(i, t0.elapsed().as_nanos() as u64);
                src
            }
        };
        // The argument rule of the tier-1 soundness sweep.
        cases.push(Case { seed, src, args: [(seed % 11) as i64] });
    }
    run.e2e.setup_rounds += 1;
    if let (Some(t), Some(mark)) = (&run.tracer, mark) {
        run.layers.rounds.push(t.self_ns_since(mark));
    }
    cases
}

pub fn run(run: &mut Run) -> Result<(), String> {
    // A traced run does every set-up round before the loop, so that set-up
    // spans never land inside a traced pass.
    let rounds = if run.tracer.is_some() { crate::SETUP_ROUNDS } else { 1 };
    let mut cases = setup_round(run);
    for _ in 1..rounds {
        cases = setup_round(run);
    }
    let mut first: Vec<Option<Vec<Option<Signature>>>> = (0..cases.len()).map(|_| None).collect();
    // A traced run repeats the timed programs only, so that its traced
    // passes cover the same operations.
    let n_first = if run.tracer.is_some() { TIMED } else { cases.len() };
    crate::timed_passes(
        run,
        n_first,
        TIMED,
        |run, i, pass| timed_operation(run, &cases[i], i, pass, &mut first[i]),
        |run| {
            let again = setup_round(run);
            if again.iter().zip(&cases).any(|(a, b)| a.src != b.src) {
                run.tally.invariant(Some("a set-up round generated other programs".into()));
            }
        },
    );
    if run.tracer.is_some() {
        collectors(run, &cases[..TIMED]);
    }
    Ok(())
}

fn timed_operation(
    run: &mut Run,
    case: &Case,
    i: usize,
    pass: crate::Pass,
    first: &mut Option<Vec<Option<Signature>>>,
) {
    run.begin_op();
    let Run { tracer, layers, e2e, .. } = run;
    let (oracle, runs) = match tracer.as_mut().filter(|_| pass.traced) {
        Some(t) => {
            let op = t.enter("op");
            // Only the first traced pass adds to the layer counts.
            let (mut counts, mut steps) = (CompileCounts::default(), 0);
            let (counts, steps) = match pass.first {
                true => (&mut layers.compile, &mut layers.interp_steps),
                false => (&mut counts, &mut steps),
            };
            let out = operation(case, i, Some(&mut *t), counts, steps, e2e);
            layers.traced_op.add(i, t.exit(op));
            // Rendered outside the operation, which renders nothing; the
            // layer is measured all the same.
            for r in &out.1 {
                if let Some((Ok(sim), _)) = &r.sim {
                    t.span("cash.stats", || black_box(stats_line(case, r, sim)));
                }
            }
            out
        }
        None => {
            let t0 = Instant::now();
            let out = operation(case, i, None, &mut CompileCounts::default(), &mut 0, e2e);
            if i < TIMED {
                e2e.op.add(i, t0.elapsed().as_nanos() as u64);
            }
            out
        }
    };
    let failures = check(case, &oracle, &runs);
    let sims: Vec<&SimResult> =
        runs.iter().filter_map(|r| r.sim.as_ref()?.0.as_ref().ok()).collect();
    let sigs: Vec<Option<Signature>> =
        runs.iter().map(|r| r.sim.as_ref()?.0.as_ref().ok().map(signature)).collect();
    for s in &sims {
        run.tally.executor(s.backend);
    }
    match first {
        None => {
            for s in &sims {
                if i < TIMED {
                    run.e2e.fired += s.fired;
                }
                if failures.is_empty() {
                    run.e2e.cycles.push(s.cycles);
                    run.e2e.mem_ops.push(s.stats.loads + s.stats.stores);
                }
                if pass.traced {
                    run.layers.sim.add(s);
                }
            }
            if pass.traced {
                for r in &runs {
                    if let Ok(p) = &r.program {
                        let diff =
                            chain::same_circuit(p, &case.src, r.level, &case.args, &sim_config());
                        run.tally.invariant(
                            diff.map(|d| format!("program {} at {}: {d}", case.seed, r.level)),
                        );
                    }
                }
            }
            *first = Some(sigs);
        }
        Some(f) if *f != sigs => run.tally.invariant(Some(format!(
            "program {}: simulated statistics changed between passes",
            case.seed
        ))),
        Some(_) => {}
    }
    run.tally.op(failures);
}

/// Collector costs and the collector on/off identity, on every circuit.
fn collectors(run: &mut Run, cases: &[Case]) {
    let mut compiled = Vec::new();
    for case in cases {
        for level in OptLevel::ALL {
            if let Ok(p) = Compiler::new().level(level).compile(&case.src) {
                compiled.push((format!("program {} at {level}", case.seed), p, case.args));
            }
        }
    }
    let circuits =
        compiled.iter().map(|(label, p, args)| (label.clone(), p, &args[..], sim_config()));
    crate::collector_costs(run, circuits);
}
