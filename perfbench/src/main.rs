//! Benchmark driver for the CASH compiler and the ashsim simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-bare|sweep-observed|gen-diff|all> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is a closed loop: one client on one thread runs a fixed,
//! seeded list of operations, each starting when the previous one ends,
//! in passes until `--seconds` have elapsed. Every output is checked. The
//! last line of standard output is the result as JSON: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. `--workload all`
//! runs each workload in a process of its own and prints a table. See
//! `README.md` beside this file.

mod chain;
mod gendiff;
mod report;
mod stats;
mod sweep;
mod trace;

use cash::{Program, SimConfig};
use report::{EndToEnd, Layers, Tally};
use std::time::Instant;
use trace::Tracer;

/// Interpreter step budget (the differential harness's default).
const FUEL: u64 = 1 << 20;

/// Set-up rounds per run. Each set-up item keeps its best time over them
/// and `setup_s` is the sum of those bests; on the sweeps each circuit's
/// best compile is also a `compile_ms` sample.
const SETUP_ROUNDS: usize = 21;

/// A timed loop stops after this long whatever else it still wants.
const LOOP_CAP_S: f64 = 100.0;

const WORKLOADS: [&str; 3] = ["sweep-bare", "sweep-observed", "gen-diff"];

/// State of one benchmark run.
pub struct Run {
    seed: u64,
    seconds: f64,
    tracer: Option<Tracer>,
    ops: u64,
    e2e: EndToEnd,
    layers: Layers,
    tally: Tally,
}

impl Run {
    /// Starts the next operation (or set-up step): spans recorded from now
    /// on carry its id.
    fn begin_op(&mut self) {
        self.ops += 1;
        if let Some(t) = &mut self.tracer {
            t.set_op(self.ops);
        }
    }
}

/// How one operation runs within its pass.
#[derive(Clone, Copy)]
pub struct Pass {
    /// Layer spans are recorded (every other pass of a traced run).
    pub traced: bool,
    /// The first pass, whose results the later passes must repeat.
    pub first: bool,
}

/// Runs passes until `--seconds` have elapsed and two passes are complete,
/// so that every operation is repeated: the first pass over operations
/// `0..n_first`, every later pass over `0..n`. An untraced run may stop
/// inside a pass; a traced run stops between passes and alternates traced
/// and untraced ones. An untraced run that has done fewer than
/// `SETUP_ROUNDS` set-up rounds spreads the rest over the loop, so that
/// each set-up item meets the host's fast phases too.
fn timed_passes(
    run: &mut Run,
    n_first: usize,
    n: usize,
    mut op: impl FnMut(&mut Run, usize, Pass),
    mut setup_round: impl FnMut(&mut Run),
) {
    let start = Instant::now();
    let seconds = run.seconds;
    let over = |min_passes: usize, pass: usize| {
        let t = start.elapsed().as_secs_f64();
        t >= LOOP_CAP_S || (t >= seconds && pass >= min_passes)
    };
    'passes: for pass in 0.. {
        let traced = run.tracer.is_some() && pass % 2 == 0;
        let mark = run.tracer.as_ref().map(Tracer::mark);
        for i in 0..if pass == 0 { n_first } else { n } {
            if run.tracer.is_none() && over(2, pass) {
                break 'passes;
            }
            op(run, i, Pass { traced, first: pass == 0 });
            let rounds = run.e2e.setup_rounds;
            let due = seconds * rounds as f64 / SETUP_ROUNDS as f64;
            if rounds < SETUP_ROUNDS && start.elapsed().as_secs_f64() >= due {
                setup_round(run);
            }
        }
        if let (Some(t), Some(mark), true) = (&run.tracer, mark, traced) {
            run.layers.rounds.push(t.self_ns_since(mark));
        }
        if over(1, pass) {
            break;
        }
    }
    while run.e2e.setup_rounds < SETUP_ROUNDS {
        setup_round(run);
    }
    if run.tracer.is_some() {
        // Traced operations also make the separate `FlatPorts::new` call
        // and run the compile chain instead of `Compiler::compile`.
        run.layers.overhead_us_per_op =
            (run.layers.traced_op.total_s() - run.e2e.op.total_s()) / n as f64 * 1e6;
    }
}

/// Re-runs each circuit bare and with exactly one collector on (profile,
/// critpath, waves), best of two alternating repetitions. The simulated
/// statistics must be identical; the extra host time per firing is each
/// collector's cost.
fn collector_costs<'a>(
    run: &mut Run,
    circuits: impl IntoIterator<Item = (String, &'a Program, &'a [i64], SimConfig)>,
) {
    let mut extra_ns = [0f64; 3];
    let mut fired = 0u64;
    for (label, program, args, base) in circuits {
        let variants = [
            base.clone(),
            SimConfig { profile: true, ..base.clone() },
            SimConfig { critpath: true, ..base.clone() },
            SimConfig { waves: true, ..base },
        ];
        let mut best = [u64::MAX; 4];
        let mut seen: [Option<_>; 4] = Default::default();
        for rep in 0..2 {
            for k in 0..4 {
                let v = if rep == 0 { k } else { 3 - k };
                let t0 = Instant::now();
                let r = program.simulate(args, &variants[v]);
                best[v] = best[v].min(t0.elapsed().as_nanos() as u64);
                seen[v] = Some(r.as_ref().map(report::signature).map_err(|e| e.to_string()));
            }
        }
        if seen.iter().any(|s| s != &seen[0]) {
            run.tally.invariant(Some(format!(
                "{label}: a collector changed the simulated statistics: {seen:?}"
            )));
        }
        if let Some(Ok(s)) = &seen[0] {
            fired += s.2;
        }
        for k in 0..3 {
            extra_ns[k] += best[k + 1] as f64 - best[0] as f64;
        }
    }
    let per_fire = |ns: f64| ns / fired as f64;
    run.layers.profile_ns_per_fire = per_fire(extra_ns[0]);
    run.layers.critpath_ns_per_fire = per_fire(extra_ns[1]);
    run.layers.waves_ns_per_fire = per_fire(extra_ns[2]);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds {value}: expected a number in (0, 60]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload: expected one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Results are defined on the default event executor only.
    if let Ok(b) = std::env::var("CASH_BACKEND") {
        if !b.is_empty() && b != "event" {
            eprintln!("perfbench: CASH_BACKEND={b:?} selects another executor; unset it");
            std::process::exit(2);
        }
    }
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }

    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        tracer: args.trace.then(Tracer::new),
        ops: 0,
        e2e: EndToEnd::default(),
        layers: Layers::default(),
        tally: Tally::default(),
    };
    let outcome = match args.workload.as_str() {
        "sweep-bare" => sweep::run(&mut run, false),
        "sweep-observed" => sweep::run(&mut run, true),
        _ => gendiff::run(&mut run),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: set-up failed: {e}");
        std::process::exit(1);
    }

    let metrics = if args.trace { run.layers.metrics() } else { run.e2e.metrics() };
    eprintln!("workload {} seed {} trace {}", args.workload, args.seed, args.trace as u8);
    for (name, value, unit) in metrics.iter() {
        eprintln!("  {name:<30} {value:>16.4} {unit}");
    }
    eprintln!(
        "  attempted {}, failed {}, fail_frac {:.6}",
        run.tally.attempted,
        run.tally.failed,
        run.tally.failed as f64 / run.tally.attempted.max(1) as f64
    );
    eprintln!("  executor: {:?}", run.tally.executors);
    if !args.trace {
        for n in run.e2e.notes() {
            eprintln!("  {n}");
        }
    }
    for f in run.tally.failures.iter().take(10) {
        eprintln!("  failed: {f}");
    }
    for b in run.tally.broken.iter().take(10) {
        eprintln!("  BROKEN: {b}");
    }
    if let Some(t) = &run.tracer {
        write_trace(t, &args);
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        run.tally.broken.is_empty(),
        run.tally.attempted,
        run.tally.failed,
        metrics.to_json()
    );
}

/// Writes the span trace under the benchmark's `out` directory.
fn write_trace(t: &Tracer, args: &Args) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-seed{}.json", args.workload, args.seed);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, t.to_chrome_json())) {
        Ok(()) => eprintln!("  trace: {path}"),
        Err(e) => eprintln!("  trace: cannot write {path}: {e}"),
    }
}

/// Runs every workload, each in a process of its own that prints its
/// metric table on standard error; prints each workload's result line
/// after its name. Returns the exit code.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        match out {
            Ok(o) if o.status.success() => {
                let stdout = String::from_utf8_lossy(&o.stdout);
                rows.push((w, stdout.lines().last().unwrap_or_default().to_string()));
            }
            Ok(o) => {
                eprintln!("perfbench: {w} exited with {}", o.status);
                return 1;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {w}: {e}");
                return 1;
            }
        }
    }
    for (w, line) in &rows {
        println!("{w} {line}");
    }
    0
}
