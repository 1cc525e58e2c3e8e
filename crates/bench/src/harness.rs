//! Shared helpers for the table/figure harness binaries.

use cash::{CacheParams, MemSystem, OptLevel, Program, SimConfig, SimResult, StatsRecord};
use workloads::Workload;

/// The memory systems of the Figure 19 sweep: perfect memory plus the
/// realistic hierarchy at 1, 2 and 4 LSQ ports (the bandwidth axis).
/// Profiling and critical-path recording are on so every stats line
/// carries the `stalled` and `crit` sections (tracing stays off — the
/// event streams would dwarf the numbers).
pub fn memory_systems() -> Vec<(&'static str, SimConfig)> {
    let real = || MemSystem::Hierarchy(CacheParams::default());
    let obs = |cfg: SimConfig| cfg.with_observability(true, false).with_critpath(true);
    vec![
        (
            "perfect",
            obs(SimConfig { mem: MemSystem::Perfect { latency: 2 }, ..SimConfig::default() }),
        ),
        ("cache-1p", obs(SimConfig { mem: real(), lsq_ports: 1, ..SimConfig::default() })),
        ("cache-2p", obs(SimConfig { mem: real(), lsq_ports: 2, ..SimConfig::default() })),
        ("cache-4p", obs(SimConfig { mem: real(), lsq_ports: 4, ..SimConfig::default() })),
    ]
}

/// Runs a workload at a level/config, panicking with context on failure
/// (the harness binaries should fail loudly).
pub fn run(w: &Workload, level: OptLevel, cfg: &SimConfig) -> SimResult {
    run_compiled(w, level, cfg).1
}

/// Like [`run`], but also returns the compiled program so the caller can
/// emit its optimizer telemetry alongside the simulation statistics.
pub fn run_compiled(w: &Workload, level: OptLevel, cfg: &SimConfig) -> (Program, SimResult) {
    let p = w.compile(level).unwrap_or_else(|e| panic!("{} at {level}: {e}", w.name));
    let r = run_program(w, &p, level, cfg);
    (p, r)
}

/// One run of an already-compiled workload with the harness's loud
/// failure handling and reference check. Config-row sweeps compile a
/// workload once per level and run every memory system on that program.
pub fn run_program(w: &Workload, p: &Program, level: OptLevel, cfg: &SimConfig) -> SimResult {
    let r =
        p.simulate(&[w.default_arg], cfg).unwrap_or_else(|e| panic!("{} at {level}: {e}", w.name));
    let expect = (w.reference)(w.default_arg);
    assert_eq!(r.ret, Some(expect), "{} at {level} diverged from reference", w.name);
    r
}

/// Renders the shared `cash-stats-v1` record for one harness run, and
/// mirrors it to the live JSONL stream (`CASH_STATS_STREAM`) so `cashtop`
/// can tail an in-flight sweep.
pub fn stats_line(
    bench: &str,
    system: &str,
    w: &Workload,
    level: OptLevel,
    p: &Program,
    r: &SimResult,
) -> String {
    let line = StatsRecord {
        bench,
        kernel: w.name,
        level: &level.to_string(),
        system,
        opt: &p.report,
        sim: r,
        spans: &p.spans,
    }
    .to_json();
    obs::stream::emit(&line);
    line
}

/// Writes the collected telemetry lines to `BENCH_<bench>.json` in the
/// current directory, one JSON record per line.
pub fn write_stats(bench: &str, lines: &[String]) {
    let path = format!("BENCH_{bench}.json");
    let mut out = lines.join("\n");
    out.push('\n');
    match std::fs::write(&path, out) {
        Ok(()) => println!("telemetry: {} records -> {path}", lines.len()),
        Err(e) => eprintln!("telemetry: failed to write {path}: {e}"),
    }
}

/// Formats a ratio as a percentage string.
pub fn pct(before: u64, after: u64) -> String {
    if before == 0 {
        return "  0.0%".into();
    }
    format!("{:>5.1}%", 100.0 * (before as f64 - after as f64) / before as f64)
}

/// Formats a speedup.
pub fn speedup(base: u64, new: u64) -> String {
    if new == 0 {
        return "   -".into();
    }
    format!("{:>5.2}x", base as f64 / new as f64)
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}
