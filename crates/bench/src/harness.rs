//! Shared helpers for the table/figure harness binaries.

use cash::{CacheParams, MemSystem, OptLevel, Program, SimConfig, SimResult, SpanRec, StatsRecord};
use workloads::Workload;

/// The optimization levels of the Figure 19 sweep, in record order.
const FIG19_LEVELS: [OptLevel; 3] = [OptLevel::None, OptLevel::Medium, OptLevel::Full];

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
/// can tail an in-flight sweep. `spans` is the compile's span tree, or
/// empty when another record of the same compile already carries it.
pub fn stats_line(
    bench: &str,
    system: &str,
    w: &Workload,
    level: OptLevel,
    p: &Program,
    r: &SimResult,
    spans: &[SpanRec],
) -> String {
    let line = StatsRecord {
        bench,
        kernel: w.name,
        level: &level.to_string(),
        system,
        opt: &p.report,
        sim: r,
        spans,
    }
    .to_json();
    obs::stream::emit(&line);
    line
}

/// One kernel of the Figure 19 sweep: compiles it once per level and runs
/// every memory system on those programs. Returns the `cash-stats-v1`
/// lines system-major (per system: None, Medium, Full) and the cycles per
/// system and level. Each compile's span tree rides on the record of the
/// first memory system only; the others carry `"spans":[]`, so a reader
/// that sums spans counts every compile once.
pub fn fig19_kernel(w: &Workload, systems: &[(&str, SimConfig)]) -> (Vec<String>, Vec<[u64; 3]>) {
    let compiled: Vec<_> = FIG19_LEVELS
        .iter()
        .map(|&level| w.compile(level).unwrap_or_else(|e| panic!("{} at {level}: {e}", w.name)))
        .collect();
    let mut lines = Vec::new();
    let mut cycles = Vec::new();
    for (si, (sys, cfg)) in systems.iter().enumerate() {
        let mut row = [0u64; 3];
        for ((p, &level), c) in compiled.iter().zip(&FIG19_LEVELS).zip(&mut row) {
            let r = run_program(w, p, level, cfg);
            let spans = if si == 0 { &p.spans[..] } else { &[] };
            lines.push(stats_line("fig19", sys, w, level, p, &r, spans));
            *c = r.cycles;
        }
        cycles.push(row);
    }
    (lines, cycles)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig19_records_carry_each_compiles_spans_once() {
        let w = Workload { default_arg: 4, ..workloads::by_name("adpcm_e").expect("suite kernel") };
        let systems = memory_systems();
        let (lines, cycles) = fig19_kernel(&w, &systems);
        assert_eq!(lines.len(), systems.len() * FIG19_LEVELS.len());
        assert_eq!(cycles.len(), systems.len());
        for level in FIG19_LEVELS {
            let tag = format!("\"level\":\"{level}\"");
            let records: Vec<&String> = lines.iter().filter(|l| l.contains(&tag)).collect();
            assert_eq!(records.len(), systems.len(), "{level}: one record per memory system");
            let with_spans: Vec<_> =
                records.iter().filter(|l| l.contains("\"spans\":[[")).collect();
            assert_eq!(with_spans.len(), 1, "{level}: the compile's spans must appear once");
            assert!(
                records.iter().filter(|l| l.ends_with("\"spans\":[]}")).count()
                    == systems.len() - 1,
                "{level}: every other record carries empty spans"
            );
        }
    }
}
