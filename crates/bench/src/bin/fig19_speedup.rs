//! Figure 19: performance by optimization set × memory system. The paper's
//! observations to reproduce in shape:
//!
//! - "Medium" (pointer analysis + disambiguation + induction-variable
//!   pipelining) captures most of the gain;
//! - performance improves with memory bandwidth (LSQ ports), but even
//!   small amounts of bandwidth are used effectively;
//! - optimizations compose: Full ≥ Medium ≥ None.
//!
//! Run with `cargo run -p cash-bench --bin fig19_speedup`.

use cash::OptLevel;
use cash_bench::harness::{memory_systems, rule, run_program, speedup, stats_line, write_stats};

fn main() {
    let systems = memory_systems();
    println!("Figure 19: speedup over the unoptimized circuit (same memory system)");
    println!();
    print!("{:<14}", "kernel");
    for (name, _) in &systems {
        print!(" | {name:>22}");
    }
    println!();
    print!("{:<14}", "");
    for _ in &systems {
        print!(" | {:>7} {:>7} {:>6}", "Medium", "Full", "1p/4p");
    }
    println!();
    rule(14 + systems.len() * 25);

    let mut totals = vec![[0u64; 3]; systems.len()];
    let mut stats = Vec::new();
    // One task per kernel (the largest independent unit: every memory
    // system × level of one kernel shares its source); rows come back in
    // suite order, so output and stats files are byte-identical to the
    // serial sweep. Pin worker count with CASH_THREADS.
    //
    // Each kernel compiles once per level and all four memory systems run
    // on that program. Records are emitted system-major (per system: None,
    // Medium, Full) to keep BENCH files byte-compatible with the per-run
    // sweep.
    let levels = [OptLevel::None, OptLevel::Medium, OptLevel::Full];
    let rows = cash::par::par_map(workloads::suite(), |w| {
        let compiled: Vec<_> = levels
            .iter()
            .map(|&level| w.compile(level).unwrap_or_else(|e| panic!("{} at {level}: {e}", w.name)))
            .collect();
        let mut lines = vec![Vec::new(); systems.len()];
        let mut cycles = Vec::new();
        for (si, (sys, cfg)) in systems.iter().enumerate() {
            let mut row = [0u64; 3];
            for (li, p) in compiled.iter().enumerate() {
                let r = run_program(&w, p, levels[li], cfg);
                lines[si].push(stats_line("fig19", sys, &w, levels[li], p, &r));
                row[li] = r.cycles;
            }
            cycles.push(row);
        }
        (w, lines.into_iter().flatten().collect::<Vec<_>>(), cycles)
    });
    for (w, lines, cycles) in rows {
        print!("{:<14}", w.name);
        stats.extend(lines);
        for (k, [base, med, full]) in cycles.into_iter().enumerate() {
            print!(
                " | {:>7} {:>7} {:>6}",
                speedup(base, med).trim(),
                speedup(base, full).trim(),
                ""
            );
            totals[k][0] += base;
            totals[k][1] += med;
            totals[k][2] += full;
        }
        println!();
    }
    rule(14 + systems.len() * 25);
    print!("{:<14}", "geomean-ish");
    for t in &totals {
        print!(" | {:>7} {:>7} {:>6}", speedup(t[0], t[1]).trim(), speedup(t[0], t[2]).trim(), "");
    }
    println!();

    // Bandwidth axis: total Full cycles across port counts.
    println!();
    println!("bandwidth utilization (suite total, Full optimization):");
    for (k, (name, _)) in systems.iter().enumerate() {
        println!(
            "  {name:<10} {:>12} cycles  ({} vs cache-1p)",
            totals[k][2],
            speedup(totals[1][2], totals[k][2]).trim()
        );
    }

    // Shape assertions.
    for (k, t) in totals.iter().enumerate() {
        assert!(t[2] <= t[0], "Full must not lose to None on system {k}");
        assert!(t[1] <= t[0], "Medium must not lose to None on system {k}");
    }
    assert!(totals[3][2] <= totals[1][2], "4 ports must not lose to 1 port");
    println!("\nPASS: Figure 19 shape reproduced (Full ≥ Medium ≥ None; more ports help)");
    write_stats("fig19", &stats);
}
