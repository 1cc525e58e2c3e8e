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

use cash_bench::harness::{fig19_kernel, memory_systems, rule, speedup, write_stats};

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
    let rows = cash::par::par_map(workloads::suite(), |w| {
        let (lines, cycles) = fig19_kernel(&w, &systems);
        (w, lines, cycles)
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
