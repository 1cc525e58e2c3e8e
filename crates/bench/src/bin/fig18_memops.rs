//! Figure 18: static and dynamic memory operations removed by the
//! optimizer, per benchmark. The paper reports up to 28% of static loads
//! and up to 8% of static stores removed, with a more modest dynamic
//! reduction for most programs.
//!
//! Run with `cargo run -p cash-bench --bin fig18_memops`.

use cash::{OptLevel, SimConfig};
use cash_bench::harness::{pct, rule, run_compiled, stats_line, write_stats};

fn main() {
    println!("Figure 18: memory operations removed (None -> Full)");
    println!();
    println!(
        "{:<14} {:>6} {:>6} {:>7} | {:>6} {:>6} {:>7} | {:>9} {:>9} {:>7} {:>7}",
        "kernel",
        "ld0",
        "ld1",
        "ld-red",
        "st0",
        "st1",
        "st-red",
        "dynld0",
        "dynld1",
        "dyn-ld",
        "dyn-st"
    );
    rule(110);
    let cfg = SimConfig::perfect().with_observability(true, false).with_critpath(true);
    let mut tot = [0u64; 8];
    let mut stats = Vec::new();
    // The kernels are independent: compile and simulate them across worker
    // threads (pin with CASH_THREADS), then report in suite order.
    let rows = cash::par::par_map(workloads::suite(), |w| {
        let (base, rb) = run_compiled(&w, OptLevel::None, &cfg);
        let (full, rf) = run_compiled(&w, OptLevel::Full, &cfg);
        (w, base, rb, full, rf)
    });
    for (w, base, rb, full, rf) in rows {
        stats.push(stats_line("fig18", "perfect", &w, OptLevel::None, &base, &rb, &base.spans));
        stats.push(stats_line("fig18", "perfect", &w, OptLevel::Full, &full, &rf, &full.spans));
        let (l0, s0) = base.static_memory_ops();
        let (l1, s1) = full.static_memory_ops();
        println!(
            "{:<14} {:>6} {:>6} {:>7} | {:>6} {:>6} {:>7} | {:>9} {:>9} {:>7} {:>7}",
            w.name,
            l0,
            l1,
            pct(l0 as u64, l1 as u64),
            s0,
            s1,
            pct(s0 as u64, s1 as u64),
            rb.stats.loads,
            rf.stats.loads,
            pct(rb.stats.loads, rf.stats.loads),
            pct(rb.stats.stores, rf.stats.stores),
        );
        tot[0] += l0 as u64;
        tot[1] += l1 as u64;
        tot[2] += s0 as u64;
        tot[3] += s1 as u64;
        tot[4] += rb.stats.loads;
        tot[5] += rf.stats.loads;
        tot[6] += rb.stats.stores;
        tot[7] += rf.stats.stores;
    }
    rule(110);
    println!(
        "{:<14} {:>6} {:>6} {:>7} | {:>6} {:>6} {:>7} | {:>9} {:>9} {:>7} {:>7}",
        "total",
        tot[0],
        tot[1],
        pct(tot[0], tot[1]),
        tot[2],
        tot[3],
        pct(tot[2], tot[3]),
        tot[4],
        tot[5],
        pct(tot[4], tot[5]),
        pct(tot[6], tot[7]),
    );
    println!();
    println!(
        "shape check: static loads shrink more than static stores \
         ({} vs {}), as in the paper",
        pct(tot[0], tot[1]).trim(),
        pct(tot[2], tot[3]).trim()
    );
    assert!(tot[1] < tot[0], "some static loads must disappear");
    assert!(tot[3] <= tot[2], "static stores must not grow");
    assert!(tot[5] <= tot[4] && tot[7] <= tot[6], "dynamic traffic must not grow");
    write_stats("fig18", &stats);
}
