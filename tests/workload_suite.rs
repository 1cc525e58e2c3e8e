//! Suite-level properties over the benchmark kernels: the Figure 18/19
//! claims in miniature, checked as hard assertions.

use cash::{MemSystem, OptLevel, SimConfig};
use refinterp::{diff_source, DiffOptions, DiffOutcome};
use workloads::suite;

#[test]
fn every_kernel_agrees_with_the_reference_interpreter() {
    // Each benchmark kernel, at every opt level, must match the reference
    // interpreter's return value *and* final memory image. This pins the
    // whole pipeline (frontend, Pegasus build, every pass, the simulator)
    // against an independent executable semantics.
    let opts = DiffOptions { fuel: 1 << 26, max_cycles: 5_000_000, ..DiffOptions::default() };
    for w in suite() {
        match diff_source(w.source, &[w.default_arg], &opts) {
            DiffOutcome::Agree => {}
            DiffOutcome::OracleError(e) => panic!("{}: oracle could not run kernel: {e}", w.name),
            DiffOutcome::Fail(f) => panic!(
                "{} at {:?}: {}\nfirst offending pass: {:?}",
                w.name, f.level, f.detail, f.pass
            ),
        }
    }
}

#[test]
fn full_optimization_never_increases_dynamic_memory_traffic() {
    for w in suite() {
        let base = w.run(OptLevel::None, w.default_arg, &SimConfig::perfect()).unwrap();
        let full = w.run(OptLevel::Full, w.default_arg, &SimConfig::perfect()).unwrap();
        assert_eq!(base.ret, full.ret, "{}", w.name);
        assert!(
            full.stats.loads <= base.stats.loads,
            "{}: loads {} -> {}",
            w.name,
            base.stats.loads,
            full.stats.loads
        );
        assert!(
            full.stats.stores <= base.stats.stores,
            "{}: stores {} -> {}",
            w.name,
            base.stats.stores,
            full.stats.stores
        );
    }
}

#[test]
fn full_optimization_never_slows_a_kernel_down_much() {
    // The paper's Figure 19 shape: optimized ≥ baseline performance for the
    // suite as a whole. Individual kernels may regress slightly — merging
    // stores from many branches builds a wide selection mux that can extend
    // the critical path (the paper likewise reports optimizations whose
    // interactions are not uniformly positive) — so the per-kernel bound is
    // loose and the aggregate bound is strict (see suite_shows_aggregate_speedup).
    for w in suite() {
        let base = w.run(OptLevel::None, w.default_arg, &SimConfig::perfect()).unwrap();
        let full = w.run(OptLevel::Full, w.default_arg, &SimConfig::perfect()).unwrap();
        assert!(
            (full.cycles as f64) <= (base.cycles as f64) * 1.30,
            "{}: {} -> {} cycles",
            w.name,
            base.cycles,
            full.cycles
        );
    }
}

#[test]
fn suite_shows_aggregate_speedup() {
    let mut base_total = 0u64;
    let mut full_total = 0u64;
    for w in suite() {
        let cfg = SimConfig { mem: MemSystem::default(), ..SimConfig::default() };
        base_total += w.run(OptLevel::None, w.default_arg, &cfg).unwrap().cycles;
        full_total += w.run(OptLevel::Full, w.default_arg, &cfg).unwrap().cycles;
    }
    assert!(full_total < base_total, "suite total must improve: {base_total} -> {full_total}");
}

/// Every pass invocation starts from the graph the previous one left: the
/// pass manager counts the graph once per invocation and carries its
/// "after" shape forward as the next "before".
#[test]
fn pass_shapes_chain_from_one_invocation_to_the_next() {
    for w in suite() {
        let p = w.compile(OptLevel::Full).unwrap();
        for pair in p.report.passes.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert_eq!(
                (a.nodes.1, a.edges.1, a.token_edges.1),
                (b.nodes.0, b.edges.0, b.token_edges.0),
                "{}: {} then {}",
                w.name,
                a.name,
                b.name
            );
        }
    }
}

#[test]
fn static_memory_operations_shrink_somewhere() {
    // Figure 18: up to 28% of loads and 8% of stores disappear; at minimum
    // the suite must show a nonzero static reduction overall.
    let mut before = (0usize, 0usize);
    let mut after = (0usize, 0usize);
    for w in suite() {
        let p = w.compile(OptLevel::Full).unwrap();
        before.0 += p.static_unoptimized.0;
        before.1 += p.static_unoptimized.1;
        let (l, s) = p.static_memory_ops();
        after.0 += l;
        after.1 += s;
    }
    assert!(after.0 < before.0, "loads: {before:?} -> {after:?}");
    assert!(after.1 <= before.1, "stores: {before:?} -> {after:?}");
}

#[test]
fn memory_hierarchy_matters_for_large_kernels() {
    // Kernels with big footprints must show cache sensitivity.
    let w = workloads::by_name("130.li").expect("li exists");
    let perfect = w.run(OptLevel::Full, w.default_arg, &SimConfig::perfect()).unwrap();
    let real = w
        .run(
            OptLevel::Full,
            w.default_arg,
            &SimConfig { mem: MemSystem::default(), ..SimConfig::default() },
        )
        .unwrap();
    assert_eq!(perfect.ret, real.ret);
    assert!(real.stats.l1_misses > 0);
}

#[test]
fn pragmas_actually_help_their_kernels() {
    // epic_e declares its two output planes independent; the annotation
    // must not change results.
    let w = workloads::by_name("epic_e").unwrap();
    assert!(w.pragmas > 0);
    let with = w.run(OptLevel::Full, w.default_arg, &SimConfig::perfect()).unwrap();
    let without_src = w.source.replace("#pragma independent low high", "");
    let p = cash::Compiler::new().compile(&without_src).unwrap();
    let without = p.simulate(&[w.default_arg], &SimConfig::perfect()).unwrap();
    assert_eq!(with.ret, without.ret);
}
