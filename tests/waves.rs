//! Waveform capture and deterministic replay: the observability tier for
//! `SimConfig::waves`.
//!
//! Three properties are pinned here:
//!
//! 1. **VCD byte-stability.** The exported waveform is a pure function of
//!    (circuit, arguments, configuration) — goldens for three kernels,
//!    regenerated only on intentional capture-format changes with:
//!
//!    ```text
//!    UPDATE_GOLDEN=1 cargo test -q -p cash-integration --test waves
//!    ```
//!
//! 2. **Additive capture.** Every suite kernel captures and renders, and
//!    turning every collector on leaves the simulated outcome untouched.
//!
//! 3. **Checkpoint round-trips.** `Replay` restores executor snapshots
//!    and re-executes; because delivery order is pinned to `(cycle, seq)`,
//!    resuming from any cycle must reproduce the uninterrupted run's
//!    final record exactly, and reverse-step must land on the same state
//!    the forward pass saw.

use cash::{Compiler, MemSystem, OptLevel, Replay, SimConfig, StopReason};

fn perfect() -> SimConfig {
    SimConfig { mem: MemSystem::Perfect { latency: 2 }, ..SimConfig::default() }
}

/// Golden corpus: small arguments keep the committed files tens of KB.
const GOLDEN_KERNELS: [(&str, i64); 3] = [("adpcm_e", 2), ("gsm_e", 2), ("099.go", 2)];

fn golden_path(kernel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("waves_{}.vcd", kernel.replace('.', "_")))
}

#[test]
fn vcd_goldens_are_byte_stable() {
    for (kernel, arg) in GOLDEN_KERNELS {
        let w = workloads::by_name(kernel).expect("suite kernel");
        let p = Compiler::new().level(OptLevel::Full).compile(w.source).unwrap();
        let cfg = perfect().with_waves(true);
        let r = p.simulate(&[arg], &cfg).unwrap();
        let vcd = r.waves.as_ref().expect("waves enabled").to_vcd(&p.graph);
        let path = golden_path(kernel);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &vcd).expect("write golden");
            eprintln!("golden updated: {} bytes -> {}", vcd.len(), path.display());
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{}: {e} — regenerate with UPDATE_GOLDEN=1", path.display())
        });
        assert_eq!(vcd, golden, "{kernel}: VCD drifted from the golden capture");
    }
}

/// Collectors observe the run without changing it. Every suite kernel
/// runs with all collectors off (the bare executor) and with profile,
/// trace, critpath and waves on (the observed executor), on 2-cycle
/// memory and on 300-cycle memory, whose completions land past the event
/// calendar's ring and take its overflow heap. The two runs must agree on
/// the return value, cycles, firings, deferrals, memory statistics and
/// the final memory image. Waves stay out of the stats record (and the
/// goldens) unless asked for; with them on, every kernel renders a VCD.
/// Reduced arguments keep the captures (every value change on every port)
/// fast.
#[test]
fn collectors_leave_the_sim_record_unchanged() {
    let suite = workloads::suite();
    assert!(suite.len() >= 16, "suite shrank to {}", suite.len());
    cash::par::par_map(suite, |w| {
        let p = Compiler::new().level(OptLevel::Full).compile(w.source).unwrap();
        let arg = (w.default_arg / 4).max(1);
        let run = |cfg: &SimConfig| {
            let mut machine = p.machine(cfg.mem.clone());
            let r = p
                .simulate_on(&mut machine, &[arg], cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            (r, machine.image().to_vec())
        };
        for latency in [2, 300] {
            let bare = SimConfig { mem: MemSystem::Perfect { latency }, ..SimConfig::default() };
            let all =
                bare.clone().with_observability(true, true).with_critpath(true).with_waves(true);
            let (off, off_image) = run(&bare);
            let (on, on_image) = run(&all);
            let what = format!("{} at latency {latency}", w.name);
            assert!(off.waves.is_none() && off.profile.is_none() && off.crit.is_none(), "{what}");
            assert!(!off.to_json().contains("\"waves\""), "{what}");
            assert!(on.to_json().contains("\"waves\":{\"signals\":"), "{what}");
            assert_eq!(off.ret, on.ret, "{what}: ret");
            assert_eq!(off.cycles, on.cycles, "{what}: cycles");
            assert_eq!(off.fired, on.fired, "{what}: fired");
            assert_eq!(off.deferrals, on.deferrals, "{what}: deferrals");
            assert_eq!(off.stats, on.stats, "{what}: memory stats");
            assert!(off_image == on_image, "{what}: final memory image");
            let wave = on.waves.expect("waves enabled");
            assert!(wave.num_changes() > 0, "{what}: empty capture");
            let vcd = wave.to_vcd(&p.graph);
            assert!(
                vcd.starts_with("$comment cash-wavecap-v1 $end") && vcd.contains("$enddefinitions"),
                "{what}: VCD did not render"
            );
        }
    });
}

/// Zeroes the wall-time field (the one nondeterministic part of the
/// record).
fn normalize(json: &str) -> String {
    let mut s = json.to_string();
    if let Some(at) = s.find("\"us\":") {
        let start = at + "\"us\":".len();
        let end = start + s[start..].chars().take_while(char::is_ascii_digit).count();
        s.replace_range(start..end, "0");
    }
    s
}

/// Resuming from a checkpoint and running to completion must reproduce
/// the uninterrupted recording pass byte-for-byte — including the waves
/// summary, since snapshots carry the capture.
#[test]
fn checkpoint_resume_reproduces_the_final_record() {
    let w = workloads::by_name("g721_e").expect("suite kernel");
    let p = Compiler::new().level(OptLevel::Full).compile(w.source).unwrap();
    let cfg = perfect();
    let machine = p.machine(cfg.mem.clone());
    let mut rp = Replay::new(&p.graph, machine, &[10], &cfg, 128).unwrap();
    let golden = normalize(&rp.final_result().to_json());
    let end = rp.final_result().cycles;
    assert!(rp.checkpoint_cycles().len() > 3, "run too short for the interval");

    // Resume from several cursor positions, including past-the-middle
    // ones that restore a late checkpoint.
    for frac in [0u64, 1, 3, 7] {
        let c = end * frac / 8;
        assert_eq!(rp.run_to(c).unwrap(), StopReason::Cycle(c));
        assert_eq!(rp.now(), c);
        assert!(matches!(rp.cont().unwrap(), StopReason::Finished));
        let resumed = rp.finished().expect("cursor ran to completion");
        assert_eq!(
            normalize(&resumed.to_json()),
            golden,
            "resume at cycle {c} diverged from the uninterrupted run"
        );
    }
}

/// Reverse-step is exact: stepping back re-lands on the precise forward
/// state (cycle, firing count and the entire capture history).
#[test]
fn reverse_step_reproduces_forward_state() {
    let w = workloads::by_name("adpcm_e").expect("suite kernel");
    let p = Compiler::new().level(OptLevel::Full).compile(w.source).unwrap();
    let cfg = perfect();
    let machine = p.machine(cfg.mem.clone());
    let mut rp = Replay::new(&p.graph, machine, &[8], &cfg, 64).unwrap();

    rp.run_to(200).unwrap();
    let fired = rp.fired();
    let wave = rp.wave().clone();
    rp.step(150).unwrap();
    assert_eq!(rp.now(), 350);
    rp.reverse_step(150).unwrap();
    assert_eq!(rp.now(), 200, "reverse-step must land on the exact cycle");
    assert_eq!(rp.fired(), fired, "firing count must round-trip");
    assert_eq!(*rp.wave(), wave, "capture history must round-trip");

    // Breakpoints respect replayed time: a fire break hits at the same
    // cycle whether reached forward or after time travel.
    let hops = rp.hops().to_vec();
    assert!(!hops.is_empty(), "critical path recorded");
    let (node, t) = hops[hops.len() / 2];
    rp.run_to(0).unwrap();
    rp.add_break(cash::Breakpoint::Fire(node));
    match rp.cont().unwrap() {
        StopReason::Breakpoint { cycle, .. } => {
            assert!(cycle <= t, "first fire of {node} can't be after its crit hop at {t}");
        }
        other => panic!("expected a breakpoint hit for {node}, got {other:?}"),
    }
}

/// Occupancy variables are declared as wide as the deepest FIFO the
/// capture saw: with channels deeper than 255 a depth must read back out
/// of the VCD unmasked, not wrapped to 8 bits.
#[test]
fn deep_channels_widen_the_occupancy_variables() {
    let src = "int a[1000];\n\
               int main(int n) {\n\
                   int s = 0;\n\
                   for (int i = 0; i < n; i++) s += a[i];\n\
                   return s;\n\
               }\n";
    let p = Compiler::new().level(OptLevel::Full).compile(src).unwrap();
    // Slow memory behind one LSQ port lets the loop run far ahead of its
    // loads, filling the address channel to its capacity of 300.
    let cfg = SimConfig {
        mem: MemSystem::Perfect { latency: 500 },
        lsq_ports: 1,
        channel_capacity: 300,
        ..SimConfig::default()
    }
    .with_waves(true);
    let r = p.simulate(&[400], &cfg).unwrap();
    let vcd = r.waves.as_ref().expect("waves enabled").to_vcd(&p.graph);
    let mut occ_codes = fxmap::HashMap::default();
    for line in vcd.lines() {
        if let ["$var", "wire", width, code, name, "$end"] =
            line.split_whitespace().collect::<Vec<_>>()[..]
        {
            if name.ends_with("_occ") {
                occ_codes.insert(code.to_string(), width.parse::<u32>().unwrap());
            }
        }
    }
    assert!(!occ_codes.is_empty(), "no occupancy variables declared");
    assert!(occ_codes.values().all(|&w| w == 9), "depth 300 needs 9 bits: {occ_codes:?}");
    let deepest = vcd
        .lines()
        .filter_map(|l| l.strip_prefix('b')?.split_once(' '))
        .filter(|(_, code)| occ_codes.contains_key(*code))
        .filter_map(|(bits, _)| u64::from_str_radix(bits, 2).ok())
        .max()
        .expect("occupancy changes recorded");
    assert_eq!(deepest, 300, "deepest occupancy read back from the VCD");
}

/// Breakpoints scan only what each step appended to the capture: every
/// hit lands on the first matching change at or after the cursor, as the
/// finished capture's per-signal lists record it — for a value break, a
/// single-node stall break and a wildcard stall break (earliest cycle,
/// then lowest node).
#[test]
fn breakpoints_hit_the_first_matching_change_after_the_cursor() {
    use cash::{Breakpoint, Cmp};
    let w = workloads::by_name("adpcm_e").expect("suite kernel");
    let p = Compiler::new().level(OptLevel::Full).compile(w.source).unwrap();
    let cfg = perfect();
    let machine = p.machine(cfg.mem.clone());
    let mut rp = Replay::new(&p.graph, machine, &[8], &cfg, 64).unwrap();
    let full = rp.final_result().waves.clone().expect("replay records waves");
    let flat = pegasus::FlatPorts::new(&p.graph);
    let from = 120u64;

    // The busiest output port, broken on its first value above its
    // first recorded value.
    let (node, port) = p
        .graph
        .live_ids()
        .flat_map(|id| (0..p.graph.kind(id).num_outputs()).map(move |q| (id, q)))
        .max_by_key(|&(id, q)| full.out_list(flat.out_id(id, q) as usize).len())
        .expect("graph has outputs");
    let outs = full.out_list(flat.out_id(node, port) as usize);
    let threshold = outs[0].1;
    let expect_value = outs.iter().find(|&&(t, v)| t >= from && v > threshold).map(|&(t, _)| t);

    // The node that enters the data-stall class most often.
    let data = 1u8;
    let stalls = |i: usize| full.stall_list(i).iter().filter(|&&(_, c)| c == data).count();
    let busy = p.graph.live_ids().max_by_key(|id| stalls(id.index())).expect("nodes");
    let first_data = |i: usize| {
        full.stall_list(i).iter().find(|&&(t, c)| t >= from && c == data).map(|&(t, _)| t)
    };
    let expect_any =
        p.graph.live_ids().filter_map(|id| Some((first_data(id.index())?, id.index()))).min();

    let cases = [
        (Breakpoint::Value { node, port, cmp: Cmp::Gt, value: threshold }, expect_value, None),
        (Breakpoint::Stall { node: Some(busy), code: data }, first_data(busy.index()), None),
        (
            Breakpoint::Stall { node: None, code: data },
            expect_any.map(|(t, _)| t),
            expect_any.map(|(_, i)| format!("n{i} stalled")),
        ),
    ];
    for (bp, expect, who) in cases {
        assert!(expect.is_some(), "{bp}: no matching change after cycle {from}");
        rp.run_to(from).unwrap();
        let idx = rp.add_break(bp.clone());
        let stop = rp.cont().unwrap();
        rp.delete_break(idx);
        match (stop, expect) {
            (StopReason::Breakpoint { index, cycle, what }, Some(t)) => {
                assert_eq!((index, cycle), (idx, t), "{bp}: {what}");
                if let Some(who) = &who {
                    assert!(what.starts_with(who.as_str()), "{bp}: {what} (expected {who})");
                }
            }
            (stop, expect) => panic!("{bp}: stopped with {stop:?}, expected a hit at {expect:?}"),
        }
    }
}
