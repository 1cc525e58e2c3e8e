//! Collector buffers are recycled per thread: the wave change log, the
//! critical-path record stream and the hop list of one run are handed to
//! the next observed run on the same thread (DESIGN.md §"Collector
//! storage"). Recycling must leak nothing from one run into the next.
//!
//! One thread runs a sequence that leaves every kind of leftover behind —
//! a finished run, a run that fails partway with its buffers half filled,
//! another kernel at another size, a replay session whose snapshots clone
//! the buffers — and every collector output along the way must equal the
//! same run on a freshly spawned thread, whose spares are empty.

use cash::{
    CacheParams, Compiler, CritSummary, MemSystem, OptLevel, Program, Replay, SimConfig,
    SimProfile, StatsRecord, StopReason, Wave,
};

/// Every collector output of one run.
#[derive(PartialEq)]
struct Outputs {
    profile: SimProfile,
    crit: CritSummary,
    wave: Wave,
    vcd: String,
    stats: String,
}

fn observe(p: &Program, arg: i64, cfg: &SimConfig) -> Outputs {
    let mut r = p.simulate(&[arg], cfg).expect("observed run");
    r.wall_us = 0;
    let stats = StatsRecord {
        bench: "reuse",
        kernel: "k",
        level: "Full",
        system: "s",
        opt: &p.report,
        sim: &r,
        spans: &[],
    }
    .to_json();
    let wave = r.waves.take().expect("waves on");
    Outputs {
        profile: r.profile.take().expect("profile on"),
        crit: r.crit.take().expect("critpath on"),
        vcd: wave.to_vcd(&p.graph),
        wave,
        stats,
    }
}

/// What a replay session shows: the recording run's capture and path,
/// the capture after travelling back, and the resumed run's capture.
#[derive(PartialEq)]
struct Session {
    recorded: Wave,
    hops: Vec<(pegasus::NodeId, u64)>,
    rewound: Wave,
    resumed: Wave,
}

fn replay(p: &Program, arg: i64, cfg: &SimConfig) -> Session {
    let mut rp = Replay::new(&p.graph, p.machine(cfg.mem.clone()), &[arg], cfg, 32).unwrap();
    let end = rp.final_result().cycles;
    rp.run_to(end * 3 / 4).unwrap();
    rp.reverse_step(end / 2).unwrap();
    let rewound = rp.wave().clone();
    assert!(matches!(rp.cont().unwrap(), StopReason::Finished));
    Session {
        recorded: rp.final_result().waves.clone().expect("replay records waves"),
        hops: rp.hops().to_vec(),
        rewound,
        resumed: rp.wave().clone(),
    }
}

/// Runs `f` on a new thread, whose collector spares start empty.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("fresh thread"))
}

#[test]
fn recycled_buffers_leave_every_collector_output_unchanged() {
    let compile = |name: &str| {
        let w = workloads::by_name(name).expect("suite kernel");
        Compiler::new().level(OptLevel::Full).compile(w.source).unwrap()
    };
    let (a, b) = (compile("adpcm_e"), compile("g721_e"));
    let observed =
        |mem| SimConfig { mem, profile: true, critpath: true, waves: true, ..SimConfig::default() };
    let perfect = observed(MemSystem::Perfect { latency: 2 });
    let cache = observed(MemSystem::Hierarchy(CacheParams::default()));
    let full_length = a.simulate(&[6], &SimConfig::perfect()).unwrap().cycles;
    let cut_short = SimConfig { max_cycles: full_length / 2, ..perfect.clone() };

    let want_a = on_fresh_thread(|| observe(&a, 6, &perfect));
    let want_b = on_fresh_thread(|| observe(&b, 3, &cache));
    let want_session = on_fresh_thread(|| replay(&b, 2, &perfect));

    on_fresh_thread(|| {
        assert!(want_a == observe(&a, 6, &perfect), "first run differs");
        assert!(
            a.simulate(&[6], &cut_short).is_err(),
            "the cut-short run must fail partway, leaving partly filled buffers"
        );
        assert!(want_b == observe(&b, 3, &cache), "run after a failed run differs");
        assert!(want_a == observe(&a, 6, &perfect), "run after a larger run differs");
        assert!(want_session == replay(&b, 2, &perfect), "replay on a used thread differs");
        assert!(want_a == observe(&a, 6, &perfect), "run after a replay session differs");
    });
}
