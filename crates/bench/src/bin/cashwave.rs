//! Exports a cycle-accurate waveform for one kernel as standard VCD,
//! viewable in GTKWave or any other waveform browser. The scope tree
//! mirrors the circuit's hyperblocks; every node contributes its output
//! values, input-FIFO occupancies, cumulative firing count, stall class
//! and (for predicated operations) predicate outcomes.
//!
//! ```text
//! cargo run --release -p cash-bench --bin cashwave -- \
//!     [KERNEL] [--opt LEVEL] [--arg N] [--backend event|compiled] [--out FILE]
//! ```
//!
//! Defaults to `g721_e` at `OptLevel::Full` with a small argument (waveform
//! size grows with simulated activity), writing
//! `target/waves/<kernel>_<level>.vcd`.

use cash::{BackendKind, OptLevel, SimConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kernel = "g721_e".to_string();
    let mut level = OptLevel::Full;
    let mut backend = BackendKind::Event;
    let mut arg_override: Option<i64> = None;
    let mut out_override: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--opt" => {
                i += 1;
                level = args
                    .get(i)
                    .and_then(|s| parse_level(s))
                    .unwrap_or_else(|| usage("--opt needs none|basic|medium|full"));
            }
            "--arg" => {
                i += 1;
                arg_override = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--arg needs a number")),
                );
            }
            "--backend" => {
                i += 1;
                backend = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--backend needs event|compiled"));
            }
            "--out" => {
                i += 1;
                out_override =
                    Some(args.get(i).cloned().unwrap_or_else(|| usage("--out needs a file")));
            }
            "--help" | "-h" => usage(""),
            a => kernel = a.to_string(),
        }
        i += 1;
    }

    let w = workloads::by_name(&kernel).unwrap_or_else(|| {
        eprintln!("cashwave: unknown kernel `{kernel}`; known kernels:");
        for w in workloads::suite() {
            eprintln!("  {}", w.name);
        }
        std::process::exit(2);
    });
    // Waveform size scales with activity: default to a small argument so
    // the VCD stays browsable (override with --arg for full runs).
    let arg = arg_override.unwrap_or((w.default_arg / 8).max(1));

    let cfg = SimConfig::perfect().with_backend(backend).with_waves(true);
    let p = w.compile(level).unwrap_or_else(|e| panic!("{kernel}: {e}"));
    let r = p.simulate(&[arg], &cfg).unwrap_or_else(|e| panic!("{kernel}: {e}"));
    let wave = r.waves.as_ref().expect("waves were enabled");
    let vcd = wave.to_vcd(&p.graph);

    let path = out_override.unwrap_or_else(|| {
        std::fs::create_dir_all("target/waves")
            .unwrap_or_else(|e| panic!("mkdir target/waves: {e}"));
        format!(
            "target/waves/{}_{}.vcd",
            kernel.replace('.', "_"),
            level.to_string().to_lowercase()
        )
    });
    std::fs::write(&path, &vcd).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "cashwave: {kernel} {level} arg={arg} backend={backend} — {} cycles, {} signals, {} changes, {} bytes -> {path}",
        r.cycles,
        wave.num_signals(),
        wave.num_changes(),
        vcd.len()
    );
    // The capture's own work, deterministic for a given run: bytes of
    // change log and change records written per firing.
    println!(
        "cashwave: capture log {} bytes, {:.3} change records per firing",
        wave.log_bytes(),
        wave.num_changes() as f64 / r.fired.max(1) as f64
    );
}

fn parse_level(s: &str) -> Option<OptLevel> {
    match s.to_ascii_lowercase().as_str() {
        "none" => Some(OptLevel::None),
        "basic" => Some(OptLevel::Basic),
        "medium" => Some(OptLevel::Medium),
        "full" => Some(OptLevel::Full),
        _ => None,
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("cashwave: {err}");
    }
    eprintln!(
        "usage: cashwave [KERNEL] [--opt none|basic|medium|full] [--arg N] \
         [--backend event|compiled] [--out FILE]"
    );
    std::process::exit(2);
}
