//! Robustness: malformed input yields a diagnostic, never a panic.
//!
//! Every suite kernel's source is mutated with seeded byte deletions,
//! duplications and swaps (the in-tree xorshift, so a failing seed
//! reproduces forever). Each mutant goes through `Compiler::compile` and,
//! when that succeeds, a short simulation; every outcome must be `Ok` or
//! `Err`, never a panic.

use cash::{Compiler, OptLevel, SimConfig};
use refinterp::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// 16 kernels × 40 mutants = 640 mutated sources.
const MUTANTS_PER_KERNEL: u64 = 40;

const LEVELS: [OptLevel; 4] = [OptLevel::None, OptLevel::Basic, OptLevel::Medium, OptLevel::Full];

/// One to three edits, each a deletion or duplication of a run of 1–8
/// bytes, or a swap of two bytes.
fn mutate(src: &str, rng: &mut Rng) -> String {
    let mut b = src.as_bytes().to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(b.len() as u64) as usize;
        let n = (1 + rng.below(8) as usize).min(b.len() - at);
        match rng.below(3) {
            0 => {
                b.drain(at..at + n);
            }
            1 => {
                let run = b[at..at + n].to_vec();
                b.splice(at..at, run);
            }
            _ => {
                let other = rng.below(b.len() as u64) as usize;
                b.swap(at, other);
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// What happened to one mutant.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Rejected,
    SimError,
    Ran,
}

#[test]
fn mutated_kernels_never_panic() {
    let suite = workloads::suite();
    assert!(suite.len() >= 16, "suite shrank to {}", suite.len());
    let cfg = SimConfig { max_cycles: 20_000, ..SimConfig::perfect() };
    let per_kernel = cash::par::par_map(suite.into_iter().enumerate().collect(), |(ki, w)| {
        let mut outcomes = Vec::new();
        let mut panics = Vec::new();
        for k in 0..MUTANTS_PER_KERNEL {
            let seed = (ki as u64) << 32 | k;
            let src = mutate(w.source, &mut Rng::new(seed));
            let level = LEVELS[(k % 4) as usize];
            let arg = (w.default_arg / 8).max(1);
            let run = catch_unwind(AssertUnwindSafe(|| {
                match Compiler::new().level(level).compile(&src) {
                    Err(_) => Outcome::Rejected,
                    Ok(p) => match p.simulate(&[arg], &cfg) {
                        Err(_) => Outcome::SimError,
                        Ok(_) => Outcome::Ran,
                    },
                }
            }));
            match run {
                Ok(o) => outcomes.push(o),
                Err(_) => panics.push(format!("{} seed {seed:#x} at {level}", w.name)),
            }
        }
        (outcomes, panics)
    });
    let outcomes: Vec<Outcome> = per_kernel.iter().flat_map(|(o, _)| o.iter().copied()).collect();
    let panics: Vec<&String> = per_kernel.iter().flat_map(|(_, p)| p).collect();
    assert!(panics.is_empty(), "{} mutant(s) panicked: {panics:#?}", panics.len());
    assert!(outcomes.len() >= 500, "only {} mutants", outcomes.len());
    // Not vacuous: some mutants are rejected and some still compile and run.
    let count = |want| outcomes.iter().filter(|&&o| o == want).count();
    assert!(count(Outcome::Rejected) > 0, "no mutant was rejected");
    assert!(count(Outcome::Ran) > 0, "no mutant compiled and ran");
}

/// Array declarations whose byte size overflows, or passes the memory
/// image cap, are line-numbered diagnostics — not an allocation abort in
/// `Machine::new` and not a wrapped object layout.
#[test]
fn oversized_arrays_are_diagnosed() {
    let cases = [
        ("int a[100000000000];\nint main() { return a[0]; }", 1),
        ("int a[4611686018427387904];\nint main() { return a[0]; }", 1),
        ("int main() {\n  int a[4611686018427387904];\n  a[0] = 1;\n  return a[0];\n}", 2),
        ("const int t[100000000000] = {1};\nint main() { return t[0]; }", 1),
        // Each array fits alone; together they pass the cap.
        ("int a[40000000];\nint b[40000000];\nint main() { return a[0] + b[0]; }", 2),
    ];
    for (src, line) in cases {
        let e = catch_unwind(|| Compiler::new().compile(src).err())
            .unwrap_or_else(|_| panic!("compile panicked on {src:?}"))
            .unwrap_or_else(|| panic!("compiled: {src:?}"))
            .to_string();
        assert!(e.contains(&format!("line {line}: ")), "{src:?}: {e}");
        assert!(e.contains("memory image"), "{src:?}: {e}");
    }
    // Below the cap, arrays still compile and run.
    let p = Compiler::new().compile("int a[1000];\nint main() { a[999] = 7; return a[999]; }");
    let r = p.unwrap().simulate(&[], &SimConfig::perfect()).unwrap();
    assert_eq!(r.ret, Some(7));
}
