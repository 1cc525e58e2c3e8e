//! The benchmark suite: MiniC kernels modeled on the programs of the
//! paper's evaluation (Mediabench codecs, SPECint-95 integer codes).
//!
//! The original suites are licensed and ship with proprietary inputs; each
//! kernel here preserves the *memory-access structure* its namesake
//! stresses — codec inner loops with small windows, image filters with
//! monotone addresses, hash loops, table lookups, pointer-style indirect
//! chasing — which is what the CASH memory optimizations act on. Every
//! kernel carries a pure-Rust reference implementation, so the whole suite
//! doubles as an end-to-end correctness harness for the compiler and
//! simulator.

pub mod kernels;

use cash::{Compiler, OptLevel, Program, SimConfig};

/// One benchmark kernel.
pub struct Workload {
    /// Short name (mirrors the paper's Table 2 row it stands in for).
    pub name: &'static str,
    /// Which paper benchmark this kernel's access pattern mirrors.
    pub mirrors: &'static str,
    /// The MiniC source.
    pub source: &'static str,
    /// Default argument (typically the element count).
    pub default_arg: i64,
    /// Number of `#pragma independent` annotations in the source
    /// (the Table 2 "Pragmas" column).
    pub pragmas: usize,
    /// Reference implementation: maps the argument to the expected result.
    pub reference: fn(i64) -> i64,
}

impl Workload {
    /// Compiles this kernel at the given level.
    ///
    /// # Errors
    ///
    /// Propagates compiler failures (which would be a bug in the suite).
    pub fn compile(&self, level: OptLevel) -> Result<Program, cash::Error> {
        Compiler::new().level(level).compile(self.source)
    }

    /// Compiles and runs at the given level, returning the program result.
    ///
    /// # Errors
    ///
    /// Propagates compile and simulation failures.
    pub fn run(
        &self,
        level: OptLevel,
        arg: i64,
        config: &SimConfig,
    ) -> Result<cash::SimResult, cash::Error> {
        self.compile(level)?.simulate(&[arg], config)
    }

    /// Source-code line count (the Table 2 "Lines" column).
    pub fn lines(&self) -> usize {
        self.source.lines().filter(|l| !l.trim().is_empty()).count()
    }

    /// Number of functions defined in the source (Table 2 "Funcs").
    pub fn functions(&self) -> usize {
        minic::parse(self.source).map(|p| p.functions().count()).unwrap_or(0)
    }
}

/// The whole suite, in the paper's Table 2 order.
pub fn suite() -> Vec<Workload> {
    kernels::all()
}

/// Looks a kernel up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    suite().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_populated() {
        let s = suite();
        assert!(s.len() >= 12, "expected a full suite, got {}", s.len());
        let names: fxmap::HashSet<_> = s.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), s.len(), "duplicate kernel names");
    }

    #[test]
    fn every_kernel_compiles_at_every_level() {
        for w in suite() {
            for level in OptLevel::ALL {
                w.compile(level).unwrap_or_else(|e| panic!("{} at {level}: {e}", w.name));
            }
        }
    }

    #[test]
    fn every_kernel_matches_its_reference_at_full() {
        for w in suite() {
            let expect = (w.reference)(w.default_arg);
            let r = w
                .run(OptLevel::Full, w.default_arg, &SimConfig::perfect())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(r.ret, Some(expect), "{} diverges from reference", w.name);
        }
    }

    #[test]
    fn every_kernel_matches_its_reference_unoptimized() {
        for w in suite() {
            let expect = (w.reference)(w.default_arg);
            let r = w
                .run(OptLevel::None, w.default_arg, &SimConfig::perfect())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(r.ret, Some(expect), "{} diverges from reference", w.name);
        }
    }

    #[test]
    fn levels_agree_on_small_args() {
        for w in suite() {
            let arg = (w.default_arg / 4).max(1);
            let mut prev = None;
            for level in OptLevel::ALL {
                let r = w.run(level, arg, &SimConfig::perfect()).unwrap();
                if let Some(p) = prev {
                    assert_eq!(p, r.ret, "{} at {level}", w.name);
                }
                prev = Some(r.ret);
            }
        }
    }

    #[test]
    fn metadata_is_sane() {
        for w in suite() {
            assert!(w.lines() > 5, "{} too small", w.name);
            assert!(w.functions() >= 1, "{}", w.name);
            assert!(w.default_arg > 0, "{}", w.name);
            assert_eq!(
                w.pragmas,
                w.source.matches("#pragma independent").count(),
                "{} pragma count mismatch",
                w.name
            );
        }
    }
}
