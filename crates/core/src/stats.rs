//! The shared `cash-stats-v1` telemetry record.
//!
//! One JSON line per (benchmark, kernel, level, memory-system) run,
//! combining compiler telemetry ([`OptReport::to_json`]) and simulator
//! statistics ([`SimResult::to_json`]) under a single schema. The bench
//! figure binaries append these lines to `BENCH_*.json`; being
//! line-oriented, the files diff cleanly and load with one `json.loads`
//! per line.
//!
//! All serializers in the dialect emit keys in a fixed order with no
//! whitespace, so records for identical runs are byte-identical.
//!
//! Additive `sim` keys (the schema tag stays `v1`; old consumers ignore
//! them): `"backend"` labels the simulator executor that produced the
//! record, always `"event"` (see [`crate::SimResult::backend`]).
//! Comparisons across records treat it, like `"us"`, as a provenance
//! field rather than an outcome.

use crate::{OptReport, SimResult, SpanRec};
use std::fmt::Write;

/// One run's combined compiler + simulator telemetry.
#[derive(Debug, Clone, Copy)]
pub struct StatsRecord<'a> {
    /// The figure/benchmark family (e.g. `fig18`, `fig19`).
    pub bench: &'a str,
    /// Workload/kernel name (e.g. `adpcm_e`).
    pub kernel: &'a str,
    /// Optimization level the run compiled at.
    pub level: &'a str,
    /// Memory system label (e.g. `perfect`, `hierarchy`).
    pub system: &'a str,
    /// What the optimizer did.
    pub opt: &'a OptReport,
    /// What the simulation did.
    pub sim: &'a SimResult,
    /// The compile's observability span tree ([`crate::Program::spans`]).
    /// Additive `cash-stats-v1` field (the schema tag stays `v1`): rendered
    /// as compact `[name, depth, start_us, dur_us]` rows, `[]` when
    /// recording is off — old consumers ignore the extra key.
    pub spans: &'a [SpanRec],
}

impl StatsRecord<'_> {
    /// Renders the single-line JSON record (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"schema\":\"cash-stats-v1\",\"bench\":\"{}\",\"kernel\":\"{}\",\
             \"level\":\"{}\",\"system\":\"{}\",\"opt\":{},\"sim\":{},\"spans\":{}}}",
            escape(self.bench),
            escape(self.kernel),
            escape(self.level),
            escape(self.system),
            self.opt.to_json(),
            self.sim.to_json(),
            obs::spans_to_json(self.spans),
        );
        s
    }
}

/// Minimal JSON string escaping — labels are identifiers in practice, but
/// quoting mistakes should degrade gracefully, not corrupt the file.
fn escape(s: &str) -> String {
    if s.chars().all(|c| c != '"' && c != '\\' && c >= ' ') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 4);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, SimConfig};

    #[test]
    fn record_combines_opt_and_sim_under_one_schema() {
        let p = Compiler::new()
            .compile("int a[4]; int main(int i) { a[i] = 7; return a[i]; }")
            .unwrap();
        let r = p.simulate(&[2], &SimConfig::perfect()).unwrap();
        let rec = StatsRecord {
            bench: "fig18",
            kernel: "unit",
            level: "Full",
            system: "perfect",
            opt: &p.report,
            sim: &r,
            spans: &p.spans,
        };
        let json = rec.to_json();
        assert!(json.starts_with("{\"schema\":\"cash-stats-v1\""));
        assert!(json.contains("\"spans\":["));
        assert!(json.contains("\"rules\":{"));
        assert!(json.contains("\"passes\":["));
        assert!(json.contains("\"ret\":7"));
        assert!(json.contains("\"l1\":{"));
        assert!(!json.contains('\n'), "must be a single line");
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("adpcm_e"), "adpcm_e");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb"), "a\\u000ab");
    }
}
