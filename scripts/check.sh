#!/usr/bin/env bash
# Full local gate: build, tests, formatting, lints.
# Usage: scripts/check.sh [--fix]   (--fix applies rustfmt instead of checking)
set -euo pipefail
cd "$(dirname "$0")/.."

FMT_ARGS=(--check)
if [[ "${1:-}" == "--fix" ]]; then
    FMT_ARGS=()
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cashlint (static-analysis gate: every kernel at every opt level)"
./target/release/cashlint

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo fmt ${FMT_ARGS[*]:-(write)}"
cargo fmt --all -- "${FMT_ARGS[@]+"${FMT_ARGS[@]}"}"

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

# Blocking: the benchmark driver is a workspace of its own, so the steps
# above never compile it; an executor or crate API change must not break it.
echo "==> cargo check perfbench (blocking)"
CARGO_TARGET_DIR=target/perfbench cargo check --release --offline \
    --manifest-path perfbench/Cargo.toml

# Blocking: the observability runtime must be close to free. The smoke
# interleaves recording-on and recording-off runs of two suite kernels
# in one process and gates on the min-of-k wall-time delta.
echo "==> obs overhead smoke (blocking, <3% budget)"
./target/release/obs_smoke

# Non-blocking: export the merged compiler+simulator Perfetto timeline
# for a Figure 19 kernel (CI uploads target/obs/ as an artifact).
echo "==> cashtrace merged Perfetto trace (informational)"
./target/release/cashtrace || echo "cashtrace failed (non-blocking)"

# Non-blocking: regenerate the BENCH telemetry in target/bench-fresh and
# diff it against the committed files at a ±10% sim.cycles threshold, so a
# perf regression is visible in the log (CI uploads the fresh files as
# artifacts). Warn-only: cycle counts can shift for legitimate reasons —
# bless by copying the fresh files over the committed ones.
echo "==> bench diff vs committed BENCH_*.json (informational)"
mkdir -p target/bench-fresh
(cd target/bench-fresh \
    && ../../target/release/fig18_memops > /dev/null \
    && ../../target/release/fig19_speedup > /dev/null) \
    || echo "bench regeneration failed (non-blocking)"
for f in BENCH_fig18.json BENCH_fig19.json; do
    if [[ -f "$f" && -f "target/bench-fresh/$f" ]]; then
        ./target/release/bench_diff "$f" "target/bench-fresh/$f" --threshold 10 --wall \
            || echo "bench_diff: $f regressed past +/-10% (non-blocking)"
    fi
done

# Non-blocking: append this regeneration's headline numbers (summed
# sim.cycles / sim.us per figure) to the local trajectory file and print
# the trend, so drift across gate runs is visible, not just drift against
# the committed baseline.
fresh=()
for f in BENCH_fig18.json BENCH_fig19.json; do
    [[ -f "target/bench-fresh/$f" ]] && fresh+=("target/bench-fresh/$f")
done
if [[ ${#fresh[@]} -gt 0 ]]; then
    ./target/release/bench_diff --record BENCH_history.jsonl "${fresh[@]}" \
        && ./target/release/bench_diff --history BENCH_history.jsonl \
        || echo "bench history recording failed (non-blocking)"
fi

# Non-blocking: export a GTKWave-viewable waveform for a Figure 19 kernel
# (CI uploads target/waves/ as an artifact).
echo "==> cashwave VCD export (informational)"
./target/release/cashwave g721_e || echo "cashwave failed (non-blocking)"

echo "OK: build, cashlint, tests, fmt, clippy and perfbench check all clean"
