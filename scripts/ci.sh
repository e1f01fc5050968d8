#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml: format check, lints, docs,
# release build, tests, the examples, and the quickbench suite.
#
# Works without network access: when the registry is unreachable the
# cargo steps run with --offline against the committed Cargo.lock (the
# workspace has no external dependencies, so offline resolution always
# succeeds).
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=()
if ! cargo metadata --format-version 1 >/dev/null 2>&1; then
    echo "ci.sh: registry unreachable, continuing with --offline" >&2
    OFFLINE=(--offline)
fi

run() {
    echo "ci.sh: $*" >&2
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy "${OFFLINE[@]}" --workspace --all-targets -- -D warnings
run env RUSTDOCFLAGS="-D warnings" cargo doc "${OFFLINE[@]}" --workspace --no-deps
run cargo build "${OFFLINE[@]}" --workspace --release
run cargo test "${OFFLINE[@]}" --workspace -q
# Again on one test thread: the suite must pass at any thread count.
run env RUST_TEST_THREADS=1 cargo test "${OFFLINE[@]}" --workspace -q
# Each example asserts the headline result it demonstrates; run them all
# (release build, a few seconds in total).
for example in examples/*.rs; do
    run cargo run "${OFFLINE[@]}" --release -q --example "$(basename "$example" .rs)"
done
# The end-to-end benchmark harness lives outside the workspace and pins
# the crates' public API.
run cargo test --offline -q --manifest-path e2ebench/Cargo.toml
# Full sizes (the suite takes seconds), written under target/ so the
# committed BENCH_des.json at the repo root is not clobbered. Two gates:
# the probe-overhead gate fails the build when a probe-less run is
# measurably slower than before the observability layer (NullProbe must
# monomorphize away), and the regression gate fails it when any median
# lands >10% over the committed baseline — after one fresh
# re-measurement, so a scheduler artifact does not fail the build but a
# real regression does. The committed baseline is machine-specific and
# records, per benchmark, the slowest full-size median observed on the
# CI machine (an envelope — see README "Benchmarks"): after intentional
# performance changes, or when moving CI to new hardware, regenerate it
# from several runs of
#   cargo run --release -p vmprov-bench --bin quickbench -- --out BENCH_des.json
# keeping each benchmark's slowest median.
run cargo run "${OFFLINE[@]}" --release -p vmprov-bench --bin quickbench -- --out target/BENCH_des.json --check-probe-overhead 2 --check-against BENCH_des.json
# Before/after table (committed envelope vs this run), published as a
# build artifact by ci.yml and handy locally for eyeballing a perf PR.
run cargo run "${OFFLINE[@]}" --release -p vmprov-bench --bin quickbench -- --diff BENCH_des.json target/BENCH_des.json > target/bench_diff.md
echo "ci.sh: wrote target/bench_diff.md" >&2
# The campaign run cache end to end: a cold fig5+fig6 smoke pass, then a
# warm pass that must be ≥90% cache hits, measurably faster, and
# byte-identical in its figure output.
run bash scripts/cache_smoke.sh
# Streaming trace replay at scale: a 10M-request synthetic trace must
# replay with chunk-bounded ingestion memory (peak-RSS check),
# byte-identical summaries across chunk sizes, and
# estimator QoS verdicts matching the oracle-λ run.
run bash scripts/trace_smoke.sh

echo "ci.sh: all checks passed" >&2
