#!/usr/bin/env bash
# Streaming trace-replay smoke: generates a 10M+-request synthetic
# Poisson trace (~220 MB of CSV) and replays it through the
# DatasetReader seam, asserting the tentpole invariants at scale:
#
#   1. Peak ingestion memory is bounded by the chunk buffer: the
#      process's peak RSS must stay far below the materialized trace
#      (10M ArrivalBatches ≈ 240 MB; the bound is 128 MB, actual is
#      single-digit MB).
#   2. Replay summaries are byte-identical across ingestion chunk sizes
#      (reference vs --chunk 1024).
#   3. The estimator-driven runs (sliding-window MLE, EWMA) produce the
#      same Fig 5-style QoS verdicts as the oracle-λ run on this
#      stationary trace.
#   4. A 3-analyzer × 2-rep shared-scan grid opens and parses the trace
#      exactly once (asserted via the scan counters in
#      replay_grid.json's grid stats), stays chunk-bounded in RSS at
#      grid level, and
#      every cell's summary is byte-identical to its single-run
#      counterpart — on the default worker count and again on two
#      workers stepping three cells each (--jobs 2), which must still
#      decode every batch exactly once.
#
# usage: trace_smoke.sh [RATE HORIZON_SECS]
#   trace_smoke.sh              # 2000 req/s × 5000 s ≈ 10M requests
#   trace_smoke.sh 200 500      # scaled-down local iteration
#
# Leaves every cell's replay output under target/trace-smoke/ for the
# CI artifact upload. Runs uncached: the point is recomputation
# agreeing, not the cache answering twice.
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=()
if ! cargo metadata --format-version 1 >/dev/null 2>&1; then
    echo "trace_smoke.sh: registry unreachable, continuing with --offline" >&2
    OFFLINE=(--offline)
fi

RATE="${1:-2000}"
HORIZON="${2:-5000}"
OUT=target/trace-smoke
TRACE="$OUT/trace.csv"
RSS_BOUND_KB=131072  # 128 MB: well under the ~240 MB a materialized trace costs

rm -rf "$OUT"
mkdir -p "$OUT"

cargo build "${OFFLINE[@]}" --release -p vmprov-experiments --bin repro >&2
REPRO=target/release/repro

echo "trace_smoke.sh: generating ${RATE} req/s × ${HORIZON} s trace" >&2
"$REPRO" gen-trace --out "$TRACE" --rate "$RATE" --horizon "$HORIZON" --seed 20110926 >&2

run_cell() { # DIR EXTRA_ARGS...
    local dir="$1"; shift
    "$REPRO" replay --trace "$TRACE" --no-cache --out "$dir" "$@" >&2
}

rss_of() { # QOS_JSON BOUND_KB LABEL — peak_rss_kb must exist and respect the bound
    local qos="$1" bound="$2" label="$3"
    local kb
    kb=$(sed -n 's/.*"peak_rss_kb": *\([0-9][0-9]*\).*/\1/p' "$qos")
    if [ -z "$kb" ]; then
        echo "trace_smoke.sh: FAIL — no peak_rss_kb in $qos (procfs?)" >&2
        exit 1
    fi
    if [ "$kb" -ge "$bound" ]; then
        echo "trace_smoke.sh: FAIL — $label peak RSS ${kb} kB ≥ bound ${bound} kB:" \
             "ingestion is not streaming" >&2
        exit 1
    fi
    echo "trace_smoke.sh: $label peak RSS ${kb} kB (bound ${bound} kB)" >&2
}

# --- reference + chunk invariance (invariants 1 and 2) ----------------
echo "trace_smoke.sh: reference cell (oracle, default chunk)" >&2
run_cell "$OUT/serial" --analyzer oracle
rss_of "$OUT/serial/replay_oracle_qos.json" "$RSS_BOUND_KB" "reference"

echo "trace_smoke.sh: cell with --chunk 1024" >&2
run_cell "$OUT/serial_c1024" --analyzer oracle --chunk 1024
rss_of "$OUT/serial_c1024/replay_oracle_qos.json" "$RSS_BOUND_KB" "chunk-1024"
if ! diff -q "$OUT/serial/replay_oracle.json" "$OUT/serial_c1024/replay_oracle.json" >&2; then
    echo "trace_smoke.sh: FAIL — summaries differ across ingestion chunk sizes" >&2
    exit 1
fi
echo "trace_smoke.sh: chunk sizes agree byte for byte" >&2

# --- estimator vs oracle verdicts (invariant 3) -----------------------
verdict_of() { # QOS_JSON — the three pass/fail verdicts, normalized to one line
    sed -n 's/.*"\(rejections_met\|response_met\|nothing_lost\)": *\(true\|false\).*/\1=\2/p' \
        "$1" | sort | tr '\n' ' '
}
oracle_verdict=$(verdict_of "$OUT/serial/replay_oracle_qos.json")
for analyzer in mle ewma; do
    echo "trace_smoke.sh: estimator cell ${analyzer}" >&2
    run_cell "$OUT/est_${analyzer}" --analyzer "$analyzer"
    got=$(verdict_of "$OUT/est_${analyzer}/replay_${analyzer}_qos.json")
    if [ "$got" != "$oracle_verdict" ]; then
        echo "trace_smoke.sh: FAIL — ${analyzer} verdicts (${got}) differ from" \
             "oracle (${oracle_verdict}) on a stationary trace" >&2
        exit 1
    fi
    echo "trace_smoke.sh: ${analyzer} verdicts match the oracle (${got})" >&2
done

# --- shared-scan grid (invariant 4) -----------------------------------
# Single-run rep-1 counterparts for the grid byte-diff (rep-0
# counterparts already exist from invariants 2 and 3 above).
for analyzer in oracle mle ewma; do
    echo "trace_smoke.sh: single-run rep-1 cell ${analyzer}" >&2
    run_cell "$OUT/rep1_${analyzer}" --analyzer "$analyzer" --rep 1
done

grid_stat() { # GRID_DIR FIELD — integer field from replay_grid.json
    sed -n "s/.*\"$2\": *\([0-9][0-9]*\).*/\1/p" "$1/replay_grid.json" | head -1
}
# Data rows of the trace (every line but the header).
BATCHES=$(( $(wc -l < "$TRACE") - 1 ))

check_grid() { # GRID_DIR LABEL — one scan, every batch decoded once, RSS bound
    local dir="$1" label="$2" opens waves decoded
    opens=$(grid_stat "$dir" trace_file_opens)
    waves=$(grid_stat "$dir" scan_waves)
    decoded=$(grid_stat "$dir" batches_decoded)
    if [ "$opens" != 1 ] || [ "$waves" != 1 ]; then
        echo "trace_smoke.sh: FAIL — $label opened the trace ${opens:-?} time(s) in" \
             "${waves:-?} wave(s); the shared scan must decode it exactly once" >&2
        exit 1
    fi
    if [ "$decoded" != "$BATCHES" ]; then
        echo "trace_smoke.sh: FAIL — $label decoded ${decoded:-?} batches of a" \
             "${BATCHES}-batch trace; each must be decoded exactly once" >&2
        exit 1
    fi
    echo "trace_smoke.sh: $label scanned the trace exactly once" \
         "(1 open, 1 wave, ${decoded} batches)" >&2
    # The grid-level peak covers all 6 live cells; the per-cell bound
    # still applies because the shared window is chunk-bounded (DESIGN §13).
    rss_of "$dir/replay_grid.json" "$RSS_BOUND_KB" "$label"
    if grep -q peak_rss_kb "$dir/replay_oracle_rep0_qos.json"; then
        echo "trace_smoke.sh: FAIL — per-cell qos reports claim an RSS figure;" \
             "under a shared-process grid that number is process-wide and meaningless" >&2
        exit 1
    fi
}

echo "trace_smoke.sh: 3-analyzer × 2-rep shared-scan grid" >&2
run_cell "$OUT/grid" --analyzers oracle,mle,ewma --reps 2
check_grid "$OUT/grid" "grid"

echo "trace_smoke.sh: the same grid on two workers (--jobs 2)" >&2
run_cell "$OUT/grid_jobs2" --analyzers oracle,mle,ewma --reps 2 --jobs 2
check_grid "$OUT/grid_jobs2" "two-worker grid"

grid_cell_of() { # ANALYZER REP — the single-run counterpart summary
    local analyzer="$1" rep="$2"
    if [ "$rep" = 0 ]; then
        case "$analyzer" in
            oracle) echo "$OUT/serial/replay_oracle.json" ;;
            *) echo "$OUT/est_${analyzer}/replay_${analyzer}.json" ;;
        esac
    else
        echo "$OUT/rep1_${analyzer}/replay_${analyzer}.json"
    fi
}
for grid in grid grid_jobs2; do
    for analyzer in oracle mle ewma; do
        for rep in 0 1; do
            single=$(grid_cell_of "$analyzer" "$rep")
            if ! diff -q "$OUT/$grid/replay_${analyzer}_rep${rep}.json" "$single" >&2; then
                echo "trace_smoke.sh: FAIL — $grid cell ${analyzer} rep ${rep} differs" \
                     "from its single-run counterpart" >&2
                exit 1
            fi
        done
    done
    echo "trace_smoke.sh: all 6 $grid cells match their single-run counterparts" \
         "byte for byte" >&2
done

# The generated trace is ~220 MB; don't leave it for the artifact upload.
rm -f "$TRACE"
echo "trace_smoke.sh: ok" >&2
