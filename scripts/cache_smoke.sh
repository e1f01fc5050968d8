#!/usr/bin/env bash
# Cache smoke test: run the fig5+fig6 smoke campaign twice against a
# fresh run cache and assert that the second (warm) pass is answered
# from the cache — ≥90% hits, at most half the cold pass's campaign
# wall-clock (in practice it is <1%; the bound only needs to survive a
# loaded CI machine) — and that it reproduces the cold pass's figure
# output byte for byte. Leaves cache_stats_{cold,warm}.json under
# target/cache-smoke/ for the CI artifact upload.
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=()
if ! cargo metadata --format-version 1 >/dev/null 2>&1; then
    echo "cache_smoke.sh: registry unreachable, continuing with --offline" >&2
    OFFLINE=(--offline)
fi

OUT=target/cache-smoke
CACHE=target/ci-runcache
rm -rf "$OUT" "$CACHE"

run_pass() {
    cargo run "${OFFLINE[@]}" --release -p vmprov-experiments --bin repro -- \
        figures fig5 fig6 --mode smoke --out "$OUT" --cache "$CACHE"
}

echo "cache_smoke.sh: cold pass" >&2
run_pass
cp "$OUT/cache_stats.json" "$OUT/cache_stats_cold.json"
cp "$OUT/fig5.json" "$OUT/fig5_cold.json"
cp "$OUT/fig6.json" "$OUT/fig6_cold.json"

echo "cache_smoke.sh: warm pass" >&2
run_pass
cp "$OUT/cache_stats.json" "$OUT/cache_stats_warm.json"

# Cache hits must be bit-identical to fresh runs.
diff -q "$OUT/fig5_cold.json" "$OUT/fig5.json"
diff -q "$OUT/fig6_cold.json" "$OUT/fig6.json"

python3 - "$OUT/cache_stats_cold.json" "$OUT/cache_stats_warm.json" <<'EOF'
import json
import sys

cold = json.load(open(sys.argv[1]))
warm = json.load(open(sys.argv[2]))
print(f"cache_smoke.sh: cold {cold['cache_hits']}/{cold['jobs']} hits "
      f"in {cold['wall_secs']:.3f}s; warm {warm['cache_hits']}/{warm['jobs']} "
      f"hits in {warm['wall_secs']:.3f}s", file=sys.stderr)
assert cold["jobs"] > 0, "campaign ran no jobs"
assert cold["cache_hits"] == 0, "cold pass hit a cache that should be fresh"
assert warm["jobs"] == cold["jobs"], "passes disagree on the job count"
assert warm["cache_hits"] * 10 >= warm["jobs"] * 9, (
    f"warm pass hit rate {warm['cache_hits']}/{warm['jobs']} is below 90%")
assert warm["wall_secs"] * 2 <= cold["wall_secs"], (
    f"warm pass ({warm['wall_secs']:.3f}s) is not measurably faster than "
    f"cold ({cold['wall_secs']:.3f}s)")
EOF

echo "cache_smoke.sh: ok" >&2
