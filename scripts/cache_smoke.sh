#!/usr/bin/env bash
# Cache smoke test: run the fig5+fig6 smoke campaign twice against a
# fresh run cache and assert that the second (warm) pass is answered
# from the cache — ≥90% hits, at most half the cold pass's campaign
# wall-clock (in practice it is <1%; the bound only needs to survive a
# loaded CI machine) — and that it reproduces the cold pass's figure
# output byte for byte. Two more passes show that the keys follow the
# committed goldens' bytes and not the build: with every golden touched
# (same bytes, rebuilt binary) the pass still hits ≥90%, and with one
# golden byte flipped (restored on exit) it hits nothing yet reproduces
# the figures. A last, uncached pass runs the same campaign at
# --jobs 1 and at --jobs 2 and byte-diffs those figure files against
# each other and the cold pass: the worker count must never reach a
# result. Leaves cache_stats_{cold,warm,touched,edited}.json under
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

echo "cache_smoke.sh: warm pass after touching every golden" >&2
touch crates/experiments/tests/goldens/*.txt
run_pass
cp "$OUT/cache_stats.json" "$OUT/cache_stats_touched.json"

echo "cache_smoke.sh: pass with one golden byte flipped" >&2
GOLDEN=crates/experiments/tests/goldens/web_static60.txt
cp "$GOLDEN" "$OUT/golden.orig"
trap 'cp "$OUT/golden.orig" "$GOLDEN"' EXIT
python3 - "$GOLDEN" <<'EOF'
import sys

data = bytearray(open(sys.argv[1], "rb").read())
data[len(data) // 2] ^= 1
open(sys.argv[1], "wb").write(data)
EOF
run_pass
cp "$OUT/golden.orig" "$GOLDEN"
trap - EXIT
cp "$OUT/cache_stats.json" "$OUT/cache_stats_edited.json"
# A re-keyed cache recomputes the same figures.
diff -q "$OUT/fig5_cold.json" "$OUT/fig5.json"
diff -q "$OUT/fig6_cold.json" "$OUT/fig6.json"

python3 - "$OUT" <<'EOF'
import json
import sys

stats = {
    p: json.load(open(f"{sys.argv[1]}/cache_stats_{p}.json"))
    for p in ("cold", "warm", "touched", "edited")
}
for p, s in stats.items():
    print(f"cache_smoke.sh: {p} {s['cache_hits']}/{s['jobs']} hits "
          f"in {s['wall_secs']:.3f}s", file=sys.stderr)
cold, warm = stats["cold"], stats["warm"]
assert cold["jobs"] > 0, "campaign ran no jobs"
assert cold["cache_hits"] == 0, "cold pass hit a cache that should be fresh"
for p, s in stats.items():
    assert s["jobs"] == cold["jobs"], f"the {p} pass disagrees on the job count"
for p in ("warm", "touched"):
    s = stats[p]
    assert s["cache_hits"] * 10 >= s["jobs"] * 9, (
        f"{p} pass hit rate {s['cache_hits']}/{s['jobs']} is below 90%")
assert warm["wall_secs"] * 2 <= cold["wall_secs"], (
    f"warm pass ({warm['wall_secs']:.3f}s) is not measurably faster than "
    f"cold ({cold['wall_secs']:.3f}s)")
assert stats["edited"]["cache_hits"] == 0, (
    "a flipped golden byte left cache keys in place")
EOF

echo "cache_smoke.sh: uncached pass at --jobs 1 and --jobs 2" >&2
for jobs in 1 2; do
    cargo run "${OFFLINE[@]}" --release -p vmprov-experiments --bin repro -- \
        figures fig5 fig6 --mode smoke --no-cache --jobs "$jobs" --out "$OUT/jobs$jobs"
done
for f in fig5.json fig5.csv fig5.txt fig6.json fig6.csv fig6.txt; do
    cmp "$OUT/jobs1/$f" "$OUT/jobs2/$f"
done
diff -q "$OUT/fig5_cold.json" "$OUT/jobs1/fig5.json"
diff -q "$OUT/fig6_cold.json" "$OUT/jobs1/fig6.json"

echo "cache_smoke.sh: ok" >&2
