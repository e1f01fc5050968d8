#!/usr/bin/env bash
# Paired end-to-end A/B of two commits, following e2ebench's
# "Comparing two commits" protocol (e2ebench/BENCHMARK.md):
#
#   * each commit is checked out into its own `git worktree` and built
#     once into its own target directory, with the same settings;
#   * PAIRS pairs of runs on one workload, alternating which side runs
#     first, each pair with a fresh `--seed`;
#   * per metric: each side's median and quartiles
#     (`statistics.quantiles(n=4)`), the change against the parent, and
#     the pairs the change won (ties count for neither side).
#
# usage: e2e_ab.sh PARENT CHANGE WORKLOAD [PAIRS] [SECONDS]
#   e2e_ab.sh HEAD~1 HEAD web_fig5            # 10 pairs, 6 s per run
#   e2e_ab.sh main my-branch replay_grid 12 8
#
# WORKLOAD is one of e2ebench's workloads (web_fig5, sci_sweep,
# replay_grid). PAIRS defaults to 10 and SECONDS (e2e `--seconds` per
# run) to 6. Pair i runs with seed E2E_AB_SEED + i; E2E_AB_SEED
# defaults to a clock-derived number, printed up front, so that a
# rerun can repeat it. Worktrees and target directories go under
# E2E_AB_DIR (default: a fresh temporary directory). The worktrees are
# removed on exit; with E2E_AB_DIR set, the target directories and
# each run's result line (results-WORKLOAD.tsv: side, pair, JSON) stay
# for the next comparison, otherwise the whole directory goes.
#
# The verdict follows the protocol: a gain is claimable when the change
# wins at least 9 pairs in 10 and the medians differ by more than the
# parent's IQR; a metric whose change median is worse than the
# parent's by more than BENCHMARK.json's bound is a regression; one
# whose IQR on either side exceeds the bound is unresolved, unless
# every change run beats every parent run. Exits 1 if any run failed
# its checks or printed no result line, else 0.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    echo "usage: $0 PARENT CHANGE WORKLOAD [PAIRS] [SECONDS]" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
REPO=$(pwd)
PARENT=$(git rev-parse --verify "$1^{commit}")
CHANGE=$(git rev-parse --verify "$2^{commit}")
WORKLOAD=$3
PAIRS=${4:-10}
SECONDS_PER_RUN=${5:-6}
case "$WORKLOAD" in
web_fig5 | sci_sweep | replay_grid) ;;
*)
    echo "e2e_ab.sh: unknown workload '$WORKLOAD'" >&2
    exit 2
    ;;
esac
BASE_SEED=${E2E_AB_SEED:-$(($(date +%s) % 1000000 * 100))}

if [ -n "${E2E_AB_DIR:-}" ]; then
    WORK=$E2E_AB_DIR
    mkdir -p "$WORK"
    KEEP_WORK=1
else
    WORK=$(mktemp -d "${TMPDIR:-/tmp}/e2e_ab.XXXXXX")
    KEEP_WORK=0
fi
WORK=$(cd "$WORK" && pwd)
RESULTS="$WORK/results-$WORKLOAD.tsv"
: >"$RESULTS"

cleanup() {
    for side in parent change; do
        if [ -d "$WORK/$side" ]; then
            git -C "$REPO" worktree remove --force "$WORK/$side" >/dev/null 2>&1 || true
        fi
    done
    git -C "$REPO" worktree prune
    if [ "$KEEP_WORK" = 0 ]; then
        rm -rf "$WORK"
    fi
}
trap cleanup EXIT

echo "e2e_ab.sh: parent $PARENT"
echo "e2e_ab.sh: change $CHANGE"
echo "e2e_ab.sh: $WORKLOAD, $PAIRS pairs, --seconds $SECONDS_PER_RUN, seeds $((BASE_SEED + 1))..$((BASE_SEED + PAIRS))"

for side in parent change; do
    rev=$PARENT
    [ "$side" = change ] && rev=$CHANGE
    git -C "$REPO" worktree remove --force "$WORK/$side" >/dev/null 2>&1 || true
    git -C "$REPO" worktree add --detach --quiet "$WORK/$side" "$rev"
    echo "e2e_ab.sh: building $side"
    CARGO_TARGET_DIR="$WORK/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$WORK/$side/e2ebench/Cargo.toml" --bin e2e
done

FAILED=0
run_side() {
    local side=$1 pair=$2 seed=$3 out
    # Run inside the side's checkout: e2e keeps its scratch trace under
    # the working directory.
    if ! out=$(cd "$WORK/$side" && "$WORK/target-$side/release/e2e" \
        --workload "$WORKLOAD" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0); then
        FAILED=1
        echo "e2e_ab.sh: $side run of pair $pair (seed $seed) failed" >&2
    fi
    local line
    # `|| true`: with no result line grep fails, and under `set -e`
    # that would end the whole comparison here.
    line=$(printf '%s\n' "$out" | grep '^{"correct"' | tail -n 1) || true
    if [ -z "$line" ]; then
        echo "e2e_ab.sh: $side run of pair $pair printed no result line" >&2
        FAILED=1
        return
    fi
    printf '%s\t%s\t%s\n' "$side" "$pair" "$line" >>"$RESULTS"
}

for pair in $(seq 1 "$PAIRS"); do
    seed=$((BASE_SEED + pair))
    if [ $((pair % 2)) = 1 ]; then
        order="parent change"
    else
        order="change parent"
    fi
    for side in $order; do
        run_side "$side" "$pair" "$seed"
    done
    echo "e2e_ab.sh: pair $pair/$PAIRS done (seed $seed, $order)"
done

python3 - "$RESULTS" "$WORK/change/BENCHMARK.json" "$WORKLOAD" <<'EOF'
import json
import statistics
import sys

results, benchmark, workload = sys.argv[1:]
runs = {}
failed = {"parent": 0, "change": 0}
for line in open(results):
    side, pair, doc = line.rstrip("\n").split("\t", 2)
    doc = json.loads(doc)
    failed[side] += doc.get("failed", 0)
    runs.setdefault(int(pair), {})[side] = {
        name: m["value"] for name, m in doc["metrics"].items()
    }
defs = {d["name"]: d for d in json.load(open(benchmark))["end_to_end"]}
pairs = {p: r for p, r in runs.items() if "parent" in r and "change" in r}
print(f"\n{workload}: {len(pairs)} complete pairs; failed checks: "
      f"parent {failed['parent']}, change {failed['change']}")
print("| metric | parent median (q1–q3) | change median (q1–q3) | change vs parent "
      "| pairs won | bound | verdict |")
print("|---|---|---|---|---|---|---|")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


for name, d in defs.items():
    both = [(r["parent"][name], r["change"][name]) for r in pairs.values()
            if name in r["parent"] and name in r["change"]]
    if not both:
        continue
    a = [p for p, _ in both]
    b = [c for _, c in both]
    ma, mb = statistics.median(a), statistics.median(b)
    (qa1, qa3), (qb1, qb3) = quartiles(a), quartiles(b)
    lower = d["better"] == "lower"
    won = sum(1 for p, c in both if (c < p if lower else c > p))
    rel = (mb - ma) / ma if ma else 0.0
    worse = rel if lower else -rel
    spread = max((qa3 - qa1) / ma if ma else 0.0, (qb3 - qb1) / mb if mb else 0.0)
    separated = max(b) < min(a) if lower else min(b) > max(a)
    if worse > d["bound"]:
        verdict = "regression"
    elif 10 * won >= 9 * len(both) and (ma - mb if lower else mb - ma) > qa3 - qa1:
        verdict = "gain"
    elif spread > d["bound"] and not separated:
        verdict = "unresolved"
    else:
        verdict = "no claim"
    print(f"| `{name}` | {ma:.4g} ({qa1:.4g}–{qa3:.4g}) | {mb:.4g} ({qb1:.4g}–{qb3:.4g}) "
          f"| {100 * rel:+.1f}% | {won}/{len(both)} | {d['bound']} | {verdict} |")
EOF
exit "$FAILED"
