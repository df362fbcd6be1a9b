#!/usr/bin/env bash
# Interleaved before/after pairs of one benchmark workload.
#
#   scripts/ab.sh <ref> <workload> <pairs> [seed0]
#
# Extracts <ref> (any commit-ish, e.g. HEAD~) into .bench_build/ab/<sha>,
# then runs benchmark/run.sh --workload <workload> --trace 0 <pairs>
# times in that tree (the parent) and in the working tree (the change),
# pair i with seed seed0+i (default 1) and the two runs' order swapped
# every pair, so drift on the machine lands on both sides alike. Each
# run's final JSON line is parsed, and for every end-to-end metric in
# BENCHMARK.json the script prints the parent and change medians, how
# many pairs the change won (by the metric's "better" direction), and a
# two-sided sign-test p; then the same for each request class's
# latency_p50 of a workload with several classes (the end-to-end
# latency_p50_ms is their geometric mean). Run logs stay under .bench_build/ab/runs/; the
# extracted tree is removed on exit. Nothing under benchmark/ changes.
set -euo pipefail
if [ $# -lt 3 ]; then
	echo "usage: $0 <ref> <workload> <pairs> [seed0]" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=$3 seed0=${4:-1}
root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --verify "$ref^{commit}")
base=$root/.bench_build/ab/$sha
runs=$root/.bench_build/ab/runs/$workload
cleanup() { rm -rf "$base"; }
trap cleanup EXIT
rm -rf "$base" "$runs"
mkdir -p "$base" "$runs"
git archive "$sha" | tar -x -C "$base"

run() { # side dir pair seed
	echo "pair $3: $1 (seed $4)" >&2
	if ! (cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$4" --trace 0) >"$runs/$1-$3.log" 2>&1; then
		echo "run failed: $runs/$1-$3.log" >&2
		tail -5 "$runs/$1-$3.log" >&2
		exit 1
	fi
}
for ((i = 0; i < pairs; i++)); do
	seed=$((seed0 + i))
	if ((i % 2 == 0)); then
		run parent "$base" "$i" "$seed"
		run change "$root" "$i" "$seed"
	else
		run change "$root" "$i" "$seed"
		run parent "$base" "$i" "$seed"
	fi
done

python3 - "$runs" "$pairs" "$root/BENCHMARK.json" "$ref" "$workload" <<'EOF'
import json, math, re, statistics, sys

runs, pairs, manifest, ref, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5]

def result(side, i):
    last = None
    for line in open(f"{runs}/{side}-{i}.log"):
        line = line.strip()
        if line.startswith("{"):
            last = line
    return json.loads(last)["metrics"]

def classes(side, i):
    out = {}
    for line in open(f"{runs}/{side}-{i}.log"):
        m = re.match(r"\s*class (\S+)\s+n=\d+\s+latency_p50 ([0-9.]+) ms", line)
        if m:
            out[m.group(1)] = float(m.group(2))
    return out

def sign_p(wins, n):
    if n == 0:
        return 1.0
    k = min(wins, n - wins)
    tail = sum(math.comb(n, j) for j in range(k + 1)) / 2 ** n
    return min(1.0, 2 * tail)

parent = [result("parent", i) for i in range(pairs)]
change = [result("change", i) for i in range(pairs)]
print(f"{workload}: {pairs} interleaved pairs, parent {ref} vs working tree")
print(f"{'metric':<20} {'parent':>12} {'change':>12} {'delta':>8} {'wins':>6} {'sign p':>7}")
def row(name, better, p, c):
    mp, mc = statistics.median(p), statistics.median(c)
    wins = sum(1 for a, b in zip(p, c) if (b < a if better == "lower" else b > a))
    ties = sum(1 for a, b in zip(p, c) if a == b)
    delta = (mc - mp) / mp * 100 if mp else float("nan")
    print(f"{name:<20} {mp:>12.4f} {mc:>12.4f} {delta:>+7.1f}% {wins:>3}/{pairs - ties:<2} {sign_p(wins, pairs - ties):>7.3f}")

for m in json.load(open(manifest))["end_to_end"]:
    name = m["name"]
    if name in parent[0]:
        row(name, m["better"], [r[name]["value"] for r in parent], [r[name]["value"] for r in change])
pc = [classes("parent", i) for i in range(pairs)]
cc = [classes("change", i) for i in range(pairs)]
for cls in pc[0]:
    if all(cls in r for r in pc + cc):
        row(f"p50[{cls}]", "lower", [r[cls] for r in pc], [r[cls] for r in cc])
EOF
