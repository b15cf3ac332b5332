#!/usr/bin/env bash
# Runs the benchmark in alternating pairs: a commit against the working tree.
#
#   bash scripts/benchpairs.sh <ref> <workload> <seed> <pairs>
#
#   bash scripts/benchpairs.sh HEAD~1 sharing-rmw 23 10
#
# Run from anywhere inside the repository. <ref> is exported with git archive
# into .bench_build/benchpairs/ref/; the working tree is benchmarked as it is,
# uncommitted edits included. Each pair runs both sides once with
# perfbench/run.sh at BENCHMARK.json's run_seconds, the reference first in odd
# pairs and the working tree first in even ones, so drift in the host's speed
# lands on both sides. For every end-to-end metric in BENCHMARK.json it then
# prints each side's median and quartiles over the pairs, and in how many
# pairs the working tree read better (ties count for neither side). Every
# file it writes goes under .bench_build/: the export, both builds and each
# run's JSON line (.bench_build/benchpairs/runs/).
set -euo pipefail
if [ $# -ne 4 ]; then
	echo "usage: $0 <ref> <workload> <seed> <pairs>" >&2
	exit 2
fi
ref=$1 workload=$2 seed=$3 pairs=$4
root="$(git rev-parse --show-toplevel)"
out="$root/.bench_build/benchpairs"
rev="$(git -C "$root" rev-parse --verify "$ref^{commit}")"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"

rm -rf "$out/ref" "$out/runs"
mkdir -p "$out/ref" "$out/runs"
git -C "$root" archive "$rev" | tar -x -C "$out/ref"

# run <side> <pair>: one benchmark run of a side, from its own checkout,
# keeping the last line of its output (the JSON result).
run() {
	local dir=$root
	if [ "$1" = ref ]; then
		dir=$out/ref
	fi
	(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0) | tail -n 1 >"$out/runs/$1-$2.json"
	echo "pair $2: $1 done" >&2
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run ref "$i"
		run work "$i"
	else
		run work "$i"
		run ref "$i"
	fi
done

echo "$workload seed $seed, $pairs pairs of ${seconds}s runs: ref ${rev:0:12} vs working tree"
python3 - "$root/BENCHMARK.json" "$out/runs" "$pairs" <<'EOF'
import json, statistics, sys

bench, runs, pairs = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3])
res = {side: [json.load(open(f"{runs}/{side}-{i}.json")) for i in range(1, pairs + 1)]
       for side in ("ref", "work")}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))

for side in ("ref", "work"):
    failed = sum(r["failed"] for r in res[side])
    print(f"{side}: failed {failed} of {sum(r['attempted'] for r in res[side])} requests")
print(f"{'metric':<22}{'ref median [q1-q3]':>34}{'work median [q1-q3]':>34}{'wins':>8}")
for m in bench["end_to_end"]:
    name, sign = m["name"], 1 if m["better"] == "higher" else -1
    ref = [r["metrics"].get(name, {}).get("value") for r in res["ref"]]
    work = [r["metrics"].get(name, {}).get("value") for r in res["work"]]
    if None in ref or None in work:
        continue
    wins = sum(sign * (w - r) > 0 for r, w in zip(ref, work))
    cols = []
    for xs in (ref, work):
        q1, q2, q3 = quartiles(xs)
        cols.append(f"{q2:.6g} [{q1:.6g}-{q3:.6g}]")
    print(f"{name:<22}{cols[0]:>34}{cols[1]:>34}{wins:>5}/{pairs}")
EOF
