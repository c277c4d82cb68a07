#!/usr/bin/env bash
# A/A check: does the benchmark agree with itself on this host?
#
#   benchmark/aa.sh K [WORKLOAD...]
#
# Runs two sets (A, B) of K end-to-end runs of every workload, run i of both
# sets on seed 1000+i, exactly as BENCHMARK.json's command and run_seconds
# say. The sets alternate, and so does which of them goes first: a run leaves
# the host warmer (sockets, file system) for the run that follows it, and that
# must not fall on one set only.
#
# For every end-to-end metric it prints both medians, their difference as a
# share of the bound, each set's spread (interquartile range over median,
# statistics.quantiles(n=4)) as a share of the bound, and a verdict: `noisy`
# when set B's median is worse than set A's by more than the bound, or when a
# spread other than setup_s's exceeds it. Exits 1 on any `noisy`. Raw result
# lines are kept in benchmark/out/aa/.
set -euo pipefail

K="${1:?usage: benchmark/aa.sh K [WORKLOAD...]}"
shift
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
cd "$root"

mapfile -t command < <(python3 -c '
import json
for part in json.load(open("BENCHMARK.json"))["command"]:
    print(part)')
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
if [ "$#" -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

out="$here/out/aa"
rm -rf "$out"
mkdir -p "$out"
for i in $(seq 1 "$K"); do
    for w in "${workloads[@]}"; do
        if [ $((i % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
        for set in $order; do
            echo "run $i/$K  $w  set $set" >&2
            "${command[@]}" --workload "$w" --seed "$((1000 + i))" --seconds "$seconds" --trace 0 \
                | tail -n 1 >>"$out/$w.$set.jsonl"
        done
    done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
contract = json.load(open("BENCHMARK.json"))
noisy = False
print(f"{'workload':<12} {'metric':<22} {'median A':>14} {'median B':>14} "
      f"{'diff/bound':>10} {'iqrA/bound':>10} {'iqrB/bound':>10}  verdict")
for w in workloads:
    runs = {s: [json.loads(l) for l in open(f"{out}/{w}.{s}.jsonl")] for s in "AB"}
    for s in "AB":
        bad = [r for r in runs[s] if not r["correct"]]
        if bad:
            noisy = True
            print(f"{w:<12} set {s}: {len(bad)} run(s) reported failures")
    for m in contract["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sign = 1.0 if m["better"] == "lower" else -1.0
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in "AB"}
        med = {s: statistics.median(vals[s]) for s in "AB"}
        def spread(v):
            if len(v) < 2:
                return 0.0
            q = statistics.quantiles(v, n=4)
            return (q[2] - q[0]) / statistics.median(v)
        diff = sign * (med["B"] - med["A"]) / med["A"]
        sa, sb = spread(vals["A"]), spread(vals["B"])
        bad = diff > bound or (name != "setup_s" and max(sa, sb) > bound)
        noisy |= bad
        print(f"{w:<12} {name:<22} {med['A']:>14.6g} {med['B']:>14.6g} "
              f"{diff / bound:>+10.2f} {sa / bound:>10.2f} {sb / bound:>10.2f}  "
              f"{'noisy' if bad else 'ok'}")
sys.exit(1 if noisy else 0)
EOF
