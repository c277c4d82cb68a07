#!/usr/bin/env bash
# Parent vs change, end to end: K alternating pairs of one benchmark workload.
#
#   scripts/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD K [SEED...]
#
# Both directories are checkouts whose benchmark is already built in place:
#
#   (cd DIR && cargo build --release --offline --manifest-path benchmark/Cargo.toml)
#
# Pair i runs both binaries on seed SEED[i mod #seeds] (default 236) with
# `--seconds <run_seconds of BENCHMARK.json> --trace 0`, each from its own
# checkout, and which side goes first alternates: a run leaves the host warmer
# for the one that follows it. The last stdout line of each run is kept in
# CHANGE_DIR/benchmark/out/pairs/.
#
# For every end-to-end metric it prints both medians with their quartiles
# (statistics.quantiles(n=4)), the change's median as a ratio of the parent's,
# the pairs the change won (ties count for neither side) and, last, `failed`
# over `attempted` on each side.
set -euo pipefail

usage="usage: scripts/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD K [SEED...]"
parent="$(cd "${1:?$usage}" && pwd)"
change="$(cd "${2:?$usage}" && pwd)"
workload="${3:?$usage}"
K="${4:?$usage}"
shift 4
seeds=("$@")
[ "${#seeds[@]}" -gt 0 ] || seeds=(236)

bin=benchmark/target/release/ewh-benchmark
for dir in "$parent" "$change"; do
    [ -x "$dir/$bin" ] || {
        echo "$dir/$bin is missing: build it first (see the head of this script)" >&2
        exit 2
    }
done
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$change/BENCHMARK.json")"

out="$change/benchmark/out/pairs"
mkdir -p "$out"
: >"$out/$workload.parent.jsonl"
: >"$out/$workload.change.jsonl"
for i in $(seq 1 "$K"); do
    seed="${seeds[$(((i - 1) % ${#seeds[@]}))]}"
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "pair $i/$K  $workload  seed $seed  $side" >&2
        (cd "${!side}" && "./$bin" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0) | tail -n 1 >>"$out/$workload.$side.jsonl"
    done
done

python3 - "$change/BENCHMARK.json" "$out" "$workload" <<'EOF'
import json, statistics, sys

contract, out, workload = json.load(open(sys.argv[1])), sys.argv[2], sys.argv[3]
runs = {side: [json.loads(line) for line in open(f"{out}/{workload}.{side}.jsonl")]
        for side in ("parent", "change")}

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]

print(f"{workload}: {len(runs['parent'])} pairs")
print(f"{'metric':<22} {'parent median [q1-q3]':>38} {'change median [q1-q3]':>38} "
      f"{'change/parent':>13} {'wins':>7}")
for metric in contract["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
    cells = {}
    for side, v in vals.items():
        lo, hi = quartiles(v)
        cells[side] = f"{statistics.median(v):.6g} [{lo:.6g}-{hi:.6g}]"
    ratio = statistics.median(vals["change"]) / statistics.median(vals["parent"])
    wins = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
    print(f"{name:<22} {cells['parent']:>38} {cells['change']:>38} "
          f"{ratio:>13.3f} {wins:>4}/{len(vals['parent'])}")
for side, rs in runs.items():
    failed, attempted = sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)
    incorrect = sum(not r["correct"] for r in rs)
    print(f"{side}: failed {failed} of {attempted} attempted, {incorrect} run(s) not correct")
EOF
