#!/usr/bin/env bash
# Repeatability self-check: builds the harness once, runs every workload
# RUNS times (default 10), each time with another seed, and prints for every
# end-to-end metric its median and its spread — the distance between the
# first and third quartile as a share of the median, which is how the driver
# judges the benchmark.  Fails if a spread exceeds the metric's bound in
# BENCHMARK.json (setup_s excepted, as in the driver) or a run is incorrect.
#
#   bench/repeat.sh                 # all four workloads, 10 runs each
#   RUNS=5 bench/repeat.sh hit_small
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
runs="${RUNS:-10}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
if [ "$#" -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
fi

cargo build --release --quiet --offline --manifest-path bench/Cargo.toml
bin="${CARGO_TARGET_DIR:-bench/target}/release/perfbench"
out="bench/out/repeat"
mkdir -p "$out"

for workload in "${workloads[@]}"; do
    : > "$out/$workload.jsonl"
    for seed in $(seq 1 "$runs"); do
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
            > "$out/$workload.$seed.txt"
        tail -n 1 "$out/$workload.$seed.txt" >> "$out/$workload.jsonl"
        printf '.' >&2
    done
    printf ' %s\n' "$workload" >&2
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
failed = False
for workload in workloads:
    runs = [json.loads(line) for line in open(f"{out}/{workload}.jsonl")]
    if not all(r["correct"] for r in runs):
        print(f"{workload}: a run was incorrect")
        failed = True
    print(f"{workload}  ({len(runs)} runs)")
    print(f"  {'metric':<18}{'median':>14}  {'IQR/median':>10}  {'bound':>6}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        verdict = ""
        if spread > bound and name != "setup_s":
            verdict = "  SPREAD EXCEEDS BOUND"
            failed = True
        elif spread > bound / 3:
            verdict = "  (above a third of the bound)"
        print(f"  {name:<18}{med:>14.4f}  {spread:>10.4f}  {bound:>6}{verdict}")
sys.exit(1 if failed else 0)
EOF
