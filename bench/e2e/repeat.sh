#!/usr/bin/env bash
# Repeatability check for the end-to-end benchmark.
#
#   bench/e2e/repeat.sh K [WORKLOAD...]
#
# Runs each workload (all of BENCHMARK.json's by default) 2K times with
# --trace 0 and BENCHMARK.json's run_seconds, alternating between set A
# (seeds 1..K) and set B (seeds 1001..1000+K). For every end-to-end
# metric it prints each set's median and the distance between its first
# and third quartile as a share of that median (Python's
# statistics.quantiles, n=4). It exits 1 when a run fails, when a spread
# (setup_s aside) exceeds the metric's bound, or when the two sets'
# medians differ by more than the bound. Runs are kept in
# bench/e2e/out/repeat/. Use it to set the bounds in BENCHMARK.json.
set -euo pipefail
k=${1:?usage: bench/e2e/repeat.sh K [WORKLOAD...]}
shift
cd "$(dirname "$0")/../.."
if [ $# -gt 0 ]; then
  workloads=("$@")
else
  mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
dune build --root . ./bench/e2e/main.exe
out=bench/e2e/out/repeat
mkdir -p "$out"
rm -f "$out"/*.json
for w in "${workloads[@]}"; do
  for i in $(seq 1 "$k"); do
    for set in A B; do
      seed=$i
      [ "$set" = B ] && seed=$((1000 + i))
      ./_build/default/bench/e2e/main.exe --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tail -n 1 > "$out/$w-$set-$i.json" || echo '{"correct": false}' > "$out/$w-$set-$i.json"
    done
  done
done
python3 - "$k" "${workloads[@]}" <<'PY'
import json, statistics, sys

k, workloads = int(sys.argv[1]), sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
ok = True
print(f"{'workload':10} {'metric':16} {'unit':5} {'median A':>11} {'IQR A':>7} {'median B':>11} {'IQR B':>7} {'diff':>7} {'bound':>6}")
for w in workloads:
    runs = {s: [json.load(open(f"bench/e2e/out/repeat/{w}-{s}-{i}.json")) for i in range(1, k + 1)] for s in "AB"}
    if not all(r.get("correct") for rs in runs.values() for r in rs):
        print(f"{w}: a run failed")
        ok = False
        continue
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med, iqr = {}, {}
        for s, rs in runs.items():
            vals = [r["metrics"][name]["value"] for r in rs]
            med[s] = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            iqr[s] = (q[2] - q[0]) / med[s]
        diff = (med["B"] - med["A"]) / med["A"]
        flags = []
        if name != "setup_s" and max(iqr.values()) > bound:
            flags.append("SPREAD")
        if abs(diff) > bound:
            flags.append("SHIFT")
        ok = ok and not flags
        print(f"{w:10} {name:16} {m['unit']:5} {med['A']:11.4f} {iqr['A']:7.3f} {med['B']:11.4f} {iqr['B']:7.3f} {diff:+7.3f} {bound:6.2f} {' '.join(flags)}")
sys.exit(0 if ok else 1)
PY
