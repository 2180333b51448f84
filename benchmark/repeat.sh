#!/usr/bin/env bash
# Run the whole benchmark twice on the same build and compare the two sets:
# per workload and end-to-end metric the two values, their relative gap and
# the metric's bound from BENCHMARK.json. Exits 1 if a gap exceeds its bound
# in the worse direction, if a run failed, or if sim_digest or any metric
# marked `exact` (counts and simulated figures) differs between the sets.
#
#   benchmark/repeat.sh [run.sh flags]
#
# If a metric does not repeat within its bound, lengthen the measurement
# (--seconds), do not widen the bound.
set -u
cd "$(dirname "$0")/.."

status=0
for set in 1 2; do
    echo "==== set $set"
    benchmark/run.sh "$@" --out "benchmark/out/set$set" > "benchmark/out/set$set.log" 2>&1 || status=1
    grep -E '^(FAILED|error)' "benchmark/out/set$set.log"
done

python3 - <<'EOF' || status=1
import json, re, sys

bench = json.load(open("BENCHMARK.json"))
failed = False

def read(path):
    """Metric values, the digest and the lines marked exact, of one run log."""
    values, exact, digest = {}, [], None
    for line in open(path):
        parts = line.split()
        if line.startswith("sim_digest"):
            digest = parts[1]
        elif len(parts) >= 3 and re.fullmatch(r"-?[0-9.e+-]+", parts[1]):
            values[parts[0]] = float(parts[1])
            if line.rstrip().endswith("exact)"):
                exact.append(line.strip())
    return values, exact, digest

print(f"{'workload':16} {'metric':12} {'set 1':>14} {'set 2':>14} {'worse by':>9} {'bound':>6}")
for w in bench["workloads"]:
    name = w["name"]
    sets = [[read(f"benchmark/out/set{s}/{name}.trace{t}.log") for t in (0, 1)] for s in (1, 2)]
    for m in bench["end_to_end"]:
        a, b = (sets[s][0][0].get(m["name"]) for s in (0, 1))
        if a is None or b is None:
            print(f"{name:16} {m['name']:12} missing")
            failed = True
            continue
        # How much worse the second set is than the first, and the reverse.
        gap = max(b / a, a / b) - 1
        verdict = "" if gap <= m["bound"] else "  FAILED: gap exceeds the bound"
        failed |= gap > m["bound"]
        print(f"{name:16} {m['name']:12} {a:14.4f} {b:14.4f} {gap:8.1%} {m['bound']:6.0%}{verdict}")
    for t in (0, 1):
        if sets[0][t][2] != sets[1][t][2] or sets[0][t][2] is None:
            print(f"{name}: FAILED: sim_digest differs between the sets (--trace {t})")
            failed = True
    if sets[0][1][1] != sets[1][1][1] or not sets[0][1][1]:
        print(f"{name}: FAILED: exact per-layer metrics differ between the sets:")
        for x, y in zip(sets[0][1][1], sets[1][1][1]):
            if x != y:
                print(f"    {x}\n    {y}")
        failed = True
    else:
        print(f"{name}: sim_digest and {len(sets[0][1][1])} exact per-layer metrics identical")
sys.exit(failed)
EOF
exit $status
