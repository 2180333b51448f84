#!/usr/bin/env bash
# Prove the regression gate bites: push one key of a fresh BENCH_pic.json
# out of its tolerance band, use the result as the baseline, and require
# `pic regress` to reject it with exit 1 (not 0, and not a 2 from a
# broken setup).
#
#   prove_gate_rejects.sh <json-key> <delta> [fresh.json]
#
# The fresh report defaults to target/BENCH_pic.fresh.json and is
# generated first if the job has not produced it yet.
set -euo pipefail

key=$1
delta=$2
fresh=${3:-target/BENCH_pic.fresh.json}
drifted=target/BENCH_pic.drifted-$key.json

regress() {
  cargo run --release -q -p pic-bench --bin pic -- regress --scale 0.05 "$@"
}

[ -f "$fresh" ] || regress --baseline BENCH_pic.json --out "$fresh"

python3 - "$key" "$delta" "$fresh" "$drifted" <<'PY'
import re, sys
key, delta, fresh, drifted = sys.argv[1:]
doc = open(fresh).read()
out = re.sub(r'("%s": )(-?[0-9.eE+-]+)' % re.escape(key),
             lambda m: m.group(1) + str(float(m.group(2)) + float(delta)),
             doc, count=1)
assert out != doc, f'{key} not found in {fresh}'
open(drifted, 'w').write(out)
PY

status=0
regress --baseline "$drifted" --out "target/BENCH_pic.redo-$key.json" || status=$?
if [ "$status" -ne 1 ]; then
  echo "pic regress exited $status on a baseline with $key drifted by $delta; expected 1" >&2
  exit 1
fi
echo "pic regress correctly rejected the baseline with $key drifted by $delta"
