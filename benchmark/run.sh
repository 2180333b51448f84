#!/usr/bin/env bash
# Build the benchmark offline, then run every workload untraced (end-to-end
# metrics) and traced (per-layer metrics), one process per run, and print
# every metric by name with its unit.
#
#   benchmark/run.sh [--seed N] [--seconds N] [--threads N] [--out DIR]
#
# Exits 1 if any check of any run failed, if the untraced and the traced run
# of a workload disagree on sim_digest (harness tracing must not perturb the
# simulation, and the simulation must repeat across processes), or if the
# timed section spends 2 % or more of its time outside every span.
set -u
cd "$(dirname "$0")/.."

seed=0
seconds=20
threads=()
out=benchmark/out
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=${2:?--seed needs a value}; shift 2 ;;
        --seconds) seconds=${2:?--seconds needs a value}; shift 2 ;;
        --threads) threads=(--threads "${2:?--threads needs a value}"); shift 2 ;;
        --out) out=${2:?--out needs a value}; shift 2 ;;
        *) echo "error: unknown flag '$1'; known: --seed, --seconds, --threads, --out" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --manifest-path benchmark/Cargo.toml || exit 2
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/pic-benchmark
mkdir -p "$out"

# The value of metric $2 in the run log $1.
metric() { awk -v name="$2" '$1 == name { print $2 }' "$1"; }

status=0
for workload in $("$bin" --list | grep -v '^ '); do
    for trace in 0 1; do
        log=$out/$workload.trace$trace.log
        echo "== $workload --trace $trace (log: $log)"
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            "${threads[@]}" > "$log"
        code=$?
        grep -v '^{' "$log"
        if [ $code -ne 0 ]; then
            echo "FAILED: $workload --trace $trace exited with code $code"
            status=1
        fi
    done
    untraced=$out/$workload.trace0.log
    traced=$out/$workload.trace1.log
    if [ "$(metric "$untraced" sim_digest)" != "$(metric "$traced" sim_digest)" ]; then
        echo "FAILED: $workload: sim_digest differs between the untraced and the traced run"
        status=1
    fi
    # The box's own noise between two processes exceeds 10 %, so the ratio is
    # printed with a warning, not gated; harness.spans bounds what the harness
    # itself adds (two clock reads per span).
    awk -v w="$workload" -v wall="$(metric "$untraced" wall_s)" \
        -v rep="$(metric "$traced" harness.rep_wall_s)" \
        -v un="$(metric "$traced" harness.unattributed_s)" 'BEGIN {
            x = rep / wall
            printf "%s harness.trace_overhead_x %.4f x (traced rep %s s / untraced median %s s)%s\n",
                w, x, rep, wall, (x < 1.10 ? "" : "  WARNING: not below 1.10")
            share = un / rep
            printf "%s harness.unattributed_share %.5f%s\n", w, share,
                (share < 0.02 ? "" : "  FAILED: 2 % or more of the timed section is in no span")
            exit !(share < 0.02)
        }' || status=1
done
exit $status
