#!/usr/bin/env bash
# The LeakyHammer benchmark's one command: builds the package, runs each
# workload in a process of its own, prints every metric by name with its
# unit, and checks the outputs. See README.md beside this file.
#
#   benchmark/run.sh                       all four workloads, seed 1
#   benchmark/run.sh --traced              ... plus the traced pass (per-layer metrics)
#   benchmark/run.sh --workload NAME       one workload
#   benchmark/run.sh --seed N              another seed (skips the seed-1 snapshot checks)
#   benchmark/run.sh --smoke               minimum size, one repetition, every check
#   benchmark/run.sh --runs N --out FILE   N runs per workload on seeds N0..N0+N-1,
#                                          collected for compare.py
#
# The driver's form is also accepted:
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# and then the last line of standard output is the run's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

workloads=(perf_sweep covert_channels resident_warm all_quick_cold)
workload=""
seed=1
seconds=""
trace=""
traced=0
smoke=0
runs=1
out=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --traced) traced=1; shift ;;
        --smoke) smoke=1; shift ;;
        --runs) runs="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        -h|--help) sed -n '2,17p' "$0"; exit 0 ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

# glibc raises its mmap threshold as large blocks are freed, and calloc
# must then clear recycled heap memory that fresh pages would have left
# untouched: the same run reads 26 MB or 517 MB of peak memory depending
# on the length of its command line. Pinning the threshold (1 MiB: the
# simulator's multi-megabyte tables always come from fresh pages) makes
# peak_rss_mb a property of the program. The setting is part of the
# benchmark and the same for every commit measured.
export MALLOC_MMAP_THRESHOLD_=1048576

# Build. Standard output is kept for results; cargo reports on stderr.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/lh-benchmark"
mkdir -p benchmark/out

run_one() { # workload seed trace
    local args=(--workload "$1" --seed "$2" --trace "$3" --root "$root")
    [ -n "$seconds" ] && args+=(--seconds "$seconds")
    [ "$smoke" = 1 ] && args+=(--smoke)
    "$bin" "${args[@]}"
}

# Driver form: one workload, one pass, result line last.
if [ -n "$workload" ] && [ -n "$trace" ]; then
    run_one "$workload" "$seed" "$trace"
    exit
fi

[ -n "$workload" ] && workloads=("$workload")
passes=(0)
[ "$traced" = 1 ] && passes=(0 1)
[ -n "$trace" ] && passes=("$trace")
results="$(mktemp benchmark/out/results.XXXXXX)"
trap 'rm -f "$results"' EXIT
status=0
for w in "${workloads[@]}"; do
    for ((i = 0; i < runs; i++)); do
        for t in "${passes[@]}"; do
            s=$((seed + i))
            echo "== $w seed=$s trace=$t =="
            if output="$(run_one "$w" "$s" "$t")"; then
                echo "$output" | sed '$d'
                line="$(echo "$output" | tail -n 1)"
                case "$line" in *'"correct":true'*) ;; *) status=1; echo "run.sh: $w reported incorrect outputs" >&2 ;; esac
                digest="$(echo "$output" | sed -n 's/^info sim_digest //p')"
                echo "{\"workload\":\"$w\",\"seed\":$s,\"trace\":$t,\"sim_digest\":\"$digest\",\"result\":$line}" >>"$results"
            else
                status=1
                echo "run.sh: $w (seed $s, trace $t) failed" >&2
            fi
        done
    done
done
if [ -n "$out" ]; then
    { echo '{"runs":['; paste -sd, "$results"; echo ']}'; } >"$out"
    echo "wrote $out"
fi
exit $status
