#!/usr/bin/env bash
# The CI gates, one function per step of .github/workflows/ci.yml. The
# workflow calls this script once per step, so a local run checks what
# CI checks:
#
#   scripts/ci.sh <step>   run one step
#   scripts/ci.sh all      run every step in workflow order, keep going
#                          after a failure, then print one summary line
#                          per step (name, seconds, exit)
#   scripts/ci.sh list     print the step names in workflow order
#
# Each step runs from the repo root under `set -eo pipefail`, in a
# subshell of its own. Scratch files go under target/ci/, which persists
# between steps: a step that reads an earlier step's output names that
# step when the output is missing.
set -uo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
ci=$root/target/ci
B=$root/target/release/lh-experiments
url=http://127.0.0.1:7878

steps=(build test release-tests fmt clippy rustdoc mutate hygiene
    harness-smoke warm distributed worker-kill watch serve bench-trend
    catalogue-default benchmark bench-timing trace events)

# The experiments whose quick envelopes are committed in full under
# crates/bench/snapshots/ (read by crates/bench/snapshots/README.md).
snapshotted="fig2 fig3 fig6 fig13 chansweep mitsweep"

# The 22 experiment ids, in catalogue order.
experiments() {
    "$B" list | tail -n +2 | awk '{print $1}'
}

# One field of the JSON object on stdin.
field() {
    python3 -c 'import json,sys; print(json.load(sys.stdin)[sys.argv[1]])' "$1"
}

# `report` over the six snapshotted envelopes named DIR/<id>.SUFFIX.json.
report_snapshotted() { # DIR SUFFIX
    local files=() exp
    for exp in $snapshotted; do
        files+=("$1/$exp.$2.json")
    done
    "$B" report "${files[@]}" --format json
}

# Polls a served run until it is done, at most TRIES times PAUSE apart;
# a failed run fails the step.
poll_done() { # ID TRIES PAUSE
    local i status
    for i in $(seq 1 "$2"); do
        status=$(curl -sf "$url/runs/$1" | field status)
        [ "$status" = "done" ] && return
        if [ "$status" = "failed" ]; then
            echo "::error::serve run failed"
            curl -s "$url/runs/$1"
            exit 1
        fi
        sleep "$3"
    done
}

# An input this step reads from an earlier step: it must exist and be
# no older than the binary that step ran.
need() { # PATH STEP
    if [ ! -e "$1" ] || { [ "$1" != "$B" ] && [ "$B" -nt "$1" ]; }; then
        echo "::error::${1#"$root"/} is missing or stale: run scripts/ci.sh $2 first"
        exit 1
    fi
}

# Empties this step's scratch directory and enters it.
scratch() { # NAME
    rm -rf "${ci:?}/$1"
    mkdir -p "$ci/$1"
    cd "$ci/$1"
}

step_build() {
    cargo build --release --workspace
}

step_test() {
    cargo test -q --workspace
}

step_release-tests() {
    # The table-vs-oracle checks and the closed-loop digests, in the
    # build every shipped binary uses: without the debug_assertions
    # shadows, the tests' own assertions are the only check.
    cargo test --release -q -p lh-memctrl --test properties
    # Fig. 13's PRAC and PRAC-Bank cells replay the undefended run
    # when its certificate admits them; in release too, each
    # replay must equal a forced simulation.
    cargo test --release -q -p leakyhammer --lib replayed_cells_equal_a_forced_simulation
}

step_fmt() {
    cargo fmt --all --check
}

step_clippy() {
    cargo clippy --workspace --all-targets -- -D warnings
}

step_rustdoc() {
    # An item demoted from `pub` can orphan an intra-doc link in
    # public docs; rustdoc only warns, so deny its warnings here.
    # Most modules are private, so document private items too, or
    # their intra-doc links are never resolved.
    RUSTDOCFLAGS="-D warnings --document-private-items" cargo doc --workspace --no-deps
}

step_mutate() {
    # Every committed mutant must turn the test target its patch
    # names red, on a scratch copy of the tree whose targets are
    # green unmodified; a mutant that survives, stops applying or
    # stops compiling fails the build.
    mkdir -p "$ci"
    TMPDIR=$ci scripts/mutate.sh
}

step_hygiene() {
    # All JSON goes through lh_harness::json; a derive or manifest
    # edge naming serde would be decoration again.
    if grep -rnE '\bserde\b' --include=Cargo.toml --include=Cargo.lock --include='*.rs' crates src tests examples Cargo.toml Cargo.lock; then
        echo "::error::serde is named above; all JSON goes through lh_harness::json"
        exit 1
    fi
    members=$(cargo metadata --offline --no-deps --format-version 1 | python3 -c 'import json, sys; print(len(json.load(sys.stdin)["workspace_members"]))')
    test "$members" -eq 19
    # Every library crate but the compat stand-ins (which mirror
    # upstream APIs) warns on unreachable `pub`, so the clippy
    # step's -D warnings fails on a public item no consumer can
    # name: the public API stays what other crates use.
    status=0
    for lib in crates/*/src/lib.rs; do
        if ! grep -q '^#!\[warn(unreachable_pub)\]$' "$lib"; then
            echo "::error::$lib does not declare #![warn(unreachable_pub)]"
            status=1
        fi
    done
    # The workflow runs exactly this script's steps, in this order,
    # one `run: scripts/ci.sh <step>` line each; the only other run
    # line installs the toolchain.
    workflow=.github/workflows/ci.yml
    called=$(sed -n 's/^ *run: scripts\/ci\.sh \([^ ]*\)$/\1/p' "$workflow")
    runs=$(grep -c '^ *run:' "$workflow")
    if [ "$called" != "$(printf '%s\n' "${steps[@]}")" ] || [ "$runs" -ne $((${#steps[@]} + 1)) ]; then
        echo "::error::$workflow's run lines are not one 'scripts/ci.sh <step>' per step of 'scripts/ci.sh list'"
        diff <(echo "$called") <(printf '%s\n' "${steps[@]}") || true
        status=1
    fi
    for script in scripts/ci.sh scripts/mutate.sh; do
        bash -n "$script"
    done
    exit "$status"
}

step_harness-smoke() {
    need "$B" build
    # Lane-engine identity gate: lanes=K must be byte-identical
    # to solo single-system runs before any envelope produced by
    # lane-batched units — in this process or in a worker child —
    # is trusted. Run it on every core (several lane workers) and
    # pinned to one core (available_parallelism() = 1: one worker).
    cargo test --release -q --test lane_identity
    taskset -c 0 cargo test --release -q --test lane_identity
    # Distinct cache dirs so the --jobs 8 run actually executes
    # units in parallel instead of replaying the first run's
    # merged-result cache entry. fig13 exercises the DAG path
    # (per-cell units feeding off per-mix baseline units).
    scratch harness-smoke
    "$B" fig13 --scale quick --jobs 1 --cache-dir cache-serial --quiet > run1.txt
    "$B" fig13 --scale quick --jobs 8 --cache-dir cache-parallel --quiet > run2.txt
    diff run1.txt run2.txt
    # Warm-cache replay must also be byte-identical.
    "$B" fig13 --scale quick --jobs 8 --cache-dir cache-parallel --quiet > run3.txt
    diff run2.txt run3.txt
}

step_warm() {
    need "$B" build
    # Cold pass populates the cache; the warm pass must be served
    # entirely from merged-result entries — every experiment logs
    # "merged result cached, nothing to do" and no unit executes.
    scratch warm
    "$B" all --scale quick --jobs 8 --cache-dir cache --quiet > cold.txt
    "$B" all --scale quick --jobs 8 --cache-dir cache > warm.txt 2> warm-progress.log
    diff cold.txt warm.txt
    experiments=$("$B" list | tail -n +2 | wc -l)
    cached=$(grep -c "merged result cached, nothing to do" warm-progress.log || true)
    if [ "$cached" -ne "$experiments" ]; then
        echo "::error::warm rerun executed units: only $cached/$experiments experiments were fully cached"
        cat warm-progress.log
        exit 1
    fi
    # The warm JSON path (cache entry parse -> envelope render) is
    # pinned by digest too: every quick envelope re-rendered from
    # the warm cache must hash to its catalogue.quick.sha256 line.
    mkdir -p warm-catalogue
    for exp in $(experiments); do
        "$B" "$exp" --scale quick --format json --cache-dir cache --quiet > "warm-catalogue/$exp.quick.json"
    done
    if ! (cd warm-catalogue && sha256sum -c --quiet "$root/crates/bench/snapshots/catalogue.quick.sha256"); then
        echo "::error::a warm-cache envelope drifted from crates/bench/snapshots/catalogue.quick.sha256 (FAILED lines above)"
        exit 1
    fi
}

step_distributed() {
    need "$B" build
    # The lh-coord coordinator spawns worker child processes and
    # must reproduce in-process envelopes exactly: unit seeds
    # derive per-unit inside the workers, dependency results ship
    # in assignment messages, and results merge in unit order —
    # so placement cannot matter. Reuses the warm step's cold.txt
    # as the in-process reference for `all`, and its cache.
    need "$ci/warm/cold.txt" warm
    need "$ci/warm/cache" warm
    scratch distributed
    "$B" all --scale quick --workers 4 --cache-dir cache --quiet > dist.txt
    diff ../warm/cold.txt dist.txt
    # The cache bytes too: the coordinator's ledger writes every
    # entry, so a --workers cache equals the --jobs cache file for
    # file, and no worker leaves a directory of its own behind.
    diff -r ../warm/cache cache
    if [ -e cache/.workers ]; then
        echo "::error::a --workers run left target/ci/distributed/cache/.workers behind"
        exit 1
    fi
    cd "$root"
    status=0
    for exp in $snapshotted; do
        "$B" "$exp" --scale quick --workers 2 --format json --no-cache --quiet > "$ci/distributed/$exp.dist.json"
        if ! diff -u "crates/bench/snapshots/$exp.quick.json" "$ci/distributed/$exp.dist.json"; then
            echo "::error::$exp --workers 2 envelope drifted from crates/bench/snapshots/$exp.quick.json"
            status=1
        fi
    done
    # Metrics identity under distribution: the deterministic
    # counters aggregated from the --workers 2 envelopes must
    # match the committed metrics report exactly — where a unit
    # ran cannot change what it counted.
    report_snapshotted "$ci/distributed" dist > "$ci/distributed/report.dist.json"
    if ! diff -u crates/bench/snapshots/metrics/report.quick.json "$ci/distributed/report.dist.json"; then
        echo "::error::--workers 2 deterministic metrics drifted from crates/bench/snapshots/metrics/report.quick.json"
        status=1
    fi
    exit "$status"
}

step_worker-kill() {
    need "$B" build
    # LH_COORD_CHAOS=1 makes worker 0 exit abruptly upon its
    # first assignment, before acknowledging it; the coordinator
    # must notice the death, requeue the in-flight unit on the
    # survivor, and still produce the exact committed envelope.
    scratch worker-kill
    LH_COORD_CHAOS=1 "$B" fig13 --scale quick --workers 2 --format json --no-cache --quiet > chaos.json 2> chaos.log
    grep -q "requeueing its in-flight unit" chaos.log
    diff "$root/crates/bench/snapshots/fig13.quick.json" chaos.json
}

step_watch() {
    need "$B" build
    scratch watch
    "$B" fig2 --scale quick --workers 2 --no-cache --stream --quiet \
        | "$B" watch > watch.txt
    grep -q "fig2: finished" watch.txt
    grep -q "watch: 1 experiment(s)" watch.txt
}

step_serve() {
    need "$B" build
    # The resident service must reproduce the CLI byte for byte:
    # submit fig2 over HTTP, poll to completion, and diff the
    # served envelope against the committed snapshot. Then scrape
    # /metrics and check the histogram and fleet-telemetry
    # families made it to the Prometheus page.
    scratch serve
    snap=$root/crates/bench/snapshots
    "$B" serve --addr 127.0.0.1:7878 --workers 2 \
        --cache-dir cache --quiet &
    SERVE_PID=$!
    trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
    for i in $(seq 1 50); do
        curl -sf "$url/healthz" > /dev/null && break
        sleep 0.2
    done
    curl -sf "$url/healthz"
    # A body nesting 20 000 arrays deep is a parse error (400), not
    # a stack overflow: the same service must still answer.
    deep=$(python3 -c "print('[' * 20000, end='')" \
        | curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @- "$url/runs")
    [ "$deep" = "400" ] || { echo "::error::a 20 000-deep body answered $deep, not 400"; exit 1; }
    curl -sf "$url/healthz"
    id=$(curl -sf -X POST "$url/runs" \
        -d '{"experiment": "fig2", "scale": "quick", "seed": 1}' | field id)
    poll_done "$id" 300 0.2
    curl -sf "$url/runs/$id/envelope" > serve-envelope.json
    diff "$snap/fig2.quick.json" serve-envelope.json
    curl -sf "$url/metrics" > metrics.txt
    grep -q '^# TYPE lh_sim_queue_wait histogram' metrics.txt
    grep -q '^lh_sim_queue_wait_bucket{le="' metrics.txt
    grep -q '^# TYPE lh_fleet_workers_alive gauge' metrics.txt
    grep -q '^lh_fleet_worker_units_done{worker="0"}' metrics.txt
    grep -q '^lh_fleet_heartbeats ' metrics.txt
    # The watch dashboard attaches to the same stream URL.
    "$B" watch --url "$url/runs/$id/stream" > serve-watch.txt
    grep -q "fig2: finished" serve-watch.txt
    # Retention: the service holds finished payloads under a fixed
    # 8 MiB budget. Recording fig2 runs carry ~280 KB each, shared
    # between runs of one seed, so 40 of them with seeds of their
    # own turn the budget over: the payload gauge must never
    # pass it, run 1 must be evicted, and its envelope — now read
    # back from the disk cache — must still be the snapshot's
    # bytes, while its stream answers 410.
    budget=8388608
    for i in $(seq 1 40); do
        filler=$(curl -sf -X POST "$url/runs" \
            -d '{"experiment": "fig2", "scale": "quick", "seed": '"$((i + 1))"', "events": true}' | field id)
        poll_done "$filler" 200 0.05
        held=$(curl -sf "$url/metrics" | awk '$1 == "lh_serve_run_payload_bytes" { print $2 }')
        if [ "$held" -gt "$budget" ]; then
            echo "::error::lh-serve holds $held payload bytes after run $filler, over the $budget budget"
            exit 1
        fi
    done
    retained=$(curl -sf "$url/runs/$id" | field retained)
    if [ "$retained" != "False" ]; then
        echo "::error::run $id is still retained after 40 recording runs: eviction is off"
        exit 1
    fi
    curl -sf "$url/runs/$id/envelope" > serve-evicted.json
    diff "$snap/fig2.quick.json" serve-evicted.json
    [ "$(curl -s -o /dev/null -w '%{http_code}' "$url/runs/$id/stream")" = "410" ]
    curl -sf "$url/metrics" > metrics.txt
    grep -q '^lh_serve_envelopes_recovered_total 1$' metrics.txt
    grep -q '^lh_serve_runs_evicted_total [1-9]' metrics.txt
}

step_bench-trend() {
    need "$B" build
    # Every experiment's quick envelope (seed 1), run cold once.
    # The whole catalogue is pinned by digest: each envelope must
    # hash to its line of catalogue.quick.sha256. On a mismatch
    # rerun the named experiment at the parent commit and diff
    # the two envelopes; a deliberate change replaces its line
    # (see crates/bench/snapshots/README.md).
    status=0
    scratch catalogue
    cd "$root"
    for exp in $(experiments); do
        "$B" "$exp" --scale quick --format json --no-cache --quiet > "$ci/catalogue/$exp.quick.json"
    done
    if ! (cd "$ci/catalogue" && sha256sum -c --quiet "$root/crates/bench/snapshots/catalogue.quick.sha256"); then
        echo "::error::a quick-scale envelope drifted from crates/bench/snapshots/catalogue.quick.sha256 (FAILED lines above)"
        status=1
    fi
    # Six fast experiments are also committed in full, so their
    # drift prints as a diff. Any drift in simulator results
    # fails the build; an intentional change must regenerate the
    # snapshot (same command, redirected into the snapshot file)
    # and commit it with an explanation in the same PR.
    for exp in $snapshotted; do
        if ! diff -u "crates/bench/snapshots/$exp.quick.json" "$ci/catalogue/$exp.quick.json"; then
            echo "::error::$exp quick-scale envelope drifted from crates/bench/snapshots/$exp.quick.json (see diff above)"
            status=1
        fi
    done
    # Perf-trend gate on the deterministic counters: aggregate
    # the fresh envelopes with the report subcommand and diff
    # against the committed per-unit/per-experiment counter
    # snapshot. This catches perf-shaped drift (wake counts,
    # command mix, probe traffic) even when a result change is
    # expected, and vice versa. Regenerate alongside the
    # envelopes (crates/bench/snapshots/README.md).
    report_snapshotted "$ci/catalogue" quick > "$ci/catalogue/report.quick.json"
    if ! diff -u crates/bench/snapshots/metrics/report.quick.json "$ci/catalogue/report.quick.json"; then
        echo "::error::deterministic metrics drifted from crates/bench/snapshots/metrics/report.quick.json (see diff above)"
        status=1
    fi
    exit "$status"
}

step_catalogue-default() {
    need "$B" build
    # Quick scale is pinned above; this pins the grids that only
    # Default scale runs (the benchmark's covert_channels workload
    # drives fig3, fig4 and fig6 there). Envelopes are identical at
    # any --jobs. Refresh after a deliberate result change as
    # crates/bench/snapshots/README.md describes.
    scratch catalogue-default
    for exp in $(experiments); do
        "$B" "$exp" --scale default --format json --no-cache --quiet > "$exp.default.json"
    done
    if ! sha256sum -c --quiet "$root/crates/bench/snapshots/catalogue.default.sha256"; then
        echo "::error::a default-scale envelope drifted from crates/bench/snapshots/catalogue.default.sha256 (FAILED lines above)"
        exit 1
    fi
}

step_benchmark() {
    # benchmark/ is a package of its own (BENCHMARK.json's paths):
    # its unit tests pin the spec file, the statistics and
    # compare.py's verdict rules, and the smoke run drives every
    # workload at minimum size with every output check on — the
    # seed-1 cells and command count against fig13.quick.json, the
    # paper-fidelity band, warm-path byte identity, jobs ≡ workers
    # — so a PR that breaks the yardstick fails here, not at the
    # next performance claim. Timing is not judged in CI; claims
    # are measured with alternating parent/change runs and
    # committed as BENCH_<pr>.json (see benchmark/README.md).
    # The build prunes benchmark/Cargo.lock in the working tree;
    # its committed bytes (or a benchmark change's own edit) are
    # put back whatever the outcome.
    mkdir -p "$ci"
    cp benchmark/Cargo.lock "$ci/benchmark-Cargo.lock"
    trap 'cp "$ci/benchmark-Cargo.lock" "$root/benchmark/Cargo.lock"' EXIT
    cargo test --manifest-path benchmark/Cargo.toml
    benchmark/run.sh --smoke
}

step_bench-timing() {
    # Wall-clock timing is advisory — the identity gates above are
    # what fail builds, and a performance claim is a same-host
    # parent/change pair under benchmark/, never a stored number
    # from another runner. The lane_batch bench still hard-asserts
    # lanes=8 ≡ 8x sequential before timing, so a broken engine
    # fails here regardless of the clock. The trend script prints
    # the committed BENCH_*.json series (the benchmark's
    # end-to-end medians per PR) and fails on a file it cannot read.
    cargo bench -p lh-bench --bench lane_batch
    python3 scripts/bench_trend.py
}

step_trace() {
    need "$B" build
    # Wall-clock spans live outside the deterministic envelope;
    # this only checks the exporter produces a valid trace_event
    # document with at least one complete span.
    scratch trace
    "$B" fig2 --scale quick --no-cache --trace-out trace.json --quiet > /dev/null
    python3 - <<'EOF'
import json
doc = json.load(open("trace.json"))
events = doc["traceEvents"]
assert events, "trace has no spans"
for e in events:
    assert e["ph"] == "X" and e["dur"] >= 0 and {"name", "cat", "ts", "pid", "tid"} <= set(e), e
print(f"trace OK: {len(events)} span(s)")
EOF
}

step_events() {
    need "$B" build
    # Flight events are deterministic simulated-time records:
    # schema-validate both exporters, then diff the quick fig2 log
    # against the committed snapshot. Drift means DRAM-command or
    # maintenance behaviour changed; if deliberate, regenerate with
    #   LH_UPDATE_SNAPSHOTS=1 cargo test --release --test events_snapshot
    # and commit the snapshot with an explanation in the same PR.
    scratch events
    snap=$root/crates/bench/snapshots
    "$B" fig2 --scale quick --no-cache --events-out events.ndjson --quiet > /dev/null
    python3 - <<'EOF'
import json
kinds = {"experiment", "unit", "cmd", "maint", "mitigation", "link"}
required = {
    "experiment": {"experiment", "scale", "seed", "units"},
    "unit": {"unit", "index", "events", "dropped"},
    "cmd": {"seg", "t_ns", "cmd", "rank", "bg", "bank"},
    "maint": {"seg", "t_ns", "action", "cause", "rank", "slack_ns"},
    "mitigation": {"seg", "t_ns", "wrapper", "action", "rank", "amount_ns"},
    "link": {"seg", "t_ns", "t_end_ns", "window", "symbol", "events", "verdict"},
}
n = 0
for line in open("events.ndjson"):
    e = json.loads(line)
    assert e["kind"] in kinds, e
    missing = required[e["kind"]] - set(e)
    assert not missing, (e, missing)
    n += 1
assert n > 100, f"suspiciously short event log: {n} line(s)"
print(f"events OK: {n} NDJSON line(s)")
EOF
    "$B" events events.ndjson --chrome events-trace.json --quiet
    python3 - <<'EOF'
import json
doc = json.load(open("events-trace.json"))
events = doc["traceEvents"]
assert events, "event trace is empty"
for e in events:
    assert e["ph"] in ("X", "i", "M"), e
    assert {"name", "pid", "tid"} <= set(e), e
    if e["ph"] == "X":
        assert e["dur"] >= 0 and "ts" in e, e
print(f"event trace OK: {len(events)} record(s)")
EOF
    diff "$snap/events/fig2.quick.ndjson" events.ndjson
    # The events views must digest the log without error.
    "$B" events events.ndjson --summary > /dev/null
    "$B" events events.ndjson --align > /dev/null
    # The ring capacity is part of the cache key: a capped run and
    # a default-capacity run over one cache dir must not replay
    # each other's logs.
    "$B" fig2 --scale quick --cache-dir cache \
        --events-out events-capped.ndjson --events-cap 10 --quiet > /dev/null
    "$B" fig2 --scale quick --cache-dir cache \
        --events-out events-full.ndjson --quiet > /dev/null
    diff "$snap/events/fig2.quick.ndjson" events-full.ndjson
    python3 - <<'EOF'
import json
units = [e for e in map(json.loads, open("events-capped.ndjson")) if e["kind"] == "unit"]
assert units and all(u["events"] == 10 for u in units), units
print(f"capped log OK: {len(units)} unit(s) of 10 events")
EOF
    # Every quick event log is pinned by digest in
    # events.quick.sha256 (mitigation and mitsweep carry the
    # `mitigation` wrapper events no committed log holds). The 22
    # logs total ~550 MB, so each is hashed and deleted before the
    # next one is recorded.
    status=0
    mkdir -p logs && cd logs
    for exp in $(experiments); do
        "$B" "$exp" --scale quick --no-cache --quiet \
            --events-out "$exp.quick.ndjson" > /dev/null
        if ! grep " $exp.quick.ndjson\$" "$snap/events.quick.sha256" | sha256sum -c --quiet; then
            echo "::error::the $exp quick event log drifted from crates/bench/snapshots/events.quick.sha256"
            status=1
        fi
        rm -f "$exp.quick.ndjson"
    done
    exit "$status"
    # With recording *off*, envelopes must not move: the snapshot
    # gates above already ran without --events-out, so any
    # recording bleed-through would have failed them.
}

run_step() { # STEP
    (
        set -eo pipefail
        cd "$root"
        "step_$1"
    )
}

usage() {
    echo "usage: scripts/ci.sh <step> | all | list   (steps: scripts/ci.sh list)" >&2
    exit 2
}

[ "$#" -eq 1 ] || usage
case "$1" in
    list)
        printf '%s\n' "${steps[@]}"
        ;;
    all)
        summary=() failed=0
        for s in "${steps[@]}"; do
            echo "==== scripts/ci.sh $s"
            start=$(date +%s%N)
            run_step "$s"
            rc=$?
            ms=$((($(date +%s%N) - start) / 1000000))
            summary+=("$(printf '%-18s %6d.%01ds  exit %d' "$s" $((ms / 1000)) $((ms % 1000 / 100)) "$rc")")
            [ "$rc" -eq 0 ] || failed=$((failed + 1))
        done
        echo "==== summary"
        printf '%s\n' "${summary[@]}"
        [ "$failed" -eq 0 ] || { echo "$failed of ${#steps[@]} steps failed" >&2; exit 1; }
        ;;
    *)
        printf '%s\n' "${steps[@]}" | grep -qxF -- "$1" || usage
        run_step "$1"
        ;;
esac
