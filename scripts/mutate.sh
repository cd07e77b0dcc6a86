#!/usr/bin/env bash
# Mutation check over the committed mutant corpus (tests/mutants/*.patch).
#
# Each mutant is a patch whose header names the test target that must
# catch it, as the arguments to `cargo test`:
#
#   Target: -p lh-memctrl --test properties
#
# The script copies the working tree (without build outputs) to a
# scratch directory, checks that every named target is green there,
# then applies one mutant at a time, runs only its target, and reverts
# it. It fails if a mutant does not apply, does not compile, or leaves
# its target green.
#
# Usage: scripts/mutate.sh [tests/mutants/NAME.patch ...]
# With no arguments it runs every mutant in tests/mutants/. The scratch
# copy lives under $TMPDIR (default /tmp) and is removed on exit.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [ "$#" -eq 0 ]; then
    set -- "$root"/tests/mutants/*.patch
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/lh-mutate.XXXXXX")
trap 'rm -rf "$work"' EXIT
tree=$work/tree
mkdir -p "$tree"
tar -C "$root" --exclude=./target --exclude=./.git --exclude=./benchmark/target \
    --exclude=./.bench_build --exclude=./.lh-cache -cf - . | tar -C "$tree" -xf -
export CARGO_TARGET_DIR=$work/target

target_of() {
    sed -n 's/^Target: //p' "$1" | head -n 1
}

# The unmodified tree must be green on every named target, or a red
# target would prove nothing about its mutant.
targets=$(for m in "$@"; do target_of "$m"; done | sort -u)
while IFS= read -r t; do
    [ -n "$t" ] || continue
    echo "== baseline: cargo test $t"
    # shellcheck disable=SC2086
    if ! (cd "$tree" && cargo test -q $t >"$work/log" 2>&1); then
        tail -n 40 "$work/log"
        echo "error: target '$t' is red on the unmodified tree" >&2
        exit 1
    fi
done <<<"$targets"

status=0
for m in "$@"; do
    name=$(basename "$m" .patch)
    t=$(target_of "$m")
    if [ -z "$t" ]; then
        echo "error: $name names no 'Target:' line" >&2
        status=1
        continue
    fi
    if ! (cd "$tree" && patch -p1 --quiet --forward <"$m"); then
        echo "error: $name no longer applies" >&2
        status=1
        continue
    fi
    # shellcheck disable=SC2086
    if ! (cd "$tree" && cargo test -q --no-run $t >"$work/log" 2>&1); then
        tail -n 20 "$work/log"
        echo "error: $name does not compile" >&2
        status=1
    elif (cd "$tree" && cargo test -q $t >"$work/log" 2>&1); then
        echo "SURVIVED $name: cargo test $t stays green" >&2
        status=1
    else
        echo "killed   $name ($(grep -m1 -oE "panicked at [^:]+:[0-9]+" "$work/log" || echo "target red"))"
    fi
    (cd "$tree" && patch -p1 --quiet --reverse <"$m")
    # Restored files keep their old mtimes; touch them so cargo rebuilds.
    grep '^+++ b/' "$m" | cut -c7- | (cd "$tree" && xargs touch)
done
exit "$status"
