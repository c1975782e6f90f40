#!/usr/bin/env bash
# Golden stdout for every experiment binary.
#
# The simulation is bit-reproducible, so the bytes each `expN` prints
# are a function of the source tree alone. `golden/<bin>.txt` holds
# them (stdout only; wall-time notes go to stderr) for all 17 binaries
# plus the two `--short` presets CI uses, and `golden/examples/<name>.txt`
# holds each `examples/<name>.rs`'s, so the examples are checked
# documentation rather than prose that drifts. A change that must not move a
# simulated number is checked by one command: equal to the checked-in
# bytes on every run, which also subsumes "equal to the previous run".
# `cargo test` asks the same question in its own profile
# (crates/bench/tests/golden.rs and tests/examples.rs); this script is
# how the files are written, and a quick release-only check.
# The bytes were written on one machine and are compared on every other:
# that assumes float formatting and libm agree across hosts, as the
# BENCH_* checksums already do — a platform that disagrees shows up here
# as a diff in a printed digit, not as a bug in the change under test.
#
# Usage:
#   scripts/golden.sh check   # build, run the 19 and the examples, cmp
#                             # against golden/
#   scripts/golden.sh write   # build, run the 19 and the examples, replace
#                             # golden/
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=${1:-check}
case "$MODE" in write | check) ;; *)
    echo "usage: scripts/golden.sh [write|check]" >&2
    exit 2
    ;;
esac

cargo build --offline --release -p requiem-bench
cargo build --offline --release -p requiem --examples

# "<golden file stem>:<binary under target/release> [args]"
RUNS=()
for src in crates/bench/src/bin/exp*.rs; do
    bin=$(basename "$src" .rs)
    RUNS+=("$bin:$bin")
done
RUNS+=("exp16_aging.short:exp16_aging --short" "exp17_shard_sweep.short:exp17_shard_sweep --short")
for src in examples/*.rs; do
    ex=examples/$(basename "$src" .rs)
    RUNS+=("$ex:$ex")
done

mkdir -p golden/examples
out=$(mktemp)
err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT
fail=0
for run in "${RUNS[@]}"; do
    want=golden/${run%%:*}.txt
    read -r -a cmd <<<"${run#*:}"
    if ! "target/release/${cmd[0]}" "${cmd[@]:1}" >"$out" 2>"$err"; then
        # the binaries assert their own claims: a panic is a verdict too
        # (its golden file, if any, is left as it was)
        echo "golden: FAIL ${run#*:} exited non-zero:"
        tail -n 20 "$err"
        fail=$((fail + 1))
    elif [ "$MODE" = write ]; then
        cat "$out" >"$want"
    elif ! cmp -s "$out" "$want"; then
        echo "golden: FAIL ${run#*:} differs from $want"
        diff -u "$want" "$out" | head -40 || true
        fail=$((fail + 1))
    fi
done
ok=$((${#RUNS[@]} - fail))
if [ "$MODE" = write ]; then
    echo "golden: wrote $ok of ${#RUNS[@]} files under golden/"
else
    echo "golden: $ok of ${#RUNS[@]} outputs byte-identical"
fi

[ "$fail" -eq 0 ]
