#!/usr/bin/env bash
# Golden stdout for every experiment binary.
#
# The simulation is bit-reproducible, so the bytes each `expN` prints
# are a function of the source tree alone. `golden/<bin>.txt` holds
# them (stdout only; wall-time notes go to stderr) for all 17 binaries
# plus the two `--short` presets CI uses. A change that must not move a
# simulated number is checked by one command: equal to the checked-in
# bytes on every run, which also subsumes "equal to the previous run".
#
# Usage:
#   scripts/golden.sh check   # build, run the 19, cmp against golden/
#   scripts/golden.sh write   # build, run the 19, replace golden/
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=${1:-check}
case "$MODE" in write | check) ;; *)
    echo "usage: scripts/golden.sh [write|check]" >&2
    exit 2
    ;;
esac

cargo build --offline --release -p requiem-bench

# "<golden file stem>:<binary> [args]"
RUNS=()
for src in crates/bench/src/bin/exp*.rs; do
    bin=$(basename "$src" .rs)
    RUNS+=("$bin:$bin")
done
RUNS+=("exp16_aging.short:exp16_aging --short" "exp17_shard_sweep.short:exp17_shard_sweep --short")

mkdir -p golden
out=$(mktemp)
trap 'rm -f "$out"' EXIT
fail=0
for run in "${RUNS[@]}"; do
    want=golden/${run%%:*}.txt
    read -r -a cmd <<<"${run#*:}"
    "target/release/${cmd[0]}" "${cmd[@]:1}" >"$out" 2>/dev/null
    if [ "$MODE" = write ]; then
        cat "$out" >"$want"
    elif ! cmp -s "$out" "$want"; then
        echo "golden: FAIL ${run#*:} differs from $want"
        diff -u "$want" "$out" | head -40 || true
        fail=1
    fi
done
if [ "$MODE" = write ]; then
    echo "golden: wrote ${#RUNS[@]} files under golden/"
elif [ "$fail" -eq 0 ]; then
    echo "golden: ok, ${#RUNS[@]} outputs byte-identical"
fi
exit $fail
