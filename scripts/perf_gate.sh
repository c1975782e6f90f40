#!/usr/bin/env bash
# Perf gate for the simulation kernel.
#
# The bench binary (`bench_kernel`) is virtual-time deterministic and
# never reads a clock — the determinism lint bans wall-clock sources in
# every simulation-path crate. So this script owns the stopwatch: it
# times each sub-bench (best of 3), composes `BENCH_kernel.json`, and in
# check mode fails the build when
#
#   * a sub-bench checksum changed (the deterministic work itself
#     changed — regenerate the JSON deliberately, don't let it drift),
#   * events/sec regressed more than REGRESS_TOL vs the checked-in
#     numbers (machine-dependent, hence the generous tolerance), or
#   * the aggregated-probe sampling path is no longer at least
#     MIN_PROBE_SPEEDUP x the recording-clone baseline (a wall-clock
#     *ratio* on the same machine, so this one is machine-independent).
#
# Usage:
#   scripts/perf_gate.sh --write   # regenerate BENCH_kernel.json
#   scripts/perf_gate.sh check     # gate against BENCH_kernel.json
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${BENCH_KERNEL_BIN:-target/release/bench_kernel}
JSON=BENCH_kernel.json
BENCHES="queue_churn blame_alloc blame_scratch probe_recording_clone probe_aggregated zipf_sample"
REGRESS_TOL=${REGRESS_TOL:-20}      # percent
MIN_PROBE_SPEEDUP=${MIN_PROBE_SPEEDUP:-5}

[ -x "$BIN" ] || { echo "perf_gate: $BIN missing; build with: cargo build --release -p requiem-bench --bin bench_kernel" >&2; exit 1; }

declare -A EVENTS CHECKSUM WALL_MS EPS

run_bench() {
    local name=$1 best_ms=0 out s e ms
    for _ in 1 2 3; do
        s=$(date +%s%N)
        out=$("$BIN" "$name")
        e=$(date +%s%N)
        ms=$(( (e - s) / 1000000 )); [ "$ms" -lt 1 ] && ms=1
        if [ "$best_ms" -eq 0 ] || [ "$ms" -lt "$best_ms" ]; then best_ms=$ms; fi
    done
    EVENTS[$name]=$(sed -n 's/.*events=\([0-9]*\).*/\1/p' <<<"$out")
    CHECKSUM[$name]=$(sed -n 's/.*checksum=\([0-9]*\).*/\1/p' <<<"$out")
    WALL_MS[$name]=$best_ms
    EPS[$name]=$(( EVENTS[$name] * 1000 / best_ms ))
    echo "  $name: events=${EVENTS[$name]} wall_ms=${best_ms} events/sec=${EPS[$name]}"
}

echo "perf_gate: timing kernel sub-benches (best of 3)"
for b in $BENCHES; do run_bench "$b"; done

speedup_x100=$(( EPS[probe_aggregated] * 100 / EPS[probe_recording_clone] ))
speedup_str=$(printf '%d.%02dx' $((speedup_x100 / 100)) $((speedup_x100 % 100)))
echo "  probe aggregated-vs-clone speedup: $speedup_str"

json_field() { # file bench field
    sed -n "s/.*{\"name\":\"$2\",\"events\":\([0-9]*\),\"checksum\":\"\([0-9]*\)\",\"wall_ms\":\([0-9]*\),\"events_per_sec\":\([0-9]*\)}.*/\\$3/p" "$1"
}

case "${1:-check}" in
--write)
    {
        printf '{\n'
        printf '  "_regenerate": "cargo build --release -p requiem-bench --bin bench_kernel && scripts/perf_gate.sh --write (wall-clock best-of-3; events and checksums are deterministic, times are machine-dependent)",\n'
        printf '  "gate": {"regression_tolerance_pct": %s, "min_probe_speedup": %s},\n' "$REGRESS_TOL" "$MIN_PROBE_SPEEDUP"
        printf '  "probe_speedup_x100": %s,\n' "$speedup_x100"
        printf '  "benches": [\n'
        first=1
        for b in $BENCHES; do
            [ $first -eq 0 ] && printf ',\n'
            first=0
            printf '    {"name":"%s","events":%s,"checksum":"%s","wall_ms":%s,"events_per_sec":%s}' \
                "$b" "${EVENTS[$b]}" "${CHECKSUM[$b]}" "${WALL_MS[$b]}" "${EPS[$b]}"
        done
        printf '\n  ]\n}\n'
    } >"$JSON"
    echo "perf_gate: wrote $JSON"
    ;;
check)
    [ -f "$JSON" ] || { echo "perf_gate: $JSON missing; run scripts/perf_gate.sh --write" >&2; exit 1; }
    fail=0
    for b in $BENCHES; do
        want_sum=$(json_field "$JSON" "$b" 2)
        want_eps=$(json_field "$JSON" "$b" 4)
        if [ -z "$want_sum" ] || [ -z "$want_eps" ]; then
            echo "perf_gate: FAIL $b not found in $JSON (regenerate with --write)"; fail=1; continue
        fi
        if [ "${CHECKSUM[$b]}" != "$want_sum" ]; then
            echo "perf_gate: FAIL $b checksum ${CHECKSUM[$b]} != recorded $want_sum (deterministic work changed; regenerate $JSON deliberately)"
            fail=1
        fi
        floor=$(( want_eps * (100 - REGRESS_TOL) / 100 ))
        if [ "${EPS[$b]}" -lt "$floor" ]; then
            echo "perf_gate: FAIL $b events/sec ${EPS[$b]} < floor $floor (recorded $want_eps, tolerance ${REGRESS_TOL}%)"
            fail=1
        else
            echo "perf_gate: ok   $b events/sec ${EPS[$b]} >= floor $floor"
        fi
    done
    if [ "$speedup_x100" -lt $(( MIN_PROBE_SPEEDUP * 100 )) ]; then
        echo "perf_gate: FAIL aggregated-probe speedup $speedup_str < ${MIN_PROBE_SPEEDUP}x"
        fail=1
    else
        echo "perf_gate: ok   aggregated-probe speedup >= ${MIN_PROBE_SPEEDUP}x"
    fi
    exit $fail
    ;;
*)
    echo "usage: scripts/perf_gate.sh [--write|check]" >&2
    exit 2
    ;;
esac
