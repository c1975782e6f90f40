#!/usr/bin/env bash
# Perf gate for the deterministic micro-bench binaries.
#
# The bench binaries (`bench_kernel`: the simulation kernel;
# `bench_stack`: the per-command path from the block stack down) are
# virtual-time deterministic and never read a clock — the determinism
# lint bans wall-clock sources in every simulation-path crate. So this
# script owns the stopwatch: it asks the binary for its sub-benches
# (`--list`), times each (best of 3), composes the binary's
# `BENCH_*.json`, and in check mode fails the build when
#
#   * a sub-bench checksum changed (the deterministic work itself
#     changed — regenerate the JSON deliberately, don't let it drift),
#   * events/sec regressed more than REGRESS_TOL vs the checked-in
#     numbers (machine-dependent, hence the generous tolerance), or
#   * (bench_kernel only) the aggregated-probe sampling path is no
#     longer at least MIN_PROBE_SPEEDUP x the recording-clone baseline
#     (a wall-clock *ratio* on the same machine, so this one is
#     machine-independent).
#
# Every row also carries `ns_per_event` (host nanoseconds per event —
# per simulated command for bench_stack) and `wall_ms_before`: the
# `wall_ms` of the code the row was first written for. `--write` carries
# an existing `wall_ms_before` forward, so a row reads before → after
# across the change that claims a speed-up.
#
# Usage:
#   scripts/perf_gate.sh --write [BIN JSON]   # regenerate JSON
#   scripts/perf_gate.sh check   [BIN JSON]   # gate against JSON
# BIN and JSON default to target/release/bench_kernel and
# BENCH_kernel.json; the stack gate is
#   scripts/perf_gate.sh check target/release/bench_stack BENCH_stack.json
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=${1:-check}
BIN=${2:-target/release/bench_kernel}
JSON=${3:-BENCH_kernel.json}
REGRESS_TOL=${REGRESS_TOL:-20}      # percent
MIN_PROBE_SPEEDUP=${MIN_PROBE_SPEEDUP:-5}

name=$(basename "$BIN")
[ -x "$BIN" ] || { echo "perf_gate: $BIN missing; build with: cargo build --release -p requiem-bench --bin $name" >&2; exit 1; }
BENCHES=$("$BIN" --list)

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

echo "perf_gate: timing $name sub-benches (best of 3)"
for b in $BENCHES; do run_bench "$b"; done

# bench_kernel's headline pair; other binaries have no such ratio
speedup_x100=
if [ -n "${EPS[probe_aggregated]:-}" ] && [ -n "${EPS[probe_recording_clone]:-}" ]; then
    speedup_x100=$(( EPS[probe_aggregated] * 100 / EPS[probe_recording_clone] ))
    speedup_str=$(printf '%d.%02dx' $((speedup_x100 / 100)) $((speedup_x100 % 100)))
    echo "  probe aggregated-vs-clone speedup: $speedup_str"
fi

json_field() { # file bench field (1 events, 2 checksum, 3 wall_ms, 4 events_per_sec)
    sed -n "s/.*{\"name\":\"$2\",\"events\":\([0-9]*\),\"checksum\":\"\([0-9]*\)\",\"wall_ms\":\([0-9]*\),\"events_per_sec\":\([0-9]*\)[,}].*/\\$3/p" "$1"
}

wall_ms_before() { # bench: the recorded "before", else the recorded wall_ms, else this run's
    local v=
    if [ -f "$JSON" ]; then
        v=$(sed -n "s/.*{\"name\":\"$1\",.*\"wall_ms_before\":\([0-9]*\)}.*/\1/p" "$JSON")
        [ -n "$v" ] || v=$(json_field "$JSON" "$1" 3)
    fi
    echo "${v:-${WALL_MS[$1]}}"
}

case "$MODE" in
--write)
    rows= # composed first: wall_ms_before reads the file about to be replaced
    for b in $BENCHES; do
        ns_x10=$(( WALL_MS[$b] * 10000000 / EVENTS[$b] ))
        rows+=$(printf '    {"name":"%s","events":%s,"checksum":"%s","wall_ms":%s,"events_per_sec":%s,"ns_per_event":%d.%d,"wall_ms_before":%s}' \
            "$b" "${EVENTS[$b]}" "${CHECKSUM[$b]}" "${WALL_MS[$b]}" "${EPS[$b]}" \
            $((ns_x10 / 10)) $((ns_x10 % 10)) "$(wall_ms_before "$b")")$',\n'
    done
    {
        printf '{\n'
        printf '  "_regenerate": "cargo build --release -p requiem-bench --bin %s && scripts/perf_gate.sh --write %s %s (wall-clock best-of-3; events and checksums are deterministic, times are machine-dependent; wall_ms_before is carried forward from the previous file)",\n' "$name" "$BIN" "$JSON"
        if [ -n "$speedup_x100" ]; then
            printf '  "gate": {"regression_tolerance_pct": %s, "min_probe_speedup": %s},\n' "$REGRESS_TOL" "$MIN_PROBE_SPEEDUP"
            printf '  "probe_speedup_x100": %s,\n' "$speedup_x100"
        else
            printf '  "gate": {"regression_tolerance_pct": %s},\n' "$REGRESS_TOL"
        fi
        printf '  "benches": [\n%s\n  ]\n}\n' "${rows%$',\n'}"
    } >"$JSON"
    echo "perf_gate: wrote $JSON"
    ;;
check)
    [ -f "$JSON" ] || { echo "perf_gate: $JSON missing; run scripts/perf_gate.sh --write $BIN $JSON" >&2; exit 1; }
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
    if [ -n "$speedup_x100" ]; then
        if [ "$speedup_x100" -lt $(( MIN_PROBE_SPEEDUP * 100 )) ]; then
            echo "perf_gate: FAIL aggregated-probe speedup $speedup_str < ${MIN_PROBE_SPEEDUP}x"
            fail=1
        else
            echo "perf_gate: ok   aggregated-probe speedup >= ${MIN_PROBE_SPEEDUP}x"
        fi
    fi
    exit $fail
    ;;
*)
    echo "usage: scripts/perf_gate.sh [--write|check] [BIN JSON]" >&2
    exit 2
    ;;
esac
