#!/usr/bin/env bash
# Run the plain suite twice back to back and compare the two sets.
#
#   benchmark/repeat.sh [--seeds K] [--seconds X] [--workload W]
#
# Each set runs every workload listed in ../BENCHMARK.json once per seed
# (seeds 11 .. 11+K-1, default K = 1) through the contract's own command.
# benchmark/out/repeat.json then holds, per workload x end-to-end metric,
# both sets' medians, their relative difference, each set's spread
# (interquartile range over median, K >= 4) and pass/fail against the
# metric's bound. Simulated metrics repeat exactly, so for `sim_*` any
# difference at all fails. Exits non-zero when something fails.
#
# With --seeds 10 this is the steadiness protocol the benchmark contract
# asks for before a change to the benchmark is accepted.
set -euo pipefail
cd "$(dirname "$0")/.."

seeds=1
seconds=""
only=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seeds) seeds="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workload) only="$2"; shift 2 ;;
    *) echo "repeat.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

exec python3 - "$seeds" "$seconds" "$only" <<'EOF'
import json, statistics, subprocess, sys

seeds, seconds, only = int(sys.argv[1]), sys.argv[2], sys.argv[3]
spec = json.load(open("BENCHMARK.json"))
seconds = seconds or str(spec["run_seconds"])
workloads = [w["name"] for w in spec["workloads"] if only in ("", w["name"])]
runs = {}  # (set, workload) -> list of metrics dicts, one per seed
for s in (1, 2):
    for w in workloads:
        for seed in range(11, 11 + seeds):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", seconds, "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.splitlines()[-1])
            assert result["correct"], f"{w} seed {seed}: run not correct"
            runs.setdefault((s, w), []).append(result["metrics"])
            print(f"set {s} {w} seed {seed} done", flush=True)

def spread(xs):
    if len(xs) < 4:
        return None
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)

rows, ok = [], True
for w in workloads:
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r[name]["value"] for r in runs[(1, w)]]
        b = [r[name]["value"] for r in runs[(2, w)]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        simulated = name.startswith("sim_")
        passed = a == b if simulated else worse <= bound
        spreads = [spread(a), spread(b)]
        if name != "setup_s":
            passed = passed and all(s is None or s <= bound for s in spreads)
        ok = ok and passed
        rows.append({"workload": w, "metric": name, "unit": m["unit"], "bound": bound,
                     "first": ma, "second": mb, "second_worse_by": worse,
                     "spreads": spreads, "pass": passed, "values": [a, b]})
        shown = " ".join("-" if s is None else f"{s:.4f}" for s in spreads)
        print(f"{w:14} {name:17} {ma:14.6g} {mb:14.6g} worse by {worse:+.4f} "
              f"spread {shown} bound {bound} {'ok' if passed else 'FAIL'}")
json.dump({"seeds": seeds, "seconds": float(seconds), "rows": rows},
          open("benchmark/out/repeat.json", "w"), indent=1)
sys.exit(0 if ok else 1)
EOF
