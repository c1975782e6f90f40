#!/usr/bin/env bash
# Smoke-check the harness itself: formatting, lints, its tests, a --quick
# run of every workload in both modes on two seeds, and that BENCHMARK.json
# lists exactly the metrics the harness prints. Exits non-zero on the first
# failure. (Not wired into ci.yml yet; that is a later change.)
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --release --all-targets --quiet -- -D warnings
cargo test --offline --release --quiet

mkdir -p out
for seed in 11 12; do
  ./run.sh --quick --seed "$seed" >"out/check.$seed.log"
done

python3 - <<'EOF'
import json, re

spec = json.load(open("../BENCHMARK.json"))
runs = {}  # workload -> its result lines: plain, then traced
workload = None
for line in open("out/check.11.log"):
    if line.startswith("{"):
        runs.setdefault(workload, []).append(json.loads(line))
    elif not line.startswith("#"):
        workload = line.split()[0]

def names(key):
    return [m["name"] for m in spec[key]]

for w in names("workloads"):
    plain, traced = runs[w]
    assert list(plain["metrics"]) == names("end_to_end"), f"{w}: end_to_end list differs"
    assert list(traced["metrics"]) == names("per_layer"), f"{w}: per_layer list differs"
    for key, run in (("end_to_end", plain), ("per_layer", traced)):
        for m in spec[key]:
            assert run["metrics"][m["name"]]["unit"] == m["unit"], f"{w} {m['name']}: unit"
    assert all(v["value"] != 0 for v in plain["metrics"].values()), f"{w}: a zero end-to-end metric"
    assert plain["correct"] and traced["correct"], f"{w}: not correct"
for name in names("workloads") + names("end_to_end") + names("per_layer"):
    assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
print("BENCHMARK.json matches the harness:",
      len(names("workloads")), "workloads,", len(names("end_to_end")), "end-to-end and",
      len(names("per_layer")), "per-layer metrics")
EOF
