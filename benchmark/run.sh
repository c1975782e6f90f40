#!/usr/bin/env bash
# Build the harness and run it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds X] [--trace 0|1] [--quick]
#
# Without --workload every workload runs, each in a process of its own so
# peak RSS is per workload. Without --trace both modes run: first the plain
# run (end-to-end metrics), then the traced run (per-layer metrics).
# Every metric is printed as `workload metric value unit`; the last line of
# each run is its result as one JSON object. Results also land in
# benchmark/out/. Exits non-zero as soon as a run fails a check.
set -euo pipefail

# The benchmark driver hands us a CARGO_TARGET_DIR relative to where it
# started us; pin it before changing directory.
case "${CARGO_TARGET_DIR:-}" in
  "" | /*) ;;
  *) export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
cd "$(dirname "$0")"

workloads=()
traces=()
pass=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads=("$2"); shift 2 ;;
    --trace) traces=("$2"); shift 2 ;;
    --quick) pass+=("$1"); shift ;;
    *) pass+=("$1" "$2"); shift 2 ;;
  esac
done
[ ${#workloads[@]} -gt 0 ] ||
  workloads=(ssd_randread ssd_overwrite oltp_qd16 oltp_shard4 oltp_coop_pcm gen_zipf)
[ ${#traces[@]} -gt 0 ] || traces=(0 1)

for w in "${workloads[@]}"; do
  for t in "${traces[@]}"; do
    cargo run --release --offline --quiet -- --workload "$w" --trace "$t" ${pass[@]+"${pass[@]}"}
  done
done
