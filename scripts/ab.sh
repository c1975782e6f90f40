#!/usr/bin/env bash
# A/B benchmark metrics: a base revision against the working tree.
#
#   scripts/ab.sh <base-rev> --workload W --metric M[,M2...] [--pairs N]
#                 [--seed S]
#
# The base revision's committed files are unpacked (git archive) into a
# directory outside the repo; each side's benchmark/ is built into its
# own CARGO_TARGET_DIR there, and the two binaries then run N pairs
# (default 10) at seed S (default 11), plain mode and at the binary's
# own run length, alternating which side runs first. Each run starts in
# its own side's benchmark/ directory and writes its result files under
# the scratch directory, so nothing under benchmark/ changes; a build
# that rewrites benchmark/Cargo.lock gets the file back as it was, on
# both sides.
#
# Prints, per metric, each side's median and quartiles, the pairs the
# working tree won (in the metric's "better" direction from
# BENCHMARK.json), and whether the median gain clears the base's
# interquartile range, and a 90 % bootstrap interval of the median of the
# paired working-tree/base ratios (resampled pairs, fixed resampling
# seed, so the same runs always print the same interval); then whether
# every run of both sides printed the same sim_fingerprint. Exits 1 when a fingerprint differs, 2 on a usage
# error or a run that printed no value for a metric.
#
# The scratch directory is $AB_DIR if set (kept), else a fresh temporary
# directory removed at exit.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
usage() {
  sed -n '3,5p' "$0" >&2
  exit 2
}
[ $# -ge 1 ] || usage
base_rev="$1"
shift
workload=""
metric=""
pairs=10
seed=11
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case "$1" in
    --workload) workload="$2" ;;
    --metric) metric="$2" ;;
    --pairs) pairs="$2" ;;
    --seed) seed="$2" ;;
    *) usage ;;
  esac
  shift 2
done
[ -n "$workload" ] && [ -n "$metric" ] || usage
base_sha="$(git -C "$repo" rev-parse --verify "$base_rev^{commit}")"

if [ -n "${AB_DIR:-}" ]; then
  scratch="$AB_DIR"
  mkdir -p "$scratch"
else
  scratch="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
  trap 'rm -rf "$scratch"' EXIT
fi
base="$scratch/base"
rm -rf "$scratch/runs"
mkdir -p "$scratch/runs"
# a kept scratch directory reuses its unpacked base (and so its build)
if [ "$(cat "$scratch/base.rev" 2>/dev/null)" != "$base_sha" ]; then
  rm -rf "$base" "$scratch/base.rev"
  mkdir -p "$base"
  git -C "$repo" archive "$base_sha" | tar -x -C "$base"
  echo "$base_sha" >"$scratch/base.rev"
fi

# build <tree> <target dir>: the benchmark binary, Cargo.lock restored.
build() {
  local lock="$scratch/Cargo.lock.saved" status=0
  cp "$1/benchmark/Cargo.lock" "$lock"
  (cd "$1/benchmark" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet) ||
    status=$?
  cp "$lock" "$1/benchmark/Cargo.lock"
  return "$status"
}
echo "ab: building base ${base_sha:0:12} and the working tree" >&2
build "$base" "$scratch/target-base"
build "$repo" "$scratch/target-head"

# run <side> <tree> <pair>: one plain run, its stdout kept.
run() {
  (cd "$2/benchmark" &&
    "$scratch/target-$1/release/requiem-benchmark" --workload "$workload" \
      --seed "$seed" --trace 0 --out "$scratch/out-$1") \
    >"$scratch/runs/$1.$3.out"
}
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run base "$base" "$i"
    run head "$repo" "$i"
  else
    run head "$repo" "$i"
    run base "$base" "$i"
  fi
  echo "ab: pair $i of $pairs done" >&2
done

python3 - "$repo/BENCHMARK.json" "$scratch/runs" "$workload" "$metric" "$base_sha" "$seed" \
  "$pairs" <<'PY'
import json, random, statistics, sys

spec, runs, workload, metrics, base_sha, seed, pairs = sys.argv[1:]
declared = json.load(open(spec))
better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}


def printed(side, i):
    out = {}
    for line in open(f"{runs}/{side}.{i}.out"):
        f = line.split()
        if len(f) >= 3 and f[0] == workload:
            out[f[1]] = f[2]
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def bootstrap(ratios, rounds=2000, seed=1):
    """90 % interval of the median ratio over `rounds` resamples of the pairs."""
    rng = random.Random(seed)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(rounds)
    )
    return medians[int(0.05 * rounds)], medians[int(0.95 * rounds) - 1]


sides = {s: [printed(s, i) for i in range(1, int(pairs) + 1)] for s in ("base", "head")}
print(f"{workload}, seed {seed}, {pairs} pairs: base {base_sha[:12]} vs the working tree")
for metric in metrics.split(","):
    try:
        base = [float(r[metric]) for r in sides["base"]]
        head = [float(r[metric]) for r in sides["head"]]
    except KeyError:
        print(f"ab: a run printed no {metric}", file=sys.stderr)
        sys.exit(2)
    way = better.get(metric, "higher")
    bq, hq = quartiles(base), quartiles(head)
    won = sum((h > b) if way == "higher" else (h < b) for b, h in zip(base, head))
    gain = (hq[1] - bq[1]) if way == "higher" else (bq[1] - hq[1])
    iqr = bq[2] - bq[0]
    rel = gain / bq[1] if bq[1] else float("nan")
    print(f"{metric} ({way} is better)")
    print(f"  base:         median {bq[1]:.6g}  quartiles {bq[0]:.6g} .. {bq[2]:.6g}")
    print(f"  working tree: median {hq[1]:.6g}  quartiles {hq[0]:.6g} .. {hq[2]:.6g}")
    print(f"  pairs won {won} of {len(base)}; median gain {gain:.6g} ({rel:+.2%}); "
          f"clears base IQR {iqr:.6g}: {'yes' if gain > iqr else 'no'}")
    ratios = [h / b for b, h in zip(base, head) if b]
    if ratios:
        lo, hi = bootstrap(ratios)
        print(f"  paired working tree/base ratio: median {statistics.median(ratios):.4f}, "
              f"90 % bootstrap interval {lo:.4f} .. {hi:.4f} ({lo - 1:+.2%} .. {hi - 1:+.2%})")
fps = {r.get("sim_fingerprint") for s in sides.values() for r in s}
same = len(fps) == 1 and None not in fps
print(f"sim_fingerprint: {'equal' if same else 'DIFFERS'} ({', '.join(sorted(map(str, fps)))})")
sys.exit(0 if same else 1)
PY
