#!/usr/bin/env bash
# Non-test lines per crate under crates/*/src.
#
# A non-test line is one before its file's first column-0 `#[cfg(test)]`
# (a file without one counts whole). Prints one `<crate> <lines>` row per
# crate, largest first, then the total.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
rows=""
for src in crates/*/src; do
  crate=$(basename "$(dirname "$src")")
  # xargs may split the file list over several awk runs: sum their totals
  n=$(find "$src" -name '*.rs' -print0 |
    xargs -0 awk '
      FNR == 1 { counting = 1 }
      /^#\[cfg\(test\)\]/ { counting = 0 }
      counting { n++ }
      END { print n + 0 }' |
    awk '{ s += $1 } END { print s + 0 }')
  rows+="$crate $n"$'\n'
  total=$((total + n))
done
printf '%s' "$rows" | sort -k2,2nr -k1,1 | awk '{ printf "%-10s %6d\n", $1, $2 }'
printf '%-10s %6d\n' total "$total"
