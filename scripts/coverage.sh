#!/usr/bin/env bash
# Per-package coverage floors: fail if any watched package drops below
# the percentage it landed with (floors are set a hair under the landed
# numbers to absorb line-count jitter; raise them when coverage rises).
# CI runs this as the coverage job; run locally before touching the
# watched packages.
#
#   scripts/coverage.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# package  floor(%)  — landed: scenario 90.8, graph 95.5, bits 95.8,
# semiring 92.0, sketch 92.1, fault 100.0, scenariod 86.4, obs 89.5,
# routing 94.4, core 95.1
floors="
./internal/scenario  85.0
./internal/graph     92.0
./internal/bits      91.0
./internal/semiring  89.0
./internal/sketch    85.0
./internal/fault     85.0
./internal/scenariod 81.0
./internal/obs       85.5
./internal/routing   93.4
./internal/core      94.1
"

fail=0
while read -r pkg floor; do
  [[ -z "$pkg" ]] && continue
  line="$(go test -cover "$pkg" | tail -1)"
  pct="$(grep -oE 'coverage: [0-9.]+%' <<< "$line" | grep -oE '[0-9.]+' || true)"
  if [[ -z "$pct" ]]; then
    echo "FAIL  $pkg: no coverage reported ($line)"
    fail=1
    continue
  fi
  if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
    echo "FAIL  $pkg: coverage ${pct}% < floor ${floor}%"
    fail=1
  else
    echo "ok    $pkg: coverage ${pct}% (floor ${floor}%)"
  fi
done <<< "$floors"

exit $fail
