#!/usr/bin/env bash
# Usage: tools/fuzz_sweep.sh BUILD_DIR
#
# Runs BUILD_DIR/fuzz_driver over the three locked 1,000-seed sweeps (first
# seed 1, 100000 and 300000) and prints one line per seed:
#
#   STATUS seed=N committed=C elapsed=Tms digest=X
#
# STATUS is PASS or FAIL; the rest is cut with the sed of CI's locked-digest
# step. A refactor that must keep traces byte-identical diffs the output of
# two builds:
#
#   diff <(tools/fuzz_sweep.sh base/build) <(tools/fuzz_sweep.sh build)
#
# Exits non-zero only when fuzz_driver itself dies (a failing seed is data).
set -euo pipefail

if [ $# -ne 1 ] || [ ! -x "$1/fuzz_driver" ]; then
  echo "usage: $0 BUILD_DIR (BUILD_DIR/fuzz_driver must exist)" >&2
  exit 2
fi
driver="$1/fuzz_driver"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

for first in 1 100000 300000; do
  status=0
  "$driver" --first="$first" --count=1000 --scratch="$scratch" >"$scratch/out" || status=$?
  # fuzz_driver exits with the failed-seed count, capped at 125.
  if [ "$status" -gt 125 ]; then
    echo "$0: fuzz_driver --first=$first died (exit $status)" >&2
    exit 1
  fi
  sed -nE 's/^(PASS|FAIL) (seed=[0-9]+) .* (committed=[0-9]+) crashes=[0-9]+ (elapsed=[0-9]+ms) (digest=[0-9a-f]+).*$/\1 \2 \3 \4 \5/p' \
    "$scratch/out"
done
