#!/usr/bin/env bash
# Runs two full sets on the same code and holds the second against the
# first: every end-to-end metric (and each workload's headline per-layer
# metric) within its bound, every count metric exactly equal. Prints the
# spread table that README.md carries. Extra flags go to both sets
# (e.g. --seed N, --quick).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
"$here/run.sh" --out "$here/out/set1" "$@"
"$here/run.sh" --out "$here/out/set2" "$@"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
"$target/release/subsub-benchmark" compare "$here/out/set1/results.json" "$here/out/set2/results.json"
