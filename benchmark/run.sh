#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   benchmark/run.sh                      the full set: six workloads, each
#                                         untraced then traced, -> out/results.json
#   benchmark/run.sh --quick              the same as a smoke test (about 15 s)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run, as BENCHMARK.json's command
#
# Other flags: --seed N, --seconds S, --out DIR.
# Exits non-zero on any failed op, missing metric, or layer sum out of band.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# A relative CARGO_TARGET_DIR is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

# Cargo finds its configuration from the directory it is started in
# upwards: started here, the root's .cargo/config.toml (target-cpu=native)
# applies to this package as it does to the workspace.
cd "$here"
cargo build --release --offline --quiet --target-dir "$target"
cd "$here/.."
exec "$target/release/subsub-benchmark" --out "$here/out" "$@"
