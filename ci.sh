#!/usr/bin/env bash
# CI gate, in two tiers. Everything runs offline — the workspace has
# zero external dependencies.
#
#   ./ci.sh quick   fmt, clippy, rustdoc, debug build, unit tests, the
#                   benchmark package's own tests, corpus replay
#                   (the edit-compile loop: fast, no release artifacts)
#   ./ci.sh full    everything in quick, plus the release build, chaos
#                   sweep, differential fuzz, the AST round-trip
#                   conformance harness, the incremental re-inspection
#                   gate, fork-join calibration smoke, telemetry trace
#                   smoke, the service workload + lifecycle chaos
#                   storms, the perf gate, and a quick pass of the
#                   end-to-end benchmark with every op checked
#                   (the merge gate; the default)
#
# Every `==` step is wall-clock timed and appended to ci-report.json
# (schema subsub-ci-report/v1): one row per step with its tier, elapsed
# seconds and pass/fail. The report is flushed even when a step fails,
# and the failure summary names the failing step. It also carries
# `net_lines`: lines added minus lines removed under each crate by the
# change under test — and `net_lines_src`, the same without test lines
# (a crate's `tests/` directory, and each file from its first
# `#[cfg(test)]` on) — and `options`: the `pub` field count of every
# `*Config` / `*Budget` struct under crates/, so that option creep shows
# up per PR the way line creep does.
#
# Knobs (environment):
#   SUBSUB_FUZZ_CASES    scales fuzz campaign volume (default 200-ish;
#                        see `fuzz --help`)
#   SUBSUB_CHAOS_SEEDS   comma/space-separated seeds for the chaos
#                        sweep (defaults to the pinned trio)
set -euo pipefail
cd "$(dirname "$0")"

MODE="${1:-full}"
case "$MODE" in
  quick|full) ;;
  *) echo "usage: $0 [quick|full]" >&2; exit 2 ;;
esac

REPORT="ci-report.json"
STEPS_JSON=""
SUITE_T0=$(date +%s%N)

elapsed_s() { # elapsed_s T0_NANOS -> seconds with ms precision
  awk "BEGIN{printf \"%.3f\", ($(date +%s%N) - $1) / 1e9}"
}

# The change under test is the working tree against HEAD while anything
# under crates/ is uncommitted (untracked files included), and HEAD
# against its parent once it is committed. Zeros outside a git checkout.
NET_BASE=HEAD
if git diff --quiet HEAD -- crates 2>/dev/null &&
   [ -z "$(git ls-files --others --exclude-standard crates 2>/dev/null)" ]; then
  NET_BASE=HEAD~1
fi
per_crate_json() { # per_crate_json FN -> {"<crate>": $(FN crates/<crate>), ...}
  local crate out=""
  for crate in crates/*/; do
    crate=${crate%/}
    [ -n "$out" ] && out+=","
    out+=$(printf '"%s":%s' "${crate#crates/}" "$("$1" "$crate")")
  done
  printf '{%s}' "$out"
}

net_lines() { # net_lines CRATE_DIR
  { git diff --numstat "$NET_BASE" -- "$1" 2>/dev/null
    git ls-files --others --exclude-standard "$1" 2>/dev/null |
      while read -r f; do printf '%s\t0\n' "$(wc -l < "$f")"; done
  } | awk '{n += $1 - $2} END {print n + 0}'
}
NET_LINES_JSON=$(per_crate_json net_lines)

# Lines of a file above its first `#[cfg(test)]` (stdin).
src_lines() { awk '/^#\[cfg\(test\)\]/ {exit} {n++} END {print n + 0}'; }

net_lines_src() { # net_lines_src CRATE_DIR: non-test lines only
  local n=0 f now was
  while read -r f; do
    case "$f" in ""|crates/*/tests/*) continue ;; esac
    now=0; was=0
    [ -f "$f" ] && now=$(src_lines < "$f")
    git cat-file -e "$NET_BASE:$f" 2>/dev/null && was=$(git show "$NET_BASE:$f" | src_lines)
    n=$((n + now - was))
  done < <({ git diff --name-only "$NET_BASE" -- "$1" 2>/dev/null
             git ls-files --others --exclude-standard "$1" 2>/dev/null; } | sort -u)
  echo "$n"
}
NET_LINES_SRC_JSON=$(per_crate_json net_lines_src)

# {"crate::Struct": pub fields} for every `pub struct *Config|*Budget`.
options_json() {
  grep -rl --include='*.rs' -E '^pub struct [A-Za-z]*(Config|Budget) \{' crates | sort |
    while read -r f; do
      crate=${f#crates/}; crate=${crate%%/*}
      awk -v crate="$crate" '
        /^pub struct [A-Za-z]*(Config|Budget) \{/ { name = $3; n = 0; next }
        name != "" && /^    pub [a-z_0-9]+:/ { n++ }
        name != "" && /^}/ { printf "\"%s::%s\":%d\n", crate, name, n; name = "" }
      ' "$f"
    done | paste -sd, - | sed 's/^/{/; s/$/}/'
}
OPTIONS_JSON=$(options_json)

flush_report() { # flush_report pass|fail
  printf '{"schema":"subsub-ci-report/v1","mode":"%s","result":"%s","total_seconds":%s,"net_lines":%s,"net_lines_src":%s,"options":%s,"steps":[%s]}\n' \
    "$MODE" "$1" "$(elapsed_s "$SUITE_T0")" "$NET_LINES_JSON" "$NET_LINES_SRC_JSON" "$OPTIONS_JSON" "$STEPS_JSON" > "$REPORT"
}

run_step() { # run_step TIER NAME CMD...
  local tier="$1" name="$2"
  shift 2
  echo "== $name =="
  local t0 rc=0
  t0=$(date +%s%N)
  "$@" || rc=$?
  local secs pass
  secs=$(elapsed_s "$t0")
  if [ "$rc" -eq 0 ]; then pass=true; else pass=false; fi
  [ -n "$STEPS_JSON" ] && STEPS_JSON+=","
  STEPS_JSON+=$(printf '{"step":"%s","tier":"%s","seconds":%s,"pass":%s}' \
    "$name" "$tier" "$secs" "$pass")
  if [ "$rc" -ne 0 ]; then
    flush_report fail
    echo "CI FAILED at step: $name (after ${secs}s; report in $REPORT)" >&2
    exit "$rc"
  fi
  echo "   (${secs}s)"
}

run_step quick "cargo fmt --check" cargo fmt --all -- --check

run_step quick "cargo clippy (deny warnings)" \
  cargo clippy --workspace --all-targets -- -D warnings

# The runtime's recovery story depends on lock/channel results never
# being unwrapped on the execution path, and the frontend + analysis
# driver sit on the service's untrusted-input boundary where a panic
# would read as a worker fault; keep the lint as a gate on all four.
run_step quick "cargo clippy (no unwrap in omprt/rtcheck/cfront/core hot paths)" \
  cargo clippy -q -p subsub-omprt -p subsub-rtcheck -p subsub-cfront -p subsub-core -- \
  -D warnings -D clippy::unwrap_used

# Docs link to the names they describe: a deleted or renamed item must
# not leave a dangling intra-doc link behind.
run_step quick "cargo doc (deny warnings)" \
  env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

run_step quick "debug build" cargo build --workspace

# subsub-bench's unit tests include chaos storms that arm failpoints
# process-wide (`cfront.lex` among them); on parallel test threads an
# armed storm injects its faults into whichever neighbour is lexing at
# the time. That crate's tests run on one thread, the rest in parallel.
run_step quick "test suite" cargo test --workspace --exclude subsub-bench -q
run_step quick "test suite (subsub-bench, one thread: armed failpoints are process-wide)" \
  cargo test -p subsub-bench -q -- --test-threads=1

# The pool's tests once more with no spin budget: every wait, worker
# and coordinator side, goes straight to the park path on every region,
# which a healthy run on an idle machine otherwise never reaches.
run_step quick "test suite (subsub-omprt, OMPRT_SPIN=0: every wait parks)" \
  env OMPRT_SPIN=0 cargo test -p subsub-omprt -q

# The benchmark is a package of its own (benchmark/Cargo.toml, outside
# the workspace), so the workspace test run above does not reach it.
run_step quick "benchmark package tests" \
  cargo test --offline --manifest-path benchmark/Cargo.toml -q

# Replay the committed adversarial corpus (arrays, predicates, kernels,
# reinspect plans, composed chains, fingerprints, frontend sources)
# without the seeded campaigns: cheap enough for the edit-compile loop,
# and the corpus is exactly the set of cases that once broke something.
run_step quick "corpus replay (committed regressions, no campaigns)" \
  cargo run -q -p subsub-bench --bin fuzz -- --replay-only

if [ "$MODE" = "quick" ]; then
  flush_report pass
  echo "CI gate passed (quick tier; run './ci.sh full' before merging). Report: $REPORT"
  exit 0
fi

run_step full "release build" cargo build --release --workspace

# Seeded failpoint schedules over the full kernel registry: every run
# must complete parallel matching the serial golden or degrade serially
# with a classified error and bit-identical output, and every site a
# plan names must be reached by some kernel (see DESIGN.md 5c).
# SUBSUB_CHAOS_SEEDS (env) overrides the pinned seed trio.
run_step full "chaos sweep (seeded fault injection, pinned seeds)" \
  cargo run --release -q -p subsub-bench --bin chaos -- ${SUBSUB_CHAOS_SEEDS:-17 4242 900913}

# Adversarial campaigns over the inspect/guard/dispatch trust boundary:
# inspector vs brute-force reference (whole-array, block-monotone and
# composed two-level flavours), incremental re-inspection vs full-scan
# rebuild, content fingerprint vs a one-word-at-a-time reference of the
# format, compiled predicate vs checked-i128 evaluator, mutated C
# sources vs the frontend's no-panic/deterministic-rejection/round-trip
# contract, guarded parallel kernels vs serial goldens — then a full
# replay of the committed regression corpus. Any divergence fails CI
# (see DESIGN.md 5d and 9). SUBSUB_FUZZ_CASES (env) scales volume.
run_step full "differential fuzz (pinned seeds + corpus replay)" \
  cargo run --release -q -p subsub-bench --bin fuzz -- 7 31337 271828

# The frontend's canonical contract: for every accepted source,
# parse -> canonicalize -> print -> reparse is a structural identity,
# the printed form is a printer fixpoint, and the subsub-ast/v1 JSON
# serialization is deterministic. Runs over all registry kernel sources
# plus crates/bench/corpus/conform/*.c (see DESIGN.md 9).
run_step full "AST round-trip conformance (kernel registry + committed corpus)" \
  cargo run --release -q -p subsub-bench --bin conform

# The 1 Mi-element mutate-then-reinspect workload: a single-element
# mutate_range (block rescan + checksum patch + O(blocks) verdict
# recombine) must agree with the full re-ingest + full-scan reference
# at every checkpoint and beat it by at least the 20x acceptance floor.
run_step full "incremental re-inspection gate (O(delta) vs full re-scan)" \
  cargo run --release -q -p subsub-bench --bin reinspect

# A quick real measurement of fork-join latency on this machine; the
# --validate pass re-parses the emitted JSON through the strict parser,
# reads it the way the simulator's MachineCalibration does, and — because
# --threads is passed — rejects a file whose measured series does not
# match the requested thread counts (both passes cap them at the host's
# cores: a wider team times the scheduler).
run_step full "fork-join smoke (calibrate)" \
  cargo run --release -q -p subsub-bench --bin forkjoin_calibrate -- \
  --quick --threads 1,4 --out target/BENCH_forkjoin_ci.json
run_step full "fork-join smoke (validate)" \
  cargo run --release -q -p subsub-bench --bin forkjoin_calibrate -- \
  --validate target/BENCH_forkjoin_ci.json --threads 1,4

# Arms the flight recorder, runs one registry kernel through the full
# guarded pipeline, and validates the emitted Chrome trace with the
# strict parser: balanced B/E pairs, per-thread monotone timestamps,
# and every required span family present (region/inspect/guard/
# dispatch; see DESIGN.md 5e). Malformed output fails CI.
run_step full "telemetry trace smoke (capture)" \
  cargo run --release -q -p subsub-bench --bin trace -- \
  --kernel AMGmk --threads 4 \
  --out target/BENCH_trace_ci.json --snapshot target/BENCH_telemetry_ci.json
run_step full "telemetry trace smoke (validate)" \
  cargo run --release -q -p subsub-bench --bin trace -- \
  --validate target/BENCH_trace_ci.json

# Closed-loop clients over the long-lived service front door, cold and
# warm memo phases, with a mid-run worker kill: every completion must
# match the serial golden checksum (zero incorrect dispatches), no
# ticket may wedge, >= 90% of the warm phase's verdict lookups (summed
# over the kernels' executor memos) must be hits, and >= 8 requests must
# be observed in flight at once (see DESIGN.md 6). The pinned default
# seed keeps the run replayable.
run_step full "analysis service smoke (seeded multi-client workload + chaos)" \
  cargo run --release -q -p subsub-bench --bin serve

# Service-layer chaos: seeded failpoint schedules over the multi-client
# workload with deadlines and abandoned tickets in the mix — admission
# faults, worker dispatch deaths, kernel-body panics, frontend faults.
# Every request must settle in a typed terminal state within bounds:
# zero divergence on Ok responses, no wedged ticket, no post-storm
# lockout (quarantined identities re-admit via their serial probe), and
# every site a plan names must have been reached (see DESIGN.md 8).
run_step full "chaos-serve (seeded lifecycle storms over the service, pinned seeds)" \
  cargo run --release -q -p subsub-bench --bin chaos_serve -- 29 8181 424243

# The pinned micro-suite (fork-join latency — empty, CHOLMOD-shaped and
# AMGmk-shaped regions beside a same-run two-thread flag round trip —
# inspector throughput, including the composed two-level verdict, and
# representative serial kernels) against BENCH_baseline.json. A median
# beyond the band fails; refresh with 'perfgate --update' alongside an
# intentional perf change.
run_step full "perf gate (medians vs committed baseline, +/-25%)" \
  cargo run --release -q -p subsub-bench --bin perfgate

# All six workloads of BENCHMARK.json, untraced then traced, about a
# second each: every op is held against its outside reference, every
# declared metric must be present and the per-layer sums in band. A
# smoke test of the request path end to end — the numbers it prints are
# too short to compare (benchmark/README.md says how to measure).
run_step full "end-to-end benchmark, quick pass (six workloads, every op checked)" \
  bash benchmark/run.sh --quick

flush_report pass
echo "CI gate passed (full tier). Report: $REPORT"
