#!/usr/bin/env bash
# Full pre-merge check: build and test the Release configuration, the
# combined ASan+UBSan configuration, and the ThreadSanitizer configuration
# (which exercises the parallel_for drivers at several worker counts),
# then a pipeline digest smoke run (every pipebench workload, in both trace
# modes at small size and once at full size, must reproduce its pinned
# per-stage output digests), a
# CONGEST-parity smoke run (three driver benches under --model congest must
# match their LOCAL runs outside round counts and net.* telemetry, and
# must differ from them before that scrub),
# a trace smoke run (--trace output must validate: well-formed Chrome
# JSON, monotone ticks, resolvable message lineage, counts matching the
# telemetry report), and the bench-regression gate (a fresh bench_all.sh
# run must stay within tolerance of the committed BENCH_*.json baselines).
# All must pass.
#
# Usage: scripts/check.sh [extra ctest args...]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

run_config() {
  local dir="$1"
  shift
  cmake -B "$dir" -S "$repo" "$@" >/dev/null
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" "${EXTRA_CTEST_ARGS[@]}"
}

EXTRA_CTEST_ARGS=("$@")

echo "== Release =="
run_config "$repo/build-release" -DCMAKE_BUILD_TYPE=Release

echo
echo "== ASan + UBSan =="
run_config "$repo/build-san" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCHORDAL_ASAN=ON -DCHORDAL_UBSAN=ON

echo
echo "== TSan (parallel drivers, CHORDAL_THREADS=4) =="
CHORDAL_THREADS=4 run_config "$repo/build-tsan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCHORDAL_TSAN=ON

echo
echo "== Wide ids (CHORDAL_WIDE_IDS=ON: 64-bit slabs, same outputs) =="
# The id width is storage-only: the full test suite - including the audit
# matrix (threads {1,8} x model {LOCAL,CONGEST}) and the trace-parity
# suites - must pass identically in the 64-bit build.
run_config "$repo/build-wide" -DCMAKE_BUILD_TYPE=Release -DCHORDAL_WIDE_IDS=ON

echo
echo "== Fuzz/audit smoke (pinned-seed corpus under ASan+UBSan) =="
# The sanitizer build above is reused; CHORDAL_FUZZ_ITERS (default 500)
# scales the corpus for deeper soaks. scripts/fuzz.sh is the standalone
# entry point with the same knob.
CHORDAL_FUZZ_DIR="$repo/build-san" "$repo/scripts/fuzz.sh"

echo
echo "== Pipeline digest smoke (graph -> colors / MIS / labels, end to end) =="
# Every pipebench workload at its small size, in both trace modes: each
# stage's output digest must equal its pin in pipebench/digests.json, so
# outputs stay bit-identical end to end.
python3 "$repo/pipebench/run.py" --small
# The small pins cover only small graphs, and run.py exits 0 on a digest
# mismatch, so each workload also runs once at full size (seed 1, no timed
# repeats) and must report "correct": true on its last line.
for workload in interval-1m ktree-50k views-congest; do
  last="$(python3 "$repo/pipebench/run.py" --workload "$workload" --seed 1 \
    --seconds 0 | tail -n 1)"
  if ! python3 -c 'import json, sys
sys.exit(0 if json.loads(sys.argv[1]).get("correct") is True else 1)' \
    "$last" 2>/dev/null; then
    echo "$workload: full-size pipeline run is not correct: $last" >&2
    exit 1
  fi
done
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT

echo
echo "== CONGEST parity smoke (LOCAL vs --model congest driver runs) =="
# Each driver bench under bounded bandwidth: once round counts and net.*
# round-resolution telemetry are scrubbed, the JSON must be identical —
# fragmentation may change when words move, never what the algorithms
# output. Before the scrub the two runs must differ: equal reports would
# mean --model never reached the drivers the bench runs.
for bench in bench_mvc_approx bench_mis_chordal bench_baselines; do
  local_json="$smoke_dir/$bench.local.json"
  congest_json="$smoke_dir/$bench.congest.json"
  "$repo/build-release/bench/$bench" --json "$local_json" >/dev/null
  "$repo/build-release/bench/$bench" --model congest \
    --json "$congest_json" >/dev/null
  python3 "$repo/scripts/bench_diff.py" --parity --scrub-rounds \
    "$local_json" "$congest_json"
  if python3 "$repo/scripts/bench_diff.py" --parity \
    "$local_json" "$congest_json" >/dev/null 2>&1; then
    echo "$bench: --model congest report equals the LOCAL one before" \
      "scrubbing rounds; the model did not reach the drivers" >&2
    exit 1
  fi
done

echo
echo "== Trace smoke (--trace output validates against telemetry) =="
# One driver bench (no Network) and one message-passing bench: between
# them every event family is exercised — phases, peel/color/MIS decisions,
# forest builds, and network send/deliver lineage.
"$repo/build-release/bench/bench_mvc_rounds" \
  --trace "$smoke_dir/mvc.trace.json" --json "$smoke_dir/mvc.json" >/dev/null
python3 "$repo/scripts/trace_check.py" "$smoke_dir/mvc.trace.json" \
  --telemetry "$smoke_dir/mvc.json"
"$repo/build-release/bench/bench_baselines" \
  --trace "$smoke_dir/base.trace.json" --json "$smoke_dir/base.json" >/dev/null
python3 "$repo/scripts/trace_check.py" "$smoke_dir/base.trace.json" \
  --telemetry "$smoke_dir/base.json"

echo
echo "== Cross-width parity smoke (32-bit vs 64-bit id slabs) =="
# The forest bench from both builds: every output cell (sizes, weights,
# edge hashes) must match bit-for-bit.
"$repo/build-release/bench/bench_forest" \
  --json "$smoke_dir/forest_narrow.json" >/dev/null
"$repo/build-wide/bench/bench_forest" \
  --json "$smoke_dir/forest_wide.json" >/dev/null
python3 "$repo/scripts/bench_diff.py" --parity \
  "$smoke_dir/forest_narrow.json" "$smoke_dir/forest_wide.json"

echo
echo "== Scale smoke (n=10^5 streaming substrate under the RSS ceiling) =="
# Builds 10^5-vertex interval and k-tree graphs through the streaming CSR
# path, asserts allocation-free steady-state queries, and fails if peak RSS
# crosses the ceiling - the cheap always-on version of the E16 scale gate.
"$repo/build-release/bench/bench_scale" --smoke --rss-ceiling-mb 512 \
  >/dev/null

echo
echo "== Dynamic churn smoke (certified updates, colors == omega) =="
# Replays the E17 churn mix at n=10^4 on both graph families through
# DynamicChordal: every applied update repairs the clique forest and the
# labels incrementally, and the binary fails unless the coloring is still
# at omega afterwards. (The 500-schedule differential audit runs under
# ASan in the fuzz stage above; this is the fast release-mode pass.)
"$repo/build-release/bench/bench_dynamic" --smoke >/dev/null

echo
echo "== Bench regression gate (fresh run vs committed baselines) =="
# Regenerates the canonical (unsuffixed) bench set into the smoke dir and
# compares it against the committed BENCH_*.json.
# CHORDAL_DYNAMIC_SMOKE keeps the E17 matrix at its n=10^4 cells here (the
# full matrix takes ~5 minutes; its floors are still hard-checked on the
# fresh smoke cells, and the committed baseline comes from a full run).
OUT_DIR="$smoke_dir" BUILD_DIR="$repo/build-release" \
  CHORDAL_DYNAMIC_SMOKE=1 "$repo/scripts/bench_all.sh" >/dev/null
python3 "$repo/scripts/bench_gate.py" --fresh-dir "$smoke_dir"

echo
echo "All configurations passed."
