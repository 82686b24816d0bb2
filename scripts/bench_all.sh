#!/usr/bin/env bash
# Runs the experiment benches at their pinned seeds (the seeds are baked
# into the bench sources) and writes canonical BENCH_*.json files at the
# repo root. With a suffix argument the files become BENCH_<NAME>_<SUFFIX>
# .json, which is how A/B evidence pairs are produced, e.g. across thread
# counts:
#
#   CHORDAL_THREADS=1 scripts/bench_all.sh T1
#   CHORDAL_THREADS=4 scripts/bench_all.sh T4
#   scripts/bench_diff.py BENCH_PEELING_T1.json BENCH_PEELING_T4.json
#
# Suffixed files are throwaway A/B evidence: bench_gate.py skips them, and
# none are committed.
#
# Environment variables (CHORDAL_THREADS, CHORDAL_NET_MODEL,
# CHORDAL_CONGEST_B) pass through to the benches. BUILD_DIR overrides the
# build tree (default: build-release, configured and built on demand) and
# OUT_DIR the output directory (default: the repo root — set it to a
# scratch directory for throwaway runs, e.g. the bench-gate step of
# scripts/check.sh, which compares a fresh OUT_DIR run against the
# committed baselines with scripts/bench_gate.py).
#
# Usage: scripts/bench_all.sh [suffix]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-$repo/build-release}"
out_dir="${OUT_DIR:-$repo}"
suffix="${1:+_$1}"
jobs="$(nproc 2>/dev/null || echo 4)"

if [[ ! -x "$build/bench/bench_peeling" ]]; then
  cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$build" -j "$jobs" >/dev/null
fi

run_table_bench() {
  local bench="$1" out="$out_dir/BENCH_$2$suffix.json"
  echo "== $bench -> $(basename "$out")"
  "$build/bench/$bench" --json "$out" >/dev/null
}

run_table_bench bench_peeling PEELING
run_table_bench bench_local_views LOCAL_VIEWS
run_table_bench bench_forest FOREST
run_table_bench bench_mvc_rounds MVC_ROUNDS
run_table_bench bench_mis_chordal MIS_CHORDAL

# E18 CONGEST round blow-up (LOCAL vs B in {4, 16, auto}; the binary
# asserts output parity itself and emits the congest.*.parity_ok /
# congest.*.blowup gauges that bench_gate.py hard-checks).
run_table_bench bench_congest CONGEST

# E16 scale matrix (legacy vs compact substrate, peak-RSS gauges and
# budgets; --full adds the n=10^7 streaming-interval row). Each cell runs
# in its own child process because ru_maxrss is process-monotone.
out="$out_dir/BENCH_SCALE$suffix.json"
echo "== bench_scale -> $(basename "$out")"
"$build/bench/bench_scale" --full --json "$out" >/dev/null

# E17 dynamic churn matrix (incremental repair vs full rebuild, families
# interval/k-tree at n=10^4..10^6). Emits dyn.*.speedup gauges with
# dyn.*.speedup_floor siblings that bench_gate.py enforces as a hard floor.
# CHORDAL_DYNAMIC_SMOKE=1 restricts the matrix to the n=10^4 cells — the
# full matrix takes ~5 minutes, most of it the k-tree n=10^6 churn, so
# check.sh's gate step uses the smoke matrix while the committed baseline
# is produced from a full run.
if [[ "${CHORDAL_DYNAMIC_SMOKE:-0}" == 1 ]]; then
  out="$out_dir/BENCH_DYNAMIC$suffix.json"
  echo "== bench_dynamic (smoke) -> $(basename "$out")"
  "$build/bench/bench_dynamic" --smoke --json "$out" >/dev/null
else
  run_table_bench bench_dynamic DYNAMIC
fi

out="$out_dir/BENCH_MICRO$suffix.json"
echo "== bench_micro -> $(basename "$out")"
"$build/bench/bench_micro" --benchmark_format=console \
  --benchmark_out_format=json --benchmark_out="$out" >/dev/null

echo "done: BENCH_*$suffix.json"
