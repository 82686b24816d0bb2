#!/usr/bin/env bash
# Pinned-seed fuzz/audit gate: builds the ASan+UBSan configuration and runs
# tools/fuzz_runner over the structured corpus (degenerate graphs, chordal
# mixes, disconnected unions, tie storms, near-chordal adversaries, and
# corrupted read_graph byte streams). Every chordal graph case runs the full
# differential execution matrix - threads {1,8} x model {LOCAL,CONGEST} -
# with all per-claim invariant auditors enabled (the forest engine is
# checked against its reference Kruskal on every graph and every phi(v)
# family); any sanitizer report, crash, or auditor violation fails the gate.
#
# The corpus is a pure function of the seed, so every failure line
# ("FAIL family#seed: ...") replays exactly with
#   fuzz_runner --seed <corpus-seed> ... (or the family call in a debugger).
#
# Usage: scripts/fuzz.sh [extra fuzz_runner args...]
#   CHORDAL_FUZZ_ITERS  approximate corpus size (default 500, floor 60);
#                       raise for deeper soak runs, lower for smoke tests.
#   CHORDAL_FUZZ_DIR    build directory (default build-san, shared with
#                       scripts/check.sh's sanitizer stage).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
dir="${CHORDAL_FUZZ_DIR:-$repo/build-san}"

cmake -B "$dir" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCHORDAL_ASAN=ON -DCHORDAL_UBSAN=ON >/dev/null
cmake --build "$dir" -j "$jobs" --target fuzz_runner

"$dir/tools/fuzz_runner" "$@"
