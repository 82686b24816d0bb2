#!/usr/bin/env python3
"""Bench regression gate: fresh bench output vs. committed baselines.

Compares each baseline BENCH_*.json in --baseline-dir against the
same-named file in --fresh-dir (a fresh `OUT_DIR=<dir> scripts/bench_all.sh`
run) and fails when any tracked metric regresses beyond its tolerance:

  wall-clock   span wall_ms (telemetry tree, name-matched recursively) and
               google-benchmark cpu_time; --tolerance percent, default 60
               (shared machines are noisy; the gate is for 2x-class
               regressions, not microvariance), with a --min-ms floor so
               sub-millisecond spans never trip it
  allocations  every *.allocs counter (the forest engine's per-phase
               allocation accounting — deterministic for a fixed thread
               count); --alloc-tolerance percent, default 25

Absolute (hard, tolerance-free) contracts are also enforced on the fresh
side: *.peak_rss_mb gauges must stay under their sibling *.rss_budget_mb
budgets (bench_scale), *.speedup gauges must stay at or above their
sibling *.speedup_floor floors (bench_dynamic's incremental-vs-full-
rebuild ratio), every *.parity_ok gauge must be exactly 1.0 and every
congest.*.blowup gauge at least 1.0 (bench_congest's LOCAL-vs-CONGEST
output parity and round blow-up).

Benches, spans, or counters present on only one side are reported as
added/removed but do not fail the gate (layouts evolve; timings regress).
Improvements never fail. Telemetry schema 1 (no marker) and 2 are both
accepted; anything else is an error.

Exit status: 0 = within tolerance, 1 = regression(s), 2 = usage/setup.

Usage:
  scripts/bench_gate.py --fresh-dir /tmp/bench.fresh
  scripts/bench_gate.py --fresh-dir d --tolerance 40 BENCH_MVC_ROUNDS.json

Only the Python standard library is used. scripts/check.sh runs this after
regenerating the bench set; see README "Tracing and the bench gate".
"""

import argparse
import glob
import json
import os
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    schema = doc.get("telemetry", doc).get("schema", 1)
    if schema not in (1, 2):
        sys.exit(f"{path}: unsupported telemetry schema {schema!r}")
    return doc


def walk_spans(spans, prefix, out):
    for span in spans:
        name = prefix + span.get("name", "?")
        if "wall_ms" in span:
            out[name] = float(span["wall_ms"])
        walk_spans(span.get("children", []), name + " / ", out)


def wall_clocks(doc):
    """name -> milliseconds (telemetry spans and google-benchmark rows)."""
    out = {}
    if "benchmarks" in doc:
        unit_ms = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
        for bench in doc["benchmarks"]:
            name, cpu_time = bench.get("name"), bench.get("cpu_time")
            if name is None or cpu_time is None:
                continue  # aggregate rows (BigO/RMS) carry no cpu_time
            out[name] = float(cpu_time) * unit_ms.get(
                bench.get("time_unit", "ns"), 1e-6
            )
    walk_spans(doc.get("telemetry", {}).get("spans", []), "", out)
    return out


def alloc_counters(doc):
    """name -> count for every *.allocs telemetry counter."""
    counters = doc.get("telemetry", {}).get("counters", {})
    return {
        k: float(v) for k, v in counters.items() if k.endswith(".allocs")
    }


def rss_gauges(doc):
    """name -> MB for every *.peak_rss_mb telemetry gauge."""
    gauges = doc.get("telemetry", {}).get("gauges", {})
    return {
        k: float(v) for k, v in gauges.items() if k.endswith(".peak_rss_mb")
    }


def check_rss_budgets(name, doc, failures):
    """Absolute peak-RSS budgets: a *.peak_rss_mb gauge whose sibling
    *.rss_budget_mb gauge exists must stay under it (bench_scale emits the
    pair per cell). Unlike the relative tolerances this is a hard ceiling:
    the substrate's memory contract, not a noise bound."""
    gauges = doc.get("telemetry", {}).get("gauges", {})
    for key, value in sorted(gauges.items()):
        if not key.endswith(".peak_rss_mb"):
            continue
        budget_key = key[: -len(".peak_rss_mb")] + ".rss_budget_mb"
        budget = gauges.get(budget_key)
        if budget is None:
            continue
        if float(value) > float(budget):
            failures.append(
                f"{name}: peak-RSS budget exceeded: {key}: "
                f"{float(value):.1f} MB > budget {float(budget):.1f} MB"
            )


def check_speedup_floors(name, doc, failures):
    """Absolute incremental-vs-rebuild floors: a *.speedup gauge whose
    sibling *.speedup_floor gauge exists must stay at or above it
    (bench_dynamic emits the pair per churn cell). Like the RSS budgets
    this is a hard contract, not a noise tolerance: incremental repair
    that degenerates toward full-rebuild cost is a correctness-of-design
    failure even if it is "only" a slowdown."""
    gauges = doc.get("telemetry", {}).get("gauges", {})
    for key, value in sorted(gauges.items()):
        if not key.endswith(".speedup"):
            continue
        floor = gauges.get(key + "_floor")
        if floor is None:
            continue
        if float(value) < float(floor):
            failures.append(
                f"{name}: speedup floor violated: {key}: "
                f"{float(value):.1f}x < floor {float(floor):.1f}x"
            )


def check_congest_contracts(name, doc, failures):
    """Absolute CONGEST-model contracts (bench_congest emits the gauges
    per cell): every *.parity_ok gauge must be exactly 1.0 — a CONGEST
    execution that changed any algorithm output is a model bug, not a
    perf data point — and every congest.*.blowup gauge must be >= 1.0,
    since bounded bandwidth can only cost rounds, never save them."""
    gauges = doc.get("telemetry", {}).get("gauges", {})
    for key, value in sorted(gauges.items()):
        if key.endswith(".parity_ok") and float(value) != 1.0:
            failures.append(
                f"{name}: CONGEST output parity violated: {key} = "
                f"{float(value):.1f} (must be 1.0)"
            )
        if (
            key.startswith("congest.")
            and key.endswith(".blowup")
            and float(value) < 1.0
        ):
            failures.append(
                f"{name}: impossible CONGEST blow-up: {key} = "
                f"{float(value):.3f} < 1.0 (bounded bandwidth cannot "
                f"reduce rounds)"
            )


def compare(name, kind, base, fresh, tol_pct, min_abs, failures, notes):
    """Flags fresh[k] > base[k] * (1 + tol) for every shared key."""
    for key in sorted(set(base) | set(fresh)):
        if key not in fresh:
            notes.append(f"{name}: {kind} removed: {key}")
            continue
        if key not in base:
            notes.append(f"{name}: {kind} added: {key}")
            continue
        b, f = base[key], fresh[key]
        if b < min_abs and f < min_abs:
            continue  # too small for a relative bound to mean anything
        limit = b * (1.0 + tol_pct / 100.0)
        if f > limit and f - b >= min_abs:
            failures.append(
                f"{name}: {kind} regression: {key}: "
                f"{b:.3f} -> {f:.3f} ({f / b if b > 0 else float('inf'):.2f}x, "
                f"tolerance {tol_pct:.0f}%)"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "names",
        nargs="*",
        help="baseline file names to gate (default: every BENCH_*.json "
        "in --baseline-dir that also exists in --fresh-dir)",
    )
    parser.add_argument(
        "--baseline-dir",
        default=os.path.join(os.path.dirname(__file__), ".."),
        help="directory holding committed BENCH_*.json (default: repo root)",
    )
    parser.add_argument("--fresh-dir", required=True,
                        help="directory holding the fresh bench JSON files")
    parser.add_argument("--tolerance", type=float, default=60.0,
                        help="allowed wall-clock regression, percent")
    parser.add_argument("--alloc-tolerance", type=float, default=25.0,
                        help="allowed allocation-counter regression, percent")
    parser.add_argument("--min-ms", type=float, default=1.0,
                        help="ignore wall-clock spans below this many ms")
    parser.add_argument("--rss-tolerance", type=float, default=30.0,
                        help="allowed peak-RSS gauge regression, percent")
    parser.add_argument("--min-rss-mb", type=float, default=32.0,
                        help="ignore peak-RSS gauges below this many MB")
    args = parser.parse_args()

    names = args.names or sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(args.baseline_dir, "BENCH_*.json"))
    )
    if not names:
        sys.exit(f"no BENCH_*.json baselines in {args.baseline_dir}")

    failures, notes, compared = [], [], 0
    for name in names:
        base_path = os.path.join(args.baseline_dir, name)
        fresh_path = os.path.join(args.fresh_dir, name)
        if not os.path.exists(base_path):
            sys.exit(f"missing baseline: {base_path}")
        if not os.path.exists(fresh_path):
            # bench_all.sh may cover a subset of the committed baselines
            # (suffixed variants come from dedicated A/B scripts).
            notes.append(f"{name}: no fresh run, skipped")
            continue
        base, fresh = load(base_path), load(fresh_path)
        compared += 1
        compare(name, "wall-clock", wall_clocks(base), wall_clocks(fresh),
                args.tolerance, args.min_ms, failures, notes)
        compare(name, "alloc", alloc_counters(base), alloc_counters(fresh),
                args.alloc_tolerance, 0.0, failures, notes)
        compare(name, "peak-rss", rss_gauges(base), rss_gauges(fresh),
                args.rss_tolerance, args.min_rss_mb, failures, notes)
        check_rss_budgets(name, fresh, failures)
        check_speedup_floors(name, fresh, failures)
        check_congest_contracts(name, fresh, failures)

    for line in notes:
        print(f"  note: {line}")
    if compared == 0:
        sys.exit("bench gate: nothing to compare (no fresh files matched)")
    if failures:
        print(f"bench gate FAILED ({len(failures)} regression(s)):",
              file=sys.stderr)
        for line in failures:
            print("  " + line, file=sys.stderr)
        return 1
    print(f"bench gate OK: {compared} file(s) within "
          f"{args.tolerance:.0f}% wall / {args.alloc_tolerance:.0f}% alloc")
    return 0


if __name__ == "__main__":
    sys.exit(main())
