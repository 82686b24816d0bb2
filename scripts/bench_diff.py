#!/usr/bin/env python3
"""Compare two bench JSON files.

Default mode prints per-bench wall-clock deltas: every span of the repo's
--json telemetry format (name, wall_ms, recursively over children) or every
benchmark of a google-benchmark JSON file (name, cpu_time), matched by name,
with absolute and relative change.

--parity mode instead checks that the two files are byte-equivalent once
timing fields and effectiveness metadata are scrubbed: wall_ms on spans,
real/cpu times and run metadata on google-benchmark output, and every
engine.* counter (the forest engine's allocation accounting, which
measures how an output was computed, not what it is) - effectiveness
telemetry, not output. The telemetry
"schema" marker (absent = v1, present = v2+) is scrubbed too, so reports
from either side of the versioning change compare clean.
Exits nonzero and reports the first differences when anything else differs.
Scripts use it as the cross-width smoke gate; see scripts/check.sh.

--scrub-rounds additionally scrubs everything the network model is allowed
to change: round counters and round-resolution telemetry (any counter,
gauge, histogram, or span field whose name mentions rounds, and the whole
net.* family — fragment counts and per-round congestion profiles grow
under CONGEST), plus table columns whose header mentions rounds or
blow-up. A LOCAL run and a --model congest run of the same bench must then
be equal: fragmentation may change *when* words move, never *what* the
algorithms output. scripts/check.sh uses this as the CONGEST parity smoke.

Usage:
  bench_diff.py A.json B.json                            # wall-clock comparison
  bench_diff.py --parity A.json B.json                   # scrubbed equality gate
  bench_diff.py --parity --scrub-rounds LOCAL.json CONGEST.json

Only the Python standard library is used.
"""

import argparse
import json
import sys

TIMING_KEYS = {
    "wall_ms",
    "real_time",
    "cpu_time",
    "date",
    "host_name",
    "executable",
    "load_avg",
    "iterations",
    "items_per_second",
    "bytes_per_second",
    # google-benchmark BigO fits are derived from timings
    "cpu_coefficient",
    "real_coefficient",
    "rms",
}


def is_effectiveness_key(key):
    # engine.* counters (e.g. bench_forest's per-phase allocation counts)
    # measure *how* a configurable engine did the work, not *what* it
    # produced; the fast and reference forest engines legitimately differ
    # on them while agreeing on every output cell. The schema marker is
    # format versioning, not output.
    return key.startswith("engine.") or key == "schema"


def check_schema(doc, path):
    """Accepts telemetry schema 1 (no marker) and 2; rejects the unknown."""
    schema = doc.get("telemetry", doc).get("schema", 1)
    if schema not in (1, 2):
        sys.exit(f"{path}: unsupported telemetry schema {schema!r}")


def is_round_key(key):
    # Everything the bandwidth model may legitimately move: round clocks
    # ("rounds" span fields, *.node_rounds histograms, *_rounds counters)
    # and the Network's own telemetry family (net.rounds, net.round_*
    # per-round histograms, net.total_fragments, per-node congestion
    # maxima — all of which grow under fragmentation).
    return "round" in key.lower() or key.startswith("net.")


def scrub(node, rounds=False):
    """Removes timing fields and engine.* metadata, recursively;
    with rounds=True also removes round-resolution fields (see
    --scrub-rounds)."""
    if isinstance(node, dict):
        return {
            k: scrub(v, rounds)
            for k, v in node.items()
            if k not in TIMING_KEYS
            and not is_effectiveness_key(k)
            and not (rounds and is_round_key(k))
        }
    if isinstance(node, list):
        return [scrub(x, rounds) for x in node]
    return node


def scrub_round_columns(doc):
    """Drops table columns whose header mentions rounds or blow-up, in
    place. Table cells are positional strings, so the model-dependent
    columns have to go by header name before the generic scrub."""
    for table in doc.get("tables", []):
        headers = table.get("headers", [])
        keep = [
            i
            for i, h in enumerate(headers)
            if "round" not in h.lower() and "blow-up" not in h.lower()
        ]
        if len(keep) == len(headers):
            continue
        table["headers"] = [headers[i] for i in keep]
        table["rows"] = [
            [row[i] for i in keep if i < len(row)] for row in table["rows"]
        ]


def walk_spans(spans, prefix, out):
    for span in spans:
        name = prefix + span.get("name", "?")
        if "wall_ms" in span:
            out[name] = float(span["wall_ms"])
        walk_spans(span.get("children", []), name + " / ", out)


def timings(doc):
    """name -> milliseconds for either supported JSON flavor.

    Tolerant of entries a file may have and its counterpart may not:
    google-benchmark aggregate rows (BigO/RMS fits carry coefficients, not a
    cpu_time) and malformed entries are skipped rather than raising
    KeyError, so two files listing different bench sets still diff — the
    caller reports unmatched names as added/removed.
    """
    out = {}
    if "benchmarks" in doc:  # google-benchmark
        unit_ms = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
        for bench in doc["benchmarks"]:
            name = bench.get("name")
            cpu_time = bench.get("cpu_time")
            if name is None or cpu_time is None:
                continue
            scale = unit_ms.get(bench.get("time_unit", "ns"), 1e-6)
            out[name] = float(cpu_time) * scale
    telemetry = doc.get("telemetry", {})
    walk_spans(telemetry.get("spans", []), "", out)
    return out


def diff_report(a, b, path, lines, limit=20):
    if len(lines) >= limit:
        return
    if type(a) is not type(b):
        lines.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
        return
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                lines.append(f"{path}.{key}: only in second file")
            elif key not in b:
                lines.append(f"{path}.{key}: only in first file")
            else:
                diff_report(a[key], b[key], f"{path}.{key}", lines, limit)
        return
    if isinstance(a, list):
        if len(a) != len(b):
            lines.append(f"{path}: length {len(a)} != {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            diff_report(x, y, f"{path}[{i}]", lines, limit)
        return
    if a != b:
        lines.append(f"{path}: {a!r} != {b!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument(
        "--parity",
        action="store_true",
        help="require equality outside timing and engine.* fields",
    )
    parser.add_argument(
        "--scrub-rounds",
        action="store_true",
        help="with --parity: also scrub round counts and net.* telemetry "
        "(LOCAL-vs-CONGEST output parity)",
    )
    args = parser.parse_args()
    if args.scrub_rounds and not args.parity:
        parser.error("--scrub-rounds requires --parity")

    with open(args.a) as f:
        doc_a = json.load(f)
    with open(args.b) as f:
        doc_b = json.load(f)
    check_schema(doc_a, args.a)
    check_schema(doc_b, args.b)

    if args.parity:
        if args.scrub_rounds:
            scrub_round_columns(doc_a)
            scrub_round_columns(doc_b)
        scrubbed_a = scrub(doc_a, rounds=args.scrub_rounds)
        scrubbed_b = scrub(doc_b, rounds=args.scrub_rounds)
        if scrubbed_a == scrubbed_b:
            what = "timing/engine/round" if args.scrub_rounds else "timing/engine"
            print(f"parity OK: {args.a} == {args.b} outside {what} fields")
            return 0
        lines = []
        diff_report(scrubbed_a, scrubbed_b, "$", lines)
        print(f"parity FAILED: {args.a} vs {args.b}", file=sys.stderr)
        for line in lines:
            print("  " + line, file=sys.stderr)
        return 1

    times_a, times_b = timings(doc_a), timings(doc_b)
    shared = [name for name in times_a if name in times_b]
    if not shared:
        print("no common benches/spans to compare", file=sys.stderr)
        for name in sorted(times_b):
            print(f"(added, only in B)   {name}", file=sys.stderr)
        for name in sorted(times_a):
            print(f"(removed, only in A) {name}", file=sys.stderr)
        return 1
    def fmt_ms(value):
        # Sub-millisecond spans (dynamic-update repairs sit in the tens of
        # microseconds) print in microseconds so the delta column carries
        # signal instead of rounding to 0.000.
        if abs(value) < 1.0:
            return f"{value * 1000.0:.1f}us"
        return f"{value:.3f}"

    width = max(len(name) for name in shared)
    print(f"{'bench':<{width}}  {'A ms':>12}  {'B ms':>12}  {'delta':>10}  ratio")
    for name in shared:
        ta, tb = times_a[name], times_b[name]
        ratio = tb / ta if ta > 0 else float("inf")
        delta = tb - ta
        delta_str = ("-" if delta < 0 else "+") + fmt_ms(abs(delta))
        print(
            f"{name:<{width}}  {fmt_ms(ta):>12}  {fmt_ms(tb):>12}  "
            f"{delta_str:>10}  {ratio:.3f}x"
        )
    for name in sorted(set(times_b) - set(times_a)):
        print(f"(added, only in B)   {name}")
    for name in sorted(set(times_a) - set(times_b)):
        print(f"(removed, only in A) {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
