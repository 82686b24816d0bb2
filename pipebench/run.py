#!/usr/bin/env python3
"""Pipeline benchmark: graph -> colors / MIS / repaired labels.

Builds the library and pipeline_bench from source (CMake, Release) into
.bench_build/pipebench, runs one workload in its own process, checks each
stage's output digest against pipebench/digests.json, and prints one JSON
result as the last line of stdout:

  python3 pipebench/run.py --workload interval-1m --seed 1 --seconds 10 --trace 0

--trace 1 prints the per-layer metrics instead of the end-to-end ones and
writes the run's spans to .bench_build/pipebench/spans/.

  python3 pipebench/run.py --small

is the benchmark's own test: every workload at a small size, untraced and
traced, checking that each metric named in BENCHMARK.json is printed with
its unit and that no operation failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")
BINARY = os.path.join(BUILD, "pipeline_bench")
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "pipeline_bench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_child(workload, seed, seconds, trace, small):
    """Runs one workload in its own process; returns its RESULT dict."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if small:
        cmd.append("--small")
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%s%s.jsonl" % (workload, seed,
                                          "-small" if small else ""))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s: timed out after %ss" % (workload, CHILD_TIMEOUT_S))
        return None
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        log("%s: exited with %d" % (workload, proc.returncode))
        return None
    return result


def check_digests(result, small):
    """Compares each stage's output digest with its pin.

    A stage whose input does not depend on the seed has one pin for every
    seed ("any"). The others are pinned for the seeds listed in
    digests.json; on any other seed they are checked only by the audits
    and by the equality of repeated cycles. Returns (compared, mismatched,
    unpinned stage names).
    """
    with open(os.path.join(HERE, "digests.json")) as f:
        pins = json.load(f)["small" if small else "full"]
    pins = pins.get(result["workload"], {})
    compared, mismatched, unpinned = 0, 0, []
    for stage, digest in sorted(result["digests"].items()):
        stage_pins = pins.get(stage, {})
        pinned = stage_pins.get("any", stage_pins.get(str(result["seed"])))
        if pinned is None:
            log("digest %s %s (not pinned for seed %s)" %
                (stage, digest, result["seed"]))
            unpinned.append(stage)
            continue
        compared += 1
        if pinned != digest:
            log("FAIL: %s digest %s != pinned %s" % (stage, digest, pinned))
            mismatched += 1
    return compared, mismatched, unpinned


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test(seed):
    """Small-size run of every workload, untraced and traced."""
    spec = load_spec()
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_child(workload, seed, 0, trace, small=True)
            if result is None:
                ok = False
                continue
            problems = []
            if result["failed"] != 0:
                problems.append("%d failed operations" % result["failed"])
            _, mismatched, unpinned = check_digests(result, small=True)
            if mismatched:
                problems.append("%d digest mismatches" % mismatched)
            if unpinned:
                problems.append("unpinned digests " + ", ".join(unpinned))
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("missing " + m["name"])
                elif got["unit"] != m["unit"]:
                    problems.append("%s unit %s != %s" %
                                    (m["name"], got["unit"], m["unit"]))
                elif key == "end_to_end" and not got["value"] > 0:
                    problems.append("%s is %s" % (m["name"], got["value"]))
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("unlisted metrics " + ", ".join(sorted(extra)))
            status = "ok" if not problems else "; ".join(problems)
            log("self-test %-14s trace=%d: %s" % (workload, trace, status))
            ok = ok and not problems
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small sizes; without --workload, the self-test")
    args = parser.parse_args()
    if not args.workload and not args.small:
        parser.error("--workload is required (or --small for the self-test)")
    if not build():
        return 1
    if not args.workload:
        return self_test(args.seed)

    result = run_child(args.workload, args.seed, args.seconds, args.trace,
                       args.small)
    if result is None:
        return 1
    compared, mismatched, _ = check_digests(result, args.small)
    failed = result["failed"] + mismatched
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"] + compared,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
