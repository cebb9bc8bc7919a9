#!/usr/bin/env python3
"""Builds arpsec-bench from the checkout and runs one workload.

    python3 arpsec-bench/run.py --workload replay-all --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The benchmark is configured as Release
in .bench_build/arpsec-bench (built on first use, incrementally after that),
its scratch files go to .bench_build/work, and the traced run's Chrome trace
to .bench_build/trace. The metric lines of arpsec-bench are passed through;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end list of BENCHMARK.json, with --trace 1 its per_layer list.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "arpsec-bench")
WORK_DIR = os.path.join(".bench_build", "work")
TRACE_DIR = os.path.join(".bench_build", "trace")
BINARY = os.path.join(BUILD_DIR, "arpsec-bench")
# A run must finish within 180 s; the up-to-date check of the build takes
# a few seconds of that.
RUN_LIMIT_S = 160


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "arpsec-bench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join("src", "CMakeLists.txt")):
        log("no framework sources under ./src; run from the root of a checkout")
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2

    if not build():
        log("build failed")
        return 1
    for d in (WORK_DIR, TRACE_DIR):
        os.makedirs(d, exist_ok=True)

    out_path = os.path.join(WORK_DIR, "%s-%d.result.json" % (args.workload, args.seed))
    trace_path = os.path.join(TRACE_DIR, "%s-%d.trace.json" % (args.workload, args.seed))
    for stale in (out_path, trace_path):
        if os.path.exists(stale):
            os.remove(stale)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--work-dir", WORK_DIR, "--out", out_path]
    if args.trace:
        command += ["--trace", trace_path]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log("arpsec-bench exceeded %d s" % RUN_LIMIT_S)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1) or not os.path.exists(out_path):
        log("arpsec-bench exited with %d" % proc.returncode)
        return 1

    with open(out_path) as f:
        result = json.load(f)
    correct = bool(result["correct"]) and proc.returncode == 0
    if args.trace:
        try:
            with open(trace_path) as f:
                json.load(f)
        except (OSError, ValueError) as e:
            log("trace %s does not parse: %s" % (trace_path, e))
            correct = False
    source = result["layers"] if args.trace else result["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("metric %s missing or in another unit" % m["name"])
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
