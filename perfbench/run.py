#!/usr/bin/env python3
"""Build and run the wss benchmark (perfbench/).

    python3 perfbench/run.py --workload fabric|dcn|coll|all \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark program, wss_perfbench,
is built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build); later runs only re-check the build. Build output goes to stderr, so
the last line of stdout is the program's JSON result. With --trace 1
the benchmark's spans are written to <build dir>/spans/.

--workload all runs the three workloads one after another, each in
its own process (peak_rss_mb is per process), and ends with one JSON
object whose metric names are prefixed by the workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fabric", "dcn", "coll")
# A run must end within 180 s; this leaves room for the build check.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, target)


def run_benchmark(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s"
                 % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: %s exited with code %d"
                 % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit("perfbench: %s printed no result line" % workload)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: %s printed a malformed result" % workload)
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if args.self_test:
        tests = build("perfbench_tests")
        sys.exit(subprocess.run([tests]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    binary = build("wss_perfbench")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        lines, result = run_benchmark(binary, name, args.seed, args.seconds,
                                   args.trace)
        if len(names) == 1:
            print("\n".join(lines))
            return
        print("\n".join(lines[:-1]))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][name + "." + metric] = value
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
