#!/usr/bin/env python3
"""Builds and runs the Lumos5G serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady_wide --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first form builds perfbench/serve_bench (Release, into .bench_build/)
if needed and runs one workload; the last stdout line is the result JSON.
The second runs every workload at smoke size in both trace modes, checks
that every metric in BENCHMARK.json is printed with its unit, and checks
that a flipped answer trips the correctness gate.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "serve_bench")
WORKLOADS = ("steady_wide", "churn_narrow", "open_reload")
# A whole run must end well inside the three minutes a run is allowed.
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds serve_bench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.h")):
        sys.exit("perfbench: no Lumos5G sources next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "serve_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_bench(args, timeout=RUN_TIMEOUT_S):
    """Runs serve_bench with `args`; returns (exit code, stdout text)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_bench(["--workload", workload, "--seed", "1",
                                   "--seconds", "0.5", "--trace", str(trace),
                                   "--smoke"])
            res = result_of(out)
            label = "%s trace=%d" % (workload, trace)
            if code != 0 or not res or res["correct"] is not True:
                problems.append("%s: exit %d, result %r" % (label, code, res))
                continue
            if res["attempted"] < 1 or res["failed"] != 0:
                problems.append("%s: attempted %r failed %r"
                                % (label, res["attempted"], res["failed"]))
            for m in expected[trace]:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append("%s: metric %s missing or not in %s"
                                    % (label, m["name"], m["unit"]))
                elif m["name"] + " " not in out:
                    problems.append("%s: metric %s not printed by name"
                                    % (label, m["name"]))
            print("selftest %-28s ok" % label)
    # One flipped bit in one recorded answer must fail the run.
    code, out = run_bench(["--workload", "steady_wide", "--seed", "1",
                           "--seconds", "0.5", "--trace", "0", "--smoke",
                           "--corrupt-one"])
    res = result_of(out)
    if code == 0 or not res or res["correct"] is not False or res["failed"] < 1:
        problems.append("corrupted answer did not trip the gate: exit %d, %r"
                        % (code, res))
    else:
        print("selftest %-28s ok" % "corrupt-one trips the gate")
    for p in problems:
        print("selftest FAIL: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    build()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        bench_args += ["--spans-out",
                       os.path.join(spans, args.workload + ".csv")]
    code, out = run_bench(bench_args)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
