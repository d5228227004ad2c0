#!/usr/bin/env python3
"""Builds and runs the sssj layer-ladder benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The benchmark package in perfbench/
(CMake, Release) compiles the library from src/ into .bench_build/perfbench,
which also holds the cached oracle results and the span files of traced runs.

The binary's human-readable lines are passed through. The last line of
stdout is one JSON object with exactly the metrics BENCHMARK.json names for
the mode: its end_to_end metrics with --trace 0, its per_layer metrics with
--trace 1. The exit code is 0 only when the pairs matched the exact oracle
and no front call failed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_LIMIT_S = 175
# Every workload perfbench knows, including cluster-push, which is kept out
# of BENCHMARK.json (see README.md), with a tiny stream for the self-test:
# long enough to pass one horizon and produce pairs, short enough to run
# every rung in seconds.
SELF_TEST_ITEMS = {"str-longhorizon": 1500, "mb-bursty": 6000, "cluster-push": 600}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; raises on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", "4"]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(step))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(args, timeout):
    """Runs the perfbench binary; returns (exit code, stdout lines, parsed JSON or None)."""
    done = subprocess.run([BINARY, "--data-dir", BUILD_DIR] + args, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, lines[:-1] if result is not None else lines, result


def select(result, names):
    """Keeps exactly `names` from the binary's metrics; None if one is missing."""
    metrics = result.get("metrics", {})
    if any(name not in metrics for name in names):
        return None
    return {name: metrics[name] for name in names}


def run(opts, spec, started):
    key = "per_layer" if opts.trace == 1 else "end_to_end"
    names = [m["name"] for m in spec[key]]
    code, lines, result = run_binary(
        ["--workload", opts.workload, "--seed", str(opts.seed), "--seconds",
         str(opts.seconds), "--trace", str(opts.trace)],
        timeout=max(10, RUN_LIMIT_S - (time.time() - started)))
    for line in lines:
        print(line)
    if result is None:
        log("perfbench printed no result (exit code %d)" % code)
        return code or 1
    metrics = select(result, names)
    if metrics is None:
        log("perfbench did not report every %s metric of BENCHMARK.json" % key)
        return 1
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return code


def self_test(spec):
    """The binary's own checks, then every workload at tiny scale in both modes."""
    code, lines, _ = run_binary(["--self-test"], timeout=RUN_LIMIT_S)
    for line in lines:
        print(line)
    failures = 0 if code == 0 else 1
    for name, items in SELF_TEST_ITEMS.items():
        for trace in (0, 1):
            key = "per_layer" if trace else "end_to_end"
            code, _, result = run_binary(
                ["--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--items", str(items)], timeout=RUN_LIMIT_S)
            problems = []
            if result is None:
                problems.append("no result line (exit code %d)" % code)
            else:
                metrics = result["metrics"]
                if code != 0 or not result["correct"]:
                    problems.append("output check failed")
                if result["failed"] != 0 or result["attempted"] < 1:
                    problems.append("attempted=%s failed=%s" % (result["attempted"],
                                                                 result["failed"]))
                for m in spec[key]:
                    got = metrics.get(m["name"])
                    if got is None or got.get("unit") != m["unit"] or not got.get("unit"):
                        problems.append("%s missing or not in %s" % (m["name"], m["unit"]))
                for metric, value in (("error_rate", 0), ("supervisor.restarts", 0)):
                    if metric in metrics and metrics[metric]["value"] != value:
                        problems.append("%s is %s" % (metric, metrics[metric]["value"]))
                for metric, got in metrics.items():
                    if not got.get("unit"):
                        problems.append("%s has no unit" % metric)
                if not trace and metrics.get("error_rate") is None:
                    problems.append("error_rate not printed")
            status = "ok  " if not problems else "FAIL"
            print("  %s %s --trace %d %s" % (status, name, trace, "; ".join(problems)))
            failures += bool(problems)
    print("self-test: %s" % ("passed" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and None in (opts.workload, opts.seed, opts.seconds, opts.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    try:
        spec = load_spec()
        build()
        if opts.self_test:
            return self_test(spec)
        # The limit counts from here: the first run in a checkout also builds.
        return run(opts, spec, time.time())
    except (OSError, ValueError, RuntimeError, subprocess.TimeoutExpired) as error:
        log("perfbench: %s" % error)
        return 2


if __name__ == "__main__":
    sys.exit(main())
