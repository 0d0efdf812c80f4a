#!/usr/bin/env python3
"""Build and run the GemFI campaign-throughput benchmark.

One workload, one run (the last stdout line is the result object):
    python3 perfbench/run.py --workload atomic-dct-local --seed 7 --seconds 20 --trace 0

Every workload, untraced then traced, with a summary written to
.bench_build/perfbench/results.json:
    python3 perfbench/run.py --all --seed 7

Self-tests of the benchmark's helpers:
    python3 perfbench/run.py --selftest

The benchmark is built from the repository sources into .bench_build/perfbench
(Release) on first use; later runs only rebuild what changed.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
WORKLOADS = ["atomic-dct-local", "pipelined-dct-local", "atomic-dct-now", "atomic-dct-service"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("GemFI sources not found under " + ROOT, 2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, target)


def parse_result(line):
    """The result object, or None unless it has exactly the contract's keys."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    if not isinstance(result["metrics"], dict) or result["attempted"] < 1:
        return None
    return result


def run_once(binary, workload, seed, seconds, trace):
    """Run one workload; returns (report text, result object)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", WORK_DIR]
    if trace:
        cmd += ["--spans-out", os.path.join(BUILD_DIR, "spans-%s-seed%d.jsonl" % (workload, seed))]
    # Own process group, so a timeout also takes down any forked worker processes.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("%s exited with code %d" % (workload, proc.returncode))
    lines = out.rstrip("\n").split("\n")
    result = parse_result(lines[-1])
    if result is None or not result["correct"]:
        sys.stdout.write(out)
        fail("%s printed no valid result line" % workload)
    return out, result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--selftest", action="store_true", help="build and run the helper self-tests")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if not args.all and not args.workload:
        ap.error("--workload, --all or --selftest is required")

    binary = build("gemfi_perfbench")
    os.makedirs(WORK_DIR, exist_ok=True)
    if not args.all:
        out, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        return

    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out, result = run_once(binary, workload, args.seed, args.seconds, trace)
            sys.stdout.write("\n".join(out.rstrip("\n").split("\n")[:-1]) + "\n")
            summary.setdefault(workload, {})["per_layer" if trace else "end_to_end"] = result
    path = os.path.join(BUILD_DIR, "results.json")
    with open(path, "w") as f:
        json.dump({"seed": args.seed, "seconds": args.seconds, "workloads": summary}, f, indent=1)
    print("perfbench: every workload passed its correctness gate; results in " + path)


if __name__ == "__main__":
    main()
