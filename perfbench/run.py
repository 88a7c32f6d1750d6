#!/usr/bin/env python3
"""Receiver benchmark entry point.

    python3 perfbench/run.py --workload cell_bulk --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Builds the perfbench binary and
the libraries it measures from source into .bench_build/ (the first run
builds; later runs only re-check), runs one workload, checks that the
result line names exactly the metrics BENCHMARK.json lists for the mode
(--trace 0: end_to_end, --trace 1: per_layer), and prints the binary's
report with the result JSON as the last line. Exits non-zero when the
build fails, an output check fails, or the result line is malformed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    rc = 0
    with open(log_path, "a") as log:
        # Configure every run: it is fast once cached, and it re-reads the
        # git SHA that the provenance line records.
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") and not os.path.exists(
                os.path.join(BUILD, "CMakeCache.txt")):
            cmd += ["-G", "Ninja"]
        rc = subprocess.call(cmd, stdout=log, stderr=log)
        if rc == 0:
            jobs = str(max(1, min(4, os.cpu_count() or 1)))
            rc = subprocess.call(["cmake", "--build", BUILD, "--target",
                                  "perfbench", "-j", jobs],
                                 stdout=log, stderr=log)
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        if not os.path.exists(BINARY):
            shutil.rmtree(BUILD, ignore_errors=True)
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    spec, want = expected_metrics(trace)
    try:
        res = json.loads(line)
    except ValueError:
        fail("last line is not a JSON result")
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(res))
    got = {n: m.get("unit") for n, m in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "wrong unit %s" % (missing, extra, wrong))
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject", default="",
                    help="test hook: corrupt_egress | break_conservation")
    args = ap.parse_args()

    spec, _ = expected_metrics(args.trace)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("run failed (exit %d)" % proc.returncode)
    check_result(lines[-1], args.trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
