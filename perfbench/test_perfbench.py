#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Run from the root of a source checkout (builds like run.py). Shows that:
  * every workload, traced and untraced, exits 0 with a correct result
    that loses no packet and reports the measured fail rate, and whose
    metric names and units are exactly BENCHMARK.json's for the mode,
    and the traced run writes its span file, reconciles kernels against
    run_tti, and drops no span;
  * the output checks fire: a corrupted egress comparison (cell_bulk, and
    the multicell_1ms egress fingerprint) and a broken packet-conservation
    sum (multicell_1ms) each fail the run without printing a result;
  * multicell_1ms fingerprints the egress bytes of at least one flow;
  * a directory holding only BENCHMARK.json and perfbench/ fails cleanly.
Exits non-zero on the first failed expectation.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
SEED = "7"


def run(workload, trace, inject="", cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", SECONDS,
           "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    # An invalid run (the open-loop generator fell behind on a busy host;
    # "invalid run" on stderr) is measured again, up to three times.
    for _ in range(3):
        p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                           timeout=600)
        if "invalid run" not in p.stderr:
            break
    return p


def expect(cond, what, proc=None):
    if cond:
        print("ok   " + what)
        return
    print("FAIL " + what)
    if proc is not None:
        print(proc.stdout[-3000:])
        print(proc.stderr[-3000:])
    sys.exit(1)


def result_line(proc):
    try:
        return json.loads(proc.stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = "%s --trace %d" % (w["name"], trace)
            p = run(w["name"], trace)
            res = result_line(p)
            expect(p.returncode == 0 and res is not None and res["correct"],
                   name + ": exits 0 with a correct result", p)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            expect(got == want, name + ": prints every %s metric" % key, p)
            # `failed` counts packets the program lost or corrupted; CRC
            # failures are the measured fail rate, printed on every run.
            expect(res["attempted"] >= 1 and res["failed"] == 0,
                   name + ": offers packets and loses none", p)
            expect(re.search(r"fail_rate \d", p.stdout) is not None,
                   name + ": reports the measured fail rate", p)
            expect("meta: " in p.stdout and '"seed": %s' % SEED in p.stdout,
                   name + ": records provenance", p)
            if trace:
                m = res["metrics"]
                expect(m["obs.trace_dropped"]["value"] == 0,
                       name + ": trace complete", p)
                expect("reconcile: kernels" in p.stdout,
                       name + ": prints the reconciliation line", p)
                path = os.path.join(ROOT, ".bench_build", "perfbench-out",
                                    "trace_%s_seed%s.json" % (w["name"], SEED))
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                expect(any(e["name"] in ("run_tti", "offer") for e in events),
                       name + ": span file holds the workload's calls", p)
            if w["name"] == "multicell_1ms":
                burst = re.search(r"verification burst: .* fingerprinted on "
                                  r"(\d+) of", p.stdout)
                expect(burst is not None and int(burst.group(1)) > 0,
                       name + ": egress bytes fingerprinted", p)

    p = run("cell_bulk", 0, inject="corrupt_egress")
    expect(p.returncode != 0 and result_line(p) is None and
           "wrong bytes" in p.stdout,
           "cell_bulk: a corrupted egress byte fails the run", p)
    p = run("multicell_1ms", 0, inject="corrupt_egress")
    expect(p.returncode != 0 and result_line(p) is None and
           "wrong bytes" in p.stdout,
           "multicell_1ms: a corrupted egress fingerprint fails the run", p)
    p = run("multicell_1ms", 0, inject="break_conservation")
    expect(p.returncode != 0 and result_line(p) is None and
           "conservation" in p.stdout,
           "multicell_1ms: a broken conservation sum fails the run", p)

    bare = os.path.join(ROOT, ".bench_build", "test-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run("cell_bulk", 0, cwd=bare)
    expect(p.returncode != 0 and result_line(p) is None,
           "without the sources: fails without a result", p)
    shutil.rmtree(bare, ignore_errors=True)
    print("all perfbench checks passed")


if __name__ == "__main__":
    main()
