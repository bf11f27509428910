#!/usr/bin/env python3
"""Self-tests of the campaign benchmark.

Run from the repository root (about a minute on 4 cores):

    python3 perfbench/selftest.py

1. Every workload, with --trace 0 and 1 at the shortest run length (one
   timed pass), emits exactly the metrics BENCHMARK.json declares, each
   with its declared unit, and checks clean at seed 2022.
2. The stored reference checks a run clean, and a copy of it with one
   digest tampered makes run.check report failed > 0.
3. A seed without a stored reference falls back to the warm-up pass as
   reference, counts only the timed pass, and still checks clean.
4. A directory holding only BENCHMARK.json and perfbench/ makes run.py
   exit non-zero without printing a result line.
Scratch files go under .bench_build/perfbench-selftest.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-selftest")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

sys.path.insert(0, HERE)
import run  # noqa: E402

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(workload, seed, trace, cwd=ROOT):
    r = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1e-9",
         "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900)
    lines = r.stdout.strip().splitlines()
    return r.returncode, lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for w in spec["workloads"]:
        for trace in (0, 1):
            rc, lines = bench(w["name"], 2022, trace)
            tag = "%s trace=%d" % (w["name"], trace)
            expect(rc == 0 and lines, tag + ": exits 0 with output")
            if rc != 0 or not lines:
                continue
            result = json.loads(lines[-1])
            expect(set(result) == RESULT_KEYS, tag + ": result keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == declared[trace], tag + ": metrics and units match")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   tag + ": metric values are numbers")
            expect(result["correct"] and result["failed"] == 0 and
                   result["attempted"] >= 1, tag + ": checks clean")

    # Tampered reference: one run of the binary, checked in-process against
    # the stored reference and against a copy with one digest zeroed.
    raw = run.measure(run.build(), "paired_sweep", 2022, 1e-9, 0)
    stored = run.load_reference("paired_sweep", 2022)
    attempted, failed, _ = run.check(raw, stored)
    expect(attempted > 0 and failed == 0, "stored reference checks clean")
    tampered = copy.deepcopy(stored)
    victim = sorted(tampered)[0]
    tampered[victim][1] = "0" * 16
    attempted, failed, _ = run.check(raw, tampered)
    expect(failed > 0 and failed / attempted > 0,
           "tampered digest of '%s' gives fail_rate %.3f > 0"
           % (victim, failed / attempted))

    unrecorded = 10 ** 9 + 7
    rc, lines = bench("paired_sweep", unrecorded, 0)
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    expect(rc == 0 and result["correct"] and
           detail["check"]["mode"].startswith("warm-up pass") and
           result["attempted"] == sum(
               sims for sims, _ in stored.values()),
           "unrecorded seed checks one timed pass against its warm-up pass")

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = bench("paired_sweep", 1, 0, cwd=bare)
    expect(rc != 0 and not any(l.startswith('{"correct"') for l in lines),
           "benchmark alone (no sources) exits %d without a result" % rc)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
