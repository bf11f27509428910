#!/usr/bin/env python3
"""Campaign benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload table4_campaign --seed 2022 \
        --seconds 20 --trace 0

It builds the measurement binary (perfbench.cpp, against the unchanged
sources in src/) under .bench_build/perfbench, runs one workload, checks
every result slice bit-exactly, and prints two JSON lines on stdout: a
detail line (host/build manifest, fail_rate, per-check verdicts) and, last,
the result line {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones. Build output and notes go to stderr.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table4_campaign", "serial_ticks", "paired_sweep")
BINARY_TIMEOUT_S = 170
# BENCH_table4.json columns that are pure functions of (reps, seed).
TABLE4_DETERMINISTIC = (
    "simulations", "sims_with_alerts", "sims_with_hazards",
    "sims_with_accidents", "hazards_without_alerts", "fcw_activations",
    "lane_invasion_rate_mean", "tth_mean", "tth_std")
BENCH_TABLE4_SEED = 2022


def note(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then (re)build the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("scaa sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        jobs = str(min(os.cpu_count() or 1, 4))
        subprocess.run(
            ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
            check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def digest(canon):
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def source_digest():
    """SHA-256 over src/ and perfbench/ sources: the build's identity when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def measure(binary, workload, seed, seconds, trace):
    """Runs the measurement binary once; returns its raw JSON document."""
    r = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=BINARY_TIMEOUT_S)
    if r.returncode != 0 or not r.stdout.strip():
        raise RuntimeError("measurement binary exited with %d" % r.returncode)
    return json.loads(r.stdout.strip().splitlines()[-1])


def load_reference(workload, seed):
    """Stored {slice: [sims, digest]} for (workload, seed), or None."""
    path = os.path.join(HERE, "reference.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def bench_table4_rows():
    path = os.path.join(ROOT, "BENCH_table4.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return {row["strategy"]: row for row in json.load(f)["rows"]}


def bench_table4_mismatch(canon, bench_rows):
    """True when a table4 slice (reps 2, seed 2022) differs from the
    committed BENCH_table4.json deterministic columns."""
    cells = canon.split(",")
    row = bench_rows.get(cells[0])
    if row is None or len(cells) != 1 + len(TABLE4_DETERMINISTIC):
        return True
    return any(float(cell) != float(row[col])
               for cell, col in zip(cells[1:], TABLE4_DETERMINISTIC))


def check(raw, reference):
    """Compare every check set against the expected slices. Returns
    (attempted, failed, verdicts)."""
    checks = raw["checks"]
    if reference is not None:
        expected = reference
        mode = "stored reference"
    else:
        # No stored reference for this seed: the warm-up (the runner path,
        # also for serial_ticks) is the reference for every later pass, and
        # is not itself counted. This catches passes that disagree, not a
        # change that moves every pass alike.
        expected = {s["name"]: (s["sims"], digest(s["canon"]))
                    for s in checks[0]["slices"]}
        checks = checks[1:]
        mode = "warm-up pass, unchecked against a stored reference"
    bench_rows = None
    if (raw["workload"] == "table4_campaign"
            and raw["seed"] == BENCH_TABLE4_SEED):
        bench_rows = bench_table4_rows()
        if bench_rows is None:
            note("BENCH_table4.json not found; skipping its comparison")
    attempted = failed = 0
    verdicts = []
    for cs in checks:
        got = {s["name"]: s for s in cs["slices"]}
        bad = []
        for name, (sims, dig) in expected.items():
            attempted += sims
            s = got.get(name)
            if (s is None or s["canon"].startswith("error:") or
                    digest(s["canon"]) != dig or
                    (bench_rows is not None and
                     bench_table4_mismatch(s["canon"], bench_rows))):
                failed += sims
                bad.append(name)
        extra = sorted(set(got) - set(expected))
        for name in extra:
            attempted += got[name]["sims"]
            failed += got[name]["sims"]
        verdicts.append({"pass": cs["label"], "mismatched": bad + extra})
    attempted += raw["identity_attempted"]
    failed += raw["identity_failures"]
    return attempted, failed, {"mode": mode, "passes": verdicts,
                               "bench_table4_checked": bench_rows is not None}


def end_to_end(raw):
    return {
        "sims_per_s": {"value": raw["sims_per_pass"] /
                       statistics.median(raw["pass_s"]), "unit": "1/s"},
        "tick_p50_us": {"value": raw["tick_p50_us"], "unit": "us"},
        "tick_p99_us": {"value": raw["tick_p99_us"], "unit": "us"},
        "setup_s": {"value": statistics.median(raw["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        note("build failed: %s" % e)
        return 2
    try:
        raw = measure(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        note("measurement failed: %s" % e)
        return 3

    reference = load_reference(args.workload, args.seed)
    if reference is None:
        note("no stored reference for seed %d: passes are checked only "
             "against the warm-up pass" % args.seed)
    attempted, failed, verdicts = check(raw, reference)
    if failed:
        note("%d of %d simulations failed their check" % (failed, attempted))
    metrics = raw["layers"] if args.trace else end_to_end(raw)
    manifest = dict(raw["manifest"], git_sha=git_sha(),
                    source_sha256=source_digest())
    print(json.dumps({"manifest": manifest, "workload": args.workload,
                      "seed": args.seed, "fail_rate": failed / attempted,
                      "check": verdicts, "pass_s": raw["pass_s"],
                      "tick_samples": raw["tick_samples"],
                      "setup_s": raw["setup_s"]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
