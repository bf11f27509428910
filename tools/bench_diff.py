#!/usr/bin/env python3
"""Diff of benchmark trajectory points.

Usage: bench_diff.py [--strict] BASELINE FRESH [BASELINE FRESH ...]
       bench_diff.py --self-test

Each argument pair is a committed BENCH_*.json baseline and a freshly
emitted copy (scaa_campaign bench --format json). For every row (keyed by
the first column: strategy or slice) the script prints the wall-clock /
throughput delta, and flags any difference in the integer aggregate columns
— those are seed-for-seed deterministic, so a change there is a behavioral
regression, not timing noise.

BENCH_table4.json also carries kernel rows ("Polyline::project" and
"PubSubBus::publish"): there "simulations" is the fixed operation count
and sims_per_s the kernel throughput (projections/s, publishes/s). The
deterministic-column check applies to them unchanged — the op count
drifting means the benchmark workload changed. "PubSubBus::publish" times
the zero-copy typed dispatch path (six Latest latches, no raw tap) over
the steady-state publish mix; bench_step's bus_publish_typed/tapped/
legacy rows carry the same workload against the in-bench legacy bus.

Timing columns (wall_s, throughput, parallel efficiency) NEVER gate:
shared CI runners make them too noisy. Without --strict the script always
exits 0 and the output lands in the benchmark artifact for human review.
With --strict it exits 1 when a deterministic column drifts, or a baseline
row or one of its deterministic columns goes missing — those are code
regressions, not noise — while NEW ROW (a row the baseline predates) and a
missing timing column stay warnings so adding a benchmark does not require
a lockstep baseline update. Rows in NONDETERMINISTIC_ROWS
(realtime_jitter: deadline-clock latency/jitter/overruns, all scheduler-
dependent) are printed but never gate, even under --strict.

A malformed argument list prints this text to stderr and exits 2.
--self-test runs the script against fixtures it writes to a temporary
directory and exits 0 only if every gating decision comes out as
documented above.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

TIMING_COLUMNS = {"wall_s", "sims_per_s", "points_per_s", "efficiency"}

# Rows measuring an isolated kernel rather than a campaign slice, annotated
# so a reader of the artifact does not misread ops/s as simulations/s.
KERNEL_ROWS = {"Polyline::project", "PubSubBus::publish", "World::reset"}

# Rows that run a campaign slice with benign fault injection attached (the
# faults row: the attack-free grid under a mid-intensity CAN-drop plan).
# Their aggregate columns are seed-for-seed deterministic and gate exactly
# like the strategy rows; the annotation just tells the artifact reader the
# numbers are expected to differ from the fault-free None row.
FAULT_ROWS = {"faults"}

# Rows whose every column is scheduler-dependent (the realtime_jitter row
# reuses the integer aggregate columns for overrun counts and the float
# columns for latency/jitter microseconds — all of it moves with machine
# load). The whole row is advisory: printed, never gating, even --strict.
NONDETERMINISTIC_ROWS = {"realtime_jitter"}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"  [skip] cannot load {path}: {exc}")
        return None


def diff_pair(baseline_path, fresh_path):
    """Print the diff; return the number of gating (deterministic) failures."""
    print(f"== {baseline_path} vs {fresh_path}")
    baseline = load(baseline_path)
    fresh = load(fresh_path)
    if baseline is None or fresh is None:
        return 1
    failures = 0
    key = baseline["columns"][0]
    base_rows = {row[key]: row for row in baseline["rows"]}
    for row in fresh["rows"]:
        name = row[key]
        base = base_rows.get(name)
        if base is None:
            print(f"  {name}: NEW ROW (not in committed baseline)")
            continue
        deltas = []
        drift = []
        advisory = name in NONDETERMINISTIC_ROWS
        for col in base:
            if col != key and col not in row:
                if col in TIMING_COLUMNS or advisory:
                    print(f"  {name}: timing column {col} missing from fresh run")
                else:
                    drift.append(f"{col} {base[col]} -> (missing)")
        for col, value in row.items():
            if col == key or col not in base:
                continue
            if col in TIMING_COLUMNS or advisory:
                if isinstance(value, (int, float)) and isinstance(base[col], (int, float)):
                    # Always print the pair; a 0.0 baseline only suppresses
                    # the percentage (division), never the comparison.
                    pct = f" ({100.0 * (value - base[col]) / base[col]:+.1f}%)" if base[col] else ""
                    deltas.append(f"{col} {base[col]:.3f} -> {value:.3f}{pct}")
            elif base[col] != value:
                drift.append(f"{col} {base[col]} -> {value}")
        line = "; ".join(deltas) if deltas else "no timing columns"
        tag = " [kernel row: ops and ops/s]" if name in KERNEL_ROWS else ""
        if name in FAULT_ROWS:
            tag += " [fault-injection row: aggregates still gate]"
        if advisory:
            tag += " [nondeterministic row: advisory only]"
        print(f"  {name}: {line}{tag}")
        if drift:
            print(f"  {name}: DETERMINISTIC COLUMNS DIFFER: {'; '.join(drift)}")
            failures += 1
    for name in base_rows:
        if not any(row[key] == name for row in fresh["rows"]):
            print(f"  {name}: MISSING from fresh run")
            failures += 1
    return failures


def self_test():
    """Check every gating decision against fixtures; return the exit code."""
    columns = ["strategy", "simulations", "wall_s", "sims_with_hazards",
               "sims_per_s"]

    def row(name, hazards=3, wall=1.0):
        return {"strategy": name, "simulations": 144, "wall_s": wall,
                "sims_with_hazards": hazards, "sims_per_s": 144.0 / wall}

    def bench(rows):
        return {"report": "fixture", "columns": columns, "rows": rows}

    def drop(rows, col):
        return [{k: v for k, v in r.items() if k != col} for r in rows]

    base_rows = [row("None", 1), row("Context-Aware", 9),
                 row("realtime_jitter", 5)]
    # (label, fresh rows or None for "use the args as given", args, exit)
    cases = [
        ("identical", base_rows, ["--strict"], 0),
        ("timing only moves", [row("None", 1, 2.0), row("Context-Aware", 9, 0.5),
                               row("realtime_jitter", 5)], ["--strict"], 0),
        ("deterministic drift", [row("None", 2), *base_rows[1:]],
         ["--strict"], 1),
        ("drift without --strict", [row("None", 2), *base_rows[1:]], [], 0),
        ("advisory row drift", [*base_rows[:2], row("realtime_jitter", 7)],
         ["--strict"], 0),
        ("baseline row missing", base_rows[1:], ["--strict"], 1),
        ("new row", [*base_rows, row("Extra", 0)], ["--strict"], 0),
        ("deterministic column missing from every row",
         drop(base_rows, "sims_with_hazards"), ["--strict"], 1),
        ("timing column missing from every row",
         drop(base_rows, "sims_per_s"), ["--strict"], 0),
        ("lone --strict operand", None, ["--strict", "A"], 2),
        ("no operands", None, [], 2),
        ("odd operand count", None, ["A", "B", "C"], 2),
        ("unknown flag", None, ["--strikt", "A", "B"], 2),
    ]
    failures = 0
    with tempfile.TemporaryDirectory(prefix="bench_diff_selftest") as tmp:
        base_path = os.path.join(tmp, "base.json")
        with open(base_path, "w", encoding="utf-8") as fh:
            json.dump(bench(base_rows), fh)
        for i, (label, fresh_rows, flags, want) in enumerate(cases):
            args = list(flags)
            if fresh_rows is not None:
                fresh_path = os.path.join(tmp, f"fresh{i}.json")
                with open(fresh_path, "w", encoding="utf-8") as fh:
                    json.dump(bench(fresh_rows), fh)
                args += [base_path, fresh_path]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                got = main(args)
            if got != want:
                failures += 1
                print(f"bench_diff --self-test: {label}: exit {got}, "
                      f"expected {want}\n{out.getvalue()}")
    if failures:
        print(f"bench_diff --self-test: {failures} of {len(cases)} case(s) "
              "failed")
        return 1
    print(f"bench_diff --self-test: all {len(cases)} cases OK")
    return 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if argv in (["-h"], ["--help"]):
        print(__doc__)
        return 0
    strict = False
    if argv and argv[0] == "--strict":
        strict = True
        argv = argv[1:]
    if (len(argv) < 2 or len(argv) % 2 != 0
            or any(arg.startswith("-") for arg in argv)):
        print(__doc__, file=sys.stderr)
        return 2
    failures = 0
    for i in range(0, len(argv), 2):
        failures += diff_pair(argv[i], argv[i + 1])
    if failures and strict:
        print(f"bench_diff: {failures} deterministic failure(s) (--strict)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
