#!/usr/bin/env python3
"""Record the benchmark's reference digests.

Run from the repository root:

    python3 perfbench/record_reference.py --seeds 0-63,2022

For each seed and workload it runs the measurement binary once (a warm-up
plus one timed pass), requires the two passes to agree bit-exactly (for
serial_ticks that is the runner against the serial fold; for
table4_campaign at seed 2022 also against BENCH_table4.json), and stores
each result slice's simulation count and SHA-256 prefix in
perfbench/reference.json. Existing entries for other seeds are kept.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", required=True, help="e.g. 2022,0-47")
    args = p.parse_args()

    out = os.path.join(run.HERE, "reference.json")
    binary = run.build()
    ref = {}
    if os.path.isfile(out):
        with open(out) as f:
            ref = json.load(f)
    for workload in run.WORKLOADS:
        for seed in parse_seeds(args.seeds):
            raw = run.measure(binary, workload, seed, 1e-9, 0)
            attempted, failed, verdicts = run.check(raw, None)
            if failed:
                sys.exit("%s seed %d: passes disagree: %s"
                         % (workload, seed, verdicts))
            ref.setdefault(workload, {})[str(seed)] = {
                s["name"]: [s["sims"], run.digest(s["canon"])]
                for s in raw["checks"][0]["slices"]}
            run.note("%s seed %d: %d sims recorded"
                     % (workload, seed, attempted))
            with open(out, "w") as f:
                json.dump(ref, f, indent=1, sort_keys=True)
                f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
