#!/usr/bin/env python3
"""Steadiness check for the ndga benchmark.

Runs one workload (or all) several times with consecutive seeds, each run
in a fresh interpreter, and prints for every end-to-end metric the median,
the quartiles and the spread (Q3 - Q1) / median next to the metric's bound
from BENCHMARK.json.  Run from the root of a source checkout:

    python3 perfbench/steady.py --workload all --runs 10 --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(workload: str, results: list, spec: dict) -> bool:
    """Print the table for one workload; True when every spread is within
    its bound and no job failed."""
    steady = True
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"{workload}: {len(results)} runs, {failed} of {attempted} jobs failed")
    print(f"  {'metric':<13} {'unit':<5} {'median':>11} {'Q1':>11} {'Q3':>11} {'spread':>7} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        within = spread <= metric["bound"]
        steady = steady and within
        mark = "" if within else "  over bound"
        print(f"  {name:<13} {metric['unit']:<5} {median:11.4f} {q1:11.4f} {q3:11.4f} "
              f"{spread:7.3f} {metric['bound']:6.2f}{mark}")
        print("    runs: " + " ".join(f"{v:.4g}" for v in values))
    return steady and failed == 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first run")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        results = [run_once(workload, args.seed + i, args.seconds) for i in range(args.runs)]
        ok = summarize(workload, results, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
