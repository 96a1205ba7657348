#!/usr/bin/env python3
"""Benchmark for ndga: seeded exact-arithmetic workloads, end to end and
layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload conn-flatness --seed 1 --seconds 30 --trace 0

Load: a closed loop with one client.  One job (one public call) runs at a
time, in this process, with no threads.  The deck of jobs is built from the
seed before timing starts and is sized from --seconds, so a run of the
baseline lasts about that long (exact-algebra runs every finite input set
once, about 12 s, however short --seconds is); no job input repeats within
a run.  setup_s is the median of SETUP_PROBES fresh interpreters, each of
which imports ndga and builds this run's deck; they run one at a time
between evenly spaced jobs, outside the timed phase.

--trace 0 prints the end-to-end metrics: jobs_per_s, job_p50_ms,
job_tail_ms, setup_s and peak_rss_mb.  The failure share is the result's
`failed` / `attempted`.  --trace 1 first runs the same deck untraced in a
fresh interpreter, then runs it with layer wrappers installed (see
tracer.py) and prints the per-layer metrics, including trace.overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Input files go to a private
directory under .perfbench_work/ that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("conn-flatness", "lc-metric", "exact-algebra")
SETUP_PROBES = 11
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="target length of the timed phase at the baseline")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up, timed by the parent
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import ndga from ./src of the current directory, and nothing else."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ndga", "__init__.py")):
        sys.exit(f"perfbench: no src/ndga under {os.getcwd()}; run from a source checkout")
    sys.path.insert(0, src)
    import ndga

    if not os.path.abspath(ndga.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported ndga from {ndga.__file__}, not from {src}")


def work_root(args) -> str:
    return os.path.join(os.path.abspath(".perfbench_work"),
                        f"{args.workload}-{args.seed}-{os.getpid()}")


def self_command(args, *extra):
    return [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def setup_probe(args) -> float:
    """Wall time of one fresh interpreter that imports ndga, generates this
    run's inputs and writes its files, then exits."""
    start = time.perf_counter()
    subprocess.run(self_command(args, "--setup-probe"), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_deck(deck, tracer=None, pause=None, pauses=0):
    """Run every job once, in order.  When `pause` is given it is called
    before `pauses` evenly spaced jobs, outside the timed phase.  Returns
    (latencies, results, errors, wall seconds of the timed phase)."""
    latencies, results, errors = [], [], {}
    marks = {len(deck.jobs) * i // pauses for i in range(pauses)} if pause else set()
    clock = time.perf_counter
    paused = 0.0
    start = clock()
    for index, job in enumerate(deck.jobs):
        if index in marks:
            p0 = clock()
            pause()
            paused += clock() - p0
        if tracer is not None:
            tracer.job = index
        t0 = clock()
        try:
            result = job.run()
        except (Exception, SystemExit) as err:  # a failed job; the loop goes on
            result = None
            errors[index] = "".join(traceback.format_exception_only(type(err), err)).strip()
        latencies.append(clock() - t0)
        results.append(result)
    return latencies, results, errors, clock() - start - paused


def failed_jobs(deck, results, errors):
    """Indices of jobs that raised or whose verdict failed a check, with one
    message per failure."""
    failed = dict(errors)
    verdicts = {}
    for index, job in enumerate(deck.jobs):
        if index in errors:
            continue
        try:
            verdicts[index] = job.verdict(results[index])
        except Exception as err:  # unreadable output
            failed[index] = f"verdict unreadable: {err!r}"
    for check in deck.checks:
        if any(i in failed for i in check.jobs):
            continue
        try:
            ok = check.ok([verdicts[i] for i in check.jobs])
        except Exception as err:
            ok, detail = False, repr(err)
        else:
            detail = repr([verdicts[i] for i in check.jobs])[:300]
        if not ok:
            for i in check.jobs:
                failed[i] = f"check failed: {check.what}; verdicts {detail}"
    return failed


def tail(latencies):
    """(percentile, value, jobs beyond it): the highest nearest-rank
    percentile with TAIL_BEYOND jobs beyond it, i.e. the eleventh slowest
    job.  A run with fewer jobs reports its slowest job as p100."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1], 0
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1], TAIL_BEYOND


def report(deck, failed, lines):
    for index in sorted(failed)[:5]:
        print(f"FAILED job {index} ({deck.jobs[index].label}): {failed[index]}", file=sys.stderr)
    for line in lines:
        print(line)


def untraced(args) -> None:
    import workloads

    # set-up is probed between jobs, spread over the run, so that its median
    # sees the same host speed as the timed phase
    setups = []
    root = work_root(args)
    try:
        deck = workloads.build(args.workload, args.seed, args.seconds, root)
        latencies, results, errors, wall = run_deck(
            deck, pause=lambda: setups.append(setup_probe(args)), pauses=SETUP_PROBES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = failed_jobs(deck, results, errors)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    n = len(latencies)
    p, tail_value, beyond = tail(latencies)
    metrics = {
        "jobs_per_s": (n / wall, "1/s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "job_tail_ms": (tail_value * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lines = [f"workload {args.workload}  seed {args.seed}  {n} jobs  timed phase {wall:.3f} s"]
    for name, (value, unit) in metrics.items():
        note = f"  (p{p:.2f} of {n} jobs, {beyond} beyond)" if name == "job_tail_ms" else ""
        lines.append(f"  {name:<14} {value:12.4f} {unit}{note}")
    lines.append(f"  {'failed_share':<14} {len(failed) / n:12.4f}     ({len(failed)} of {n} jobs)")
    report(deck, failed, lines)
    result = {
        "correct": not failed,
        "attempted": n,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def traced(args) -> None:
    import tracer
    import workloads

    # the traced run measures a deck sized for half the time, twice: once
    # untraced in a fresh interpreter for the overhead base, once traced here
    args.seconds /= 2
    child = subprocess.run(self_command(args, "--trace", "0"), check=True,
                           stdout=subprocess.PIPE, text=True)
    plain = json.loads(child.stdout.strip().splitlines()[-1])
    plain_wall = plain["attempted"] / plain["metrics"]["jobs_per_s"]["value"]

    root = work_root(args)
    layers = tracer.Tracer()
    try:
        deck = workloads.build(args.workload, args.seed, args.seconds, root)
        layers.install()
        try:
            latencies, results, errors, wall = run_deck(deck, layers)
        finally:
            layers.uninstall()
        failed = failed_jobs(deck, results, errors)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    values = layers.metrics(wall / plain_wall)
    n = len(latencies)
    lines = [f"workload {args.workload}  seed {args.seed}  {n} jobs  traced {wall:.3f} s  "
             f"untraced {plain_wall:.3f} s  spans {layers.spans()}"]
    for name, unit, _ in tracer.LAYER_METRICS:
        lines.append(f"  {name:<44} {values[name]:14.6g} {unit}")
    report(deck, failed, lines)
    result = {
        "correct": not failed and plain["correct"],
        "attempted": n,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in tracer.LAYER_METRICS},
    }
    print(json.dumps(result))


def main(argv=None) -> None:
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, HERE)
    if args.setup_probe:
        import workloads

        root = work_root(args)
        try:
            workloads.build(args.workload, args.seed, args.seconds, root)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    elif args.trace:
        traced(args)
    else:
        untraced(args)


if __name__ == "__main__":
    main()
