"""Steadiness check: run the benchmark several times and compare.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload runtime --runs 10

Runs ``perfbench/run.py`` once per seed (``--first-seed`` onwards), one
run after another, with ``run_seconds`` from ``BENCHMARK.json`` unless
``--seconds`` is given.  For every end-to-end metric it prints the
median of the runs and the distance between their first and third
quartiles as a share of the median, against a third of the metric's
bound, and then the same spread of each operation's own metric (from
the runs' ``ops:`` lines) and of the unscaled walls and the reference
kernel's wall (from their ``host:`` lines), which shows how far the
host's own speed drifted while the runs were made.  It fails (exit 1)
when a run is not correct, when an end-to-end spread reaches a third of
its bound, or when the runs disagree on any deterministic work counter.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def one_run(workload: str, seed: int, seconds: int) -> Dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    def tagged(tag: str):
        return next((json.loads(line[len(tag):]) for line in lines
                     if line.startswith(tag)), None)

    result = json.loads(lines[-1])
    result["counters"] = tagged("counters: ")
    result["ops"] = tagged("ops: ")
    result["host"] = tagged("host: ")
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = one_run(args.workload, seed, seconds)
        results.append(result)
        print(f"seed {seed} ({result['elapsed_s']:.1f} s): " + ", ".join(
            [f"{name}={m['value']:.6g}"
             for name, m in result["metrics"].items()]
            + [f"{name}={value:.6g}"
               for name, value in result["host"].items()]), flush=True)

    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    if not ok:
        print("FAIL: a run reported failed operations")
    if any(r["counters"] != results[0]["counters"] for r in results):
        ok = False
        print("FAIL: deterministic counters differ between runs")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        share = spread(values)
        limit = metric["bound"] / 3
        steady = share < limit
        ok = ok and steady
        print(f"{args.workload:13s} {name:22s} median "
              f"{statistics.median(values):12.6g} {metric['unit']:6s} "
              f"spread {share:7.2%} (limit {limit:6.2%})"
              f"{'' if steady else '  TOO WIDE'}")
    for tag, label in (("ops", "op "), ("host", "")):
        for name in sorted(results[0][tag]):
            values = [r[tag][name] for r in results]
            print(f"{args.workload:13s} {label + name:22s} median "
                  f"{statistics.median(values):12.6g}        "
                  f"spread {spread(values):7.2%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
