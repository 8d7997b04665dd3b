"""Run-to-run spread of the end-to-end metrics against their bounds.

Runs the benchmark command of ``BENCHMARK.json`` once per seed, one run at
a time, and prints for every end-to-end metric its median and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, beside the metric's bound::

    python3 wfitbench/noise.py --workload auto_paper --seeds 1 2 3 4 5

Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    """(median, interquartile range / median) of ``values``."""
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, (q3 - q1) / mid if mid else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        command = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=600
        )
        if done.returncode != 0:
            print(done.stdout, done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    if len(runs) < 2:
        return 0
    print(f"{'metric':<24} {'median':>14} {'IQR/median':>11} {'bound':>6}")
    for name, bound in bounds.items():
        mid, rel = spread([r["metrics"][name]["value"] for r in runs])
        flag = "" if rel <= bound / 3 else (" > bound/3" if rel <= bound else " > BOUND")
        print(f"{name:<24} {mid:>14.6g} {rel:>11.4f} {bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
