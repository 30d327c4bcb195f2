#!/usr/bin/env python3
"""Run one workload on several seeds and summarize each end-to-end metric.

    python3 bench/spread.py --workload solve --seeds 101-110

Runs ``bench/run.py`` once per seed, one run after another, and prints for
every metric the median and the spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median. It also prints the failed share of the operations. This is
the command behind the reference figures in README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("101-110"),
                    help="inclusive range, default 101-110")
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)

    values, attempted, failed = {}, 0, 0
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"], capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        wall = time.perf_counter() - t0
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"seed {seed}: {wall:.1f} s, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed, " + ", ".join(
                  f"{k} {m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{args.workload}: {failed}/{attempted} operations failed")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"  {name:14s} median {med:12.6g}  spread {(q3 - q1) / med:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
