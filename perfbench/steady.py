"""Steadiness report: repeat one workload over several seeds.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S]

Runs `run.py --trace 0` once per seed, one run at a time, and prints for
each end-to-end metric of BENCHMARK.json its median, first and third
quartiles (`statistics.quantiles(values, n=4)`) and the spread
(q3 - q1) / median next to the metric's bound.  A spread under a third
of the bound is marked "steady"; under the bound, "within bound".  The
raw results go to perfbench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def spread_table(results, end_to_end):
    """Rows (name, median, q1, q3, spread, bound, verdict) per metric."""
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = metric["bound"]
        verdict = (
            "steady" if spread < bound / 3
            else "within bound" if spread <= bound
            else "OVER BOUND"
        )
        rows.append((name, median, q1, q3, spread, bound, verdict))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; defaults to run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["wall_s"] = wall
        results.append(result)
        values = ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        )
        print(f"seed {seed}: correct={result['correct']} ops={result['attempted']} "
              f"wall={wall:.1f}s {values}", flush=True)
    rows = spread_table(results, bench["end_to_end"])
    print(f"\n{args.workload}: {len(results)} runs of {seconds} s")
    print(f"{'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
    for name, median, q1, q3, spread, bound, verdict in rows:
        print(f"{name:<14}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}{bound:>7.2f}  {verdict}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steady-{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "results": results,
                   "spreads": [dict(zip(("name", "median", "q1", "q3", "spread", "bound",
                                         "verdict"), row)) for row in rows]}, fh, indent=1)
    return 0 if all(row[6] != "OVER BOUND" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
