#!/usr/bin/env python3
"""Run-to-run spread of every metric of one workload over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds 10] [--trace 0]

Runs the benchmark once per seed, then prints each metric's median, first
and third quartile (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    # build once, then run the binary directly, so nothing rebuilds mid-series
    if subprocess.run(["python3", "perfbench/run.py", "--build-only"]).returncode != 0:
        sys.exit("build failed")
    values = {}
    for seed in seeds(a.seeds):
        cmd = ["_build/default/perfbench/main.exe", "--workload", a.workload, "--seed", str(seed),
               "--seconds", a.seconds, "--trace", a.trace]
        p = subprocess.run(cmd, capture_output=True, text=True)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
        try:
            r = json.loads(last)
        except json.JSONDecodeError:
            print(f"seed {seed}: no result (exit {p.returncode})\n{p.stderr[-2000:]}", file=sys.stderr)
            continue
        print(f"seed {seed}: correct {r['correct']} failed {r['failed']}/{r['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
        for k, v in r["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, xs in values.items():
        if len(xs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{k:28s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.4f}")


if __name__ == "__main__":
    main()
