"""Run one workload on several seeds and report each metric's quartile spread.

    python3 bench/spread.py --workload cv-binomial --seeds 1-10 --seconds 10

For every metric it prints the median and the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, and whether per-run counts and the failed share repeat.  The
benchmark's bounds must exceed these spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", default="12")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    runs, walls = [], []
    for seed in args.seeds:
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        walls.append(time.perf_counter() - t0)
        res = json.loads(out.strip().splitlines()[-1])
        runs.append(res)
        print(seed, json.dumps({k: round(v["value"], 4) for k, v in res["metrics"].items()}),
              res["correct"], res["attempted"], res["failed"], f"{walls[-1]:.1f}s", flush=True)
    print(f"failed shares: {sorted({r['failed'] / r['attempted'] for r in runs})}, "
          f"all correct: {all(r['correct'] for r in runs)}, "
          f"run wall median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} median {med:12.6g}  spread {spread:7.4f}")


if __name__ == "__main__":
    main()
