"""Run the benchmark once per seed and print each metric's median and
spread: the distance between the first and third quartile over the median.

    python3 bench/spread.py --workload points --seeds 1-10 --seconds 30
    python3 bench/spread.py --workload fans --seeds 1,2,3 --seconds 20 --trace 1

Runs are made one after another, each as its own ``run.py`` process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values: dict = {}
    shares = set()
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        host = [line for line in done.stderr.splitlines() if line.startswith("host.")]
        shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        summary = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                   if args.trace == "0"}
        print(seed, result["correct"], result["attempted"], result["failed"], *host, summary,
              flush=True)
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{args.workload} {name}: median {median:.6g} spread {spread:.4f} "
              f"min {min(vals):.6g} max {max(vals):.6g}")
    print("failed/attempted:", sorted({f / a for f, a in shares}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
