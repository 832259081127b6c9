"""Benchmark of toricchains: four workloads, timed by rounds in fresh
interpreters.

    python3 bench/run.py --workload fans --seed 1 --seconds 30 --trace 0

A run starts one round after another, each in its own interpreter
(``one_round.py``), until the next round would end after ``--seconds``; it
always runs at least MIN_ROUNDS rounds.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (medians over the rounds,
and the peak resident set of any process); with ``--trace 1`` the run
alternates plain and traced rounds and reports the per-layer metrics.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from one_round import monotonic
from tracer import FUNCTIONS, RATIOS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("fans", "points", "identities", "cli")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
PROBES = 3  # samples of the host loop per run, and of interpreter and import per traced run


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # Fixed string hashing, so set orders and call counts repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(workload: str, seed: int, traced: bool) -> dict:
    command = [sys.executable, str(BENCH / "one_round.py"),
               "--workload", workload, "--seed", str(seed), "--trace", str(int(traced))]
    spawned = monotonic()
    done = subprocess.run(command, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT_S)
    finished = monotonic()
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise SystemExit(f"round of {workload} exited with {done.returncode}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - spawned
    out["wall_s"] = finished - spawned
    return out


def run_rounds(workload: str, seed: int, seconds: float, plan) -> list:
    """Rounds in the order ``plan(i)`` gives (traced or not), until the next
    would end after ``seconds``; at least MIN_ROUNDS of them."""
    start = monotonic()
    rounds = []
    while True:
        rounds.append(run_round(workload, seed, plan(len(rounds))))
        r = rounds[-1]
        print(f"round {len(rounds)}: traced={r['trace'] is not None} setup_s={r['setup_s']:.4f} "
              f"round_s={r['round_s']:.4f} wall_s={r['wall_s']:.4f}", file=sys.stderr)
        elapsed = monotonic() - start
        typical = statistics.median(r["wall_s"] for r in rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + typical > seconds:
            return rounds


def ref_loop_ms() -> float:
    """A fixed stdlib loop, to show a slow phase of the host."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return (time.perf_counter() - start) * 1000


def probe_interpreter_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


def probe_import_s() -> tuple:
    """(toricchains import, numpy import) in seconds, from -X importtime."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import toricchains.cli"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
    )
    total = numpy = 0
    for line in done.stderr.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative_us, name = int(fields[1]), fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        name = name.strip()
        if depth == 0 and (name == "toricchains" or name.startswith("toricchains.")):
            total += cumulative_us
        if name == "numpy":
            numpy += cumulative_us
    return total / 1e6, numpy / 1e6


def problems_of(rounds: list) -> list:
    out = [e for r in rounds for e in r["errors"]]
    digests = {json.dumps(r["digests"], sort_keys=True) for r in rounds}
    if len(digests) > 1:
        out.append("CLI output differs between rounds")
    return out


def end_to_end(rounds: list) -> dict:
    peak_kb = max(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "round_s": (statistics.median(r["round_s"] for r in rounds), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(plain: list, traced: list, probes: dict) -> tuple:
    problems = []
    first = traced[0]["trace"]
    for r in traced[1:]:
        if r["trace"]["calls"] != first["calls"]:
            problems.append("call counts differ between traced rounds")
    for r in traced:
        layer_self_s = sum(r["trace"]["self_s"].values())
        if layer_self_s > r["round_s"] * (1 + 1e-9):
            problems.append(f"layer self times {layer_self_s} exceed round_s {r['round_s']}")
    metrics = {}
    for key in FUNCTIONS:
        metrics[f"{key}.calls"] = (first["calls"][key], "count")
        metrics[f"{key}.self_s"] = (
            statistics.median(r["trace"]["self_s"][key] for r in traced), "s")
    for name, (num, den) in RATIOS.items():
        tallies = first["tallies"]
        metrics[name] = (tallies[num] / tallies[den] if tallies[den] else 0.0, "ratio")
    metrics["cli.interpreter_s"] = (statistics.median(probes["interpreter"]), "s")
    metrics["cli.import_s"] = (statistics.median(i for i, _ in probes["import"]), "s")
    metrics["cli.import.numpy_s"] = (statistics.median(n for _, n in probes["import"]), "s")
    metrics["cli.main_s"] = (
        statistics.median(r["trace"]["main_s"] for r in traced), "s")
    metrics["host.ref_loop_ms"] = (statistics.median(probes["ref_loop"]), "ms")
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["round_s"] for r in traced)
        / statistics.median(r["round_s"] for r in plain), "ratio")
    return metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "toricchains" / "__init__.py").is_file():
        print(f"no toricchains sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ref_loop = [ref_loop_ms() for _ in range(PROBES)]
    print(f"host.ref_loop_ms {statistics.median(ref_loop):.3f}", file=sys.stderr)
    if args.trace:
        probes = {"interpreter": [], "import": [], "ref_loop": ref_loop}
        for _ in range(PROBES):
            probes["interpreter"].append(probe_interpreter_s())
            probes["import"].append(probe_import_s())
        rounds = run_rounds(args.workload, args.seed, args.seconds, lambda i: i % 2 == 1)
        plain = [r for r in rounds if r["trace"] is None]
        traced = [r for r in rounds if r["trace"] is not None]
        metrics, problems = per_layer(plain, traced, probes)
    else:
        rounds = run_rounds(args.workload, args.seed, args.seconds, lambda i: False)
        metrics, problems = end_to_end(rounds), []
    problems += problems_of(rounds)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    known = sorted({k for r in rounds for k in r["known_faults"]})
    for fault in known:
        print(f"known fault: {fault}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
