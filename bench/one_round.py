"""One round of one workload, in a fresh interpreter.

    python3 bench/one_round.py --workload fans --seed 1 --trace 0

Imports toricchains from ``src/``, builds the round's inputs from the seed,
stamps the moment set-up ended on the system-wide monotonic clock, runs
every operation of the workload once, checks each answer, and prints one
JSON line with the results.  ``run.py`` starts one of these per round, so
no cache of the library survives from one round to the next.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

from tracer import Tracer, merge

ROOT = Path(__file__).resolve().parent.parent


def monotonic() -> float:
    """CLOCK_MONOTONIC is one clock for every process on the host, so
    run.py can subtract its own spawn time from this stamp."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Round:
    """Counts operations and the time spent inside the library.

    ``seconds`` sums the timed library calls only; building inputs and
    checking answers are not part of it.  An operation fails when it raises
    or an answer check fails; a failure of an operation marked as a known
    fault is counted but does not make the round incorrect."""

    def __init__(self):
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.known_faults = []
        self.trace_parts = []
        self.digests = {}

    @contextlib.contextmanager
    def op(self, name: str, known_fault: bool = False):
        op = _Op(self)
        self.attempted += 1
        try:
            yield op
        except Exception as exc:  # a failing operation is recorded; the round goes on
            op.problems.append(f"raised {type(exc).__name__}: {exc}")
        if op.problems:
            self.failed += 1
            target = self.known_faults if known_fault else self.errors
            target.append(f"{name}: " + "; ".join(op.problems))


class _Op:
    def __init__(self, rnd: Round):
        self.rnd = rnd
        self.problems = []

    def time(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.rnd.seconds += time.perf_counter() - start

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def add_problems(self, problems) -> None:
        self.problems.extend(problems)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports toricchains

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    ready = monotonic()

    # The cli workload's library calls happen in its commands, which trace
    # themselves; the round only merges their reports.
    in_process = args.trace and not workload.traces_subprocesses
    tracer = Tracer().install() if in_process else None
    rnd = Round()
    workload.run(rnd, inputs, bool(args.trace))

    trace = None
    if tracer is not None:
        trace = tracer.report()
    elif args.trace:
        trace = merge(rnd.trace_parts)
    print(
        json.dumps(
            {
                "ready": ready,
                "round_s": rnd.seconds,
                "attempted": rnd.attempted,
                "failed": rnd.failed,
                "errors": rnd.errors,
                "known_faults": rnd.known_faults,
                "trace": trace,
                "digests": rnd.digests,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
