"""Run one toricchains command with the benchmark's tracer installed.

    python3 bench/cli_shim.py fan check --family A --n 8 --json

Behaves like ``python -m toricchains.cli`` on stdout and in its exit code,
then writes one line to stderr: the marker ``BENCH-TRACE`` and the trace
of the command as JSON, including ``main_s``, the time spent in
``toricchains.cli.main``.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer  # noqa: E402

tracer = Tracer().install()

import toricchains.cli  # noqa: E402

start = time.perf_counter()
status = toricchains.cli.main(sys.argv[1:])
report = tracer.report(main_s=time.perf_counter() - start)
sys.stdout.flush()
print("BENCH-TRACE " + json.dumps(report), file=sys.stderr)
sys.exit(status)
