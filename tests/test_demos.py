"""Every demo script runs to completion and prints the output pinned in
demo_digests.json."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The sha256 of each demo's stdout.  A change that alters an output updates
# its digest and says why.
DEMO_DIGESTS = json.loads((ROOT / "tests" / "demo_digests.json").read_text())


def test_five_demos():
    assert len(DEMOS) == 5
    assert sorted(DEMO_DIGESTS) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo):
    """The demo in two fresh interpreters with different string-hash seeds:
    exit 0, and the same stdout, whose digest is the recorded one."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    outs = []
    for hash_seed in (0, 1):
        proc = subprocess.run(
            [sys.executable, str(demo)],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(hash_seed)),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0].encode()).hexdigest() == DEMO_DIGESTS[demo.name]
