"""Smoke test of the benchmark harness: a short paper-exact run must pass its own checks.

The harness reads ``QueryOutcome.charges`` and wraps the query-path names in
``perfbench/tracing.py``; an engine change that breaks either fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [0, 1])
def test_paper_exact_run_passes_its_checks(trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "paper-exact", "--seed", "1",
           "--seconds", "0.1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
