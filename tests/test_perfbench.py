"""Smoke tests of the benchmark harness: short runs must pass their own checks.

The harness reads ``QueryOutcome.charges`` and wraps the query-path names in
``perfbench/tracing.py``; an engine change that breaks either fails here.
The traced hashed runs also check that ``LshIndex.retrieve``,
``LshIndex.add``, ``ExampleStore.add_example`` and ``lsh.answer_query`` are
each called exactly once per query where the harness expects it, that the
other query-path layers are called at least once per query, and that
``retrieve`` returns an index array.  A 0.1 s traced run stays inside the
stream's first 300-query unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_bench(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("trace", [0, 1])
def test_paper_exact_run_passes_its_checks(trace):
    run_bench("paper-exact", trace)


@pytest.mark.parametrize("workload", ["large-hashed", "hashed-reuse"])
def test_traced_hashed_run_passes_its_checks(workload):
    metrics = run_bench(workload, 1)["metrics"]
    assert metrics["lsh.candidates_per_query"]["value"] > 0
    assert metrics["lsh.retrieve.self_ms"]["value"] > 0
    if workload == "hashed-reuse":
        assert metrics["engine.add_example.self_ms"]["value"] > 0
