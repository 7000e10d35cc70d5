"""Smoke test of the benchmark at toy sizes, so it cannot rot unnoticed.

Runs ``perfbench/run.py --toy`` (the cheapest op of each kind) in a fresh
process and checks its result line; no timing assertions.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["curve", "search", "verify", "exact"])
def test_toy_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
