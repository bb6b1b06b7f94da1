"""Smoke test of the benchmark: every workload runs traced and checks its
outputs.  A traced run wraps names the benchmark's tracer expects the
program modules to expose (perfbench/tracing.py), so this also guards
those names."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", [
    "chain-descent", "random-mixed", "faithful-stale-roots", "check-battery",
])
def test_traced_workload_runs_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
