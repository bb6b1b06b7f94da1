"""Smoke test of the benchmark: every workload runs traced and checks its
outputs.  A traced run wraps names the benchmark's tracer expects the
program modules to expose (perfbench/tracing.py); the tracer is also
installed and uninstalled in-process, which guards those names fast."""
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


def test_tracer_installs_and_restores_every_name():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    tracer = tracing.Tracer()
    try:
        tracer.install()    # names a missing attribute in its AttributeError
    except BaseException:
        for owner, attr, original in reversed(tracer._undo):
            setattr(owner, attr, original)
        raise
    patched = list(tracer._undo)
    try:
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
