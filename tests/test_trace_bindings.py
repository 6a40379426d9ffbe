"""The traced benchmark run must find every span it declares.

``perfbench/tracing.py`` wraps named functions and ``MultiPoly`` methods at
every binding in the package, and ``Tracer.install`` raises ``LookupError``
when one has lost its binding (say, a method renamed or folded into
another).  A traced run would then fail, so this guard runs the install step
alone in a fresh interpreter.  A span that stays bound but is no longer
called where it is predicted (its caller moved to another function) is a
silent span, which a traced run counts as a failed op; the other guards run
the traced ``report-all`` and the two traced closed loops and assert that no
predicted span is silent and that no op fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

INSTALL = (
    "import sys; sys.path.insert(0, 'perfbench'); "
    "import tracing, workloads; tracing.Tracer(workloads.SCENARIOS).install()"
)


def test_tracer_installs_every_declared_span():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def traced(*args: str) -> dict:
    """The result line of a traced ``perfbench/worker.py`` run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_report_all_fires_every_predicted_span():
    result = traced("trace-cli", "0")
    assert result["exit"] == 0
    assert result["silent"] == []


@pytest.mark.parametrize("workload", ["net-septics", "pencil-certificates"])
def test_traced_loop_fires_every_predicted_span(workload):
    result = traced("trace", workload, "0")
    assert result["silent"] == []
    assert result["failures"] == []
