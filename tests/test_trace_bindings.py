"""The traced benchmark run must find every span it declares.

``perfbench/tracing.py`` wraps named functions and ``MultiPoly`` methods at
every binding in the package, and ``Tracer.install`` raises ``LookupError``
when one has lost its binding (say, a method renamed or folded into
another).  A traced run would then fail, so this guard runs the install step
alone in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

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
