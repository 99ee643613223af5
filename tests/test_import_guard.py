"""The runner must start without scipy or networkx.

Importing either at module load used to cost about a second of set-up and
~80 MB of memory on every run.  The analysis layer now needs only numpy, so
this test imports the runner in a fresh interpreter and fails if any
``scipy*`` or ``networkx*`` module was loaded along the way.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = "import sys, repro.experiments.runner; print(*sorted(sys.modules), sep='\\n')"


def test_runner_import_loads_neither_scipy_nor_networkx():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    loaded = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "repro.experiments.runner" in loaded
    heavy = [name for name in loaded if name.startswith(("scipy", "networkx"))]
    assert not heavy, f"importing the runner loaded {heavy}"
