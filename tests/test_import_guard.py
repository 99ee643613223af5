"""The runner must start without scipy or networkx, and fail loudly without numpy.

Importing scipy or networkx at module load used to cost about a second of
set-up and ~80 MB of memory on every run.  The analysis layer now needs only
numpy, so one test imports the runner in a fresh interpreter and fails if
any ``scipy*`` or ``networkx*`` module was loaded along the way.  numpy is
the runner's one third-party dependency: without it the runner must exit
non-zero with numpy named on stderr.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = "import sys, repro.experiments.runner; print(*sorted(sys.modules), sep='\\n')"
#: Runs the runner with numpy made unimportable (a ``None`` entry in
#: ``sys.modules`` makes ``import numpy`` raise).
WITHOUT_NUMPY = (
    "import runpy, sys; sys.modules['numpy'] = None; "
    "sys.argv = ['runner', '--scenario', 'tiny', '--experiment', 'dataset_stats']; "
    "runpy.run_module('repro.experiments.runner', run_name='__main__')"
)


def _run(code: str, check: bool) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=check
    )


def test_runner_import_loads_neither_scipy_nor_networkx():
    loaded = _run(PROBE, check=True).stdout.split()
    assert "repro.experiments.runner" in loaded
    heavy = [name for name in loaded if name.startswith(("scipy", "networkx"))]
    assert not heavy, f"importing the runner loaded {heavy}"


def test_runner_without_numpy_fails_naming_numpy():
    run = _run(WITHOUT_NUMPY, check=False)
    assert run.returncode != 0
    assert "numpy" in run.stderr
