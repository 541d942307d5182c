"""Heavy third-party modules are imported where they are used.

``scipy.stats`` costs about a second and 65 MB to import, and only a
Pearson sampler build needs it. A process that imports the package, or
serves without sampling (``serve``, the fleet router, grid pool workers),
must not load it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "module", ["repro", "repro.serving", "repro.serving.fleet.router"]
)
def test_fresh_import_leaves_scipy_stats_unloaded(module):
    script = f"import sys, {module}; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
