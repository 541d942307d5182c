"""Heavy third-party modules are imported where they are used.

``scipy.stats`` costs about a second and 65 MB to import, and no serving
or sampling path needs it: the Pearson sampler draws on numpy alone, and
only ``pdf``/``cdf`` evaluation (analytic-CDF scoring, plots) reaches
``scipy.stats``. A process that imports the package, or serves (``serve``,
the fleet router, shards, grid pool workers), must not load it, nor
``scipy.optimize``. ``scipy.special`` (about 0.2 s and 20 MB) is the one
module a Pearson draw can load, and only for type V.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCIPY = ("scipy.special", "scipy.stats", "scipy.optimize")


def loaded_after(code: str) -> list[str]:
    """The :data:`SCIPY` modules a fresh interpreter holds after *code*."""
    script = textwrap.dedent(code) + textwrap.dedent(
        f"""
        import json, sys
        print(json.dumps([m for m in {SCIPY!r} if m in sys.modules]))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.parametrize(
    "module", ["repro", "repro.serving", "repro.serving.fleet.router"]
)
def test_fresh_import_leaves_scipy_stats_unloaded(module):
    assert "scipy.stats" not in loaded_after(f"import {module}")


def test_pearson_draws_of_every_type_but_v_load_no_scipy():
    code = """
        from repro.stats.pearson import pearson_system
        cases = [(0.0, 3.0), (0.5, 2.8), (0.0, 2.2), (1.0, 4.5), (1.0, 5.5),
                 (2.0, 12.0), (-2.0, 12.0), (0.0, 4.5)]
        types = []
        for skew, kurt in cases:
            dist = pearson_system(10.0, 2.0, skew, kurt)
            dist.rvs(100, random_state=0)
            types.append(dist.pearson_type)
        assert sorted(set(types)) == [0, 1, 2, 3, 4, 6, 7], types
    """
    assert loaded_after(code) == []


def test_a_type_v_draw_loads_scipy_special_only():
    code = """
        from repro.stats.pearson import classify_pearson, pearson_system
        kurt = 4.970388365322377  # kappa == 1 at skew 1
        assert classify_pearson(1.0, kurt) == 5
        pearson_system(10.0, 2.0, 1.0, kurt).rvs(100, random_state=0)
    """
    assert loaded_after(code) == ["scipy.special"]
