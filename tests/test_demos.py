"""Smoke test of the demos: each runs to completion in a subprocess.

``05_plan_loop_track.py`` and ``06_scaling_and_cli.py`` solve full tracks,
in about 4 s and 12 s on a 2-core machine.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "01_flatness_maps.py", "02_gate_surjections.py",
    "03_spline_construction.py", "04_penalty_and_gradients.py",
    "05_plan_loop_track.py", "06_scaling_and_cli.py",
])
def test_demo_runs(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
