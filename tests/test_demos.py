"""The demos that call ClosedFormKit, SolveVectors, the closed-form beta
and the fast solve run to the end, so that an API change they depend on
fails here. demo_linear_time_solver.py stays out: it times solves up to
large n and takes about half a minute, against a second or two for each
demo here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["demo_worked_example.py",
                                  "demo_convergence.py",
                                  "demo_phase_coefficients.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
