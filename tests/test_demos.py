"""The demo scripts run to completion against the package in src/."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")

QUICK_DEMOS = (
    "01_quantum_probabilities.py",
    "02_local_model_and_ratio.py",
    "03_local_content_bounds.py",
    "04_certification.py",
    "05_bell_violation.py",
)


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    # run in a scratch directory: demo 03 writes its SVG chart to the cwd
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
