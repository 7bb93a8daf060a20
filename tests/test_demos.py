"""The narrative demos run to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dehnfill

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run_demo(name):
    src = str(Path(dehnfill.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, str(DEMOS / name)], env=env, capture_output=True,
                          text=True, timeout=60)


@pytest.mark.parametrize("name", ["envelope_curves.py", "weitzenboeck_scan.py"])
def test_demo_exits_0(name):
    proc = _run_demo(name)
    assert proc.returncode == 0, proc.stderr


def test_certify_filling():
    # on the figure-eight cusp, tau = 2*sqrt(3)*i: (1, 0) and (7, 1) lie below C and
    # (12, 5) is certified
    proc = _run_demo("certify_filling.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "slope (1, 0): L-hat = 0.5373, below threshold, no certificate" in lines
    assert "slope (7, 1): L-hat = 4.1963, below threshold, no certificate" in lines
    assert "slope (12, 5): L-hat = 11.3213" in lines
    assert lines.count('  "certified": true,') == 1
    assert '  "certified": false,' not in lines
