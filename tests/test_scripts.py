"""The example scripts run end to end against the library as it is."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypercurv

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/run_h4_example.py"],
        ["scripts/random_bound_sweep.py", "--count", "4", "--seed", "3"],
    ],
)
def test_script_exits_zero(argv):
    src = str(Path(hypercurv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
