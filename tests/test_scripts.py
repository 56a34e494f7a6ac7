"""The example scripts run end to end against the library as it is."""

from __future__ import annotations

import json
import os
import re
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


def test_tracer_spans_every_ledger_check(tmp_path):
    """The benchmark's tracer wraps each bounds check where the ledger looks
    it up, so the verdict counts of its ``bounds.check`` spans (the INFO
    field) add up to the verdicts that ``bounds`` prints."""
    spans_path = tmp_path / "spans.json"
    argv = ["perfbench/tracer.py", str(spans_path), "--", "bounds", "data/oriented_small.json"]
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    printed = re.search(r"^verdicts: (\d+) ", done.stdout, re.MULTILINE)
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    counted = sum(span[6] for span in spans if span[0] == "bounds.check")
    assert printed and counted == int(printed.group(1)) > 0
