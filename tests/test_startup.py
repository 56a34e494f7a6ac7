"""Start-up guard: the CLI's import graph stays free of the costly stdlib chain.

``dataclasses`` pulls in ``inspect``, which pulls in ``ast``, ``dis`` and
``tokenize``; together they cost a fresh ``hypercurv`` process more than a
quarter of its import time. The CLI needs none of them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypercurv

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(hypercurv.__file__).resolve().parents[1])
FORBIDDEN = ("dataclasses", "inspect", "ast", "dis", "tokenize")

# Prints, as the last line of stdout, the forbidden modules this process has loaded.
REPORT = "import json, sys; print(json.dumps(sorted(m for m in {forbidden!r} if m in sys.modules)))"
RUN_CLI = """
import runpy, sys
sys.argv = ["hypercurv", *{argv!r}]
try:
    runpy.run_module("hypercurv.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def _loaded(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code + "\n" + REPORT.format(forbidden=FORBIDDEN)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "code",
    [
        "import hypercurv.cli",
        RUN_CLI.format(argv=["validate", "data/h4.json"]),
    ],
    ids=["import", "validate"],
)
def test_cli_loads_no_introspection_modules(code):
    # Whatever the interpreter loads at start-up (site hooks) is not ours to guard.
    baseline = _loaded("pass")
    assert _loaded(code) - baseline == set()
