"""Start-up guard: the CLI's import graph stays free of the costly stdlib chain.

``dataclasses`` pulls in ``inspect``, which pulls in ``ast``, ``dis`` and
``tokenize``; together they cost a fresh ``hypercurv`` process more than a
quarter of its import time. The CLI needs none of them. A plain command
line is read without ``argparse`` (and the ``gettext`` and ``locale`` it
loads), which only help and usage errors need, and the package's records
are ``collections.namedtuple`` subclasses, so it imports no ``typing``.
"""

from __future__ import annotations

import hashlib
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
PARSING = ("argparse", "gettext", "locale")
# A plain run of each subcommand on data/h4.json, after the path.
PLAIN_RUNS = {
    "validate": [],
    "distances": [],
    "measure": ["--vertex", "x1"],
    "curvature": ["--all"],
    "bounds": ["--strict"],
    "sweep": ["--pair", "x2,x3"],
}

# Prints, as the last line of stdout, which of the given modules this process has loaded.
REPORT = "import json, sys; print(json.dumps(sorted(m for m in {modules!r} if m in sys.modules)))"
RUN_CLI = """
import runpy, sys
sys.argv = ["hypercurv", *{argv!r}]
try:
    runpy.run_module("hypercurv.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def _loaded(code: str, modules=FORBIDDEN, flags=()) -> set[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, *flags, "-c", code + "\n" + REPORT.format(modules=modules)],
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


@pytest.mark.parametrize("command", sorted(PLAIN_RUNS))
def test_a_plain_run_loads_no_argparse(command):
    # Read straight from the option table; argparse is for help and errors.
    argv = [command, "data/h4.json", *PLAIN_RUNS[command]]
    baseline = _loaded("pass", PARSING)
    assert _loaded(RUN_CLI.format(argv=argv), PARSING) - baseline == set()


def test_the_cli_imports_no_typing():
    # Without site, which may import typing itself (a .pth file can).
    assert _loaded("import hypercurv.cli", ("typing",), flags=("-S",)) == set()


@pytest.mark.parametrize("command", ["", *PLAIN_RUNS])
def test_help_in_a_fresh_process_prints_the_pinned_bytes(command):
    # argparse is imported only when help or an error is asked for.
    from test_pinned_output import PINNED_HELP

    done = subprocess.run(
        [sys.executable, "-m", "hypercurv.cli", *command.split(), "--help"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC, COLUMNS="80"),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    text = done.stdout.replace("\noptional arguments:\n", "\noptions:\n")
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_HELP[command]
