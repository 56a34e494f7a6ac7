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


def test_unrun_lines_names_the_one_line_no_test_runs(tmp_path):
    """The line tracer, on a package of one module whose test takes one of
    two branches, names exactly the other branch's line, by its text; its
    check passes on that list and fails on a list with a line missing or
    one too many."""
    package = tmp_path / "tiny"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "sign.py").write_text(
        '"""One branch of sign is tested."""\n'
        "\n"
        "\n"
        "class Sign:\n"
        "    ZERO = 0\n"
        "\n"
        "    @staticmethod\n"
        "    def of(x):\n"
        "        if x >= 0:\n"
        "            return 1\n"
        "        return -1\n"
    )
    (tmp_path / "test_sign.py").write_text(
        "from tiny.sign import Sign\n\n\ndef test_sign():\n    assert Sign.of(2) == 1\n"
    )
    script = ROOT / "scripts" / "unrun_lines.py"

    def run(*check):
        argv = [sys.executable, str(script), "--source", "tiny", *check, "--", "-q", "-p"]
        argv += ["no:cacheprovider", "test_sign.py"]
        env = dict(os.environ, PYTHONPATH=str(tmp_path))
        return subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60)

    done = run()
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.split("unrun lines in tiny: 1\n")[1] == "sign.py: return -1\n"
    for listed, code in [("sign.py: return -1\n", 0), ("", 1), ("sign.py: return -1\nsign.py: x\n", 1)]:
        (tmp_path / "list.txt").write_text(listed)
        assert run("--check", "list.txt").returncode == code, listed
