#!/usr/bin/env python3
"""Print every executable line of a package that a pytest run never executes.

Runs pytest in this process under ``sys.settrace``, which traces the main
thread only; the suite starts no threads. The trace starts before the
package is imported, so its module and class bodies count as run. A line
is named by its file, relative to the package directory, and its stripped
source text, not by its number, so an edit elsewhere in a file does not
rename the other lines. A name may occur more than once.

With ``--check LIST`` the run fails (exit 1) when the unrun lines differ
from LIST, one name per line: a new unrun line must be tested or deleted,
and a listed line that now runs, or is gone, must leave the list. So the
list only ever shrinks. Lines that tests reach only in a child process
read as unrun. Standard library only, besides pytest itself. The trace
makes tier-1 about 3.5 times slower: 105 s against 30 s on a 2-core
x86-64 host under Python 3.11.

Examples:
    PYTHONPATH=src python scripts/unrun_lines.py
    PYTHONPATH=src python scripts/unrun_lines.py --check scripts/unrun_lines.txt
    python scripts/unrun_lines.py --source pkg -- -q tests/test_pkg.py
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path

# The tier-1 suite, with a fixed Hypothesis seed so that every run executes
# the same lines.
TIER1 = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"]


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that carry bytecode.

    A function's or class's own first line is left to the code that defines
    it, where it runs when the definition does.
    """
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set[int] = set()
    stack = [module]
    while stack:
        code = stack.pop()
        own = {line for _start, _end, line in code.co_lines() if line}
        if code is not module:
            own.discard(code.co_firstlineno)
        lines |= own
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(source: Path, pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under a line trace; its exit code and the lines run per file."""
    root = str(source.resolve()) + os.sep
    ran: dict[str, set[int]] = defaultdict(set)
    # Each code file name seen, to the set of its lines run, or None when
    # the file is outside the package.
    files: dict[str, set[int] | None] = {}

    def trace(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if filename not in files:
            real = os.path.realpath(filename)
            files[filename] = ran[real] if real.startswith(root) else None
        lines = files[filename]
        if lines is None:
            return None

        def local(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    import pytest

    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(code), ran


def unrun_lines(source: Path, ran: dict[str, set[int]]) -> list[str]:
    """``file: text`` for each executable line under ``source`` not in ``ran``."""
    names = []
    for path in sorted(source.rglob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        done = ran.get(str(path.resolve()), set())
        relative = path.relative_to(source).as_posix()
        for line in sorted(executable_lines(path) - done):
            names.append(f"{relative}: {text[line - 1].strip()}")
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--source", default="src/hypercurv", help="package directory")
    parser.add_argument("--check", metavar="LIST", help="fail unless the unrun lines are LIST")
    parser.add_argument("pytest_args", nargs="*", help="after --; default: tier-1")
    args = parser.parse_args(argv)
    source = Path(args.source)
    if source.name in sys.modules:
        parser.error(f"{source.name} is imported before the trace starts")
    code, ran = traced_run(source, args.pytest_args or TIER1)
    if code != 0:
        print(f"pytest exited {code}; the unrun lines are not those of a passing run")
        return 2
    names = unrun_lines(source, ran)
    print(f"unrun lines in {source}: {len(names)}")
    for name in names:
        print(name)
    if args.check is None:
        return 0
    listed = Counter(Path(args.check).read_text(encoding="utf-8").splitlines())
    unrun = Counter(names)
    new, stale = unrun - listed, listed - unrun
    for name in sorted(new.elements()):
        print(f"new unrun line: {name}")
    for name in sorted(stale.elements()):
        print(f"runs now or is gone; delete it from {args.check}: {name}")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
