"""The plain command-line reader against argparse, on command lines drawn
from the same declaration tables.

``cli._plain_args`` reads a plain command line without argparse and returns
None for anything else, which ``main`` then hands to ``build_parser``.
Wherever it returns a namespace, that namespace must be the one argparse
builds; and it must return one for every command line that the benchmark
workloads and the CI workflow run.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from hypercurv import cli

ROOT = Path(__file__).resolve().parents[1]

# Values of each kind of option: those a plain line may give, then those
# the reader leaves to argparse. An int may be another script's digits, or
# carry a sign, spaces or "_", all of which int() accepts, or have more
# digits than int() reads, which argparse refuses.
INTS = (["0", "1", "2", "007"], ["٣", "²", "+3", " 3", "3 ", "1_0", "-1", "", "x", "9" * 5000])
TEXTS = (
    ["x1", "x2,x3", "h1", "1/3", "0.5", "0,1", "", " ", "a=b"],
    ["-1", "-1/3", "-x", "-", "--all"],
)
BAD_CHOICES = ["avg", "JSON", "", "-1"]
PATHS = (["data/h4.json", "doc.json", "", " ", "x=y"], ["-", "-1", "--", "-h"])
STRANGE = ["-h", "--help", "--", "--bogus", "--tol", "-x", "--form", "--alpha=1/3", "--format=json"]
FLAWS = (
    "bad value",
    "missing value",
    "glued value",
    "repeat",
    "exclusive",
    "second path",
    "no path",
    "odd path",
    "strange token",
    "undeclared option",
    "token before the subcommand",
    "no subcommand",
)


def _takes_value(keywords: dict) -> bool:
    return keywords.get("action") != "store_true"


def _value(draw, keywords: dict, plain: bool = True) -> str:
    if "choices" in keywords:
        return draw(st.sampled_from(keywords["choices"] if plain else BAD_CHOICES))
    pool = INTS if keywords.get("type") is int else TEXTS
    return draw(st.sampled_from(pool[0 if plain else 1]))


def _option(draw, flag: str, keywords: dict) -> list[str]:
    return [flag, _value(draw, keywords)] if _takes_value(keywords) else [flag]


@st.composite
def command_lines(draw):
    """A plain command line of a subcommand, in any order, with up to two
    flaws that each make it one the reader leaves to argparse; a third of
    them have none. Values come from the same tables the readers read."""
    command = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    declared = cli._declared(command)
    pieces = [[draw(st.sampled_from(PATHS[0]))]]
    exclusive = set(cli._EXCLUSIVE.get(command, ()))
    given_flags = []
    for flag in draw(st.lists(st.sampled_from(sorted(declared)), max_size=6)):
        if flag in given_flags and declared[flag].get("action") != "append":
            continue
        if flag in exclusive and exclusive.intersection(given_flags) - {flag}:
            continue
        given_flags.append(flag)
        pieces.append(_option(draw, flag, declared[flag]))
    flaws = draw(st.lists(st.sampled_from(FLAWS), max_size=2))
    valued = sorted(f for f, k in declared.items() if _takes_value(k))
    prefix = []
    for flaw in flaws:
        event(flaw)
        if flaw == "bad value" and valued:
            flag = draw(st.sampled_from(valued))
            pieces.append([flag, _value(draw, declared[flag], plain=False)])
        elif flaw == "missing value" and valued:
            pieces.append([draw(st.sampled_from(valued))])
        elif flaw == "glued value" and valued:
            flag = draw(st.sampled_from(valued))
            pieces.append([f"{flag}={_value(draw, declared[flag])}"])
        elif flaw == "repeat":
            flag = draw(st.sampled_from(sorted(declared)))
            pieces += [_option(draw, flag, declared[flag]) for _ in range(2)]
        elif flaw == "exclusive" and command in cli._EXCLUSIVE:
            pieces += [_option(draw, flag, declared[flag]) for flag in cli._EXCLUSIVE[command]]
        elif flaw == "second path":
            pieces.append([draw(st.sampled_from(PATHS[0]))])
        elif flaw == "no path":
            pieces = pieces[1:]
        elif flaw == "odd path":
            pieces = [[draw(st.sampled_from(PATHS[1]))], *pieces[1:]]
        elif flaw == "strange token":
            pieces.append([draw(st.sampled_from(STRANGE))])
        elif flaw == "undeclared option":
            flag = draw(st.sampled_from(sorted(set(cli._OPTIONS) - set(declared))))
            pieces.append(_option(draw, flag, cli._OPTIONS[flag]))
        elif flaw == "token before the subcommand":
            prefix = [draw(st.sampled_from(["--stats", "-h", "x", "--all", ""]))]
        elif flaw == "no subcommand":
            command = draw(st.sampled_from(["help", "", "Curvature", "-h"]))
    order = draw(st.permutations(range(len(pieces))))
    return [*prefix, command, *(token for i in order for token in pieces[i])]


def _argparse(argv):
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except SystemExit as exc:
        raise AssertionError(f"argparse refuses {argv}: exit {exc.code}\n{err.getvalue()}")


@settings(max_examples=500, deadline=None)
@given(command_lines())
def test_the_reader_agrees_with_argparse(argv):
    args = cli._plain_args(argv)
    event("read" if args is not None else "left to argparse")
    if args is not None:
        assert vars(args) == _argparse(argv), argv


def test_the_reader_reads_plain_lines_of_every_declared_option():
    """Each option of each subcommand, once, after the path and before it: read
    with each value a plain line may give it, left to argparse with any other."""
    for command in cli._SUBCOMMANDS:
        for flag, keywords in cli._declared(command).items():
            if not _takes_value(keywords):
                values = ([[]], [])
            elif "choices" in keywords:
                values = ([[v] for v in keywords["choices"]], [[v] for v in BAD_CHOICES])
            else:
                pool = INTS if keywords.get("type") is int else TEXTS
                values = ([[v] for v in pool[0]], [[v] for v in pool[1]])
            for plain, typed_values in zip((True, False), values):
                for value in typed_values:
                    for argv in (
                        [command, "doc.json", flag, *value],
                        [command, flag, *value, "doc.json"],
                    ):
                        args = cli._plain_args(argv)
                        assert (args is not None) == plain, argv
                        if plain:
                            assert vars(args) == _argparse(argv), argv


def _workload_lines() -> list[list[str]]:
    """The argv of the first documents of each benchmark workload, at its default seed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    lines = []
    for workload in run.WORKLOADS.values():
        for k in range(2):
            doc = workload.make(run.DEFAULT_SEED * run.DOCS + k)
            lines.append([workload.command, f"doc{k}.json", *workload.argv(doc)])
        lines.append([workload.command, "doc0.json", *workload.argv(workload.make_smoke(0))])
    return lines


def _workflow_lines() -> list[list[str]]:
    """The argv of every ``for argv in ...`` loop of the CI workflow, on its document."""
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    lines = []
    for body in re.findall(r"for argv in (.*?); do", text, flags=re.S):
        for quoted in shlex.split(body.replace("\\\n", " ")):
            lines.append([*quoted.split(), "doc.json"])
    return lines


def test_every_benchmarked_and_ci_command_line_is_read_plainly():
    workload, workflow = _workload_lines(), _workflow_lines()
    assert len(workload) >= 12 and len(workflow) >= 30
    for argv in [*workload, *workflow]:
        args = cli._plain_args(argv)
        assert args is not None, argv
        assert vars(args) == _argparse(argv), argv
