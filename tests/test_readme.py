"""The README's library examples run, and give the values their comments state.

The ``python`` blocks under ``## Library`` run in order, in one namespace.
A statement whose trailing comment starts with a Python expression (up to
a ``: `` that begins prose) must evaluate to that expression's value, read
with the package's public names in scope (``Limit(...)``).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import hypercurv
from hypercurv import Limit, lly_limit

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> list[str]:
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", library, re.S)


def _stated(comment: str):
    """The value a comment states, compiled, or None if it states none."""
    try:
        return compile(comment.split(": ", 1)[0], "<comment>", "eval")
    except SyntaxError:
        return None


def test_library_examples_give_the_values_their_comments_state():
    namespace: dict = {}
    checked = []
    for block in _library_blocks():
        lines = block.splitlines()
        for node in ast.parse(block).body:
            source = ast.get_source_segment(block, node)
            if not isinstance(node, ast.Expr):
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            rest = lines[node.end_lineno - 1][node.end_col_offset :].strip()
            stated = _stated(rest[1:].strip()) if rest.startswith("#") else None
            if stated is not None:
                public = {k: v for k, v in vars(hypercurv).items() if not k.startswith("_")}
                assert value == eval(stated, {**public, **namespace}), source
                checked.append(source)
    assert checked == [
        "limit",
        "limit.lly",
        'ev.kappa(("pair", 1, 2), Fraction(1, 2))',
        'ev.limit(("pair", 1, 2))',
        'ev.curve_ints(("pair", 1, 2), grid=(Fraction(1, 2), Fraction(1)))',
        'ev.breakpoints(("pair", 1, 2))',
        "curvature_pairs(hg)",
        "[v for v in ledger if v.holds is False]",
    ]
    # "lly_limit returns the same Limit"
    hg, oracle = namespace["hg"], namespace["oracle"]
    found = namespace["ev"].limit(("edge", 0), "sum")
    assert isinstance(found, Limit)
    assert found == lly_limit(hg, oracle, ("edge", 0), "sum")
