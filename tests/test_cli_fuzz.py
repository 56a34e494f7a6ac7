"""CLI fuzz: random and mutated documents never crash the command line.

Every run of ``curvature --all``, ``bounds`` or ``sweep`` must end in one of
the documented exit codes 0-3, with no traceback on either stream.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from hypothesis import event, given, settings
from hypothesis import strategies as st

from hypercurv import serialize_document
from hypercurv.cli import main

from conftest import (
    named_document,
    random_directed,
    random_oriented_dense,
    random_oriented_unit,
    random_undirected,
)

GENERATORS = (
    lambda rng: random_undirected(rng, n_max=5, extra_max=2),
    lambda rng: random_directed(rng, n_max=4, m_max=6),
    lambda rng: random_oriented_unit(rng, n_max=5, extra_max=2),
    lambda rng: random_oriented_dense(rng, n_max=4),
)

# "1e400" is valid, but past the float range under --float.
BAD_WEIGHTS = ("0", "-1", "1/0", "abc", "3/7", "1e3", "1e400", "1e1000000", 2, 0.5, None, True, [])
BAD_VERTICES = (-1, 99, "nobody", "x1", 0, 1.5, None)


def _mutate(doc: dict, rng: random.Random, kind: str):
    """One edit of a serialized document; most leave it invalid in some way."""
    edges = doc["hyperedges"]
    edge = rng.choice(edges)
    if kind == "weight":
        edge["weight"] = rng.choice(BAD_WEIGHTS)
    elif kind == "member":
        part = rng.choice([k for k in ("vertices", "tail", "head") if k in edge])
        members = edge[part]
        members[rng.randrange(len(members))] = rng.choice(BAD_VERTICES)
    elif kind == "drop-edge":
        edges.remove(edge)
    elif kind == "flavor":
        doc["flavor"] = rng.choice(["undirected", "directed", "oriented", "mixed", None])
    elif kind == "symmetrize":
        doc["symmetrize"] = rng.choice([True, False, "yes"])
    elif kind == "drop-key":
        doc.pop(rng.choice(["flavor", "vertices", "hyperedges"]), None)
    elif kind == "rename":
        edge["name"] = rng.choice(["h1", "h2", 7, "a,b"])
    return doc


COMMANDS = st.sampled_from(
    [
        ["curvature", "--all"],
        ["bounds"],
        ["bounds", "--strict", "--alpha", "1/3"],
        ["sweep", "--pair", "x1,x2"],
        ["sweep", "--edge", "h1"],
    ]
)
MUTATIONS = st.lists(
    st.sampled_from(
        ["weight", "member", "drop-edge", "flavor", "symmetrize", "drop-key", "rename"]
    ),
    max_size=2,
)


@given(
    seed=st.integers(0, 2**32 - 1),
    flavor=st.integers(0, len(GENERATORS) - 1),
    mutations=MUTATIONS,
    truncate=st.sampled_from([False] * 9 + [True]),
    command=COMMANDS,
    fmt=st.sampled_from(["table", "json", "csv"]),
    decimal=st.booleans(),
)
@settings(max_examples=300, deadline=5000)
def test_cli_survives_random_and_mutated_documents(
    tmp_path_factory, seed, flavor, mutations, truncate, command, fmt, decimal
):
    rng = random.Random(seed)
    doc = serialize_document(named_document(GENERATORS[flavor](rng)))
    for kind in mutations:
        if isinstance(doc.get("hyperedges"), list) and doc["hyperedges"]:
            doc = _mutate(doc, rng, kind)
    text = json.dumps(doc)
    if truncate:
        text = text[: rng.randrange(len(text))]
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(text)
    argv = [command[0], str(path), *command[1:]]
    if command[0] != "sweep":  # sweep prints CSV and takes no --format
        argv += ["--format", fmt]
    if decimal:
        argv.append("--float")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), (argv, text, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert err.getvalue().count("\n") == 1, err.getvalue()
