"""JSON document format for hypergraphs: parsing, validation, serialization.

The canonical input is one JSON object::

    {
      "flavor": "undirected" | "directed" | "oriented",
      "vertices": ["x1", "x2", ...]      // or "n_vertices": N
      "hyperedges": [
        {"vertices": ["x1", "x2"], "weight": "1"},          // undirected
        {"tail": ["x1"], "head": ["x2"], "weight": "1/2"},  // directed/oriented
      ],
      "symmetrize": true                  // oriented only, optional
    }

Vertices inside hyperedges may be names from the ``vertices`` list or raw
integer indices. Weights are rationals: "p/q" strings, integers, or
decimals. Parsing either yields a validated hypergraph or fails with a
positioned error.
"""

from __future__ import annotations

import json
import sys

from . import errors, hypergraph
from .errors import excerpt
from .hypergraph import FLAVORS, UNDIRECTED, Hypergraph
from .rational import as_fraction


class ParsedDocument:
    """A validated hypergraph plus the naming needed to talk about it."""

    __slots__ = ("hypergraph", "vertex_names", "edge_names", "_vertex_ids", "_edge_ids")

    def __init__(self, hypergraph: Hypergraph, vertex_names: list[str], edge_names: list[str]):
        self.hypergraph = hypergraph
        self.vertex_names = vertex_names
        self.edge_names = edge_names
        self._vertex_ids = {name: i for i, name in enumerate(vertex_names)}
        self._edge_ids = {name: i for i, name in enumerate(edge_names)}

    def vertex_id(self, token: str) -> int:
        if token in self._vertex_ids:
            return self._vertex_ids[token]
        try:
            v = int(token)
        except ValueError:
            raise errors.UnknownTarget(f"unknown vertex {excerpt(token)}") from None
        if 0 <= v < self.hypergraph.n_vertices:
            return v
        raise errors.UnknownTarget(f"vertex index {excerpt(v)} out of range")

    def edge_id(self, token: str) -> int:
        if token in self._edge_ids:
            return self._edge_ids[token]
        try:
            e = int(token)
        except ValueError:
            raise errors.UnknownTarget(f"unknown hyperedge {excerpt(token)}") from None
        if 0 <= e < self.hypergraph.n_edges:
            return e
        raise errors.UnknownTarget(f"hyperedge index {excerpt(e)} out of range")


def _vertex_list(raw, ids: dict[str, int], where: str) -> list[int]:
    if not isinstance(raw, list) or not raw:
        raise errors.ParseError(f"{where}: expected a nonempty list of vertices")
    out = []
    for pos, item in enumerate(raw):
        if isinstance(item, str):
            try:
                out.append(ids[item])
            except KeyError:
                why = f"unknown vertex name {excerpt(item)}"
                raise errors.ParseError(f"{where}[{pos}]: {why}") from None
        elif isinstance(item, int) and not isinstance(item, bool):
            out.append(item)
        else:
            raise errors.ParseError(f"{where}[{pos}]: expected a vertex name or index")
    return out


def _weight(raw, where: str):
    if raw is None:
        return 1
    try:
        return as_fraction(raw)
    except (ValueError, ZeroDivisionError, TypeError):
        why = f"cannot read weight {excerpt(raw)} as a rational"
        raise errors.ParseError(f"{where}: {why}") from None


def parse_document(data) -> ParsedDocument:
    """Build a validated hypergraph from a JSON string or decoded object."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise errors.ParseError(f"invalid JSON: {exc}") from None
        except ValueError:  # an int literal past the interpreter's digit limit
            why = f"an integer literal has more than {sys.get_int_max_str_digits()} digits"
            raise errors.ParseError(f"invalid JSON: {why}") from None
        except RecursionError:
            raise errors.ParseError("invalid JSON: arrays or objects nested too deeply") from None
    if not isinstance(data, dict):
        raise errors.ParseError("document root must be a JSON object")

    flavor = data.get("flavor")
    if flavor not in FLAVORS:
        raise errors.ParseError(f"flavor: expected one of {list(FLAVORS)}, got {excerpt(flavor)}")

    if "vertices" in data:
        names = data["vertices"]
        if (
            not isinstance(names, list)
            or not names
            or any(not isinstance(x, str) for x in names)
        ):
            raise errors.ParseError("vertices: expected a nonempty list of names")
        if len(set(names)) != len(names):
            raise errors.ParseError("vertices: names must be unique")
        n = len(names)
    elif "n_vertices" in data:
        n = data["n_vertices"]
        if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
            raise errors.ParseError("n_vertices: expected a positive integer")
        names = None  # x1..xn, built once n is known to be covered
    else:
        raise errors.ParseError("document needs 'vertices' or 'n_vertices'")

    records = data.get("hyperedges")
    if not isinstance(records, list) or not records:
        raise errors.ParseError("hyperedges: expected a nonempty list")

    symmetrize = data.get("symmetrize", False)
    if not isinstance(symmetrize, bool):
        raise errors.ParseError("symmetrize: expected a boolean")

    if names is None:
        keys = ("vertices",) if flavor == UNDIRECTED else ("tail", "head")
        lists = (rec.get(key) for rec in records if isinstance(rec, dict) for key in keys)
        hypergraph.check_vertex_count(flavor, n, sum(len(x) for x in lists if isinstance(x, list)))
        names = [f"x{i + 1}" for i in range(n)]
    ids = {name: i for i, name in enumerate(names)}

    parsed_edges = []
    edge_names = []
    for k, rec in enumerate(records):
        where = f"hyperedges[{k}]"
        if not isinstance(rec, dict):
            raise errors.ParseError(f"{where}: expected an object")
        w = _weight(rec.get("weight"), f"{where}.weight")
        if flavor == UNDIRECTED:
            if "vertices" not in rec:
                raise errors.ParseError(f"{where}: undirected records need 'vertices'")
            parsed_edges.append((_vertex_list(rec["vertices"], ids, f"{where}.vertices"), w))
        else:
            if "tail" not in rec or "head" not in rec:
                raise errors.ParseError(f"{where}: directed records need 'tail' and 'head'")
            parsed_edges.append(
                (
                    _vertex_list(rec["tail"], ids, f"{where}.tail"),
                    _vertex_list(rec["head"], ids, f"{where}.head"),
                    w,
                )
            )
        name = rec.get("name", f"h{k + 1}")
        if not isinstance(name, str):
            raise errors.ParseError(f"{where}.name: expected a string")
        edge_names.append(name)

    hg = hypergraph.build(flavor, n, parsed_edges, symmetrize=symmetrize)
    if symmetrize:
        edge_names = edge_names + [f"{name}-rev" for name in edge_names]
    if len(set(edge_names)) != len(edge_names):
        raise errors.ParseError("hyperedges: names must be unique")
    return ParsedDocument(hypergraph=hg, vertex_names=names, edge_names=edge_names)


def load_document(path: str) -> ParsedDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise errors.ParseError(f"cannot read {path}: {exc}") from None
    return parse_document(text)


def serialize_document(doc: ParsedDocument) -> dict:
    """Normalized document: sorted member lists, explicit reversals, canonical fields."""
    hg = doc.hypergraph
    records = []
    for k, edge in enumerate(hg.edges):
        rec: dict = {"name": doc.edge_names[k]}
        if hg.flavor == UNDIRECTED:
            rec["vertices"] = [doc.vertex_names[v] for v in edge.sorted_vertices()]
        else:
            rec["tail"] = [doc.vertex_names[v] for v in edge.sorted_tail()]
            rec["head"] = [doc.vertex_names[v] for v in edge.sorted_head()]
        rec["weight"] = str(edge.weight)
        records.append(rec)
    return {
        "flavor": hg.flavor,
        "vertices": list(doc.vertex_names),
        "hyperedges": records,
    }
