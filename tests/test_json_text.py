"""The CLI's indented-JSON printer against ``json.dumps(indent=2)``, byte for byte."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercurv.cli import _json_text

AWKWARD = ["", '"', "\\", "\\\"", "\x00\x1f\x7f", "tab\tnew\nline\r", "é ü", "𝄞", "  ", "\ud800"]

strings = st.one_of(st.sampled_from(AWKWARD), st.text(st.characters(exclude_categories=())))
ints = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.sampled_from([0, -1, 2**63, -(2**64) - 1]),
)
leaves = st.one_of(strings, ints, st.booleans(), st.none())
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(strings, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(trees)
def test_json_text_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [[], {}, [[]], [{}], {"": []}, {"a": {}}, [[[], {}], {"b": [[]]}], [True, False, None, -0]],
)
def test_empty_containers_at_every_depth(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, (1, 2), {"a": [b"x"]}, {1: "a"}])
def test_other_types_are_refused(value):
    with pytest.raises(TypeError):
        _json_text(value)
