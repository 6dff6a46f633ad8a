"""The report emitter `cli._dumps` writes what the json module's
`dumps(obj, indent=2, sort_keys=True)` writes, byte for byte, and fails
where it fails with the same exception.

The trees mix every value shape the program emits (ints, str keys, int
keys as `by_diameter` once had them, null, booleans, nested lists and
dicts, non-ASCII text) with the shapes the json module treats specially:
floats with NaN, the infinities and -0.0, tuples, an IntEnum, a str
subclass and lone surrogates.  Each tree is wrapped in up to eight
single-entry containers, deeper than any report's nesting.
"""

from __future__ import annotations

import json
from enum import IntEnum

import pytest
from hypothesis import example, given, settings, strategies as st

from chargraph.cli import _dumps


class Colour(IntEnum):
    RED = 1
    DEEP = -(2**70)


class Name(str):
    pass


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


any_text = st.text(st.characters(exclude_categories=()), max_size=8)
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | any_text
    | any_text.map(Name)
    | st.sampled_from(list(Colour))
)
trees = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(any_text | any_text.map(Name), inner, max_size=4)
    | st.dictionaries(st.integers() | st.booleans() | st.sampled_from(list(Colour)), inner, max_size=4)
    | st.dictionaries(st.floats() | st.integers(), inner, max_size=3),
    max_leaves=30,
)


def wrap(tree, layers):
    """`tree` inside one single-entry container per layer, innermost first."""
    for kind in layers:
        tree = {"k": tree} if kind == "dict" else [tree] if kind == "list" else (tree,)
    return tree


deep_trees = st.builds(wrap, trees, st.lists(st.sampled_from(["dict", "list", "tuple"]), max_size=8))


@settings(max_examples=300)
@given(deep_trees)
@example({"by_diameter": {3: 5, 10: 1, 2: 0}, "seed": 2**64 - 1})
@example({"name": "\U0001d516 \"q\" \\ \x00 ", "entries": [], "summary": None, "pass": True})
def test_dumps_matches_the_json_module(obj):
    assert _dumps(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {1: 0, "a": 0},
        {"a": 0, None: 1},
        {"a": [{1, 2}]},
        [b"bytes"],
        {(1, 2): 0},
        1j,
    ],
)
def test_dumps_raises_as_the_json_module_does(obj):
    with pytest.raises(Exception) as ours:
        _dumps(obj)
    with pytest.raises(Exception) as theirs:
        reference(obj)
    assert type(ours.value) is type(theirs.value)
    assert str(ours.value) == str(theirs.value)
