"""Properties of the input boundaries: any short text given to `screen`,
`verify`, `fuzz --edge-prob` or `PrimeGraph.from_dot` ends in an exit code
(0, 1 or 2) or a ValueError, never in another exception.

Everything runs in this process on small inputs: no subprocesses.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from chargraph.cli import run
from chargraph.corpus import RECORD_FIELDS
from chargraph.graphs import PrimeGraph

EXIT_CODES = (0, 1, 2)


def near(alphabet: str, max_size: int = 30) -> st.SearchStrategy[str]:
    """Arbitrary short text, or short text over the characters a parser
    expects, which reaches past its first rejection more often."""
    return st.text(max_size=max_size) | st.text(alphabet=alphabet, max_size=max_size)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
record_lines = st.dictionaries(
    st.sampled_from(RECORD_FIELDS + ("note",)), json_values, max_size=6
).map(json.dumps)
corpus_lines = st.lists(near('{}[]":,0123456789 -.name') | record_lines, max_size=5)


@given(near("0123456789-, "), near("0123456789, "))
def test_screen_any_graph_text(edges, isolated):
    assert run(["screen", f"--edges={edges}", f"--isolated={isolated}"]) in EXIT_CODES


@pytest.mark.filterwarnings("ignore::chargraph.corpus.RecordWarning")
@settings(max_examples=150)
@given(corpus_lines, st.booleans())
def test_verify_any_lines(tmp_path_factory, lines, lax):
    path = tmp_path_factory.getbasetemp() / "any_lines.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["verify", str(path)] + (["--lax"] if lax else [])) in EXIT_CODES


numbers = st.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,2}|\.[0-9]*)?([eE][-+]?[0-9]{1,6})?", fullmatch=True)


@given(near("0123456789/.eE+-_ ", max_size=20) | numbers)
def test_fuzz_any_edge_prob(text):
    argv = ["fuzz", "--k", "7", f"--edge-prob={text}", "--trials", "1", "--seed", "1"]
    assert run(argv) in EXIT_CODES


dot_lines = st.sampled_from(
    ["graph G {", "}", '  "2";', '  "3";', '  "4";', '  "2" -- "3";', '  "3" -- "3";', '  "5" -- "7";', ""]
)


@given(near('graph G{}"-;0123456789\n ', max_size=80) | st.lists(dot_lines | st.text(max_size=8), max_size=8).map("\n".join))
def test_from_dot_any_text(text):
    try:
        g = PrimeGraph.from_dot(text)
    except ValueError:
        return
    assert isinstance(g, PrimeGraph)
