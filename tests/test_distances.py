"""The distance layer (`distance`, `distances_from`, `diameter` and
`pairs_at_distance`) against the Floyd-Warshall oracle: every graph on at
most five vertices, a Hypothesis sweep up to ten, and fixed graphs at
MAX_VERTICES.  The packed reach matrices are also matched, ring by ring,
against a per-source frontier BFS up to 24 vertices."""

import math
from functools import reduce
from operator import and_, or_

import pytest
from hypothesis import given, strategies as st

from chargraph.graphs import MAX_VERTICES, UNREACHABLE, PrimeGraph, _pair_bit
from chargraph.primes import first_primes

from graph_helpers import path4, prime_graphs
from oracles import floyd_warshall, frontier_levels

BANDS = ((0, 0), (0, MAX_VERTICES), (1, 1), (2, 2), (3, 3), (4, MAX_VERTICES), (1, MAX_VERTICES), (2, 3), (3, 2))


def check_against_oracle(g: PrimeGraph) -> None:
    oracle = floyd_warshall(g)
    verts = g.vertices
    for u in verts:
        row = g.distances_from(u)
        assert row == {v: oracle[u, v] for v in verts}
        for v in verts:
            d = g.distance(u, v)
            assert d == row[v] == oracle[u, v]
            if math.isinf(oracle[u, v]):
                assert d == UNREACHABLE
            else:
                assert type(d) is int and type(row[v]) is int
    finite = [d for d in oracle.values() if not math.isinf(d)]
    if verts:
        assert g.diameter() == max(finite)
    for lo, hi in BANDS:
        expected = [
            (i, j, oracle[verts[i], verts[j]])
            for i in range(len(verts))
            for j in range(i + 1, len(verts))
            if lo <= oracle[verts[i], verts[j]] <= hi
        ]
        got = list(g.pairs_at_distance(lo, hi))
        assert got == expected
        assert all(type(d) is int for _, _, d in got)
    assert list(g.pairs_at_distance(4)) == list(g.pairs_at_distance(4, MAX_VERTICES))


def test_every_graph_up_to_5_vertices():
    for k in range(0, 6):
        verts = first_primes(k)
        for bits in range(1 << (k * (k - 1) // 2)):
            check_against_oracle(PrimeGraph(verts, bits))


@given(prime_graphs(max_vertices=10))
def test_random_graphs_up_to_10_vertices(g):
    check_against_oracle(g)


def test_pairs_cross_no_component():
    g = PrimeGraph.from_edges([(2, 3), (3, 5), (5, 7), (11, 13)])
    assert list(g.pairs_at_distance(1)) == [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 2, 1), (1, 3, 2), (2, 3, 1), (4, 5, 1)]
    assert g.distance(2, 13) == UNREACHABLE


def test_pairs_refuse_a_negative_lower_bound():
    with pytest.raises(ValueError, match="lo must be >= 0"):
        list(path4().pairs_at_distance(-1, 1))


@st.composite
def sparse_graphs(draw, max_vertices=24):
    """Random edges at density 1/2 down to 1/16 (an AND of one to four
    random triangles) over a path through the first m vertices, so that
    long distances and many components both turn up."""
    k = draw(st.integers(0, max_vertices))
    top = (1 << (k * (k - 1) // 2)) - 1
    bits = reduce(and_, draw(st.lists(st.integers(0, top), min_size=1, max_size=4)))
    bits |= sum(1 << _pair_bit(i, i + 1) for i in range(draw(st.integers(0, k)) - 1))
    return PrimeGraph(first_primes(k), bits)


@given(sparse_graphs())
def test_reach_rings_match_frontier_bfs(g):
    n = len(g)
    levels = frontier_levels(g)
    reach = g._reach
    rings = [reach[0]] + [reach[d] & ~reach[d - 1] for d in range(1, len(reach))]
    for i, source in enumerate(levels):
        for d in range(max(len(rings), len(source)) + 1):
            ring_row = rings[d] >> n * i & (1 << n) - 1 if d < len(rings) else 0
            assert ring_row == (source[d] if d < len(source) else 0)
    if n:
        assert g.diameter() == max(len(source) for source in levels) - 1
    reached = {frozenset(g.vertices[j] for j in range(n) if reduce(or_, source) >> j & 1) for source in levels}
    assert g.components() == sorted(reached, key=min)


def _path(ps):
    return [(ps[i], ps[i + 1]) for i in range(len(ps) - 1)]


PS = first_primes(MAX_VERTICES)
AT_WIDTH = {
    "P64": (PrimeGraph.from_edges(_path(PS)), 63, 1),
    "C64": (PrimeGraph.from_edges(_path(PS) + [(PS[-1], PS[0])]), 32, 1),
    "K64": (PrimeGraph(PS, (1 << MAX_VERTICES * (MAX_VERTICES - 1) // 2) - 1), 1, 1),
    "edgeless": (PrimeGraph(PS), 0, 64),
    "two P32": (PrimeGraph.from_edges(_path(PS[:32]) + _path(PS[32:])), 31, 2),
}


@pytest.mark.parametrize("name", AT_WIDTH)
def test_graphs_at_the_packing_width(name):
    g, diameter, components = AT_WIDTH[name]
    assert len(g) == MAX_VERTICES
    check_against_oracle(g)
    assert g.diameter() == diameter
    assert len(g.components()) == components


def test_first_pair_of_the_longest_path():
    p64 = AT_WIDTH["P64"][0]
    assert next(p64.pairs_at_distance(63)) == (0, 63, 63)
