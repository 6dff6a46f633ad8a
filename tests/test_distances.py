"""The distance layer (`distance`, `distances_from`, `diameter` and
`pairs_at_distance`) against the Floyd-Warshall oracle: every graph on at
most five vertices, plus a Hypothesis sweep up to ten."""

import math

import pytest
from hypothesis import given

from chargraph.graphs import MAX_VERTICES, UNREACHABLE, PrimeGraph
from chargraph.primes import first_primes

from oracles import floyd_warshall
from test_graphs import prime_graphs

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
    g = PrimeGraph.from_edges([(2, 3), (3, 5), (5, 7)])
    with pytest.raises(ValueError, match="lo must be >= 0"):
        list(g.pairs_at_distance(-1, 1))
