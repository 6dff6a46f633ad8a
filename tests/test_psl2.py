import pytest

from chargraph.duke import screen
from chargraph.graphs import UNREACHABLE, PrimeGraph, build_graph
from chargraph.primes import prime_set
from chargraph.psl2 import PrimePowerQ, crosscheck, lemma24_graph, prime_powers_in, psl2_degrees


def test_prime_power_q_validation():
    q = PrimePowerQ.of(27)
    assert (q.q, q.p, q.f) == (27, 3, 3)
    with pytest.raises(ValueError):
        PrimePowerQ.of(12)
    with pytest.raises(ValueError):
        PrimePowerQ.of(3)
    with pytest.raises(ValueError):
        PrimePowerQ(8, 2, 2)  # 2**2 != 8
    with pytest.raises(ValueError, match="PRIME_LIMIT"):
        PrimePowerQ.of(2**100)


def test_prime_power_q_large():
    q = PrimePowerQ.of(1000003**2)
    assert (q.p, q.f) == (1000003, 2)
    assert crosscheck(q)


@pytest.mark.parametrize(
    "q,expected",
    [
        (4, {1, 3, 4, 5}),
        (5, {1, 3, 4, 5}),
        (7, {1, 3, 6, 7, 8}),
        (13, {1, 7, 12, 13, 14}),
        (8, {1, 7, 8, 9}),
        (9, {1, 5, 8, 9, 10}),
    ],
)
def test_degree_sets(q, expected):
    assert psl2_degrees(q).degrees == expected


def test_graph_q8():
    g = lemma24_graph(8)
    assert g.vertices == (2, 3, 7)
    assert g.edges() == []
    assert g.components() == [{2}, {3}, {7}]
    assert g.distance(2, 3) == UNREACHABLE


def test_graph_q7():
    g = lemma24_graph(7)
    assert g.vertices == (2, 3, 7)
    assert g.edges() == [(2, 3)]
    assert g.components() == [{2, 3}, {7}]


def test_graph_q11():
    g = lemma24_graph(11)
    assert g.vertices == (2, 3, 5, 11)
    assert g.edges() == [(2, 3), (2, 5)]


def test_graph_q13():
    g = lemma24_graph(13)
    assert g.vertices == (2, 3, 7, 13)
    assert g.edges() == [(2, 3), (2, 7)]


def test_graph_q5_is_empty_on_three_vertices():
    g = lemma24_graph(5)
    assert g == PrimeGraph((2, 3, 5))


@pytest.mark.parametrize("q", [4, 5, 9])
def test_crosscheck_examples(q):
    assert crosscheck(q)


def test_crosscheck_q9_structure():
    g = build_graph(psl2_degrees(9))
    assert g.edges() == [(2, 5)]
    assert {3} in g.components()


def test_prime_powers_in():
    assert prime_powers_in(4, 30) == [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]


def test_component_structure_against_degree_route():
    # the three-way even split and the two-way odd split, on a small sweep
    for q in prime_powers_in(4, 200):
        g = lemma24_graph(q)
        pq = PrimePowerQ.of(q)
        comps = g.components()
        if q == 5:
            continue
        if pq.p == 2:
            assert len(comps) == 3
            assert {2} in comps
            assert all(g.induced(c).is_complete() for c in comps)
        else:
            assert len(comps) == 2
            assert {pq.p} in comps
            big = next(c for c in comps if c != {pq.p})
            power_of_two_flank = ((q - 1) & (q - 2)) == 0 or ((q + 1) & q) == 0
            assert g.induced(big).is_complete() == power_of_two_flank
            if not power_of_two_flank:
                m_part = prime_set(q - 1) - {2}
                p_part = prime_set(q + 1) - {2}
                assert m_part and p_part
                assert g.neighbors(2) == m_part | p_part
                assert not any(g.adjacent(a, b) for a in m_part for b in p_part)


def test_screen_passes_on_small_sweep():
    for q in prime_powers_in(4, 200):
        assert screen(lemma24_graph(q)).passed
