import pytest
from hypothesis import example, given, strategies as st

from chargraph.graphs import (
    UNREACHABLE,
    BipartiteCertificate,
    DegreeSet,
    PrimeGraph,
    bipartition_or_odd_cycle,
    build_graph,
)
from chargraph.primes import PRIME_LIMIT, first_primes

from graph_helpers import cycle, cycle_edges, k4, path4, prime_graphs
from oracles import (
    brute_force_two_colorable,
    check_coloring,
    check_odd_cycle,
    deque_bipartition_or_odd_cycle,
    edge_matches_divisibility,
)


@st.composite
def degree_sets(draw):
    extra = draw(st.sets(st.integers(min_value=2, max_value=500), max_size=6))
    return DegreeSet.of({1} | extra)


# -- DegreeSet / build_graph ---------------------------------------------------


def test_degree_set_requires_one():
    with pytest.raises(ValueError):
        DegreeSet.of({2, 3})
    with pytest.raises(ValueError):
        DegreeSet.of({1, 0})


def test_degree_set_refuses_bools():
    for values in ([True, 6], [True], [1, 6, False]):
        with pytest.raises(ValueError, match="integers >= 1"):
            DegreeSet.of(values)
    assert DegreeSet.of([1, 6]).sorted() == [1, 6]


def test_degree_set_bound():
    assert DegreeSet.of({1, PRIME_LIMIT - 1}).sorted() == [1, PRIME_LIMIT - 1]
    with pytest.raises(ValueError, match="PRIME_LIMIT"):
        DegreeSet.of({1, PRIME_LIMIT})


def test_build_graph_examples():
    assert build_graph(DegreeSet.of({1})) == PrimeGraph(())
    g = build_graph(DegreeSet.of({1, 3, 4, 5}))
    assert g.vertices == (2, 3, 5)
    assert g.edges() == []
    g = build_graph(DegreeSet.of({1, 5, 10, 11, 12}))
    assert g.vertices == (2, 3, 5, 11)
    assert g.edges() == [(2, 3), (2, 5)]


@given(degree_sets())
def test_build_graph_edges_match_divisibility(cd):
    g = build_graph(cd)
    assert edge_matches_divisibility(g, cd.degrees)
    assert set(g.vertices) == {p for d in cd.degrees for p in _prime_divisors(d)}


def _prime_divisors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


# -- PrimeGraph validation -----------------------------------------------------


def test_vertices_must_be_primes():
    with pytest.raises(ValueError):
        PrimeGraph((2, 4))
    with pytest.raises(ValueError):
        PrimeGraph((3, 2))
    with pytest.raises(ValueError):
        PrimeGraph((2, 3), bits=2)  # only one pair bit exists


def test_vertices_below_prime_limit():
    with pytest.raises(ValueError, match="PRIME_LIMIT"):
        PrimeGraph((2, PRIME_LIMIT))
    with pytest.raises(ValueError, match="PRIME_LIMIT"):
        PrimeGraph.from_dot(f'graph G {{\n  "{PRIME_LIMIT}";\n}}\n')


def test_no_self_loops():
    with pytest.raises(ValueError):
        PrimeGraph.from_edges([(2, 2)])


def test_vertex_cap():
    with pytest.raises(ValueError):
        PrimeGraph(first_primes(65))


# -- complement / induced ------------------------------------------------------


def test_complement_examples():
    g = PrimeGraph((2, 3))
    assert g.complement().edges() == [(2, 3)]
    p4 = path4()
    assert p4.complement().edges() == [(2, 5), (2, 7), (3, 7)]


@given(prime_graphs(max_vertices=12))
@example(PrimeGraph(()))
@example(PrimeGraph((2,)))
def test_complement_is_involution(g):
    comp = g.complement()
    assert comp.complement() == g
    assert comp.vertices == g.vertices
    # complement() fills masks itself; they equal those derived from bits.
    assert comp.masks == PrimeGraph(g.vertices, comp.bits).masks


def test_induced_examples():
    p = build_graph(DegreeSet.of({1, 5, 10, 11, 12}))
    assert p.induced(()) == PrimeGraph(())
    assert p.induced(p.vertices) == p
    assert p.induced({2, 3, 5}).edges() == [(2, 3), (2, 5)]
    with pytest.raises(ValueError):
        p.induced({2, 13})


# -- components / distance / diameter ------------------------------------------


def test_components_examples():
    g = PrimeGraph((2, 3, 7))  # shape of the PSL2(8) graph
    assert g.components() == [{2}, {3}, {7}]
    assert k4().components() == [{2, 3, 5, 7}]
    assert PrimeGraph(()).components() == []


def test_distance_examples():
    p4 = path4()
    assert p4.distance(2, 7) == 3
    assert p4.distance(5, 5) == 0
    g = PrimeGraph((2, 3, 7))
    assert g.distance(2, 3) == UNREACHABLE
    with pytest.raises(ValueError):
        p4.distance(2, 11)


def test_diameter_examples():
    assert path4().diameter() == 3
    assert PrimeGraph((2,)).diameter() == 0
    # K2 disjoint union K1: per-component maximum
    g = PrimeGraph.from_edges([(2, 3)], isolated=[5])
    assert g.diameter() == 1
    with pytest.raises(ValueError):
        PrimeGraph(()).diameter()


@given(prime_graphs(max_vertices=8, min_vertices=1))
def test_components_partition_and_distance(g):
    comps = g.components()
    seen = [v for c in comps for v in c]
    assert sorted(seen) == list(g.vertices)
    assert len(seen) == len(set(seen))
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    for u in g.vertices:
        for v in g.vertices:
            if comp_of[u] == comp_of[v]:
                assert g.distance(u, v) != UNREACHABLE
            else:
                assert g.distance(u, v) == UNREACHABLE


def test_is_complete():
    k3 = PrimeGraph.from_edges([(2, 3), (2, 5), (3, 5)])
    assert k3.is_complete()
    assert PrimeGraph((2,)).is_complete()
    assert not PrimeGraph.from_edges([(2, 3), (3, 5)]).is_complete()


# -- bipartition certificates ----------------------------------------------------


def test_bipartition_of_path():
    cert = bipartition_or_odd_cycle(path4())
    assert cert.coloring == {2: 0, 3: 1, 5: 0, 7: 1}
    assert cert.valid_for(path4())


def test_odd_cycle_on_c5():
    c5 = cycle(5)
    cert = bipartition_or_odd_cycle(c5)
    assert not cert.is_bipartite
    assert len(cert.odd_cycle) == 5
    assert cert.valid_for(c5)


def test_complement_of_c7_has_triangle():
    comp = cycle(7).complement()
    cert = bipartition_or_odd_cycle(comp)
    assert not cert.is_bipartite
    assert check_odd_cycle(comp, cert.odd_cycle)


def test_certificate_shape_enforced():
    with pytest.raises(ValueError):
        BipartiteCertificate()
    with pytest.raises(ValueError):
        BipartiteCertificate(coloring={2: 0}, odd_cycle=(2, 3, 5))
    with pytest.raises(ValueError):
        BipartiteCertificate(odd_cycle=(2, 3, 5, 7))  # even length


@given(prime_graphs(max_vertices=8))
def test_certificate_always_validates(g):
    cert = bipartition_or_odd_cycle(g)
    if cert.is_bipartite:
        assert check_coloring(g, cert.coloring)
    else:
        assert check_odd_cycle(g, cert.odd_cycle)
    assert cert.valid_for(g)


@given(prime_graphs(max_vertices=12))
def test_bipartition_matches_deque_oracle(g):
    # The same odd cycle or the same colouring, on g and on its complement,
    # whose masks complement() fills itself.
    for h in (g, g.complement()):
        assert bipartition_or_odd_cycle(h) == deque_bipartition_or_odd_cycle(h)


@pytest.mark.parametrize(
    "g, expected",
    [
        # the conflict 11-13 is four steps from the root on both sides
        (cycle(9), (2, 3, 5, 7, 11, 13, 17, 19, 23)),
        # a path 2-3-5 into a C5: the LCA 5 sits at depth 2, not at the root
        (PrimeGraph.from_edges([(2, 3), (3, 5)] + cycle_edges((5, 7, 11, 13, 17))), (5, 7, 11, 13, 17)),
        # the odd cycle lies in the second component, rooted at 5
        (PrimeGraph.from_edges([(2, 3)] + cycle_edges(first_primes(9)[2:])), (5, 7, 11, 13, 17, 19, 23)),
        # theta: 2 and 3 joined by paths of length 2, 3 and 4
        (
            PrimeGraph.from_edges(
                [(2, 5), (5, 3), (2, 7), (7, 11), (11, 3), (2, 13), (13, 17), (17, 19), (19, 3)]
            ),
            (2, 5, 3, 11, 7),
        ),
    ],
    ids=["C9", "path-into-C5", "second-component-C7", "theta"],
)
def test_odd_cycle_closes_at_the_lowest_common_ancestor(g, expected):
    cert = bipartition_or_odd_cycle(g)
    assert cert == deque_bipartition_or_odd_cycle(g)
    assert cert.odd_cycle == expected
    assert check_odd_cycle(g, cert.odd_cycle)


def test_exhaustive_agreement_up_to_5_vertices():
    for k in range(0, 5):
        verts = first_primes(k)
        for bits in range(1 << (k * (k - 1) // 2)):
            g = PrimeGraph(verts, bits)
            assert bipartition_or_odd_cycle(g).is_bipartite == brute_force_two_colorable(g)


# -- edges ----------------------------------------------------------------------


def adjacent_pairs(g):
    """The edge list read pair by pair through `adjacent`."""
    return [(u, v) for i, u in enumerate(g.vertices) for v in g.vertices[i + 1 :] if g.adjacent(u, v)]


def test_edges_match_adjacent_up_to_5_vertices():
    for k in range(0, 6):
        verts = first_primes(k)
        for bits in range(1 << (k * (k - 1) // 2)):
            g = PrimeGraph(verts, bits)
            assert g.edges() == adjacent_pairs(g)


@given(prime_graphs(max_vertices=12))
def test_edges_match_adjacent(g):
    assert g.edges() == adjacent_pairs(g)


def test_edges_at_64_vertices():
    verts = first_primes(64)
    complete = PrimeGraph(verts, (1 << 64 * 63 // 2) - 1)
    path = PrimeGraph.from_edges(zip(verts, verts[1:]))
    for g in (complete, path, PrimeGraph(verts)):
        assert g.edges() == adjacent_pairs(g)
    assert len(complete.edges()) == 2016 and path.edges() == list(zip(verts, verts[1:]))
    assert PrimeGraph(verts).edges() == []


# -- DOT ----------------------------------------------------------------------


def test_dot_deterministic_order():
    g = PrimeGraph.from_edges([(5, 2), (3, 2)], isolated=[11])
    assert g.to_dot() == (
        'graph G {\n  "2";\n  "3";\n  "5";\n  "11";\n'
        '  "2" -- "3";\n  "2" -- "5";\n}\n'
    )


@given(prime_graphs(max_vertices=8))
def test_dot_round_trip(g):
    assert PrimeGraph.from_dot(g.to_dot()) == g


def test_dot_rejects_garbage():
    with pytest.raises(ValueError):
        PrimeGraph.from_dot("digraph D { }")
    with pytest.raises(ValueError):
        PrimeGraph.from_dot('graph G {\n  2 -- 3\n}')
