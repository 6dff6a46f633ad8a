import pytest
from hypothesis import given, settings, strategies as st

from chargraph.duke import (
    DIAM3_COMPLEMENT_NOT_BIPARTITE,
    DIAM3_LEMMA31_FAILS,
    DIAM3_NOT_DUKE,
    DIAMETER_EXCEEDS_3,
    BadPattern,
    DukePartition,
    FeasibilityReport,
    NotAPartition,
    NotDistance3,
    TooSmall,
    find_duke,
    lemma31_holds,
    screen,
    synthesize_duke,
    verify_duke,
    witness_partition,
)
from chargraph.graphs import PrimeGraph, bipartition_or_odd_cycle
from chargraph.primes import first_primes

from graph_helpers import cycle, k4, path4, prime_graphs
from oracles import (
    brute_force_find_duke,
    check_odd_cycle,
    duke_conditions_hold,
    set_induced,
    set_verify_duke,
    set_witness_partition,
)


def six_vertex_example():
    # two triangles {2,3,5} and {7,11,13} bridged by 3-7 and 5-11
    return PrimeGraph.from_edges(
        [(2, 3), (2, 5), (3, 5), (7, 11), (7, 13), (11, 13), (3, 7), (5, 11)]
    )


# -- DukePartition type ---------------------------------------------------------


def test_partition_invariants():
    with pytest.raises(ValueError):
        DukePartition(frozenset(), frozenset({3}), frozenset({5}), frozenset({7}))
    with pytest.raises(ValueError):
        DukePartition(frozenset({2}), frozenset({2}), frozenset({5}), frozenset({7}))
    with pytest.raises(ValueError):
        DukePartition(
            frozenset({2}), frozenset({3}), frozenset({5}), frozenset({7}), witness=(2, 7)
        )  # p must be in rho4


# -- witness_partition ----------------------------------------------------------


def test_witness_partition_on_path():
    part = witness_partition(path4(), 2, 7)
    assert part == DukePartition(
        frozenset({7}), frozenset({5}), frozenset({3}), frozenset({2}), witness=(2, 7)
    )


def test_witness_partition_on_six_vertex_graph():
    part = witness_partition(six_vertex_example(), 2, 13)
    assert part.rho1 == {13}
    assert part.rho2 == {7, 11}
    assert part.rho3 == {3, 5}
    assert part.rho4 == {2}


def test_witness_partition_rejects_c7():
    with pytest.raises(NotAPartition) as info:
        witness_partition(cycle(7), 2, 7)
    assert info.value.vertex == 13


def test_witness_partition_requires_distance_3():
    with pytest.raises(NotDistance3):
        witness_partition(path4(), 2, 5)


@given(prime_graphs(max_vertices=7, min_vertices=4))
def test_witness_partition_properties(g):
    # on any distance-3 pair: either NOT_A_PARTITION, or a partition of V
    # with q in rho1 and p in rho4 (nothing stronger holds for arbitrary
    # graphs: even C2 can fail, e.g. edges 2-5,5-7,3-11,5-11,7-11,2-13
    # with witnesses (7, 13))
    pairs = [
        (u, v)
        for i, u in enumerate(g.vertices)
        for v in g.vertices[i + 1 :]
        if g.distance(u, v) == 3
    ]
    for p, q in pairs:
        try:
            part = witness_partition(g, p, q)
        except NotAPartition:
            continue
        assert part.vertex_set() == set(g.vertices)
        assert q in part.rho1 and p in part.rho4


# -- verify_duke -----------------------------------------------------------------


def test_verify_duke_passes_path_partition():
    part = DukePartition(frozenset({7}), frozenset({5}), frozenset({3}), frozenset({2}))
    assert verify_duke(path4(), part) == ()


def test_verify_duke_passes_six_vertex_partition():
    part = DukePartition(frozenset({13}), frozenset({7, 11}), frozenset({3, 5}), frozenset({2}))
    assert verify_duke(six_vertex_example(), part) == ()


def test_verify_duke_fails_on_k4():
    part = DukePartition(frozenset({2}), frozenset({3}), frozenset({5}), frozenset({7}))
    violations = verify_duke(k4(), part)
    conditions = [v.condition for v in violations]
    assert "C1" in conditions
    first = next(v for v in violations if v.condition == "C1")
    assert first.witness == (2, 5)


def test_verify_duke_rejects_non_partition():
    part = DukePartition(frozenset({2}), frozenset({3}), frozenset({5}), frozenset({7}))
    with pytest.raises(NotAPartition):
        verify_duke(PrimeGraph.from_edges([(2, 3)], isolated=[5, 7, 11]), part)


# -- the mask layer against the set-based oracles ---------------------------------


def outcome(f, *args):
    """The return value, or the type, message and vertex of the ValueError raised."""
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e), getattr(e, "vertex", None)


@st.composite
def graphs_and_splits(draw):
    """A graph on 4 to 10 vertices, a pool of its vertices plus up to two
    primes off the graph, and a four-way split of the pool with every part
    nonempty that may also leave some of the pool out."""
    g = draw(prime_graphs(max_vertices=10, min_vertices=4))
    pool = first_primes(len(g.vertices) + draw(st.integers(0, 2)))
    top = draw(st.sampled_from([3, 4]))  # label 4 leaves a vertex out
    labels = draw(st.lists(st.integers(0, top), min_size=len(pool), max_size=len(pool)))
    for part, at in enumerate(draw(st.permutations(range(len(pool))))[:4]):
        labels[at] = part
    parts = (frozenset(v for v, label in zip(pool, labels) if label == part) for part in range(4))
    return g, pool, DukePartition(*parts)


@settings(max_examples=300)
@given(graphs_and_splits())
def test_mask_layer_matches_set_oracles(data):
    g, pool, partition = data
    assert outcome(verify_duke, g, partition) == outcome(set_verify_duke, g, partition)
    for p in pool:
        for q in pool:
            part = outcome(witness_partition, g, p, q)
            assert part == outcome(set_witness_partition, g, p, q)
            if isinstance(part, DukePartition):
                assert verify_duke(g, part) == set_verify_duke(g, part)
    for sub in (partition.rho1 | partition.rho3, partition.vertex_set()):
        assert outcome(g.induced, sub) == outcome(set_induced, g, sub)


# -- find_duke -------------------------------------------------------------------


def test_find_duke_examples():
    assert find_duke(path4()) is not None
    assert find_duke(cycle(7)) is None
    assert find_duke(k4()) is None
    with pytest.raises(TooSmall):
        find_duke(PrimeGraph.from_edges([(2, 3), (3, 5)]))


def test_find_duke_returns_lexicographically_least():
    # the path has two valid partitions; least by (rho1, rho2, rho3)
    assert find_duke(path4()) == DukePartition(
        frozenset({2}), frozenset({3}), frozenset({5}), frozenset({7})
    )


@settings(max_examples=150)
@given(prime_graphs(max_vertices=6, min_vertices=4))
def test_find_duke_matches_brute_force(g):
    assert find_duke(g) == brute_force_find_duke(g)


@given(prime_graphs(max_vertices=7, min_vertices=4))
def test_find_duke_output_verifies(g):
    part = find_duke(g)
    if part is not None:
        assert verify_duke(g, part) == ()
        assert duke_conditions_hold(
            g, [sorted(part.rho1), sorted(part.rho2), sorted(part.rho3), sorted(part.rho4)]
        )
        # the two clique sides are independent in the complement, so duke
        # graphs always have a 2-colorable complement
        assert bipartition_or_odd_cycle(g.complement()).is_bipartite
        # screen checks D3 and D4 only when no partition exists, which
        # rests on every duke graph having diameter 3 and satisfying D4
        assert g.diameter() == 3
        assert lemma31_holds(g)[0]


# -- lemma31_holds ----------------------------------------------------------------


def test_lemma31_examples():
    assert lemma31_holds(path4()) == (True, None)
    assert lemma31_holds(cycle(7)) == (False, (2, 7, 13))
    assert lemma31_holds(PrimeGraph.from_edges([(2, 3)])) == (True, None)


# -- synthesize_duke ---------------------------------------------------------------


def test_synthesize_minimal_is_path():
    g, part = synthesize_duke((1, 1, 1, 1), {(0, 0)})
    assert g == path4()
    assert part.parts == (frozenset({2}), frozenset({3}), frozenset({5}), frozenset({7}))


def test_synthesize_reproduces_six_vertex_example():
    g, part = synthesize_duke((1, 2, 2, 1), {(0, 0), (1, 1)})
    assert g == six_vertex_example()
    assert verify_duke(g, part) == ()


def test_synthesize_rejects_bad_patterns():
    with pytest.raises(BadPattern):
        synthesize_duke((1, 1, 1, 1), set())
    with pytest.raises(BadPattern):
        synthesize_duke((1, 2, 1, 1), {(0, 0)})  # second middle row unmatched
    with pytest.raises(ValueError):
        synthesize_duke((0, 1, 1, 1), {(0, 0)})


@st.composite
def sizes_summing_to(draw, lo, hi):
    """Four positive part sizes with a total from lo to hi."""
    total = draw(st.integers(lo, hi))
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), min_size=3, max_size=3)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))


@st.composite
def synth_inputs(draw, sizes=st.tuples(*[st.integers(1, 3)] * 4)):
    sizes = draw(sizes)
    b, c = sizes[1], sizes[2]
    cells = [(i, j) for i in range(b) for j in range(c)]
    chosen = set(draw(st.sets(st.sampled_from(cells), min_size=1)))
    for i in range(b):
        if not any(x == i for x, _ in chosen):
            chosen.add((i, draw(st.integers(0, c - 1))))
    for j in range(c):
        if not any(y == j for _, y in chosen):
            chosen.add((draw(st.integers(0, b - 1)), j))
    return sizes, chosen


@given(synth_inputs())
def test_synthesized_graphs_are_duke_and_screen_clean(data):
    sizes, pattern = data
    g, part = synthesize_duke(sizes, pattern)
    assert verify_duke(g, part) == ()
    for p in part.rho4:
        for q in part.rho1:
            assert g.distance(p, q) == 3
    report = screen(g)
    assert report.passed
    cert = bipartition_or_odd_cycle(g.complement())
    assert cert.is_bipartite
    assert set(cert.color_classes()) == {part.rho1 | part.rho2, part.rho3 | part.rho4}


def _lex_least_orientation(part):
    mirror = (part.rho4, part.rho3, part.rho2, part.rho1)
    return min(part.parts, mirror, key=lambda parts: [sorted(p) for p in parts[:3]])


@settings(max_examples=200)
@given(synth_inputs(sizes=sizes_summing_to(5, 10)))
def test_find_duke_recovers_synthesized_partition(data):
    # beyond the six vertices of the brute-force oracle: a duke graph has
    # exactly two duke partitions, the synthesized one and its mirror
    sizes, pattern = data
    g, part = synthesize_duke(sizes, pattern)
    found = find_duke(g)
    assert found is not None
    assert found.parts == _lex_least_orientation(part)


# -- screen -------------------------------------------------------------------------


def test_screen_path_passes():
    report = screen(path4())
    assert report.passed and report.reasons == ()


def test_screen_c7_fails_with_all_three_reasons():
    report = screen(cycle(7))
    assert set(report.reasons) == {
        DIAM3_NOT_DUKE,
        DIAM3_COMPLEMENT_NOT_BIPARTITE,
        DIAM3_LEMMA31_FAILS,
    }
    cyc = report.certificates[DIAM3_COMPLEMENT_NOT_BIPARTITE]["odd_cycle"]
    assert check_odd_cycle(cycle(7).complement(), cyc)
    p, q = report.certificates[DIAM3_LEMMA31_FAILS]["pair"]
    t = report.certificates[DIAM3_LEMMA31_FAILS]["uncovered"]
    g = cycle(7)
    assert g.distance(p, q) == 3
    assert not g.adjacent(t, p) and not g.adjacent(t, q)


def test_screen_long_path_fails_diameter():
    ps = first_primes(5)
    g = PrimeGraph.from_edges([(ps[i], ps[i + 1]) for i in range(4)])
    report = screen(g)
    assert report.reasons == (DIAMETER_EXCEEDS_3,)
    u, v = report.certificates[DIAMETER_EXCEEDS_3]["pair"]
    assert g.distance(u, v) == report.certificates[DIAMETER_EXCEEDS_3]["distance"] > 3


def test_screen_rejects_empty_graph():
    with pytest.raises(ValueError):
        screen(PrimeGraph(()))


@given(prime_graphs(max_vertices=7, min_vertices=1))
def test_screen_passed_iff_no_reasons(g):
    report = screen(g)
    assert report.passed == (not report.reasons)
    for code in report.reasons:
        assert code in report.certificates


def test_report_json_round_trip():
    report = screen(cycle(7))
    data = report.to_json_dict()
    assert FeasibilityReport.from_json_dict(data).to_json_dict() == data
