"""Graphs and the Hypothesis strategy that the test modules share."""

from hypothesis import strategies as st

from chargraph.graphs import PrimeGraph
from chargraph.primes import first_primes


@st.composite
def prime_graphs(draw, max_vertices, min_vertices=0):
    """A graph on the first k primes with any edge set, min_vertices <= k <= max_vertices."""
    k = draw(st.integers(min_vertices, max_vertices))
    bits = draw(st.integers(0, (1 << (k * (k - 1) // 2)) - 1))
    return PrimeGraph(first_primes(k), bits)


def path4():
    return PrimeGraph.from_edges([(2, 3), (3, 5), (5, 7)])


def cycle_edges(ps):
    """The edges of the cycle through ps, in order."""
    return [(ps[i], ps[(i + 1) % len(ps)]) for i in range(len(ps))]


def cycle(k):
    """C_k on the first k primes, in order."""
    return PrimeGraph.from_edges(cycle_edges(first_primes(k)))


def k4():
    return PrimeGraph.from_edges([(a, b) for a in (2, 3, 5, 7) for b in (2, 3, 5, 7) if a < b])
