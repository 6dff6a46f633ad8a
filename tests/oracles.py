"""Brute-force oracles for the test suite.

Everything here re-derives answers from first principles: ordered-partition
enumeration with nested-loop condition checks, try-all-colorings
bipartiteness, divisibility double loops, Floyd-Warshall distances, a
smallest-factor sieve.  None of it shares logic with the library's
neighbourhood-derived duke partition, bitmask distances, or Miller-Rabin
and Pollard-rho arithmetic, so agreement is meaningful.
"""

from __future__ import annotations

from itertools import product
from math import isqrt

from chargraph.duke import DukePartition
from chargraph.graphs import PrimeGraph


def duke_conditions_hold(g: PrimeGraph, parts: list[list[int]]) -> bool:
    """Direct check of the five duke conditions on an ordered 4-partition."""
    r1, r2, r3, r4 = parts
    if not (r1 and r2 and r3 and r4):
        return False
    for a in r1:
        for b in r3 + r4:
            if g.adjacent(a, b):
                return False
    for a in r4:
        for b in r1 + r2:
            if g.adjacent(a, b):
                return False
    for a in r2:
        if not any(g.adjacent(a, b) for b in r3):
            return False
    for b in r3:
        if not any(g.adjacent(a, b) for a in r2):
            return False
    for side in (r1 + r2, r3 + r4):
        for i, a in enumerate(side):
            for b in side[i + 1 :]:
                if not g.adjacent(a, b):
                    return False
    return True


def brute_force_find_duke(g: PrimeGraph) -> DukePartition | None:
    """Least valid duke partition by enumerating every ordered 4-assignment."""
    verts = g.vertices
    best_key = None
    best = None
    for assign in product(range(4), repeat=len(verts)):
        if set(assign) != {0, 1, 2, 3}:
            continue
        parts = [[verts[i] for i in range(len(verts)) if assign[i] == k] for k in range(4)]
        if not duke_conditions_hold(g, parts):
            continue
        key = (tuple(parts[0]), tuple(parts[1]), tuple(parts[2]))
        if best_key is None or key < best_key:
            best_key = key
            best = DukePartition(*(frozenset(p) for p in parts))
    return best


def brute_force_two_colorable(g: PrimeGraph) -> bool:
    """Is any of the 2^n colorings proper?"""
    n = len(g.vertices)
    edges = g.edges()
    for colors in product((0, 1), repeat=n):
        assignment = dict(zip(g.vertices, colors))
        if all(assignment[a] != assignment[b] for a, b in edges):
            return True
    return n == 0


def check_coloring(g: PrimeGraph, coloring) -> bool:
    if set(coloring) != set(g.vertices):
        return False
    if any(c not in (0, 1) for c in coloring.values()):
        return False
    return all(coloring[a] != coloring[b] for a, b in g.edges())


def check_odd_cycle(g: PrimeGraph, cycle) -> bool:
    k = len(cycle)
    if k < 3 or k % 2 == 0 or len(set(cycle)) != k:
        return False
    if any(v not in g.vertices for v in cycle):
        return False
    return all(g.adjacent(cycle[i], cycle[(i + 1) % k]) for i in range(k))


def edge_matches_divisibility(g: PrimeGraph, degrees) -> bool:
    """Re-verify every adjacency decision with a double loop over prime pairs."""
    verts = g.vertices
    for i, p in enumerate(verts):
        for q in verts[i + 1 :]:
            expected = any(d % (p * q) == 0 for d in degrees)
            if g.adjacent(p, q) != expected:
                return False
    return True


def floyd_warshall(g: PrimeGraph) -> dict[tuple[int, int], float]:
    """All-pairs shortest path edge counts over g.adjacent, keyed by prime
    pairs; float("inf") across components."""
    verts = g.vertices
    dist = {
        (u, v): 0 if u == v else 1 if g.adjacent(u, v) else float("inf")
        for u in verts
        for v in verts
    }
    for w in verts:
        for u in verts:
            for v in verts:
                if dist[u, w] + dist[w, v] < dist[u, v]:
                    dist[u, v] = dist[u, w] + dist[w, v]
    return dist


def smallest_factors(limit: int) -> list[int]:
    """spf[n] = the least prime dividing n, for 2 <= n <= limit (sieve of
    Eratosthenes); spf[n] == n exactly when n is prime."""
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def sieve_is_prime(n: int, spf: list[int]) -> bool:
    return n >= 2 and spf[n] == n


def sieve_factorization(n: int, spf: list[int]) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n >= 1 by repeated smallest-factor division."""
    entries: list[tuple[int, int]] = []
    while n > 1:
        p = spf[n]
        if entries and entries[-1][0] == p:
            entries[-1] = (p, entries[-1][1] + 1)
        else:
            entries.append((p, 1))
        n //= p
    return tuple(entries)
