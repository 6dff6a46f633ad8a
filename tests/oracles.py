"""Brute-force oracles for the test suite.

Everything here re-derives answers from first principles: ordered-partition
enumeration with nested-loop condition checks, try-all-colorings
bipartiteness, divisibility double loops, Floyd-Warshall distances, a
smallest-factor sieve, set-based versions of witness_partition,
verify_duke and induced that scan vertices and pairs through
g.distances_from and g.adjacent, a deque BFS 2-colouring that reads
neighbours through g.adjacent, and a one-source-at-a-time frontier BFS
over g.masks.  None of it shares logic with the library's
neighbourhood-derived duke partition, packed all-sources reach matrices,
first-witness scans and list-queue colouring, or Miller-Rabin and
Pollard-rho arithmetic, so agreement is meaningful.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from math import isqrt

from chargraph.duke import DukePartition, NotAPartition, NotDistance3, Violation
from chargraph.graphs import BipartiteCertificate, PrimeGraph, _pair_bit


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


def set_witness_partition(g: PrimeGraph, p: int, q: int) -> DukePartition:
    """witness_partition by distance dicts and per-vertex membership counts."""
    if g.distance(p, q) != 3:
        raise NotDistance3(f"d({p}, {q}) = {g.distance(p, q)}, need exactly 3")
    from_p = g.distances_from(p)
    from_q = g.distances_from(q)
    rho1 = {x for x in g.vertices if from_p[x] == 3}
    rho2 = {x for x in g.vertices if from_p[x] == 2}
    rho3 = {x for x in g.vertices if from_q[x] == 2}
    rho4 = {x for x in g.vertices if from_q[x] == 3}
    for x in g.vertices:
        hits = sum(x in part for part in (rho1, rho2, rho3, rho4))
        if hits == 0:
            raise NotAPartition(x, "lies in none of the four distance classes")
        if hits > 1:
            raise NotAPartition(x, "lies in more than one distance class")
    return DukePartition(
        frozenset(rho1), frozenset(rho2), frozenset(rho3), frozenset(rho4), witness=(p, q)
    )


def set_verify_duke(g: PrimeGraph, partition: DukePartition) -> tuple[Violation, ...]:
    """verify_duke by sorted nested scans over g.adjacent."""
    r1, r2, r3, r4 = partition.parts
    universe = partition.vertex_set()
    for x in g.vertices:
        if x not in universe:
            raise NotAPartition(x, "is missing from the partition")
    for x in sorted(universe):
        if x not in g.index:
            raise NotAPartition(x, "is not a vertex of the graph")

    violations: list[Violation] = []

    def cross_edge(side_a, side_b):
        for a in sorted(side_a):
            for b in sorted(side_b):
                if g.adjacent(a, b):
                    return (a, b)
        return None

    hit = cross_edge(r1, r3 | r4)
    if hit:
        violations.append(Violation("C1", hit))
    hit = cross_edge(r4, r1 | r2)
    if hit:
        violations.append(Violation("C2", hit))
    uncovered = next(
        (x for x in sorted(r2) if not any(g.adjacent(x, y) for y in r3)),
        None,
    ) or next(
        (x for x in sorted(r3) if not any(g.adjacent(x, y) for y in r2)),
        None,
    )
    if uncovered is not None:
        violations.append(Violation("C3", (uncovered,)))
    for label, side in (("C4", r1 | r2), ("C5", r3 | r4)):
        ordered = sorted(side)
        missing = next(
            (
                (a, b)
                for i, a in enumerate(ordered)
                for b in ordered[i + 1 :]
                if not g.adjacent(a, b)
            ),
            None,
        )
        if missing:
            violations.append(Violation(label, missing))
    return tuple(violations)


def set_induced(g: PrimeGraph, sub) -> PrimeGraph:
    """induced by a double loop over the adjacency triangle `bits`."""
    subset = sorted(set(sub))
    for v in subset:
        if v not in g.index:
            raise ValueError(f"{v} is not a vertex of this graph")
    old = [g.index[v] for v in subset]
    bits = 0
    for a in range(len(subset)):
        for b in range(a + 1, len(subset)):
            if g.bits >> _pair_bit(old[a], old[b]) & 1:
                bits |= 1 << _pair_bit(a, b)
    return PrimeGraph(tuple(subset), bits)


def brute_force_two_colorable(g: PrimeGraph) -> bool:
    """Is any of the 2^n colorings proper?"""
    n = len(g.vertices)
    edges = g.edges()
    for colors in product((0, 1), repeat=n):
        assignment = dict(zip(g.vertices, colors))
        if all(assignment[a] != assignment[b] for a, b in edges):
            return True
    return n == 0


def deque_bipartition_or_odd_cycle(g: PrimeGraph) -> BipartiteCertificate:
    """bipartition_or_odd_cycle as a deque BFS over g.adjacent: roots and
    neighbours in ascending index order, and the first edge between two
    vertices of one colour closed through the BFS tree as
    [lowest common ancestor .. u] + [v .. just below it]."""
    vs = g.vertices
    n = len(vs)
    color = [-1] * n
    parent = [-1] * n

    def chain(x: int) -> list[int]:
        path = [x]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        return path[::-1]

    for root in range(n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in range(n):
                if v == u or not g.adjacent(vs[u], vs[v]):
                    continue
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    ru, rv = chain(u), chain(v)
                    k = 0
                    while k < min(len(ru), len(rv)) and ru[k] == rv[k]:
                        k += 1
                    cycle = ru[k - 1 :] + rv[: k - 1 : -1]
                    return BipartiteCertificate(odd_cycle=tuple(vs[i] for i in cycle))
    return BipartiteCertificate(coloring={vs[i]: color[i] for i in range(n)})


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


def frontier_levels(g: PrimeGraph) -> tuple[tuple[int, ...], ...]:
    """Per source index, the breadth-first frontiers as bitmasks over
    g.masks: entry d holds the vertices at distance d.  One BFS per source;
    the next frontier is the union of the current one's neighbors, less
    every vertex already reached."""
    full = (1 << len(g.vertices)) - 1
    out = []
    for src in range(len(g.vertices)):
        frontier = reached = 1 << src
        levels = [frontier]
        while reached != full:
            nxt = 0
            for i in range(len(g.vertices)):
                if frontier >> i & 1:
                    nxt |= g.masks[i]
            frontier = nxt & ~reached
            if not frontier:
                break
            reached |= frontier
            levels.append(frontier)
        out.append(tuple(levels))
    return tuple(out)


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
