"""Graphs on prime vertex sets and the generic machinery over them.

A PrimeGraph is immutable: vertices are a sorted tuple of primes and the
adjacency relation is packed into an upper-triangular bit matrix, so
equality and hashing are bit-exact and every operation returns a new
value.  The vertex count is capped at 64 to keep the bit tricks honest;
real degree sets never come close.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from . import primes

UNREACHABLE: float = float("inf")

MAX_VERTICES = 64


def _pair_bit(i: int, j: int) -> int:
    """Bit index of the unordered index pair {i, j}, i != j."""
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=MAX_VERTICES + 1)
def _pairs(n: int) -> tuple[tuple[int, int, int], ...]:
    """(_pair_bit(i, j), i, j) for every index pair i < j of n vertices,
    in lexicographic (i, j) order."""
    return tuple((_pair_bit(i, j), i, j) for i, j in combinations(range(n), 2))


@lru_cache(maxsize=MAX_VERTICES + 1)
def _square(n: int) -> tuple[int, int, int, int]:
    """Constants of the n x n bit matrices packed row-major into one int
    (entry (i, j) at bit n*i + j): bit 0 of every row, the identity, all
    ones, and the strict upper triangle j > i."""
    col = sum(1 << n * i for i in range(n))
    identity = sum(1 << (n + 1) * i for i in range(n))
    upper = sum((1 << n) - (2 << i) << n * i for i in range(n))
    return col, identity, (1 << n * n) - 1, upper


@dataclass(frozen=True)
class DegreeSet:
    """A finite set of character degrees.  Always contains 1; degrees are
    collapsed to a set because multiplicities never affect the graph.
    Every degree is below primes.PRIME_LIMIT, so it factors exactly."""

    degrees: frozenset[int]

    def __post_init__(self) -> None:
        if not isinstance(self.degrees, frozenset):
            object.__setattr__(self, "degrees", frozenset(self.degrees))
        for d in self.degrees:
            if isinstance(d, bool) or not isinstance(d, int) or d < 1:
                raise ValueError(f"degrees must be integers >= 1, got {d!r}")
            if d >= primes.PRIME_LIMIT:
                raise ValueError(f"degree {d} is not below PRIME_LIMIT = {primes.PRIME_LIMIT}")
        if 1 not in self.degrees:
            raise ValueError("a degree set must contain 1")

    @classmethod
    def of(cls, values: Iterable[int]) -> "DegreeSet":
        return cls(frozenset(values))

    def sorted(self) -> list[int]:
        return sorted(self.degrees)


@dataclass(frozen=True)
class PrimeGraph:
    """Simple graph whose vertices are primes, in canonical bit-matrix form.

    `bits` holds the upper triangle of the adjacency matrix over the sorted
    vertex order: bit _pair_bit(i, j) is set iff vertices[i] ~ vertices[j].
    A vertex at or above primes.PRIME_LIMIT is refused by primes.is_prime
    (ValueError) unless it has a prime factor up to 41.
    """

    vertices: tuple[int, ...]
    bits: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.vertices, tuple):
            object.__setattr__(self, "vertices", tuple(self.vertices))
        n = len(self.vertices)
        if n > MAX_VERTICES:
            raise ValueError(f"at most {MAX_VERTICES} vertices supported, got {n}")
        last = 1
        for v in self.vertices:
            if not isinstance(v, int) or v <= last:
                raise ValueError(f"vertices must be strictly increasing primes: {self.vertices}")
            if not primes.is_prime(v):
                raise ValueError(f"vertex {v} is not prime")
            last = v
        if not 0 <= self.bits < 1 << (n * (n - 1) // 2):
            raise ValueError("adjacency bits out of range for vertex count")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], isolated: Iterable[int] = ()
    ) -> "PrimeGraph":
        """Build a graph from prime pairs, plus any extra isolated vertices."""
        edge_list = [(int(a), int(b)) for a, b in edges]
        verts = sorted({v for e in edge_list for v in e} | set(isolated))
        index = {p: i for i, p in enumerate(verts)}
        bits = 0
        for a, b in edge_list:
            if a == b:
                raise ValueError(f"self-loop on {a}")
            bits |= 1 << _pair_bit(index[a], index[b])
        return cls(tuple(verts), bits)

    # -- cached derived forms ---------------------------------------------

    @cached_property
    def index(self) -> Mapping[int, int]:
        return {p: i for i, p in enumerate(self.vertices)}

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks over vertex indices.

        Row j of the triangle (the pairs (i, j), i < j) is the j bits of
        `bits` from _pair_bit(0, j) on: the lower neighbors of j in one
        shift.  Each of them gains j as an upper neighbor.
        """
        masks = [0] * len(self.vertices)
        for j in range(1, len(masks)):
            row = self.bits >> (j * (j - 1) // 2) & ((1 << j) - 1)
            masks[j] = row
            while row:
                low = row & -row
                masks[low.bit_length() - 1] |= 1 << j
                row ^= low
        return tuple(masks)

    @cached_property
    def _reach(self) -> tuple[int, ...]:
        """Entry d packs (as in _square) the n x n matrix "within distance
        d".  All sources advance at once: (r >> j) & col has bit n*i set iff
        row i holds j, and multiplied by masks[j] (n bits wide, so no product
        spills into the next row) it ORs j's neighbors into each such row.
        The last entry is full or a fixed point, so the diameter is len - 1."""
        col, r, full, _ = _square(len(self.vertices))
        out = [r]
        while r != full:
            nxt = r
            for j, mask in enumerate(self.masks):
                nxt |= (r >> j & col) * mask
            if nxt == r:
                break
            out.append(nxt)
            r = nxt
        return tuple(out)

    def _row(self, matrix: int, i: int) -> int:
        """Row i of a packed n x n matrix, as a vertex bitmask."""
        n = len(self.vertices)
        return matrix >> n * i & (1 << n) - 1

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    def _require_vertex(self, v: int) -> int:
        if v not in self.index:
            raise ValueError(f"{v} is not a vertex of this graph")
        return self.index[v]

    def adjacent(self, u: int, v: int) -> bool:
        i, j = self._require_vertex(u), self._require_vertex(v)
        if i == j:
            return False
        return bool(self.bits >> _pair_bit(i, j) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as prime pairs (p, q) with p < q, lexicographic."""
        bits, verts = self.bits, self.vertices
        return [(verts[i], verts[j]) for bit, i, j in _pairs(len(verts)) if bits >> bit & 1]

    def edge_count(self) -> int:
        return self.bits.bit_count()

    def neighbors(self, u: int) -> frozenset[int]:
        i = self._require_vertex(u)
        return frozenset(self.vertices[j] for j in _iter_bits(self.masks[i]))

    # -- operations ---------------------------------------------------------

    def complement(self) -> "PrimeGraph":
        """The complement, with its `masks` filled from this graph's: each
        row is every other vertex not adjacent here."""
        n = len(self.vertices)
        g = PrimeGraph(self.vertices, self.bits ^ (1 << (n * (n - 1) // 2)) - 1)
        full = (1 << n) - 1
        # Where cached_property would store it, so g.masks never re-derives it.
        g.__dict__["masks"] = tuple(full ^ row ^ 1 << i for i, row in enumerate(self.masks))
        return g

    def induced(self, sub: Iterable[int]) -> "PrimeGraph":
        """The induced subgraph on a subset of the vertices."""
        old = [self._require_vertex(v) for v in sorted(set(sub))]
        bits = 0
        for b, row in enumerate(self.masks[i] for i in old):
            for a in range(b):
                if row >> old[a] & 1:
                    bits |= 1 << _pair_bit(a, b)
        return PrimeGraph(tuple(self.vertices[i] for i in old), bits)

    def components(self) -> list[frozenset[int]]:
        """Connected components as prime sets, ordered by smallest member."""
        seen = 0
        out: list[frozenset[int]] = []
        for root in range(len(self.vertices)):
            if seen >> root & 1:
                continue
            comp = self._row(self._reach[-1], root)
            seen |= comp
            out.append(frozenset(self.vertices[i] for i in _iter_bits(comp)))
        return out

    def distances_from(self, u: int) -> dict[int, float]:
        self._require_vertex(u)
        return {v: self.distance(u, v) for v in self.vertices}

    def distance(self, u: int, v: int) -> float:
        """Shortest-path edge count, or UNREACHABLE across components."""
        b = self._require_vertex(u) * len(self.vertices) + self._require_vertex(v)
        return next((d for d, matrix in enumerate(self._reach) if matrix >> b & 1), UNREACHABLE)

    def diameter(self) -> int:
        """Largest distance within a component; 0 if every vertex is isolated."""
        if not self.vertices:
            raise ValueError("diameter of the empty graph is undefined")
        return len(self._reach) - 1

    def pairs_at_distance(self, lo: int, hi: int = MAX_VERTICES) -> Iterator[tuple[int, int, int]]:
        """Index pairs (i, j, d), i < j, at a finite distance lo <= d <= hi,
        in lexicographic (i, j) order: the upper-triangle bits of the one
        ring "within hi, not within lo - 1", ascending, so the first pair
        is the ring's lowest bit.  Raises ValueError for lo < 0."""
        if lo < 0:
            raise ValueError(f"lo must be >= 0, got {lo}")
        reach = self._reach
        hi = min(hi, len(reach) - 1)
        if lo > hi:
            return
        ring = (reach[hi] & ~reach[lo - 1] if lo else reach[hi]) & _square(len(self.vertices))[3]
        for b in _iter_bits(ring):
            d = lo
            while not reach[d] >> b & 1:
                d += 1
            yield (*divmod(b, len(self.vertices)), d)

    def is_complete(self) -> bool:
        n = len(self.vertices)
        return self.bits == (1 << (n * (n - 1) // 2)) - 1

    # -- DOT ------------------------------------------------------------------

    def to_dot(self) -> str:
        """Deterministic DOT text: vertices ascending, edges lexicographic."""
        lines = ["graph G {"]
        lines += [f'  "{v}";' for v in self.vertices]
        lines += [f'  "{a}" -- "{b}";' for a, b in self.edges()]
        lines.append("}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dot(cls, text: str) -> "PrimeGraph":
        """Parse the DOT subset written by to_dot."""
        node_re = re.compile(r'^\s*"(\d+)";\s*$')
        edge_re = re.compile(r'^\s*"(\d+)" -- "(\d+)";\s*$')
        verts: set[int] = set()
        edges: list[tuple[int, int]] = []
        body = [ln for ln in text.splitlines() if ln.strip()]
        if not body or not body[0].strip().startswith("graph") or body[-1].strip() != "}":
            raise ValueError("not a DOT graph produced by to_dot")
        for line in body[1:-1]:
            m = node_re.match(line)
            if m:
                verts.add(int(m.group(1)))
                continue
            m = edge_re.match(line)
            if m:
                edges.append((int(m.group(1)), int(m.group(2))))
                continue
            raise ValueError(f"unrecognized DOT line: {line!r}")
        return cls.from_edges(edges, isolated=verts)


def build_graph(cd: DegreeSet) -> PrimeGraph:
    """Graph on the primes dividing the degrees: p ~ q iff pq divides some degree.

    For distinct primes p, q and a degree d, pq | d iff both p | d and q | d,
    so each degree contributes a clique on its prime divisors.
    """
    if not isinstance(cd, DegreeSet):
        cd = DegreeSet.of(cd)
    verts: set[int] = set()
    edges: list[tuple[int, int]] = []
    for d in cd.degrees:
        ps = sorted(primes.prime_set(d))
        verts.update(ps)
        edges.extend(combinations(ps, 2))
    return PrimeGraph.from_edges(edges, isolated=verts)


@dataclass(frozen=True)
class BipartiteCertificate:
    """Either a proper 2-coloring or an odd cycle, checkable against the graph."""

    coloring: Mapping[int, int] | None = None
    odd_cycle: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if (self.coloring is None) == (self.odd_cycle is None):
            raise ValueError("exactly one of coloring / odd_cycle must be present")
        if self.odd_cycle is not None:
            k = len(self.odd_cycle)
            if k < 3 or k % 2 == 0 or len(set(self.odd_cycle)) != k:
                raise ValueError(f"odd_cycle must list >= 3 distinct vertices, odd count: {self.odd_cycle}")

    @property
    def is_bipartite(self) -> bool:
        return self.coloring is not None

    def valid_for(self, g: PrimeGraph) -> bool:
        """Re-check the certificate against a graph."""
        if self.coloring is not None:
            if set(self.coloring) != set(g.vertices):
                return False
            if not all(c in (0, 1) for c in self.coloring.values()):
                return False
            return all(self.coloring[a] != self.coloring[b] for a, b in g.edges())
        cyc = self.odd_cycle
        assert cyc is not None
        if not all(v in g.index for v in cyc):
            return False
        return all(g.adjacent(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc)))

    def color_classes(self) -> tuple[frozenset[int], frozenset[int]]:
        if self.coloring is None:
            raise ValueError("certificate is an odd cycle, not a coloring")
        zero = frozenset(v for v, c in self.coloring.items() if c == 0)
        one = frozenset(v for v, c in self.coloring.items() if c == 1)
        return zero, one


def bipartition_or_odd_cycle(g: PrimeGraph) -> BipartiteCertificate:
    """2-color the graph by breadth-first layering, or extract an odd cycle.

    The cycle is the first edge u-v whose ends share a colour, closed at
    the lowest common ancestor (LCA) of their BFS tree paths as [lca .. u]
    + [v .. just below lca]; it is valid but not necessarily minimum length.
    """
    n = len(g.vertices)
    masks = g.masks
    color = [-1] * n
    parent = [-1] * n
    for root in range(n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        for u in queue:  # the loop also visits what it appends
            cu, row = color[u], masks[u]
            while row:
                low = row & -row
                row ^= low
                v = low.bit_length() - 1
                if color[v] == -1:
                    color[v] = cu ^ 1
                    parent[v] = u
                    queue.append(v)
                elif color[v] == cu:
                    # BFS neighbours differ in depth by at most 1, so equal
                    # colour means equal depth: both parent walks reach the
                    # LCA on the same step.
                    up, down = [u], [v]
                    while up[-1] != down[-1]:
                        up.append(parent[up[-1]])
                        down.append(parent[down[-1]])
                    return BipartiteCertificate(
                        odd_cycle=tuple(g.vertices[i] for i in up[::-1] + down[:-1])
                    )
    return BipartiteCertificate(coloring={g.vertices[i]: color[i] for i in range(n)})

