"""Duke partitions and feasibility screening.

A duke partition splits the vertices into four nonempty classes
(rho1, rho2, rho3, rho4) such that rho1 has no edges into rho3 u rho4,
rho4 has no edges into rho1 u rho2, every rho2 vertex has a rho3
neighbor and vice versa, and rho1 u rho2 and rho3 u rho4 both induce
complete subgraphs.  Graphs of diameter 3 that fail to admit one (or
whose complement is not bipartite) cannot be the degree graph of any
finite group, which is what `screen` certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from . import primes
from .graphs import PrimeGraph, bipartition_or_odd_cycle, _iter_bits

DIAMETER_EXCEEDS_3 = "DIAMETER_EXCEEDS_3"
DIAM3_NOT_DUKE = "DIAM3_NOT_DUKE"
DIAM3_COMPLEMENT_NOT_BIPARTITE = "DIAM3_COMPLEMENT_NOT_BIPARTITE"
DIAM3_LEMMA31_FAILS = "DIAM3_LEMMA31_FAILS"

REASON_CODES = (
    DIAMETER_EXCEEDS_3,
    DIAM3_NOT_DUKE,
    DIAM3_COMPLEMENT_NOT_BIPARTITE,
    DIAM3_LEMMA31_FAILS,
)


class NotDistance3(ValueError):
    """The supplied witness pair is not at graph distance 3."""


class NotAPartition(ValueError):
    """The four distance-defined sets overlap or miss a vertex."""

    def __init__(self, vertex: int, detail: str):
        super().__init__(f"vertex {vertex} {detail}")
        self.vertex = vertex


class TooSmall(ValueError):
    """Fewer than four vertices: no four nonempty parts exist."""


class BadPattern(ValueError):
    """A cross-edge pattern that would leave a middle vertex unmatched."""


@dataclass(frozen=True)
class DukePartition:
    """Ordered quadruple of disjoint nonempty prime sets, with an optional
    distance-3 witness pair (p, q); p lies in rho4 and q in rho1."""

    rho1: frozenset[int]
    rho2: frozenset[int]
    rho3: frozenset[int]
    rho4: frozenset[int]
    witness: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        parts = self.parts
        for part in parts:
            if not part:
                raise ValueError("all four parts must be nonempty")
        union = frozenset().union(*parts)
        if len(union) != sum(len(p) for p in parts):
            raise ValueError("parts must be pairwise disjoint")
        if self.witness is not None:
            p, q = self.witness
            if q not in self.rho1 or p not in self.rho4:
                raise ValueError(f"witness ({p}, {q}) must satisfy q in rho1, p in rho4")

    @property
    def parts(self) -> tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]]:
        return (self.rho1, self.rho2, self.rho3, self.rho4)

    def vertex_set(self) -> frozenset[int]:
        return frozenset().union(*self.parts)


@dataclass(frozen=True)
class Violation:
    """A failed duke condition (C1..C5) with the offending pair or vertex."""

    condition: str
    witness: tuple[int, ...]


def witness_partition(g: PrimeGraph, p: int, q: int) -> DukePartition:
    """Partition the vertices by their distances to a distance-3 pair (p, q).

    rho1 = vertices at distance 3 from p, rho2 at distance 2 from p,
    rho3 at distance 2 from q, rho4 at distance 3 from q.  Raises
    NotAPartition when the four sets overlap or fail to cover the graph;
    on genuine degree graphs they always partition it.
    """
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


def verify_duke(g: PrimeGraph, partition: DukePartition) -> tuple[Violation, ...]:
    """Check the five duke conditions; an empty result means the partition passes.

    Each failed condition is reported once, with its first witness in
    ascending vertex order:
      C1  no rho1 -- (rho3 u rho4) edge
      C2  no rho4 -- (rho1 u rho2) edge
      C3  every rho2 vertex has a rho3 neighbor and vice versa
      C4  rho1 u rho2 induces a complete subgraph
      C5  rho3 u rho4 induces a complete subgraph
    """
    r1, r2, r3, r4 = partition.parts
    universe = partition.vertex_set()
    for x in g.vertices:
        if x not in universe:
            raise NotAPartition(x, "is missing from the partition")
    for x in sorted(universe):
        if x not in g.index:
            raise NotAPartition(x, "is not a vertex of the graph")

    violations: list[Violation] = []

    def cross_edge(side_a: frozenset[int], side_b: frozenset[int]) -> tuple[int, int] | None:
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


def _is_clique(masks: tuple[int, ...], subset: int) -> bool:
    rest = subset
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        if rest & ~masks[v]:
            return False
    return True


def _cover_partition(g: PrimeGraph, left: int, right: int) -> DukePartition | None:
    """The unique duke partition a clique cover (left, right) can induce.

    Condition C1 forces rho1 to avoid all edges into the right side while
    C3 forces every other left vertex to have one, so rho1 is exactly the
    left vertices with no right neighbor; dually for rho4.
    """
    masks = g.masks
    rho1 = rho2 = rho3 = rho4 = 0
    for i in _iter_bits(left):
        if masks[i] & right:
            rho2 |= 1 << i
        else:
            rho1 |= 1 << i
    for i in _iter_bits(right):
        if masks[i] & left:
            rho3 |= 1 << i
        else:
            rho4 |= 1 << i
    if not (rho1 and rho2 and rho3 and rho4):
        return None
    to_primes = lambda m: frozenset(g.vertices[i] for i in _iter_bits(m))
    return DukePartition(to_primes(rho1), to_primes(rho2), to_primes(rho3), to_primes(rho4))


def find_duke(g: PrimeGraph) -> DukePartition | None:
    """The lexicographically least duke partition, read off one distance-3 pair.

    In a duke graph every rho1--rho4 pair is at distance exactly 3 (no
    common neighbor, and rho1 - rho2 - rho3 - rho4 is a path) and every
    other pair at distance at most 2, so the diameter is 3 and the
    distance-3 pairs are exactly rho1 x rho4.  For the first such pair
    (i, j), the clique sides rho1 u rho2 and rho3 u rho4 are then the
    closed neighborhoods N[i] and N[j], and that cover forces the rest of
    the partition (see _cover_partition).  Vertex i is the least of
    rho1 u rho4, so putting it in rho1 gives the least partition under
    (sorted rho1, sorted rho2, sorted rho3); the mirror is the only other
    one.  Every step is forced, so None is a proof that no duke partition
    exists.
    """
    n = len(g.vertices)
    if n < 4:
        raise TooSmall(f"need at least 4 vertices for four nonempty parts, got {n}")
    if g.diameter() != 3:
        return None
    i, j, _ = next(g.pairs_at_distance(3, 3))
    masks = g.masks
    left = masks[i] | 1 << i
    right = masks[j] | 1 << j
    # N[i] and N[j] are disjoint: a shared vertex would be a common neighbor.
    if left | right != (1 << n) - 1 or not (_is_clique(masks, left) and _is_clique(masks, right)):
        return None
    return _cover_partition(g, left, right)


def lemma31_holds(g: PrimeGraph) -> tuple[bool, tuple[int, int, int] | None]:
    """Whether every vertex off a distance-3 pair is adjacent to one of the pair.

    Scans pairs (p, q) with d(p, q) = 3 in ascending order and returns the
    first triple (p, q, t) where t is adjacent to neither; vacuously true
    when no distance-3 pair exists.
    """
    full = (1 << len(g.vertices)) - 1
    masks = g.masks
    for i, j, _ in g.pairs_at_distance(3, 3):
        uncovered = full & ~(masks[i] | masks[j] | 1 << i | 1 << j)
        if uncovered:
            t = (uncovered & -uncovered).bit_length() - 1
            return False, (g.vertices[i], g.vertices[j], g.vertices[t])
    return True, None


def synthesize_duke(
    sizes: tuple[int, int, int, int],
    pattern: set[tuple[int, int]] | frozenset[tuple[int, int]],
) -> tuple[PrimeGraph, DukePartition]:
    """Construct a duke graph with the given part sizes on the first primes.

    `pattern` lists the cross edges as (rho2 index, rho3 index) pairs; it
    must touch every index on both sides, otherwise some middle vertex
    would violate C3.  The result is the graph with rho1 u rho2 and
    rho3 u rho4 complete, exactly those cross edges, and nothing else;
    every rho4--rho1 pair then sits at distance exactly 3.
    """
    a, b, c, d = sizes
    if min(a, b, c, d) < 1:
        raise ValueError(f"all four part sizes must be >= 1, got {sizes}")
    pat = {(int(i), int(j)) for i, j in pattern}
    for i, j in pat:
        if not (0 <= i < b and 0 <= j < c):
            raise ValueError(f"pattern entry ({i}, {j}) outside {b}x{c} grid")
    if not pat:
        raise BadPattern("empty pattern leaves every middle vertex unmatched")
    rows = {i for i, _ in pat}
    cols = {j for _, j in pat}
    if rows != set(range(b)) or cols != set(range(c)):
        raise BadPattern("pattern leaves an unmatched middle index")

    verts = primes.first_primes(a + b + c + d)
    rho1 = verts[:a]
    rho2 = verts[a : a + b]
    rho3 = verts[a + b : a + b + c]
    rho4 = verts[a + b + c :]
    edges: list[tuple[int, int]] = []
    left = rho1 + rho2
    right = rho3 + rho4
    edges += [(left[i], left[j]) for i in range(len(left)) for j in range(i + 1, len(left))]
    edges += [(right[i], right[j]) for i in range(len(right)) for j in range(i + 1, len(right))]
    edges += [(rho2[i], rho3[j]) for i, j in pat]
    g = PrimeGraph.from_edges(edges, isolated=verts)
    partition = DukePartition(
        frozenset(rho1),
        frozenset(rho2),
        frozenset(rho3),
        frozenset(rho4),
        witness=(min(rho4), min(rho1)),
    )
    return g, partition


@dataclass(frozen=True)
class FeasibilityReport:
    """Screening verdict with machine-checkable certificates per reason."""

    passed: bool
    reasons: tuple[str, ...]
    certificates: Mapping[str, Any]

    def __post_init__(self) -> None:
        if self.passed != (not self.reasons):
            raise ValueError("passed must hold exactly when there are no reasons")
        for code in self.reasons:
            if code not in REASON_CODES:
                raise ValueError(f"unknown reason code {code}")
            if code not in self.certificates:
                raise ValueError(f"reason {code} lacks a certificate")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "passed": self.passed,
            "reasons": list(self.reasons),
            "certificates": {k: self.certificates[k] for k in sorted(self.certificates)},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "FeasibilityReport":
        return cls(
            passed=bool(data["passed"]),
            reasons=tuple(data["reasons"]),
            certificates=dict(data["certificates"]),
        )


def screen(g: PrimeGraph) -> FeasibilityReport:
    """Apply the necessary conditions for being a finite group's degree graph.

    D1: diameter at most 3.  When the diameter is exactly 3: D2 a duke
    partition exists, D3 the complement is bipartite, D4 every vertex off
    a distance-3 pair is adjacent to one of the pair.  D2 implies D3 (both
    clique sides are independent in the complement) and D4 (every vertex
    shares a clique side with one end of each distance-3 pair), so D3 and
    D4 run only once D2 has failed; then both run, so a failing report
    carries every certificate.  Any failure proves the graph is not a
    degree graph.
    """
    if not g.vertices:
        raise ValueError("screen requires a nonempty graph")
    reasons: list[str] = []
    certificates: dict[str, Any] = {}
    diam = g.diameter()
    if diam > 3:
        i, j, d = next(g.pairs_at_distance(4))
        reasons.append(DIAMETER_EXCEEDS_3)
        certificates[DIAMETER_EXCEEDS_3] = {
            "pair": [g.vertices[i], g.vertices[j]],
            "distance": d,
        }
    elif diam == 3 and find_duke(g) is None:
        i, j, _ = next(g.pairs_at_distance(3, 3))
        reasons.append(DIAM3_NOT_DUKE)
        certificates[DIAM3_NOT_DUKE] = {
            "pair": [g.vertices[i], g.vertices[j]],
            "search": "exhaustive",
        }
        certificate = bipartition_or_odd_cycle(g.complement())
        if not certificate.is_bipartite:
            assert certificate.odd_cycle is not None
            reasons.append(DIAM3_COMPLEMENT_NOT_BIPARTITE)
            certificates[DIAM3_COMPLEMENT_NOT_BIPARTITE] = {
                "odd_cycle": list(certificate.odd_cycle),
            }
        holds, triple = lemma31_holds(g)
        if not holds:
            assert triple is not None
            reasons.append(DIAM3_LEMMA31_FAILS)
            certificates[DIAM3_LEMMA31_FAILS] = {
                "pair": [triple[0], triple[1]],
                "uncovered": triple[2],
            }
    return FeasibilityReport(
        passed=not reasons, reasons=tuple(reasons), certificates=certificates
    )
