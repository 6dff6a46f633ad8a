"""Degree sets and degree graphs of the simple groups PSL2(q), q >= 4.

Two independent generators: `psl2_degrees` emits the character degree
set from the classical closed forms, and `lemma24_graph` builds the graph
directly from the case split on q.  `crosscheck` ties them together; the
two routes must agree bit-exactly for every prime power, which is the
module's central self-test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import primes
from .graphs import DegreeSet, PrimeGraph, build_graph


@dataclass(frozen=True)
class PrimePowerQ:
    """A prime power q = p**f with q >= 4."""

    q: int
    p: int
    f: int

    def __post_init__(self) -> None:
        if self.q < 4:
            raise ValueError(f"q must be >= 4, got {self.q}")
        if self.f < 1 or not primes.is_prime(self.p) or self.p**self.f != self.q:
            raise ValueError(f"({self.p}, {self.f}) does not factor q = {self.q}")

    @classmethod
    def of(cls, q: int) -> "PrimePowerQ":
        if q < 4:
            raise ValueError(f"q must be >= 4, got {q}")
        if q >= primes.PRIME_LIMIT:
            raise ValueError(f"q = {q} is not below PRIME_LIMIT = {primes.PRIME_LIMIT}")
        decomposition = primes.prime_power(q)
        if decomposition is None:
            raise ValueError(f"{q} is not a prime power")
        p, f = decomposition
        return cls(q, p, f)


def _as_q(q: "PrimePowerQ | int") -> PrimePowerQ:
    return q if isinstance(q, PrimePowerQ) else PrimePowerQ.of(q)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def psl2_degrees(q: "PrimePowerQ | int") -> DegreeSet:
    """The character degree set of PSL2(q).

    q even: {1, q-1, q, q+1}.  q = 5 is the boundary case {1, 3, 4, 5}.
    q odd > 5: {1, (q+e)/2, q-1, q, q+1} where e is +1 when (q-1)/2 is
    even and -1 otherwise.
    """
    pq = _as_q(q)
    if pq.p == 2:
        return DegreeSet.of({1, pq.q - 1, pq.q, pq.q + 1})
    if pq.q == 5:
        return DegreeSet.of({1, 3, 4, 5})
    epsilon = 1 if ((pq.q - 1) // 2) % 2 == 0 else -1
    return DegreeSet.of({1, (pq.q + epsilon) // 2, pq.q - 1, pq.q, pq.q + 1})


def lemma24_graph(q: "PrimePowerQ | int") -> PrimeGraph:
    """The degree graph of PSL2(q), built case by case rather than from degrees.

    q even: components {2}, pi(q-1), pi(q+1), each complete.  q = 5: the
    empty graph on {2, 3, 5}.  q odd > 5: p is isolated; if q-1 or q+1 is
    a power of 2 the rest is one clique, otherwise the odd parts
    M = pi(q-1)-{2} and P = pi(q+1)-{2} are cliques joined only through 2.
    """
    pq = _as_q(q)
    if pq.q == 5:
        return PrimeGraph((2, 3, 5))
    minus = primes.prime_set(pq.q - 1)
    plus = primes.prime_set(pq.q + 1)
    if pq.p == 2:
        edges = list(combinations(sorted(minus), 2)) + list(combinations(sorted(plus), 2))
        return PrimeGraph.from_edges(edges, isolated={2} | minus | plus)
    body = minus | plus
    if _is_power_of_two(pq.q - 1) or _is_power_of_two(pq.q + 1):
        edges = list(combinations(sorted(body), 2))
    else:
        m_part = sorted(minus - {2})
        p_part = sorted(plus - {2})
        edges = list(combinations(m_part, 2)) + list(combinations(p_part, 2))
        edges += [(2, t) for t in m_part + p_part]
    return PrimeGraph.from_edges(edges, isolated={pq.p} | body)


def crosscheck(q: "PrimePowerQ | int") -> bool:
    """Do the degree-set route and the case-split route give the same graph?"""
    pq = _as_q(q)
    return build_graph(psl2_degrees(pq)) == lemma24_graph(pq)


def prime_powers_in(lo: int, hi: int) -> list[int]:
    """All prime powers q with lo <= q <= hi, ascending."""
    out = [n for n in range(max(lo, 2), hi + 1) if primes.prime_power(n) is not None]
    return out
