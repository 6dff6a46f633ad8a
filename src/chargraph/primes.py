"""Exact integer arithmetic: primality, factorization, prime sets, prime powers.

`is_prime` is deterministic Miller-Rabin over the prime bases 2 ... 41,
as many of them as the size of n needs.  It is exact for every n below
PRIME_LIMIT (Sorenson and Webster, 2015); at or above it, a number with
no prime factor up to 41 raises ValueError rather than being guessed at.
`factorize` divides by the primes below 2^10, tests what is left with
`is_prime`, and splits a composite rest with a deterministic Pollard rho
(Brent's cycle search, fixed start and increments).  Every answer is
exact; the expected cost grows with the square root of the second-largest prime
factor (at most the fourth root of n), not with sqrt(n).  Inputs at or
above PRIME_LIMIT are rejected where they enter the program (DegreeSet,
PrimeGraph vertices, corpus records, PSL2 q).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

PRIME_LIMIT = 3_317_044_064_679_887_385_961_981
"""Least strong pseudoprime to all of the bases 2 ... 41 (exclusive bound)."""

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# (psi_k, k): the least strong pseudoprime to the first k bases, so those
# k bases decide every n below it (Jaeschke 1993; Sorenson and Webster 2015).
_BASES_NEEDED = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (PRIME_LIMIT, 13),
)

_TRIAL_BOUND = 1 << 10


def _sieve(limit: int) -> tuple[int, ...]:
    """The primes below `limit` (Eratosthenes)."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return tuple(i for i, flag in enumerate(flags) if flag)


SMALL_PRIMES = _sieve(_TRIAL_BOUND)
"""The primes below 2^10, ascending: the trial divisors of `factorize`."""


@lru_cache(maxsize=1 << 14)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < PRIME_LIMIT.

    Uses only as many of the bases 2 ... 41 as n's size needs.

    Raises ValueError for n >= PRIME_LIMIT with no prime factor up to 41.
    """
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n >= PRIME_LIMIT:
        raise ValueError(
            f"{n} is at or above PRIME_LIMIT = {PRIME_LIMIT}, where primality is not decided exactly"
        )
    k = next(k for psi, k in _BASES_NEEDED if n < psi)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, ascending by prime."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = 1
        for p, e in self.entries:
            if p <= last:
                raise ValueError(f"primes must be distinct and ascending: {self.entries}")
            if e < 1:
                raise ValueError(f"exponent must be >= 1 in entry {(p, e)}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p

    def value(self) -> int:
        """Multiply the factorization back out."""
        n = 1
        for p, e in self.entries:
            n *= p**e
        return n

    def primes(self) -> frozenset[int]:
        return frozenset(p for p, _ in self.entries)


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n (Pollard rho, Brent's variant).

    The walk x -> x^2 + c starts at 2 with c = 1; a walk that closes its
    cycle mod n without splitting n is retried with c + 1.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _large_prime_factors(m: int) -> list[int]:
    """The prime factors of m > 1, with multiplicity, when m has none below 2^10."""
    if m < _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m):
        return [m]
    d = _rho(m)
    return _large_prime_factors(d) + _large_prime_factors(m // d)


def factorize(n: int) -> Factorization:
    """Factor n >= 1 exactly; n = 1 gives the empty product.

    Raises ValueError when a part of n with no prime factor below 2^10 is
    at or above PRIME_LIMIT.
    """
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    entries: list[tuple[int, int]] = []
    m = n
    for p in SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            entries.append((p, e))
    # Here m = 1, or m is prime, or m has no prime factor below 2^10.
    if m >= _TRIAL_BOUND * _TRIAL_BOUND:
        entries += sorted(Counter(_large_prime_factors(m)).items())
    elif m > 1:
        entries.append((m, 1))
    return Factorization(tuple(entries))


def prime_set(n: int) -> frozenset[int]:
    """The set of prime divisors of n; empty for n = 1."""
    return factorize(n).primes()


def prime_power(q: int) -> tuple[int, int] | None:
    """Decompose q >= 2 as p**f, or return None if q is not a prime power.

    Stops at the smallest prime factor when it is below 2^10.
    """
    if q < 2:
        raise ValueError(f"prime_power expects q >= 2, got {q}")
    for p in SMALL_PRIMES:
        if q % p == 0:
            m, f = q // p, 1
            while m % p == 0:
                m //= p
                f += 1
            return (p, f) if m == 1 else None
        if p * p > q:
            return (q, 1)
    entries = factorize(q).entries
    return entries[0] if len(entries) == 1 else None


def first_primes(count: int) -> tuple[int, ...]:
    """The first `count` primes, ascending."""
    if count < 0:
        raise ValueError("count must be >= 0")
    out: list[int] = []
    n = 2
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n += 1
    return tuple(out)
