from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from chargraph.primes import (
    PRIME_LIMIT,
    SMALL_PRIMES,
    Factorization,
    factorize,
    first_primes,
    is_prime,
    prime_power,
    prime_set,
)

from oracles import sieve_factorization, sieve_is_prime, smallest_factors

SIEVE_LIMIT = 10**6

# psi_k, the least strong pseudoprime to all of the first k prime bases
# (Jaeschke 1993; Sorenson and Webster 2015).  psi_8 = psi_7 and
# psi_10 = psi_11 = psi_9, so those are not listed again.
PSI = {
    1: 2_047,
    2: 1_373_653,
    3: 25_326_001,
    4: 3_215_031_751,
    5: 2_152_302_898_747,
    6: 3_474_749_660_383,
    7: 341_550_071_728_321,
    9: 3_825_123_056_546_413_051,
    12: 318_665_857_834_031_151_167_461,
    13: PRIME_LIMIT,
}

P40, Q40 = 824_633_720_837, 1_099_511_626_781  # 40-bit primes


@pytest.fixture(scope="module")
def spf():
    return smallest_factors(SIEVE_LIMIT)


def strong_probable_prime(n: int, a: int) -> bool:
    """Does the odd n > 2 pass the strong Fermat test to base a?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_factorize_examples():
    assert factorize(1).entries == ()
    assert factorize(12).entries == ((2, 2), (3, 1))
    assert factorize(120).entries == ((2, 3), (3, 1), (5, 1))


@pytest.mark.parametrize("bad", [0, -1, -120])
def test_factorize_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        factorize(bad)


def test_prime_set_examples():
    assert prime_set(1) == frozenset()
    assert prime_set(48) == {2, 3}
    assert prime_set(120) == {2, 3, 5}


def test_prime_power_examples():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(12) is None
    with pytest.raises(ValueError):
        prime_power(1)


def test_factorization_invariants_enforced():
    with pytest.raises(ValueError):
        Factorization(((3, 1), (2, 1)))  # not ascending
    with pytest.raises(ValueError):
        Factorization(((4, 1),))  # not prime
    with pytest.raises(ValueError):
        Factorization(((2, 0),))  # exponent < 1


def test_product_reconstruction_exhaustive_to_one_million():
    for n in range(1, 10**6 + 1):
        assert factorize(n).value() == n


@given(st.integers(min_value=1, max_value=10**6))
def test_product_reconstruction_sampled(n):
    f = factorize(n)
    assert f.value() == n
    assert all(is_prime(p) for p, _ in f.entries)


@given(st.integers(min_value=1, max_value=10**4), st.integers(min_value=1, max_value=10**4))
def test_prime_set_multiplicative(a, b):
    assert prime_set(a * b) == prime_set(a) | prime_set(b)


@pytest.mark.parametrize("p", [p for p in range(2, 100) if is_prime(p)])
def test_prime_power_round_trip(p):
    for f in range(1, 11):
        assert prime_power(p**f) == (p, f)


def test_first_primes():
    assert first_primes(0) == ()
    assert first_primes(7) == (2, 3, 5, 7, 11, 13, 17)


def test_small_primes_table(spf):
    assert SMALL_PRIMES == tuple(n for n in range(1 << 10) if sieve_is_prime(n, spf))


def test_is_prime_matches_sieve_to_one_million(spf):
    wrong = [n for n in range(SIEVE_LIMIT + 1) if is_prime(n) != sieve_is_prime(n, spf)]
    assert wrong == []


def test_prime_power_matches_sieve(spf):
    for n in range(2, 2 * 10**5 + 1):
        entries = sieve_factorization(n, spf)
        assert prime_power(n) == (entries[0] if len(entries) == 1 else None), n


@pytest.mark.parametrize("k,psi", sorted(PSI.items()))
def test_strong_pseudoprimes_are_composite(k, psi):
    # psi fools the first k bases, so a test with fewer bases would call it prime
    assert all(strong_probable_prime(psi, a) for a in first_primes(k))
    if psi < PRIME_LIMIT:  # PRIME_LIMIT itself is refused, see below
        assert is_prime(psi) is False
        f = factorize(psi)
        assert f.value() == psi and len(f.entries) >= 2


def test_large_primes():
    assert is_prime(2**61 - 1)
    assert factorize(2**61 - 1).entries == ((2**61 - 1, 1),)
    assert factorize(10**14 + 31).entries == ((10**14 + 31, 1),)


def test_is_prime_refuses_prime_limit():
    with pytest.raises(ValueError, match="PRIME_LIMIT"):
        is_prime(PRIME_LIMIT)
    with pytest.raises(ValueError, match="PRIME_LIMIT"):
        factorize(PRIME_LIMIT)
    # a small factor still decides numbers at or above the bound
    assert is_prime(2 * PRIME_LIMIT) is False
    assert factorize(2**100).entries == ((2, 100),)


def test_is_prime_cache_is_bounded():
    assert is_prime.cache_info().maxsize == 1 << 14


@pytest.mark.parametrize(
    "entries",
    [
        ((1000003, 2),),
        ((1000003, 3),),
        ((10**9 + 7, 1), (10**9 + 9, 1)),
        ((P40, 1), (Q40, 1)),
        ((2, 3), (1021, 1), (1031, 2), (1000003, 1)),
        ((3, 1), (1000003, 2), (10**9 + 7, 1)),
    ],
)
def test_factorize_large_factors(entries):
    n = Factorization(entries).value()
    assert factorize(n).entries == entries
    assert prime_set(n) == {p for p, _ in entries}
    assert prime_power(n) == (entries[0] if len(entries) == 1 else None)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=1, max_value=10**12))
def test_factorize_is_multiplicative(a, b):
    merged = Counter(dict(factorize(a).entries)) + Counter(dict(factorize(b).entries))
    assert factorize(a * b).entries == tuple(sorted(merged.items()))
