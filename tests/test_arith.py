"""Unit and property tests for the exact arithmetic layer."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverlab.arith as arith_module
from coverlab.arith import (
    SIEVE_CAPACITY,
    Factorization,
    divisor_list,
    euler_factors,
    euler_phi,
    euler_product,
    factorize,
    index_bound_factor,
    is_prime,
    least_prime,
    mertens_product,
    ord_of,
    prime_counts,
    primes_upto,
)
from coverlab.errors import BudgetError


def brute_phi(n: int) -> int:
    return sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1)


def brute_factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


# ------------------------------------------------------------------- primes


def test_primes_upto_small():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("limit", [1024, 65537, 401036])
def test_sieve_list_matches_the_comprehension(limit, monkeypatch):
    # a fresh sieve grown straight to the limit lists exactly the flagged
    # numbers, as the comprehension over the flags did
    monkeypatch.setattr(arith_module, "_sieved_to", 1)
    monkeypatch.setattr(arith_module, "_primes", [])
    arith_module._extend_sieve(limit)
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    assert arith_module._sieved_to == limit
    assert arith_module._primes == [i for i in range(limit + 1) if flags[i]]


def test_is_prime_against_sieve():
    sieve = set(primes_upto(500))
    for n in range(500):
        assert is_prime(n) == (n in sieve)


def test_capacity_refusal():
    with pytest.raises(BudgetError, match="capacity is"):
        primes_upto(SIEVE_CAPACITY + 1)


# -------------------------------------------------------------- factorize


def test_factorize_unit():
    assert factorize(1) == Factorization(1, ())
    assert factorize(1).primes() == ()


def test_factorize_12():
    f = factorize(12)
    assert f.pairs == ((2, 2), (3, 1))
    assert ord_of(12, 2) == 2
    assert ord_of(12, 5) == 0
    assert not f.is_squarefree()


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_matches_brute_force(n):
    f = factorize(n)
    assert list(f.pairs) == brute_factor(n)
    assert math.prod(p**e for p, e in f.pairs) == n
    assert list(f.primes()) == sorted(f.primes())


def test_least_prime():
    assert least_prime(2) == 2
    assert least_prime(15) == 3
    assert least_prime(97) == 97
    with pytest.raises(ValueError):
        least_prime(1)


# -------------------------------------------------------------- euler_phi


def test_phi_small():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    with pytest.raises(ValueError):
        euler_phi(0)


@given(st.integers(min_value=1, max_value=2000))
def test_phi_matches_brute_force(n):
    assert euler_phi(n) == brute_phi(n)


@given(
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=1, max_value=10**4),
)
def test_phi_multiplicative_on_coprime_pairs(m, n):
    if math.gcd(m, n) == 1:
        assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)


@given(st.integers(min_value=1, max_value=10**4))
def test_gauss_identity(m):
    assert sum(euler_phi(d) for d in divisor_list(m)) == m


# ----------------------------------------------------------- divisor_list


def test_divisor_list_small():
    assert divisor_list(1) == [1]
    assert divisor_list(12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(ValueError):
        divisor_list(0)


def test_divisor_list_of_primes():
    for p in primes_upto(100):
        assert divisor_list(p) == [1, p]


@given(st.integers(min_value=1, max_value=10**5))
def test_divisor_list_is_exactly_the_divisors(n):
    divs = divisor_list(n)
    assert divs == sorted(divs)
    assert len(set(divs)) == len(divs)
    assert divs[0] == 1 and divs[-1] == n
    assert all(n % d == 0 for d in divs)
    # count check: multiplicative formula prod (e+1)
    expected = 1
    for _, e in factorize(n).pairs:
        expected *= e + 1
    assert len(divs) == expected


# ---------------------------------------------------- index bound factor


def test_index_bound_factor():
    # (1 - 3**-1) * (1 - 2**-3): the designated prime takes its own exponent
    assert index_bound_factor([(2, 2), (3, 1)], 3, 1) == Fraction(7, 12)
    assert index_bound_factor([(2, 2), (3, 1)], 2, 2) == Fraction(3, 4) * Fraction(8, 9)
    assert index_bound_factor([(5, 1)], 5, 1) == Fraction(4, 5)


# ------------------------------------------------------- mertens, counting


def _encloses(lo: float, hi: float, num: int, den: int) -> bool:
    """lo <= num/den <= hi, by cross multiplication with the floats' ratios."""
    (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    return a * den <= num * b and num * d <= c * den


def test_mertens_product_small():
    assert euler_product(primes_upto(1)) == Fraction(1)
    assert euler_product(primes_upto(10)) == Fraction(35, 8)
    for x in (1, 10):
        assert _encloses(*mertens_product(x), *euler_factors(primes_upto(x)))


def test_euler_product_matches_naive_loop():
    rng = random.Random(11)
    pool = primes_upto(2000)
    sets = [[], [2], [1999]] + [rng.sample(pool, rng.randint(1, 40)) for _ in range(60)]
    for ps in sets:
        naive = Fraction(1)
        for p in ps:
            naive *= Fraction(p, p - 1)
        assert euler_product(ps) == naive
        assert euler_product(iter(ps)) == naive
    assert euler_product([]) == 1


@given(st.integers(min_value=1, max_value=300))
def test_mertens_monotone(x):
    assert euler_product(primes_upto(x + 1)) >= euler_product(primes_upto(x))
    assert _encloses(*mertens_product(x), *euler_factors(primes_upto(x)))


@pytest.mark.parametrize("x", [10, 997, 10**4, 10**5, 10**6])
def test_mertens_float_agreement(x):
    # sum log p - sum log(p-1) evaluated as sum log1p(1/(p-1)): same
    # quantity, but each term is tiny so binary64 keeps 1e-15 accuracy
    log_ratio = math.fsum(math.log1p(1.0 / (p - 1)) for p in primes_upto(x))
    approx = math.exp(log_ratio)
    num, den = euler_factors(primes_upto(x))
    tol = 1e-12 * approx
    assert _encloses(approx - tol, approx + tol, num, den)
    # the walk's enclosure holds the exact product, and is as narrow as
    # its proof says: 2 pi(x) roundings, so hi / lo - 1 < 8 (pi(x) + 1) u
    lo, hi = mertens_product(x)
    assert _encloses(lo, hi, num, den)
    assert hi - lo <= 8 * (len(primes_upto(x)) + 1) * 2.0**-53 * lo
    if x <= 10**4:
        assert hi - lo <= 1e-12 * lo


def test_prime_counts_small():
    assert prime_counts(1) == (0, 0.0)
    pi10, theta10 = prime_counts(10)
    assert pi10 == 4
    assert theta10 == pytest.approx(math.log(210), rel=1e-15)


def test_prime_counts_reproducible_bits():
    a = prime_counts(10**4)
    b = prime_counts(10**4)
    assert a == b


@given(st.integers(min_value=3, max_value=10**5))
def test_pi_upper_bound(x):
    pi_x, _ = prime_counts(x)
    assert pi_x <= x / 2 + 1
