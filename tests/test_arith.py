"""Unit and property tests for the exact arithmetic layer."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverlab.arith import (
    Factorization,
    Rational,
    divisor_list,
    euler_phi,
    euler_product,
    factorize,
    gcd_lcm,
    is_prime,
    least_prime,
    mertens_product,
    prime_counts,
    primes_upto,
    set_sieve_capacity,
    sieve_capacity,
)
from coverlab.errors import SieveCapacityError


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


def test_rational_is_exact_fraction():
    assert Rational is Fraction


# ------------------------------------------------------------------- primes


def test_primes_upto_small():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_against_sieve():
    sieve = set(primes_upto(500))
    for n in range(500):
        assert is_prime(n) == (n in sieve)


def test_capacity_refusal():
    with pytest.raises(SieveCapacityError):
        primes_upto(sieve_capacity() + 1)


def test_capacity_cannot_drop_below_sieved():
    primes_upto(100)  # force some sieving
    with pytest.raises(ValueError):
        set_sieve_capacity(1)
    set_sieve_capacity(sieve_capacity())  # no-op is fine


# -------------------------------------------------------------- factorize


def test_factorize_unit():
    assert factorize(1) == Factorization(1, ())
    assert factorize(1).primes() == ()


def test_factorize_12():
    f = factorize(12)
    assert f.pairs == ((2, 2), (3, 1))
    assert f.ord_of(2) == 2
    assert f.ord_of(5) == 0
    assert not f.is_squarefree()


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_matches_brute_force(n):
    f = factorize(n)
    assert list(f.pairs) == brute_factor(n)
    assert f.value() == n
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


# ---------------------------------------------------------------- gcd_lcm


def test_gcd_lcm_examples():
    assert gcd_lcm([6]) == (6, 6)
    assert gcd_lcm([4, 6]) == (2, 12)
    assert gcd_lcm([2, 4, 4]) == (2, 4)


def test_gcd_lcm_rejects_bad_input():
    with pytest.raises(ValueError):
        gcd_lcm([])
    with pytest.raises(ValueError):
        gcd_lcm([3, 0])


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_gcd_lcm_pair_product(a, b):
    g, l = gcd_lcm([a, b])
    assert g * l == a * b


@given(st.lists(st.integers(min_value=1, max_value=10**4), min_size=1, max_size=8))
def test_gcd_divides_all_and_all_divide_lcm(values):
    g, l = gcd_lcm(values)
    for v in values:
        assert v % g == 0
        assert l % v == 0


# ------------------------------------------------------- mertens, counting


def test_mertens_product_small():
    assert mertens_product(1) == Fraction(1)
    assert mertens_product(10) == Fraction(35, 8)


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
    assert mertens_product(x + 1) >= mertens_product(x)


@pytest.mark.parametrize("x", [10, 997, 10**4, 10**5, 10**6])
def test_mertens_float_agreement(x):
    # sum log p - sum log(p-1) evaluated as sum log1p(1/(p-1)): same
    # quantity, but each term is tiny so binary64 keeps 1e-15 accuracy
    log_ratio = math.fsum(math.log1p(1.0 / (p - 1)) for p in primes_upto(x))
    exact = mertens_product(x)
    approx = math.exp(log_ratio)
    assert abs(float(exact) - approx) <= 1e-12 * approx


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
