"""Tests for the threshold scan and its derived quantities."""

import math
from fractions import Fraction

import mpmath
import pytest

import coverlab.arith as arith_module
import coverlab.bounds as bounds_module
from coverlab.arith import euler_factors, is_prime, mertens_product, prime_counts, primes_upto
from coverlab.bounds import (
    _EMPTY,
    ZETA2,
    BoundReport,
    QBoundReport,
    _certify,
    _scan_bound,
    alpha_floor,
    bound_report,
    c_of,
    c_range,
    check_q_bound,
    mertens_holds_at,
)
from coverlab.errors import SieveCapacityError


def scan_c(M: int) -> int:
    """Independent oracle: walk x upward with exact Fraction products."""
    x = 1
    prod = Fraction(1)
    primes = set()
    while True:
        # extend the product to include any new prime <= x
        if x >= 2 and all(x % p for p in primes) and all(
            x % d for d in range(2, int(math.isqrt(x)) + 1)
        ):
            primes.add(x)
            prod *= Fraction(x, x - 1)
        if prod <= Fraction(x, M):
            return x
        x += 1


def test_c_small_values_against_scan_oracle():
    assert c_of(2) == scan_c(2) == 9
    assert c_of(3) == scan_c(3) == 16
    assert c_of(4) == scan_c(4)
    assert c_of(10) == scan_c(10)


def test_c_minimality_exact():
    for M in (2, 3, 5, 17, 50):
        c = c_of(M)
        assert mertens_holds_at(c, M)
        for x in range(1, c):
            assert not mertens_holds_at(x, M)


def test_c_range_agrees_with_c_of():
    table = c_range(2, 100)
    for M in (2, 3, 17, 49, 100):
        assert table[M] == c_of(M)


def exact_segment_scan(m_lo: int, m_hi: int, bound: int) -> dict[int, int] | None:
    """Differential oracle: the exact segment scan c_range used to run.

    On [p, next prime) the product num/den is constant, so the first x there
    with x >= M * num / den is the threshold; one big-integer ceiling
    division per prime makes this quadratic in the size of the product.
    """
    primes = primes_upto(bound)
    out: dict[int, int] = {}
    m = m_lo
    num = den = 1
    for idx, p in enumerate(primes):
        num *= p
        den *= p - 1
        seg_hi = primes[idx + 1] - 1 if idx + 1 < len(primes) else bound
        while m <= m_hi:
            t = -(-(m * num) // den)  # ceil(m * num / den)
            if t > seg_hi:
                break
            out[m] = max(t, p)
            m += 1
        if m > m_hi:
            return out
    return None


def test_c_range_matches_exact_segment_scan():
    assert c_range(2, 3000) == exact_segment_scan(2, 3000, _scan_bound(3000))


def test_certify_repairs_off_candidates():
    table = c_range(2, 3000)
    bound = _scan_bound(3000)
    primes = primes_upto(bound)
    crossed = 0
    for M in (2, 3, 7, 17, 100, 999, 3000):
        c = table[M]
        below = [p for p in primes if p < c]
        prefix = (c, len(below), *euler_factors(below))
        bases = [_EMPTY]
        if M > 2:  # the ascending pass certifies from the previous threshold
            bases.append(_certify(M - 1, table[M - 1], primes, bound, _EMPTY)[1])
        for base in bases:
            for x in (c - 3, c - 1, c + 1, c + 4):
                got, pre = _certify(M, x, primes, bound, base)
                assert got == c, (M, x, base.x)
                assert pre == prefix, (M, x, base.x)
                crossed += any(is_prime(y) for y in range(min(x, c), max(x, c) + 1))
    assert crossed  # some repairs step over a prime


def test_certify_refuses_past_the_bound():
    # c(2) = 9, but only 2..7 are sieved when the walk may not pass 8
    assert _certify(2, 7, primes_upto(8), 8, _EMPTY) is None


def test_threshold_scan_builds_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(arith_module, "Fraction", no_fraction)
    monkeypatch.setattr(bounds_module, "Fraction", no_fraction)
    assert c_range(2, 50)[2] == 9
    assert mertens_holds_at(9, 2) and not mertens_holds_at(8, 2)


def test_c_range_stops_at_the_sieve_capacity(monkeypatch):
    # 3 M ln M asks for about 45,700 at M = 2000, past a 40,000 sieve,
    # but c(2000) lies below it
    monkeypatch.setattr(arith_module, "SIEVE_CAPACITY", 40000)
    monkeypatch.setattr(bounds_module, "SIEVE_CAPACITY", 40000)
    assert c_range(2000, 2000) == {2000: 37542}
    with pytest.raises(SieveCapacityError, match="40000"):
        c_range(3000, 3000)  # c(3000) = 58700


def test_c_of_one_hundred_thousand():
    assert c_of(10**5) == 2633181


def test_c_composite_and_monotone():
    table = c_range(2, 100)
    prev = 0
    for M in range(2, 101):
        c = table[M]
        assert c > 2
        assert any(c % d == 0 for d in range(2, c)), f"c({M})={c} is prime"
        assert c >= prev
        prev = c


def test_c_range_rejects_bad_input():
    with pytest.raises(ValueError):
        c_range(1, 5)
    with pytest.raises(ValueError):
        c_range(5, 4)


def test_bound_report_m2():
    br = bound_report(2)
    assert br.c == 9
    assert br.pi_c == 4
    assert br.alpha == 5  # 2 + floor(log2(zeta(2)*9)), log2(14.80..) = 3.88..
    assert not br.alpha_escalated
    expected_l = (2 + math.log2(ZETA2 * 9)) * 4 * math.log(9)
    assert br.l_value == pytest.approx(expected_l, rel=1e-6)
    assert br.egamma_scale == pytest.approx(
        math.exp(0.5772156649015329) * 2 * math.log(2), rel=1e-12
    )
    assert br.notes


def test_bound_report_rejects_m1():
    with pytest.raises(ValueError):
        bound_report(1)


def test_alpha_at_least_two():
    for M in range(2, 101):
        assert bound_report(M).alpha >= 2


def test_theta_reported():
    br = bound_report(2)
    _, theta = prime_counts(9)
    assert br.theta_c == theta


def test_alpha_guard_escalates_near_integer():
    # synthetic c placed so log2(zeta(2) c) sits ~1e-12 from an integer;
    # the binary64 guard must hand off, and the escalated floor must
    # match a 120-digit evaluation
    c = round(2**40 / ZETA2)
    assert abs(math.log2(ZETA2 * c) - round(math.log2(ZETA2 * c))) < 1e-9
    value, escalated = alpha_floor(c)
    assert escalated
    with mpmath.workprec(400):
        zeta2 = mpmath.pi**2 / 6
        oracle = int(mpmath.floor(mpmath.log(zeta2 * c, 2)))
    assert value == oracle


def test_alpha_floor_matches_a_wide_oracle_next_to_powers_of_two():
    # c next to 2^e / zeta(2) puts log2(zeta(2) c) just below or above e;
    # from e = 49 on, a 256-bit endpoint rounded to 53 bits lands on e
    # itself when the true value lies below it
    with mpmath.workprec(2000):
        zeta2 = mpmath.zeta(2)
        cs = [int(mpmath.nint(2**e / zeta2)) + d for e in range(10, 60) for d in (-1, 0, 1)]
        want = [int(mpmath.floor(mpmath.log(zeta2 * c, 2))) for c in cs]
    got = [alpha_floor(c) for c in cs]
    assert [value for value, _ in got] == want
    assert sum(escalated for _, escalated in got) > 50


def test_alpha_no_escalation_for_plain_values():
    for c in (9, 16, 100, 1234):
        value, escalated = alpha_floor(c)
        assert not escalated
        assert value == math.floor(math.log2(ZETA2 * c))


def test_q_bound_examples():
    r = check_q_bound(8, 2)
    assert r.premise and r.conclusion and r.holds
    r = check_q_bound(9, 2)
    assert not r.premise
    assert r.holds


def test_q_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        check_q_bound(0, 2)
    with pytest.raises(ValueError):
        check_q_bound(5, 1)


def test_q_bound_small_sweep():
    for M in range(2, 13):
        for q in range(2, 121):
            assert check_q_bound(q, M).holds, (q, M)


def test_premise_boundary_is_exact():
    # at (8, 2) the margin is 3/4; at (9, 2) the premise flips because
    # 2 * 35/8 = 8.75 < 9, an exact rational comparison
    assert Fraction(8) < 2 * mertens_product(8)
    assert not Fraction(9) < 2 * mertens_product(9)
