"""Tests for the threshold scan and its derived quantities."""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest

import coverlab.arith as arith_module
import coverlab.bounds as bounds_module
from coverlab.arith import (
    euler_factors, euler_product, mertens_product, prime_counts, primes_upto
)
from coverlab.bounds import (
    ZETA2,
    BoundReport,
    QBoundReport,
    _pi_bracket,
    _scan_bound,
    alpha_floor,
    bound_report,
    c_of,
    c_range,
    check_q_bound,
    mertens_holds_at,
)
from coverlab.errors import BudgetError, InputError


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


def test_c_lies_below_its_scan_bound():
    # c_range scans once, to the bound of its largest M
    for M, c in c_range(2, 3000).items():
        assert c < _scan_bound(M), M


def test_c_range_matches_exact_segment_scan():
    assert c_range(2, 3000) == exact_segment_scan(2, 3000, _scan_bound(3000))


def test_threshold_scan_builds_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("Fraction built")

    monkeypatch.setattr(arith_module, "Fraction", no_fraction)
    assert "Fraction" not in vars(bounds_module)
    assert c_range(2, 50)[2] == 9
    assert mertens_holds_at(9, 2) and not mertens_holds_at(8, 2)
    assert check_q_bound(8, 2).premise and not check_q_bound(9, 2).premise


@pytest.mark.parametrize("slack", [2.0**20, 2.0**-8, 2.0**-12], ids=["2**20", "2**-8", "2**-12"])
def test_forced_straddles_settle_exactly(monkeypatch, slack):
    # a slack of 2**20 puts every enclosure below 0 and far above its
    # decision, so every c(M) and every premise takes the exact path; the
    # narrow slacks give windows of several integers, some across a
    # segment's end
    monkeypatch.setattr(bounds_module, "rounding_slack", lambda k: slack)
    monkeypatch.setattr(arith_module, "rounding_slack", lambda k: slack)
    extended = []

    def factors(primes):
        extended.append(primes)
        return euler_factors(primes)

    monkeypatch.setattr(bounds_module, "euler_factors", factors)
    table = c_range(2, 3000)
    assert table == exact_segment_scan(2, 3000, _scan_bound(3000))
    # each straddle extends the carried pair by the primes since the last
    # one, up to the segment of the straddling M
    assert extended
    walked = [p for primes in extended for p in primes]
    assert walked == primes_upto(walked[-1])
    assert walked[-1] <= table[3000]
    exact = []

    def holds_at(x, M):
        exact.append((x, M))
        return mertens_holds_at(x, M)

    monkeypatch.setattr(bounds_module, "mertens_holds_at", holds_at)
    cases = [(q, M) for M in (2, 3, 17, 60) for q in range(1, 400, 7)]
    for q, M in cases:
        assert check_q_bound(q, M).premise == (not mertens_holds_at(q, M)), (q, M)
    if slack > 1:
        assert len(extended) >= 2999
        assert exact == cases
    # c(3000) = 58700 lies past a 40,000 sieve: the scan refuses when its
    # segments run out, at 2**20 from a straddle in the last one
    monkeypatch.setattr(arith_module, "SIEVE_CAPACITY", 40000)
    monkeypatch.setattr(bounds_module, "SIEVE_CAPACITY", 40000)
    with pytest.raises(BudgetError, match=r"^c\(3000\) lies above"):
        c_range(3000, 3000)


def test_premise_matches_the_exact_oracle(monkeypatch):
    # one walk per q serves all 59 M (the walk itself is tested in
    # test_arith); the oracle is mertens_holds_at's cross multiplication,
    # with the pair of products built once per q
    monkeypatch.setattr(bounds_module, "mertens_product", lru_cache(None)(mertens_product))
    for q in range(2, 5001):
        num, den = euler_factors(primes_upto(q))
        for M in range(2, 61):
            assert check_q_bound(q, M).premise == (not M * num <= q * den), (q, M)


def test_c_range_stops_at_the_sieve_capacity(monkeypatch):
    # 3 M ln M asks for about 45,700 at M = 2000, past a 40,000 sieve,
    # but c(2000) lies below it
    monkeypatch.setattr(arith_module, "SIEVE_CAPACITY", 40000)
    monkeypatch.setattr(bounds_module, "SIEVE_CAPACITY", 40000)
    assert c_range(2000, 2000) == {2000: 37542}
    with pytest.raises(BudgetError, match="40000"):
        c_range(3000, 3000)  # c(3000) = 58700
    # c(M) >= 2M: refused before any prime is sieved above half the
    # capacity, and by the scan itself at half of it
    with pytest.raises(BudgetError, match=r"c\(M\) >= 2M .* 40000 for M = 20001$"):
        c_range(2, 20001)
    with pytest.raises(BudgetError, match=r"^c\(20000\) lies above"):
        c_range(20000, 20000)


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
    # the binary64 guard must report it, and the floor must match a
    # 120-digit evaluation
    c = round(2**40 / ZETA2)
    assert abs(math.log2(ZETA2 * c) - round(math.log2(ZETA2 * c))) < 1e-9
    value, escalated = alpha_floor(c)
    assert escalated
    with mpmath.workprec(400):
        zeta2 = mpmath.pi**2 / 6
        oracle = int(mpmath.floor(mpmath.log(zeta2 * c, 2)))
    assert value == oracle


def test_alpha_floor_matches_a_wide_oracle_next_to_powers_of_two(monkeypatch):
    # c next to 2^e / zeta(2) puts log2(zeta(2) c) about 2^-e below or
    # above e, where a 53-bit value rounds onto e itself; from e = 87 on
    # the first 96-bit bracket of pi can straddle e, and its width doubles
    widths = []

    def spy(n):
        widths.append(n)
        return _pi_bracket(n)

    monkeypatch.setattr(bounds_module, "_pi_bracket", spy)
    with mpmath.workprec(2000):
        zeta2 = mpmath.zeta(2)
        cs = [int(mpmath.nint(2**e / zeta2)) + d for e in range(10, 128) for d in (-1, 0, 1)]
        want = [int(mpmath.floor(mpmath.log(zeta2 * c, 2))) for c in cs]
    got = [alpha_floor(c) for c in cs]
    assert [value for value, _ in got] == want
    # the flag, read from log2(c) + log2(zeta(2)), is the one the binary64
    # log of the product gives wherever that product is a finite float
    logs = [math.log2(ZETA2 * c) for c in cs]
    flags = [abs(v - round(v)) < bounds_module._ALPHA_GUARD for v in logs]
    assert [escalated for _, escalated in got] == flags
    assert sum(escalated for _, escalated in got) > 50
    assert max(widths) > 96


def test_alpha_floor_takes_c_past_the_float_range():
    # zeta(2) * 10**400 overflows a float; the floor is exact integers
    with mpmath.workprec(4000):
        want = int(mpmath.floor(mpmath.log(mpmath.zeta(2) * 10**400, 2)))
    assert alpha_floor(10**400) == (want, False) and want == 1329


def test_pi_bracket_holds_pi():
    with mpmath.workprec(4000):
        for n in (1, 2, 10, 53, 96, 192, 384, 768, 1536):
            lo, hi = _pi_bracket(n)
            assert lo <= mpmath.pi * 2**n <= hi, n
            assert hi - lo < 8 * n + 64, n  # the error grows only with the term count


def test_alpha_floor_refuses_c_below_one():
    for c in (0, -3):
        with pytest.raises(InputError, match="c >= 1"):
            alpha_floor(c)
    assert alpha_floor(1) == (0, False)  # log2(1.64..)


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
    assert Fraction(8) < 2 * euler_product(primes_upto(8))
    assert not Fraction(9) < 2 * euler_product(primes_upto(9))
    assert not mertens_holds_at(8, 2) and mertens_holds_at(9, 2)
    assert check_q_bound(8, 2).premise and not check_q_bound(9, 2).premise
