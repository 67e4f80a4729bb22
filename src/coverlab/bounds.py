"""The prime-product threshold c(M) and quantities derived from it.

c(M) is the smallest positive integer x with prod_{p <= x} p/(p-1) <= x/M.
Since (1/x) prod_{p <= x} p/(p-1) never increases (equality at primes,
strict decrease at composites), c(M) is the one x at which the inequality
holds while it fails at x - 1, and c(M) can never be prime.

The scan finds c(M) in two passes.  A binary64 walk over the primes sums
log1p(1/(p-1)) and gives a candidate for every M of the range.  An exact
pass then certifies the candidates in ascending order: it carries the
unreduced pair (prod p, prod (p-1)) over the primes below the candidate,
extended from the previous certified threshold, and checks by cross
multiplication that the inequality holds at the candidate and fails one
below it.  A candidate that fails either check is moved by an exact step
walk until both hold.  No fraction, division or gcd enters the scan, so
its cost grows about linearly with the size of the product.

alpha(M) = 2 + floor(log2(zeta(2) c(M))) is decided by integer comparison
with a fixed-point bracket of pi, widened until both of its ends agree.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .arith import (
    SIEVE_CAPACITY, euler_factors, mertens_product, prime_counts, primes_upto
)
from .errors import InputError, SieveCapacityError

ZETA2 = math.pi**2 / 6
EULER_GAMMA = 0.5772156649015329

ASYMPTOTIC_NOTE = (
    "asymptotic diagnostics (e**gamma * M * ln M scale) are heuristic "
    "scale checks, not verified bounds"
)

_ALPHA_GUARD = 1e-9


def _scan_bound(m_hi: int) -> int:
    """A sieve length past c(m_hi): c(M) is about e**gamma M ln M, and
    every M whose bound lies inside the sieve capacity has c(M) below 0.9
    of it."""
    return 64 + int(3.0 * m_hi * max(1.0, math.log(m_hi + 2)))


def c_range(m_lo: int, m_hi: int) -> dict[int, int]:
    """c(M) for every M in [m_lo, m_hi] from one ascending scan."""
    if m_lo < 2:
        raise InputError(f"c(M) is defined here for M >= 2, got {m_lo}")
    if m_hi < m_lo:
        raise InputError("empty range")
    out = _try_c_range(m_lo, m_hi, min(_scan_bound(m_hi), SIEVE_CAPACITY))
    if out is None:
        raise SieveCapacityError(f"c({m_hi}) lies above the sieve capacity {SIEVE_CAPACITY}")
    return out


class _Prefix(NamedTuple):
    """prod p and prod (p-1) over the primes below x, which are primes[:count]."""

    x: int
    count: int
    num: int
    den: int


_EMPTY = _Prefix(1, 0, 1, 1)


def _extend(pre: _Prefix, primes: list[int], x: int) -> _Prefix:
    """The prefix at x >= pre.x, from pre and the primes in [pre.x, x)."""
    count = bisect_left(primes, x, pre.count)
    num, den = euler_factors(primes[pre.count : count])
    return _Prefix(x, count, pre.num * num, pre.den * den)


def _certify(
    M: int, x: int, primes: list[int], bound: int, base: _Prefix
) -> tuple[int, _Prefix] | None:
    """(c(M), prefix at c(M)) from the candidate x, exactly.

    base is a prefix at some x0 <= c(M); the walk never goes below x0.
    None when the walk passes bound, the end of the sieved primes.
    """
    pre = _extend(base, primes, max(x, base.x))
    # down while the inequality already holds at x - 1 (pre's primes are
    # exactly those <= x - 1); stepping below a prime rebuilds from base
    while pre.x > base.x and M * pre.num <= (pre.x - 1) * pre.den:
        x = pre.x - 1
        if pre.count and primes[pre.count - 1] == x:
            pre = _extend(base, primes, x)
        else:
            pre = pre._replace(x=x)
    # up while it fails at x, taking x's own factor when x is prime
    while True:
        x, count, num, den = pre
        if count < len(primes) and primes[count] == x:
            num, den, count = num * x, den * (x - 1), count + 1
        if M * num <= x * den:
            return x, pre
        if x >= bound:
            return None
        pre = _Prefix(x + 1, count, num, den)


def _float_candidates(
    m_lo: int, m_hi: int, primes: list[int], bound: int
) -> list[int] | None:
    # on [p, next prime) the product is constant, so the first x there with
    # x >= M * product is c(M); here the product is a binary64 estimate
    out: list[int] = []
    m = m_lo
    log_prod = 0.0
    for idx, p in enumerate(primes):
        log_prod += math.log1p(1 / (p - 1))
        prod = math.exp(log_prod)
        seg_hi = primes[idx + 1] - 1 if idx + 1 < len(primes) else bound
        while m <= m_hi:
            t = math.ceil(m * prod)
            if t > seg_hi:
                break
            out.append(max(t, p))
            m += 1
        if m > m_hi:
            return out
    return None


def _try_c_range(m_lo: int, m_hi: int, bound: int) -> dict[int, int] | None:
    primes = primes_upto(bound)
    candidates = _float_candidates(m_lo, m_hi, primes, bound)
    if candidates is None:
        return None
    out: dict[int, int] = {}
    pre = _EMPTY
    # c(M) never decreases, so each certified threshold is the base of the next
    for m, x in enumerate(candidates, m_lo):
        got = _certify(m, x, primes, bound, pre)
        if got is None:
            return None
        out[m], pre = got
    return out


@lru_cache(maxsize=None)
def c_of(M: int) -> int:
    """Smallest x with prod_{p <= x} p/(p-1) <= x/M, exact scan."""
    return c_range(M, M)[M]


def _pi_bracket(n: int) -> tuple[int, int]:
    """(lo, hi) with lo <= pi * 2**n <= hi, from Machin's formula.

    Each floored term of 16 atan(1/5) - 4 atan(1/239) in n-bit fixed point
    is off by less than 1, and so is the tail past the last nonzero term.
    """
    total = err = 0
    for weight, x in ((16, 5), (-4, 239)):
        power, k, s = (1 << n) // x, 1, 0
        while power:
            s += power // k if k % 4 == 1 else -(power // k)
            power //= x * x
            k += 2
        total += weight * s
        err += abs(weight) * (k // 2 + 1)
    return total - err, total + err


def alpha_floor(c: int) -> tuple[int, bool]:
    """(floor(log2(zeta(2) c)), binary64 value within _ALPHA_GUARD of an integer?)"""
    if c < 1:
        raise InputError(f"need c >= 1, got {c}")
    v = math.log2(c) + math.log2(ZETA2)  # ZETA2 * c overflows a float past 1e308
    n = 96
    while True:  # pi**2 c / 6 is irrational: some width resolves the floor
        lo, hi = _pi_bracket(n)
        k = (lo * lo * c // (6 << 2 * n)).bit_length() - 1
        if k == (hi * hi * c // (6 << 2 * n)).bit_length() - 1:
            return k, abs(v - round(v)) < _ALPHA_GUARD
        n *= 2


class BoundReport(NamedTuple):
    """Derived quantities at one multiplicity bound M.

    l_value is (2 + log2(zeta(2) c)) * pi(c) * log c in binary64;
    egamma_scale is e**gamma * M * ln M, a diagnostic only (see notes).
    """

    m: int
    c: int
    pi_c: int
    theta_c: float
    alpha: int
    alpha_escalated: bool
    l_value: float
    egamma_scale: float
    notes: tuple[str, ...]


def bound_report(M: int) -> BoundReport:
    if M < 2:
        raise InputError(f"need M >= 2, got {M}")
    c = c_of(M)
    pi_c, theta_c = prime_counts(c)
    floor_part, escalated = alpha_floor(c)
    alpha = 2 + floor_part
    l_value = (2 + math.log2(ZETA2 * c)) * pi_c * math.log(c)
    egamma_scale = math.exp(EULER_GAMMA) * M * math.log(M)
    return BoundReport(
        m=M,
        c=c,
        pi_c=pi_c,
        theta_c=theta_c,
        alpha=alpha,
        alpha_escalated=escalated,
        l_value=l_value,
        egamma_scale=egamma_scale,
        notes=(ASYMPTOTIC_NOTE,),
    )


class QBoundReport(NamedTuple):
    """q < M prod_{p <= q} p/(p-1) forces q < c(M)."""

    q: int
    m: int
    premise: bool
    conclusion: bool

    @property
    def holds(self) -> bool:
        return (not self.premise) or self.conclusion


def check_q_bound(q: int, M: int) -> QBoundReport:
    if q < 1:
        raise InputError(f"need q >= 1, got {q}")
    if M < 2:
        raise InputError(f"need M >= 2, got {M}")
    premise = Fraction(q) < M * mertens_product(q)
    conclusion = q < c_of(M)
    return QBoundReport(q=q, m=M, premise=premise, conclusion=conclusion)
