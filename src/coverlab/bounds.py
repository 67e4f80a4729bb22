"""The prime-product threshold c(M) and quantities derived from it.

c(M) is the smallest positive integer x with prod_{p <= x} p/(p-1) <= x/M.
Since (1/x) prod_{p <= x} p/(p-1) never increases (equality at primes,
strict decrease at composites), c(M) is the one x at which the inequality
holds while it fails at x - 1, and c(M) can never be prime.

The scan finds c(M) in one walk over the primes.  On [p, next prime) the
product is constant, so the first x there with x >= M * product is c(M)
once every x below p fails.  The binary64 walk of arith.euler_walk, with
its proved rounding slack, encloses M * product, so the first such x lies
between the ceilings of the enclosure's ends.  A segment holds no
threshold when the lower ceiling lies past its end, and the ceiling is
c(M) when both ends share it.  Only when the enclosure straddles an
integer is c(M) settled exactly, and only over the integers inside the
enclosure: the unreduced pair (prod p, prod (p-1)), carried up the primes,
is cross multiplied with each in turn, at real slacks with one.  No
fraction, integer division or gcd enters the scan.

The q-bound's premise q < M prod_{p <= q} p/(p-1) is read from the same
enclosure, and by cross multiplication only when it straddles q / M.

alpha(M) = 2 + floor(log2(zeta(2) c(M))) is decided by integer comparison
with a fixed-point bracket of pi, widened until both of its ends agree.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import chain, islice
from typing import NamedTuple

from .arith import (
    SIEVE_CAPACITY,
    euler_factors,
    euler_walk,
    mertens_product,
    prime_counts,
    primes_upto,
    rounding_slack,
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
    if m_hi > SIEVE_CAPACITY // 2:
        # the product is at least 2 from x = 2 on, so c(M) >= 2M; refused
        # before M meets a float, where it may not even fit
        raise SieveCapacityError(
            f"c(M) >= 2M lies above the sieve capacity {SIEVE_CAPACITY} for M = {m_hi}"
        )
    bound = min(_scan_bound(m_hi), SIEVE_CAPACITY)
    primes = primes_upto(bound)
    # v = m * r is one rounding past the walk's two per prime, so the exact
    # m * product lies in [v * down, v * up], each end rounded once more
    # (rounding_slack), and its ceiling, the first x >= m * product, lies
    # in [lo, hi] with lo = ceil(v * down), hi = ceil(v * up).  Floats meet
    # integers only in math.ceil and in comparisons, both exact.
    eps = rounding_slack(2 * len(primes) + 1)
    down, up = 1 - eps, 1 + eps
    out: dict[int, int] = {}
    num = den = 1  # prod p and prod (p-1) over primes[:count]
    count = 0
    m = m_lo
    # the segments [p, nxt) in turn, p prime; every x below p fails for m,
    # since it failed for a smaller M or for m itself
    ends = chain(islice(primes, 1, None), (bound + 1,))
    for nxt, r in zip(ends, euler_walk(primes)):
        while m <= m_hi:
            v = m * r
            lo = math.ceil(v * down)
            if lo >= nxt:  # no x of [p, nxt) reaches m * product
                break
            hi = math.ceil(v * up)
            if lo != hi:
                # a straddle, settled exactly inside [lo, hi].  x = p - 1
                # failed, so m * product > (p - 1) * p/(p - 1) = p on the
                # segment: the clamp at p is sound, and c(m) is never
                # prime.  The ceiling lies in [lo, hi], so the walk makes
                # at most hi - lo cross multiplications, one at real
                # slacks.
                hi = min(hi, nxt)
                end = bisect_left(primes, nxt, count)
                n, d = euler_factors(primes[count:end])
                num, den, count = num * n, den * d, end
                lo = max(lo, primes[end - 1])
                while lo < hi and m * num > lo * den:
                    lo += 1
                if lo == nxt:  # c(m) lies in a later segment
                    break
            out[m] = lo
            m += 1
        if m > m_hi:
            return out
    raise SieveCapacityError(f"c({m_hi}) lies above the sieve capacity {SIEVE_CAPACITY}")


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


def mertens_holds_at(x: int, M: int) -> bool:
    """prod_{p <= x} p/(p-1) <= x/M, exactly, by cross multiplication."""
    num, den = euler_factors(primes_upto(x))
    return M * num <= x * den


def _below(q: int, M: int, f: float) -> bool:
    """q < M f, exactly."""
    num, den = f.as_integer_ratio()
    return q * den < M * num


def check_q_bound(q: int, M: int) -> QBoundReport:
    if q < 1:
        raise InputError(f"need q >= 1, got {q}")
    if M < 2:
        raise InputError(f"need M >= 2, got {M}")
    conclusion = q < c_of(M)  # first, so an M past the capacity walks no primes
    lo, hi = mertens_product(q)
    premise = _below(q, M, lo)
    if premise != _below(q, M, hi):  # the enclosure straddles q / M
        premise = not mertens_holds_at(q, M)
    return QBoundReport(q=q, m=M, premise=premise, conclusion=conclusion)
