"""Exact number theory of the benchmark's own, for generating inputs and
checking coverlab's residue-system and threshold answers.

Nothing here imports coverlab.  c(M), the least x with
prod_{p <= x} p/(p-1) <= x/M, is located by a binary64 walk and then
certified with integers: the cross-multiplied inequality must fail at c-1 and
hold at c.  That pins c exactly because (1/x) prod_{p <= x} p/(p-1) never
increases in x.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Primes:
    """Primes up to a bound from one bytearray sieve."""

    def __init__(self, limit: int):
        flags = bytearray([1]) * (limit + 1)
        flags[0:2] = b"\x00\x00"
        for i in range(2, math.isqrt(limit) + 1):
            if flags[i]:
                flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
        self.limit = limit
        self.flags = flags
        self.list = [i for i in range(limit + 1) if flags[i]]

    def count_upto(self, x: int) -> int:
        return self.flags[: x + 1].count(1)


_SMALL = Primes(4000)


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of 1 <= n < 4000**2 by trial division."""
    out = []
    for p in _SMALL.list:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factor(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return divs


def phi(n: int) -> int:
    out = n
    for p, _ in factor(n):
        out = out // p * (p - 1)
    return out


def euler_factor(primes) -> Fraction:
    """prod p/(p-1) over the given primes."""
    num = den = 1
    for p in primes:
        num *= p
        den *= p - 1
    return Fraction(num, den)


def product(values: list[int]) -> int:
    while len(values) > 1:
        pairs = [values[i] * values[i + 1] for i in range(0, len(values) - 1, 2)]
        values = pairs + values[len(pairs) * 2 :]
    return values[0] if values else 1


def _holds(primes: Primes, x: int, M: int) -> bool:
    ps = primes.list[: primes.count_upto(x)]
    return M * product(ps) <= x * product([p - 1 for p in ps])


def threshold(M: int, primes: Primes) -> int:
    """c(M) for M >= 2, certified exactly; primes must reach past c(M)."""
    log_prod = 0.0
    ps = primes.list
    x = None
    for i, p in enumerate(ps[:-1]):
        log_prod += math.log1p(1 / (p - 1))
        cand = max(p, math.ceil(M * math.exp(log_prod)))
        if cand < ps[i + 1]:
            x = cand
            break
    if x is None:
        raise ValueError(f"sieve to {primes.limit} is too short for c({M})")
    while not _holds(primes, x, M):
        x += 1
    while x > 1 and _holds(primes, x - 1, M):
        x -= 1
    return x


def premise(q: int, M: int, primes: Primes) -> bool:
    """q < M prod_{p <= q} p/(p-1), by cross multiplication."""
    ps = primes.list[: primes.count_upto(q)]
    return q * product([p - 1 for p in ps]) < M * product(ps)


def covered_by_multiples(moduli, period: int) -> int:
    """#{0 <= x < period : some n divides x}, by marking multiples."""
    flags = bytearray(period)
    for n in set(moduli):
        flags[::n] = b"\x01" * len(range(0, period, n))
    return period - flags.count(0)


def mu_divisor_closure(values) -> int:
    closure = set()
    for v in values:
        closure.update(divisors(v))
    return sum(phi(d) for d in closure)
