"""Exact elementary number theory used by every other module.

All rational arithmetic goes through fractions.Fraction, which already
gives reduced arbitrary-precision fractions (denominator > 0, gcd of
numerator and denominator equal to 1).  The alias Rational below is the
single rational type of the package; nothing here ever compares floats
where an exact comparison is possible.

Primes come from a lazily grown sieve of Eratosthenes with a hard
capacity (default 10**7).  Asking for primes beyond the capacity raises
SieveCapacityError instead of silently thrashing.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InputError, SieveCapacityError

Rational = Fraction

DEFAULT_SIEVE_CAPACITY = 10_000_000

_capacity = DEFAULT_SIEVE_CAPACITY
_sieved_to = 1
_primes: list[int] = []


def sieve_capacity() -> int:
    """Current hard cap on sieve size."""
    return _capacity


def set_sieve_capacity(capacity: int) -> None:
    """Raise or lower the sieve cap.  Cannot drop below what is already sieved."""
    global _capacity
    if capacity < _sieved_to:
        raise InputError(f"capacity {capacity} below already sieved bound {_sieved_to}")
    _capacity = capacity


def _extend_sieve(limit: int) -> None:
    global _sieved_to, _primes
    if limit <= _sieved_to:
        return
    if limit > _capacity:
        raise SieveCapacityError(f"primes up to {limit} requested, capacity is {_capacity}")
    # grow geometrically so repeated small requests do not resieve
    limit = min(max(limit, 2 * _sieved_to, 1 << 10), _capacity)
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    _primes = [i for i in range(limit + 1) if flags[i]]
    _sieved_to = limit


def primes_upto(x: int) -> list[int]:
    """All primes p <= x, ascending.  x above the sieve capacity is an error."""
    if x < 2:
        return []
    if x > _capacity:
        raise SieveCapacityError(f"primes up to {x} requested, capacity is {_capacity}")
    _extend_sieve(x)
    return _primes[: bisect_right(_primes, x)]


def is_prime(n: int) -> bool:
    """Primality by trial division over sieve primes.  Intended for n <= capacity**2."""
    if n < 2:
        return False
    for p in primes_upto(math.isqrt(n)):
        if n % p == 0:
            return False
    return True


def _balanced_prod(values: list[int]) -> int:
    # pairwise product tree; sequential accumulation is quadratic once the
    # running product dwarfs each factor
    if not values:
        return 1
    while len(values) > 1:
        values = [values[i] * values[i + 1] for i in range(0, len(values) - 1, 2)] + (
            [values[-1]] if len(values) % 2 else []
        )
    return values[0]


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = prod p**e with the pairs sorted by p."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        """P(n): the set of prime divisors, ascending."""
        return tuple(p for p, _ in self.pairs)

    def ord_of(self, p: int) -> int:
        """ord_p(n): exponent of p in n (0 when p does not divide n)."""
        for q, e in self.pairs:
            if q == p:
                return e
        return 0

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.pairs)

    def value(self) -> int:
        out = 1
        for p, e in self.pairs:
            out *= p**e
        return out


def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division over sieve primes."""
    if n < 1:
        raise InputError(f"cannot factor {n}, need n >= 1")
    pairs = []
    rest = n
    for p in primes_upto(math.isqrt(n)):
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            pairs.append((p, e))
    if rest > 1:
        pairs.append((rest, 1))
    return Factorization(n, tuple(pairs))


def euler_phi(n: int) -> int:
    """Euler totient, multiplicative over the factorization.  n >= 1."""
    if n < 1:
        raise InputError(f"euler_phi needs n >= 1, got {n}")
    out = n
    for p, _ in factorize(n).pairs:
        out = out // p * (p - 1)
    return out


def divisor_list(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending (so [1, ..., n])."""
    divs = [1]
    for p, e in factorize(n).pairs:
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def least_prime(n: int) -> int:
    """Smallest prime divisor of n >= 2."""
    if n < 2:
        raise InputError(f"least_prime needs n >= 2, got {n}")
    return factorize(n).pairs[0][0]


def gcd_lcm(values: list[int]) -> tuple[int, int]:
    """Exact (gcd, lcm) of a nonempty list of positive integers."""
    if not values:
        raise InputError("gcd_lcm of an empty list")
    if any(v < 1 for v in values):
        raise InputError(f"gcd_lcm needs positive integers, got {values}")
    return math.gcd(*values), math.lcm(*values)


def euler_factors(primes: Iterable[int]) -> tuple[int, int]:
    """(prod p, prod (p-1)) over the given primes, unreduced ((1, 1) for none)."""
    ps = list(primes)
    return _balanced_prod(ps), _balanced_prod([p - 1 for p in ps])


def euler_product(primes: Iterable[int]) -> Fraction:
    """prod p/(p-1) over the given primes as an exact fraction (1 for none)."""
    return Fraction(*euler_factors(primes))


def mertens_product(x: int) -> Fraction:
    """prod_{p <= x} p/(p-1) as an exact fraction (1 for x < 2)."""
    return euler_product(primes_upto(x))


def prime_counts(x: int) -> tuple[int, float]:
    """(pi(x), theta(x)) with theta = sum of log p over p <= x.

    theta is a binary64 sum taken in ascending prime order; that order is
    part of the contract so repeated runs reproduce the same bits.
    """
    ps = primes_upto(x)
    theta = 0.0
    for p in ps:
        theta += math.log(p)
    return len(ps), theta
