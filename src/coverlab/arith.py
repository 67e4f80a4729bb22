"""Exact elementary number theory used by every other module.

All rational arithmetic goes through fractions.Fraction, which already
gives reduced arbitrary-precision fractions (denominator > 0, gcd of
numerator and denominator equal to 1); it is the single rational type of
the package.  A float is compared only inside a proved bound: the
binary64 product walk over the primes (euler_walk) comes with an error
bound (rounding_slack) that turns each of its values into an enclosure of
the exact product.

Primes come from a lazily grown sieve of Eratosthenes with a hard
capacity, SIEVE_CAPACITY (10**7).  Asking for primes beyond the capacity
raises BudgetError instead of silently thrashing.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import compress
from typing import Iterable, Iterator, NamedTuple

from .errors import BudgetError, InputError

SIEVE_CAPACITY = 10_000_000

_sieved_to = 1
_primes: list[int] = []


def _extend_sieve(limit: int) -> None:
    global _sieved_to, _primes
    if limit <= _sieved_to:
        return
    # grow geometrically so repeated small requests do not resieve
    limit = min(max(limit, 2 * _sieved_to, 1 << 10), SIEVE_CAPACITY)
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    _primes = list(compress(range(limit + 1), flags))
    _sieved_to = limit


def primes_upto(x: int) -> list[int]:
    """All primes p <= x, ascending.  x above the sieve capacity is an error."""
    if x < 2:
        return []
    if x > SIEVE_CAPACITY:
        raise BudgetError(f"primes up to {x} requested, capacity is {SIEVE_CAPACITY}")
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


class Factorization(NamedTuple):
    """Prime factorization n = prod p**e with the pairs sorted by p."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        """P(n): the set of prime divisors, ascending."""
        return tuple(p for p, _ in self.pairs)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.pairs)


def ord_of(n: int, p: int) -> int:
    """ord_p(n) for a prime p: the exponent of p in n, by division."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


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


def euler_factors(primes: Iterable[int]) -> tuple[int, int]:
    """(prod p, prod (p-1)) over the given primes, unreduced ((1, 1) for none)."""
    ps = list(primes)
    return _balanced_prod(ps), _balanced_prod([p - 1 for p in ps])


def euler_product(primes: Iterable[int]) -> Fraction:
    """prod p/(p-1) over the given primes as an exact fraction (1 for none)."""
    return Fraction(*euler_factors(primes))


def index_bound_factor(pairs: Iterable[tuple[int, int]], p: int, a: int) -> Fraction:
    """(1 - p**-a) * prod (1 - q**-(e+1)) over the pairs (q, e) with q != p:
    the index bound's factor at the prime p."""
    out = 1 - Fraction(1, p**a)
    for q, e in pairs:
        if q != p:
            out *= 1 - Fraction(1, q ** (e + 1))
    return out


def euler_walk(primes: Iterable[int]) -> Iterator[float]:
    """prod p/(p-1) over each prefix of the primes, in binary64.

    Each step is r = r * p / (p - 1), two roundings, so the value after i
    primes is 2i roundings away from the exact product (see rounding_slack).
    """
    r = 1.0
    for p in primes:
        r = r * p / (p - 1)
        yield r


def rounding_slack(k: int) -> float:
    """A power of two eps that encloses the exact value of a binary64 result v
    of k roundings in [v * (1 - eps), v * (1 + eps)], each product rounded.

    v must come from exact positive operands (floats, integers below 2**53)
    by k multiplications and divisions, with no overflow or underflow.
    """
    # IEEE 754 binary64 rounds each operation to nearest: fl(a op b) =
    # (a op b)(1 + d) with |d| <= u = 2**-53.  So v = t prod (1 + d_j) over
    # k roundings, and the exact value is t = v prod (1 + d_j)**-1 =
    # v (1 + theta) with |theta| <= gamma_k = k u / (1 - k u) (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2002, Lemma 3.1).
    # 1 - eps and 1 + eps are exact floats, and one more rounding gives
    #   fl(v (1 - eps)) <= v (1 - eps)(1 + u) <= v (1 - eps + u) <= t,
    #   fl(v (1 + eps)) >= v (1 + eps)(1 - u) >= t,
    # both as soon as eps (1 - u) >= gamma_k + u.  Here 2**e >= k + 2 for
    # e = (k + 1).bit_length(), so eps = 2**e u >= (k + 2) u; and k < 2**22
    # gives gamma_k + u <= (k + 1 + 2 k**2 u) u < (k + 1.01) u, which is
    # below (k + 2)(1 - u) u.  The sieve capacity keeps k below 2**21.
    if k >= 1 << 22:
        raise ValueError(f"no slack is proved for {k} roundings")
    return math.ldexp(1.0, (k + 1).bit_length() - 53)


def mertens_product(x: int) -> tuple[float, float]:
    """(lo, hi) with lo <= prod_{p <= x} p/(p-1) <= hi, from euler_walk.

    hi / lo - 1 is below 8 (pi(x) + 1) 2**-53.
    """
    primes = primes_upto(x)
    r = 1.0
    for r in euler_walk(primes):
        pass
    eps = rounding_slack(2 * len(primes))
    return r * (1 - eps), r * (1 + eps)


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
