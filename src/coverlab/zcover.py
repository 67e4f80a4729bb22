"""Residue systems a_i + n_i Z and their covering behaviour.

The covering function w(x) counts the classes containing x; it is
periodic with period L = lcm(n_1, ..., n_k), so every global statement
about the system is decided by one scan over a full period, and each
check runs that scan once per system.  Scans are exact integer counting,
never floating point: the system is a coset cover of Z/L, its classes
are L-bit masks, and `levels.profile` sums them into binary bit planes.
Periods beyond the period budget (default 10**7) are refused before any
mask is built.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .arith import (
    divisor_list, euler_phi, euler_product, factorize, index_bound_factor, is_prime,
    least_prime,
)
from .errors import InputError, PeriodBudgetError
from .levels import profile

DEFAULT_PERIOD_BUDGET = 10**7


class ResidueClass:
    """The arithmetic progression residue + modulus * Z, 0 <= residue < modulus."""

    __slots__ = ("residue", "modulus")

    def __init__(self, residue: int, modulus: int):
        if modulus < 1:
            raise InputError(f"modulus must be >= 1, got {modulus}")
        if not 0 <= residue < modulus:
            raise InputError(f"residue {residue} not in [0, {modulus})")
        self.residue, self.modulus = residue, modulus

    def __eq__(self, other):
        if not isinstance(other, ResidueClass):
            return NotImplemented
        return (self.residue, self.modulus) == (other.residue, other.modulus)

    def __hash__(self):
        return hash((self.residue, self.modulus))

    def __str__(self):
        return f"{self.residue}/{self.modulus}"


class ResidueSystem:
    """A finite nonempty list of residue classes, input order preserved."""

    __slots__ = ("classes",)

    def __init__(self, classes: Iterable[ResidueClass]):
        self.classes = tuple(classes)
        if not self.classes:
            raise InputError("a residue system needs at least one class")

    def __eq__(self, other):
        if not isinstance(other, ResidueSystem):
            return NotImplemented
        return self.classes == other.classes

    def __hash__(self):
        return hash(self.classes)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]]) -> "ResidueSystem":
        return ResidueSystem(tuple(ResidueClass(a, n) for a, n in pairs))

    def moduli(self) -> tuple[int, ...]:
        return tuple(c.modulus for c in self.classes)

    def period(self) -> int:
        return math.lcm(*self.moduli())

    def __len__(self):
        return len(self.classes)

    def __str__(self):
        return " ".join(str(c) for c in self.classes)


class MultiplicityProfile(NamedTuple):
    """Exact summary of w(x) over one period of a system of k classes.

    covered counts the residues with w >= 1; sum_w always equals the sum
    over classes of period // modulus (double count).  The system is
    trivial exactly when every modulus is 1.
    """

    k: int
    period: int
    min_w: int
    max_w: int
    sum_w: int
    covered: int
    is_trivial: bool

    @property
    def is_cover(self) -> bool:
        return self.min_w >= 1

    @property
    def is_exact(self) -> bool:
        return self.min_w == self.max_w == 1

    @property
    def uniform_m(self) -> Optional[int]:
        """The constant value of w, None when w is not constant."""
        return self.min_w if self.min_w == self.max_w else None


def multiplicity_profile(
    system: ResidueSystem, period_budget: int = DEFAULT_PERIOD_BUDGET
) -> MultiplicityProfile:
    """Scan one full period of the covering function, one mask per batch.

    A batch is the classes of one modulus n with distinct residues, the
    j-th copy of a class joining the j-th batch; they are disjoint, so
    their residue pattern of width n doubles out to one mask of the period.
    """
    period = system.period()
    if period > period_budget:
        raise PeriodBudgetError(f"period {period} exceeds budget {period_budget}")
    full = (1 << period) - 1
    min_w, max_w, covered, _ = profile(full, _batch_masks(system, full))
    moduli = system.moduli()
    sum_w = sum(period // n for n in moduli)
    trivial = all(n == 1 for n in moduli)
    return MultiplicityProfile(len(system), period, min_w, max_w, sum_w, covered, trivial)


def _batch_masks(system: ResidueSystem, full: int) -> Iterator[int]:
    batches: defaultdict = defaultdict(list)
    for c, copies in Counter(system.classes).items():
        for j in range(copies):
            batches[c.modulus, j].append(c.residue)
    period = full.bit_length()
    key = mask = None
    for (n, _), residues in batches.items():
        if (n, residues) != key:  # the copies of a class reuse one mask
            key = n, residues
            pattern = bytearray((n + 7) // 8)
            for a in residues:
                pattern[a >> 3] |= 1 << (a & 7)
            mask, width = int.from_bytes(pattern, "little"), n
            while width < period:
                mask |= mask << width
                width *= 2
            mask &= full
        yield mask


def classify(
    system: ResidueSystem, period_budget: int = DEFAULT_PERIOD_BUDGET
) -> MultiplicityProfile:
    """Cover / exact cover / uniform m-cover flags from one period scan."""
    return multiplicity_profile(system, period_budget)


def density_union(
    system: ResidueSystem, period_budget: int = DEFAULT_PERIOD_BUDGET
) -> Fraction:
    """Natural density of the union of the classes, exact."""
    prof = multiplicity_profile(system, period_budget)
    return Fraction(prof.covered, prof.period)


def mu_of_divisor_closure(values: Iterable[int]) -> int:
    """mu(D(R)): totient mass of the divisor closure of a finite set.

    D(R) is the set of divisors of elements of R and mu assigns each m
    the weight phi(m), so mu(D({m})) = sum_{d | m} phi(d) = m.
    """
    closure: set[int] = set()
    for v in values:
        if v < 1:
            raise InputError(f"divisor closure needs positive integers, got {v}")
        closure.update(divisor_list(v))
    return sum(euler_phi(d) for d in closure)


class DualCheck(NamedTuple):
    """Two independent computations of one quantity, kept for reporting."""

    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def _inclusion_exclusion_covered(moduli: Sequence[int]) -> int:
    """#{x mod L : some n_i divides x}, L = lcm(moduli), without a scan.

    L * sum over nonempty subsets I of (-1)**(|I|+1) / lcm(I), grouped by
    lcm: signed[l] is the sum of (-1)**|I| over all subsets I (the empty
    one included) with lcm l, grown one modulus at a time, so the cost is
    k * tau(L) steps instead of 2**k.
    """
    signed = {1: 1}
    for n in moduli:
        for l, count in list(signed.items()):
            joined = math.lcm(l, n)
            signed[joined] = signed.get(joined, 0) - count
    period = math.lcm(*moduli)
    return period - sum(c * (period // l) for l, c in signed.items())


def check_density_identity(
    moduli: Sequence[int], period_budget: int = DEFAULT_PERIOD_BUDGET
) -> DualCheck:
    """Density of union of n_i Z, scanned vs inclusion-exclusion.

    The closed density identity for union of n_i Z reduces, after the
    Euler-factor cancellation recorded in the package docs, to
    sum_{I != empty} (-1)**(|I|+1) / lcm(n_i : i in I), summed with the
    subsets grouped by their lcm; the scan side is computed independently
    over one period, which must fit the budget before the sum starts.
    """
    if not moduli:
        raise InputError("need at least one modulus")
    system = ResidueSystem.from_pairs([(0, n) for n in moduli])
    lhs = density_union(system, period_budget)
    rhs = Fraction(_inclusion_exclusion_covered(moduli), math.lcm(*moduli))
    return DualCheck(lhs=lhs, rhs=rhs)


class RogersReport(NamedTuple):
    period: int
    shifted_covered: int
    zeroed_covered: int

    @property
    def holds(self) -> bool:
        return self.shifted_covered >= self.zeroed_covered


def check_rogers(
    system: ResidueSystem, period_budget: int = DEFAULT_PERIOD_BUDGET
) -> RogersReport:
    """Covered count of the system vs the same moduli with residues zeroed.

    One period scan, of the system itself; the zeroed count comes from the
    grouped inclusion-exclusion behind the density identity.
    """
    prof = multiplicity_profile(system, period_budget)
    zero = _inclusion_exclusion_covered(system.moduli())
    return RogersReport(prof.period, prof.covered, zero)


class LevelGapReport(NamedTuple):
    """Cyclic-case index bound at one designated prime and level alpha.

    lam is the set of p-adic orders of the moduli at the designated
    prime; beta is the largest member of lam union {0} below alpha.  The
    inequality compares p**(alpha-beta) against epsilon * M * prod p_t/(p_t-1)
    over all primes of the period.  top_multiplicity is the bound at the
    full exponent: the count of the busiest modulus of maximal p-order.
    """

    period: int
    prime: int
    alpha: int
    alpha_top: int
    lam: tuple[int, ...]
    beta: int
    epsilon: Fraction
    m_value: int
    lhs: Fraction
    rhs: Fraction
    holds: bool
    top_multiplicity: int
    mult_bound: Fraction
    mult_bound_weak: Fraction
    mult_holds: bool


def check_level_gaps(
    system: ResidueSystem,
    prime: Optional[int] = None,
    alphas: Optional[Sequence[int]] = None,
    period_budget: int = DEFAULT_PERIOD_BUDGET,
) -> tuple[LevelGapReport, ...]:
    """Evaluate the index bound for uniform covers of Z at one prime.

    The prime defaults to the largest prime of the period and the levels
    to every positive member of lam.  Bad designations are refused before
    the system is scanned; the one uniformity scan serves every level.
    """
    moduli = system.moduli()
    period = system.period()
    fact = factorize(period)
    if not fact.pairs:
        raise InputError("trivial period, no primes to designate")
    p = fact.pairs[-1][0] if prime is None else prime
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    alpha_top = fact.ord_of(p)
    if alpha_top == 0:
        raise InputError(f"{p} does not divide the period {period}")
    orders = [factorize(n).ord_of(p) if n % p == 0 else 0 for n in moduli]
    lam = tuple(sorted(set(orders)))
    levels = [v for v in lam if v > 0] if alphas is None else list(alphas)
    for alpha in levels:
        if alpha < 1 or alpha not in lam:
            raise InputError(f"alpha must be a positive member of {lam}, got {alpha}")
    if classify(system, period_budget).uniform_m is None:
        raise InputError("system is not a uniform cover")
    mult = Counter(moduli)
    mertens = euler_product(fact.primes())
    top_mult = max(mult[n] for n, o in zip(moduli, orders) if o == alpha_top)
    mult_bound = p / euler_product(q for q in fact.primes() if q != p)
    mult_bound_weak = Fraction(p, len(fact.pairs))
    reports = []
    for alpha in levels:
        beta = max(v for v in set(lam) | {0} if v < alpha)
        epsilon = index_bound_factor(fact.pairs, p, alpha_top - alpha + 1)
        p_alpha = p**alpha
        m_value = max(mult[n] for n in mult if n % p_alpha == 0)
        lhs = Fraction(p ** (alpha - beta))
        rhs = epsilon * m_value * mertens
        reports.append(
            LevelGapReport(
                period=period,
                prime=p,
                alpha=alpha,
                alpha_top=alpha_top,
                lam=lam,
                beta=beta,
                epsilon=epsilon,
                m_value=m_value,
                lhs=lhs,
                rhs=rhs,
                holds=lhs <= rhs,
                top_multiplicity=top_mult,
                mult_bound=mult_bound,
                mult_bound_weak=mult_bound_weak,
                mult_holds=top_mult >= mult_bound,
            )
        )
    return tuple(reports)


def check_level_gap(
    system: ResidueSystem,
    alpha: int,
    prime: Optional[int] = None,
    period_budget: int = DEFAULT_PERIOD_BUDGET,
) -> LevelGapReport:
    """The index bound at one (prime, alpha); see check_level_gaps."""
    return check_level_gaps(system, prime, (alpha,), period_budget)[0]


class SimpsonReport(NamedTuple):
    period: int
    largest_prime: int
    max_multiplicity: int
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.largest_prime <= self.rhs


def check_simpson(
    system: ResidueSystem, period_budget: int = DEFAULT_PERIOD_BUDGET
) -> SimpsonReport:
    """Largest prime of the period vs M * prod p/(p-1) for exact covers, k > 1."""
    cls = classify(system, period_budget)
    if not cls.is_exact:
        raise InputError("system is not an exact cover")
    if cls.k < 2:
        raise InputError("need at least two classes")
    fact = factorize(cls.period)
    mult = Counter(system.moduli())
    m = max(mult.values())
    rhs = m * euler_product(fact.primes())
    return SimpsonReport(
        period=cls.period,
        largest_prime=fact.pairs[-1][0],
        max_multiplicity=m,
        rhs=rhs,
    )


def largest_modulus_multiplicity(system: ResidueSystem) -> tuple[int, int, int]:
    """(n_max, multiplicity of n_max, least prime of n_max) for moduli > 1."""
    moduli = system.moduli()
    n_max = max(moduli)
    if n_max < 2:
        raise InputError("all moduli are 1")
    mult = Counter(moduli)[n_max]
    return n_max, mult, least_prime(n_max)


def generate_exact_cover(script: Sequence[tuple[int, int]]) -> ResidueSystem:
    """Build an exact cover by repeatedly splitting one class into d parts.

    Start from {0 mod 1}.  A step (i, d) removes class number i (current
    order) with residue a and modulus n and inserts the d classes
    a + j*n mod d*n for j = 0..d-1 at the same position.  Every system
    reachable this way partitions Z.
    """
    classes = [ResidueClass(0, 1)]
    for step, (i, d) in enumerate(script):
        if not 0 <= i < len(classes):
            raise InputError(f"step {step}: class index {i} out of range")
        if d < 2:
            raise InputError(f"step {step}: split factor must be >= 2, got {d}")
        a, n = classes[i].residue, classes[i].modulus
        classes[i : i + 1] = [ResidueClass(a + j * n, d * n) for j in range(d)]
    return ResidueSystem(tuple(classes))
