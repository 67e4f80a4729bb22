"""Tests for residue-class systems over Z."""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverlab import zcover
from coverlab.arith import divisor_list, euler_phi
from coverlab.errors import PeriodBudgetError
from coverlab.levels import profile
from coverlab.zcover import (
    DEFAULT_PERIOD_BUDGET,
    _batch_masks,
    _inclusion_exclusion_covered,
    CoverClassification,
    ResidueClass,
    ResidueSystem,
    check_density_identity,
    check_level_gap,
    check_level_gaps,
    check_rogers,
    check_simpson,
    classify,
    density_union,
    generate_exact_cover,
    largest_modulus_multiplicity,
    mu_of_divisor_closure,
    multiplicity_profile,
)


def sys_of(*pairs) -> ResidueSystem:
    return ResidueSystem.from_pairs(pairs)


EXACT4 = sys_of((0, 2), (1, 4), (3, 4))


# small random systems, k <= 6, moduli <= 30
residue_systems = st.lists(
    st.integers(min_value=1, max_value=30).flatmap(
        lambda n: st.tuples(st.integers(min_value=0, max_value=n - 1), st.just(n))
    ),
    min_size=1,
    max_size=6,
).map(lambda pairs: sys_of(*pairs)).filter(lambda s: s.period() <= 10**6)


split_scripts = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=5)),
    max_size=6,
)


def normalize_script(raw):
    """Map free index draws onto valid class indices as the system grows."""
    k = 1
    out = []
    for i, d in raw:
        out.append((i % k, d))
        k += d - 1
    return out


# ------------------------------------------------------------------- types


def test_residue_class_validation():
    with pytest.raises(ValueError):
        ResidueClass(2, 2)
    with pytest.raises(ValueError):
        ResidueClass(0, 0)
    assert str(ResidueClass(3, 7)) == "3/7"


def test_system_requires_a_class():
    with pytest.raises(ValueError):
        ResidueSystem(())


def test_canonical_sorts_but_storage_preserves_order():
    s = sys_of((3, 4), (0, 2), (1, 4))
    assert [c.modulus for c in s.classes] == [4, 2, 4]
    assert [(c.residue, c.modulus) for c in s.canonical()] == [(0, 2), (1, 4), (3, 4)]


def test_zeroed_and_period():
    s = sys_of((1, 2), (3, 4))
    assert s.period() == 4
    assert all(c.residue == 0 for c in s.zeroed().classes)


# ----------------------------------------------------------------- profile


def scan(s: ResidueSystem) -> tuple[int, int, int, int, int]:
    """Reference scan: (period, min, max, sum, covered) of the per-residue
    count vector, one numpy slice add per class."""
    counts = np.zeros(s.period(), dtype=np.int32)
    for c in s.classes:
        counts[c.residue :: c.modulus] += 1
    return (
        len(counts), int(counts.min()), int(counts.max()), int(counts.sum()),
        int(np.count_nonzero(counts)),
    )


def summary(p) -> tuple[int, int, int, int, int]:
    return (p.period, p.min_w, p.max_w, p.sum_w, p.covered)


def test_profile_whole_line():
    p = multiplicity_profile(sys_of((0, 1)))
    assert summary(p) == (1, 1, 1, 1, 1) == scan(sys_of((0, 1)))


def test_profile_exact_cover():
    p = multiplicity_profile(EXACT4)
    assert summary(p) == (4, 1, 1, 4, 4) == scan(EXACT4)


def test_profile_min_max():
    s = sys_of((0, 2), (0, 3), (1, 4), (5, 6), (7, 12))
    p = multiplicity_profile(s)
    assert (p.min_w, p.max_w) == (1, 2)
    assert summary(p) == scan(s)


def test_profile_streams_above_vector_max():
    # a period of 2**21 set by one class of full modulus
    s = sys_of((1, 2), (3, 8), (5, 2**21))
    p = multiplicity_profile(s)
    assert p.period == 2**21
    assert summary(p) == scan(s)


@pytest.mark.parametrize("period", [999_999, 10**6, 10**6 + 3, 3 * 10**6 + 1])
def test_profile_across_chunk_boundaries(period):
    # periods at and around multiples of 10**6; classes of full modulus
    # sit at the end of the period and just past 10**6, and the others
    # start mid-stride
    small = [d for d in divisor_list(period) if 1 < d < period][:2]
    pairs = [(period - 1, period), (min(10**6 + 1, period - 2), period)]
    pairs += [(d - 1, d) for d in small] + [(d // 2, d) for d in small]
    s = sys_of(*pairs)
    assert summary(multiplicity_profile(s)) == scan(s)


@pytest.mark.parametrize("copies", [2, 3, 4, 5])
def test_profile_repeated_classes(copies):
    # the j-th copy of a class lands in the j-th batch of its modulus
    s = sys_of(*[(1, 4)] * copies, (3, 4), (1, 4), (0, 6), *[(2, 6)] * copies, (5, 12))
    assert summary(multiplicity_profile(s)) == scan(s)


def test_profile_at_primorial_period():
    # 2*3*5*...*19 = 9,699,690, inside the default budget
    s = sys_of((1, 2), (1, 2), (0, 3), (2, 5), (3, 7), (3, 7), (0, 11), (4, 13),
               (16, 17), (7, 19), (9_699_689, 9_699_690))
    p = multiplicity_profile(s)
    assert p.period == 9_699_690
    assert summary(p) == scan(s)


def test_profile_planes_grow_with_the_log_of_the_count():
    # 300 copies of one class: bit planes, not one level mask per count
    s = sys_of(*[(0, 2)] * 300, (5, 9_699_690))
    period = s.period()
    full = (1 << period) - 1
    lo, hi, covered, planes = profile(full, _batch_masks(s, full))
    assert len(planes) <= math.ceil(math.log2(301)) == 9
    assert (lo, hi, covered) == (0, 300, period // 2 + 1)


def test_copies_of_a_class_share_one_mask(monkeypatch):
    # the 300 batches of 0/2 hold the same residues of the same modulus:
    # one period mask is built for them, not one per copy (at a period
    # near 10**7 that is 1.2 MB per copy)
    received = []

    def spy(full, masks):
        received.extend(masks)
        return profile(full, received)

    monkeypatch.setattr(zcover, "profile", spy)
    p = multiplicity_profile(sys_of(*[(0, 2)] * 300, (1, 30_030)))
    assert len(received) == 301
    assert len({id(mask) for mask in received}) == 2
    assert (p.min_w, p.max_w, p.covered) == (0, 300, 30_030 // 2 + 1)


@given(st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=40))
def test_planes_hold_each_count_in_binary(masks):
    # bit j of the count of x is bit x of planes[j]; min and max are over
    # the points of full only
    full = 2**12 - 1 - 0b1010
    lo, hi, covered, planes = profile(full, masks)
    counts = [sum(m >> x & 1 for m in masks) for x in range(12)]
    assert [sum((p >> x & 1) << j for j, p in enumerate(planes)) for x in range(12)] == counts
    inside = [counts[x] for x in range(12) if full >> x & 1]
    assert (lo, hi) == (min(inside), max(inside))
    assert covered == sum(1 for c in counts if c)
    assert len(planes) == max(counts).bit_length()


def test_period_budget_refusal():
    primorial = sys_of(*[(0, n) for n in (2, 3, 5, 7, 11, 13, 17, 19, 23)])
    with pytest.raises(PeriodBudgetError):
        multiplicity_profile(primorial)
    with pytest.raises(PeriodBudgetError):
        multiplicity_profile(sys_of((0, 11), (0, 13)), period_budget=100)


def test_period_refused_before_any_mask(monkeypatch):
    def no_masks(*args):
        raise AssertionError("a mask was built for a refused period")

    monkeypatch.setattr(zcover, "_batch_masks", no_masks)
    with pytest.raises(PeriodBudgetError):
        multiplicity_profile(sys_of((0, 11), (0, 13)), period_budget=100)


@given(residue_systems)
def test_double_counting(s):
    p = multiplicity_profile(s)
    assert p.sum_w == sum(p.period // c.modulus for c in s.classes)
    assert summary(p) == scan(s)


# ---------------------------------------------------------------- classify


def test_classify_exact():
    c = classify(EXACT4)
    assert c.is_cover and c.is_exact and c.uniform_m == 1 and not c.is_trivial


def test_classify_uniform_2():
    c = classify(sys_of((0, 2), (1, 2), (0, 3), (1, 3), (2, 3)))
    assert c.uniform_m == 2
    assert c.is_cover and not c.is_exact


def test_classify_non_cover():
    c = classify(sys_of((0, 3)))
    assert not c.is_cover and c.uniform_m is None


def test_classify_trivial():
    c = classify(sys_of((0, 1), (0, 1)))
    assert c.is_trivial and c.uniform_m == 2


# ----------------------------------------------------------------- density


def test_density_whole_line():
    assert density_union(sys_of((0, 1))) == 1


def test_density_two_three():
    assert density_union(sys_of((0, 2), (0, 3))) == Fraction(2, 3)


# two draws whose period exceeds the default budget
OVER_BUDGET_MODULI = ([7, 11, 13, 16, 25, 27], [11, 13, 17, 19, 20, 21])


@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=6))
@example(OVER_BUDGET_MODULI[0])
@example(OVER_BUDGET_MODULI[1])
def test_density_inclusion_exclusion(moduli):
    s = sys_of(*[(0, n) for n in moduli])
    if math.lcm(*moduli) > DEFAULT_PERIOD_BUDGET:
        with pytest.raises(PeriodBudgetError):
            density_union(s)
        return
    expected = Fraction(0)
    for r in range(1, len(moduli) + 1):
        for sub in combinations(moduli, r):
            expected += Fraction((-1) ** (r + 1), math.lcm(*sub))
    assert density_union(s) == expected


# ---------------------------------------------------------------------- mu


def test_mu_examples():
    assert mu_of_divisor_closure([]) == 0
    assert mu_of_divisor_closure([12]) == 12
    assert mu_of_divisor_closure([4, 6]) == 8


def test_mu_singleton_identity():
    for m in range(1, 201):
        assert mu_of_divisor_closure([m]) == m


@given(
    st.sets(st.integers(min_value=1, max_value=100), max_size=8),
    st.integers(min_value=1, max_value=20),
)
def test_mu_scaling(r, k):
    assert mu_of_divisor_closure([k * m for m in r]) == k * mu_of_divisor_closure(r)


@given(st.data())
def test_mu_counts_index_multiples(data):
    # mu over the complementary divisors equals the count of n < N hit
    # by some n_i | n
    n_big = data.draw(st.integers(min_value=1, max_value=10**4))
    divs = divisor_list(n_big)
    chosen = data.draw(
        st.lists(st.sampled_from(divs), min_size=1, max_size=5, unique=True)
    )
    lhs = mu_of_divisor_closure([n_big // n for n in chosen])
    rhs = sum(1 for n in range(n_big) if any(n % d == 0 for d in chosen))
    assert lhs == rhs


def test_mu_matches_phi_sum_definition():
    for r in ([4, 6], [12], [2, 9, 10]):
        closure = sorted({d for m in r for d in divisor_list(m)})
        assert mu_of_divisor_closure(r) == sum(euler_phi(d) for d in closure)


# ---------------------------------------------------------- density dual


def test_density_identity_examples():
    d = check_density_identity([1])
    assert d.lhs == d.rhs == 1
    d = check_density_identity([2, 3])
    assert d.holds and d.lhs == Fraction(2, 3)


@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=6))
@example(OVER_BUDGET_MODULI[0])
@example(OVER_BUDGET_MODULI[1])
def test_density_identity_random(moduli):
    if math.lcm(*moduli) > DEFAULT_PERIOD_BUDGET:
        with pytest.raises(PeriodBudgetError):
            check_density_identity(moduli)
        return
    assert check_density_identity(moduli).holds


def grouped_density(moduli) -> Fraction:
    return Fraction(_inclusion_exclusion_covered(moduli), math.lcm(*moduli))


def subset_walk_density(moduli) -> Fraction:
    """Differential oracle: the 2**k subset walk the grouped sum replaced.

    Each nonempty subset I adds (-1)**(|I|+1) / lcm(I); the terms are kept
    as integer numerators over L = lcm(moduli) and reduced once at the end.
    """
    period = math.lcm(*moduli)
    total = 0

    def walk(i, current_lcm, size):
        nonlocal total
        if i == len(moduli):
            if size:
                total += (-1) ** (size + 1) * (period // current_lcm)
            return
        walk(i + 1, current_lcm, size)
        walk(i + 1, math.lcm(current_lcm, moduli[i]), size + 1)

    walk(0, 1, 0)
    return Fraction(total, period)


@given(st.lists(st.integers(min_value=1, max_value=60), max_size=12))
@settings(deadline=None)
def test_grouped_inclusion_exclusion_matches_subset_walk(moduli):
    assert grouped_density(moduli) == subset_walk_density(moduli)


def test_grouped_inclusion_exclusion_on_twenty_divisors():
    divisors = [d for d in divisor_list(720720) if d > 1]
    moduli = random.Random(20).sample(divisors, 20)
    assert grouped_density(moduli) == subset_walk_density(moduli)


def test_density_identity_beyond_twenty_moduli():
    divisors = [d for d in divisor_list(720720) if d > 1]
    moduli = random.Random(24).sample(divisors, 24)
    # the scan side is the oracle here: 2**24 subsets are out of reach
    assert check_density_identity(moduli).holds


# ------------------------------------------------------------------ rogers


def test_rogers_zero_residues_equal():
    s = sys_of((0, 2), (0, 3))
    r = check_rogers(s)
    assert r.shifted_covered == r.zeroed_covered and r.holds


def test_rogers_example():
    r = check_rogers(sys_of((1, 2), (0, 4)))
    assert (r.shifted_covered, r.zeroed_covered) == (3, 2)
    assert r.holds


@given(residue_systems)
def test_rogers_random(s):
    assert check_rogers(s).holds


def test_rogers_zeroed_count_matches_scan():
    # the zeroed side is summed, not scanned; the scan stays its oracle
    rng = random.Random(31)
    divisors = divisor_list(55440)
    for _ in range(300):
        moduli = rng.choices(divisors, k=rng.randint(1, 8))
        s = ResidueSystem.from_pairs([(rng.randrange(n), n) for n in moduli])
        assert check_rogers(s).zeroed_covered == multiplicity_profile(s.zeroed()).covered


# --------------------------------------------------------------- level gap


def test_level_gap_alpha_2():
    r = check_level_gap(EXACT4, 2)
    assert r.prime == 2
    assert r.lam == (1, 2)
    assert r.beta == 1
    assert r.epsilon == Fraction(1, 2)
    assert r.m_value == 2
    assert (r.lhs, r.rhs) == (2, 2)
    assert r.holds


def test_level_gap_alpha_1():
    r = check_level_gap(EXACT4, 1)
    assert r.beta == 0
    assert r.epsilon == Fraction(3, 4)
    assert r.m_value == 2
    assert r.lhs == 2
    assert r.holds


def test_level_gap_top_multiplicity():
    r = check_level_gap(EXACT4, 2)
    assert r.top_multiplicity == 2
    assert r.mult_bound == 2
    assert r.mult_bound_weak == 2
    assert r.mult_holds


def test_level_gap_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_level_gap(sys_of((0, 3)), 1)  # not a cover
    with pytest.raises(ValueError):
        check_level_gap(EXACT4, 3)  # alpha outside Lambda
    with pytest.raises(ValueError):
        check_level_gap(EXACT4, 1, prime=3)  # 3 does not divide 4
    with pytest.raises(ValueError):
        check_level_gap(sys_of((0, 1), (0, 1)), 1)  # trivial


def test_level_gaps_match_single_levels():
    systems = (
        EXACT4,
        sys_of((0, 2), (1, 4), (3, 8), (7, 8)),
        sys_of((0, 2), (1, 2), (0, 3), (1, 3), (2, 3)),
    )
    for s in systems:
        for prime in (None, 2):
            reports = check_level_gaps(s, prime)
            assert [r.alpha for r in reports] == [v for v in reports[0].lam if v > 0]
            for r in reports:
                assert check_level_gap(s, r.alpha, prime) == r


def test_level_gaps_refuse_before_scanning():
    # bad designations are refused without a scan, so even an over-budget
    # period gets the designation error
    big = sys_of((0, 2), (1, 4), (3, 4), (0, 999983))
    with pytest.raises(ValueError, match="does not divide"):
        check_level_gaps(big, prime=3, period_budget=10)
    with pytest.raises(ValueError, match="alpha must be"):
        check_level_gaps(big, prime=2, alphas=(3,), period_budget=10)
    with pytest.raises(PeriodBudgetError):
        check_level_gaps(big, prime=2, period_budget=10)


# ----------------------------------------------------------------- simpson


def test_simpson_example():
    r = check_simpson(EXACT4)
    assert r.max_multiplicity == 2
    assert r.largest_prime == 2
    assert r.rhs == 4
    assert r.holds


def test_simpson_single_prime():
    r = check_simpson(sys_of((0, 2), (1, 2)))
    assert r.max_multiplicity == 2 and r.rhs == 4 and r.holds


def test_simpson_rejects_non_exact():
    with pytest.raises(ValueError):
        check_simpson(sys_of((0, 2), (0, 3)))
    with pytest.raises(ValueError):
        check_simpson(sys_of((0, 1)))  # exact but k = 1


# --------------------------------------------------------------- generator


def test_generate_empty_script():
    s = generate_exact_cover([])
    assert [(c.residue, c.modulus) for c in s.classes] == [(0, 1)]


def test_generate_two_splits():
    s = generate_exact_cover([(0, 2), (1, 2)])
    assert [(c.residue, c.modulus) for c in s.classes] == [(0, 2), (1, 4), (3, 4)]


def test_generate_rejects_bad_steps():
    with pytest.raises(ValueError):
        generate_exact_cover([(1, 2)])
    with pytest.raises(ValueError):
        generate_exact_cover([(0, 1)])


@given(split_scripts)
def test_generated_scripts_are_exact_all_the_way(raw):
    script = normalize_script(raw)
    for cut in range(len(script) + 1):
        s = generate_exact_cover(script[:cut])
        assert classify(s).is_exact


@given(split_scripts)
def test_generated_covers_have_equal_top_moduli(raw):
    # two largest moduli of a nontrivial exact cover coincide
    s = generate_exact_cover(normalize_script(raw))
    canon = s.canonical()
    if len(canon) > 1:
        assert canon[-1].modulus == canon[-2].modulus


def test_largest_modulus_multiplicity():
    assert largest_modulus_multiplicity(EXACT4) == (4, 2, 2)
    with pytest.raises(ValueError):
        largest_modulus_multiplicity(sys_of((0, 1)))


@given(split_scripts, st.integers(min_value=1, max_value=3))
def test_uniform_reciprocal_sum(raw, m):
    # m stacked copies of an exact cover form a uniform m-cover with
    # reciprocal modulus sum exactly m
    base = generate_exact_cover(normalize_script(raw))
    stacked = ResidueSystem(base.classes * m)
    c = classify(stacked)
    assert c.uniform_m == m
    assert sum(Fraction(1, n) for n in stacked.moduli()) == m
