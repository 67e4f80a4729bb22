"""Tests for residue-class systems over Z."""

import math
import random
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverlab import zcover
from coverlab.arith import divisor_list, euler_phi
from coverlab.errors import BudgetError, InputError
from coverlab.levels import add, walk
from coverlab.zcover import (
    DEFAULT_PERIOD_BUDGET,
    _inclusion_exclusion_covered,
    _lift,
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
    return ResidueSystem(pairs)


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
    with pytest.raises(InputError, match=r"^residue 2 not in \[0, 2\)$"):
        sys_of((2, 2))
    with pytest.raises(InputError, match="^modulus must be >= 1, got 0$"):
        sys_of((0, 0))
    # every pair is checked, not only the first
    with pytest.raises(InputError, match=r"^residue 5 not in \[0, 3\)$"):
        sys_of((0, 2), (5, 3))
    assert str(sys_of((3, 7))) == "3/7"
    # equal and hashed by value
    assert sys_of((3, 7)) == sys_of((3, 7))
    assert hash(sys_of((3, 7))) == hash(sys_of((3, 7)))
    assert sys_of((3, 7)) != sys_of((3, 8))


def test_system_requires_a_class():
    # an empty iterator too, which is truthy until it is read
    for empty in ((), [], iter(())):
        with pytest.raises(InputError, match="^a residue system needs at least one class$"):
            ResidueSystem(empty)


def test_systems_compare_by_their_classes_in_order():
    s = sys_of((1, 4), (0, 2))
    # each class is stored as the pair it unpacks to, from any iterable
    same = ResidueSystem(iter([[1, 4], (0, 2)]))
    assert list(same) == [(1, 4), (0, 2)] and all(type(c) is tuple for c in same)
    assert same == s and hash(same) == hash(s)
    assert s != sys_of((0, 2), (1, 4))
    # a system is its tuple of pairs
    assert s == ((1, 4), (0, 2)) and hash(s) == hash(((1, 4), (0, 2)))


def test_storage_preserves_input_order():
    s = sys_of((3, 4), (0, 2), (1, 4))
    assert [n for _, n in s] == [4, 2, 4]
    assert s.moduli() == (4, 2, 4) and str(s) == "3/4 0/2 1/4"


def test_zeroed_and_period():
    # the period is the lcm of the moduli, whatever the residues
    s = sys_of((1, 2), (3, 4))
    assert s.period() == sys_of((0, 2), (0, 4)).period() == 4


# ----------------------------------------------------------------- profile


def scan(s: ResidueSystem) -> tuple[int, int, int, int, int]:
    """Reference scan: (period, min, max, sum, covered) of the per-residue
    count vector, one numpy slice add per class."""
    counts = np.zeros(s.period(), dtype=np.int32)
    for a, n in s:
        counts[a::n] += 1
    return (
        len(counts), int(counts.min()), int(counts.max()), int(counts.sum()),
        int(np.count_nonzero(counts)),
    )


def summary(p) -> tuple[int, int, int, int, int]:
    return (p.period, p.min_w, p.max_w, p.sum_w, p.covered)


# the full-period scan that the lifted scan replaced, kept as its oracle:
# every batch is written out to the whole period and summed there


def oracle_batch_masks(system: ResidueSystem, full: int):
    batches: defaultdict = defaultdict(list)
    for (a, n), copies in Counter(system).items():
        for j in range(copies):
            batches[n, j].append(a)
    period = full.bit_length()
    key = mask = None
    for (n, _), residues in batches.items():
        if (n, residues) != key:
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


def oracle_scan(system: ResidueSystem) -> tuple[int, int, int]:
    """(min, max, covered) of w over one period, every batch at full width."""
    full = (1 << system.period()) - 1
    return walk(full, add([], oracle_batch_masks(system, full)))


def scanned(system: ResidueSystem) -> tuple[int, int, int]:
    p = multiplicity_profile(system)
    return p.min_w, p.max_w, p.covered


# classes drawn with up to three copies each; the moduli are divisors of
# 55,440 or small integers, so that most draws have a period <= 10**5
repeated_systems = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(divisor_list(55_440)), st.integers(min_value=1, max_value=40))
        .flatmap(lambda n: st.tuples(st.integers(min_value=0, max_value=n - 1), st.just(n))),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1,
    max_size=8,
).map(lambda drawn: sys_of(*[pair for pair, copies in drawn for _ in range(copies)]))


@given(repeated_systems.filter(lambda s: s.period() <= 10**5))
@example(sys_of((1, 4), (1, 4), (3, 4), (0, 6), (0, 6), (5, 12), (0, 1)))
@example(sys_of((2, 7), (0, 11), (5, 13), (2, 7), (1, 2)))
def test_lifted_scan_matches_the_oracle(s):
    assert scanned(s) == oracle_scan(s)


@given(split_scripts, split_scripts, st.integers(min_value=0, max_value=10**6))
def test_lifted_scan_matches_the_oracle_on_split_covers(raw, other, pick):
    # an exact cover, the cover with one class removed, and the cover
    # merged with a second one (a uniform 2-cover)
    s = generate_exact_cover(normalize_script(raw))
    classes = list(s)
    del classes[pick % len(classes)]
    merged = s + generate_exact_cover(normalize_script(other))
    for system in (s, ResidueSystem(classes or [(0, 2)]), ResidueSystem(merged)):
        assert scanned(system) == oracle_scan(system)


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
    assert scanned(s) == oracle_scan(s)


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
    assert scanned(s) == oracle_scan(s)


def test_profile_planes_grow_with_the_log_of_the_count(monkeypatch):
    # 300 copies of one class: bit planes, not one level mask per count;
    # the planes counted are the ones the scan walks
    walked = []

    def spy(full, planes):
        walked.append(len(planes))
        return walk(full, planes)

    monkeypatch.setattr(zcover, "walk", spy)
    s = sys_of(*[(0, 2)] * 300, (5, 9_699_690))
    p = multiplicity_profile(s)
    assert len(walked) == 1 and walked[0] <= math.ceil(math.log2(301)) == 9
    assert (p.min_w, p.max_w, p.covered) == (0, 300, p.period // 2 + 1) == oracle_scan(s)


def test_copies_of_a_class_share_one_mask(monkeypatch):
    # the 300 batches of 1/30030 hold the same residues of the same
    # modulus: one mask is built for them, not one per copy (a class of
    # the period's modulus near 10**7 is 1.2 MB a copy); a mask of
    # modulus 2 would be a cached small int, shared whatever the scan does
    received = []

    def spy(planes, masks):
        batch = list(masks)
        received.extend(batch)
        return add(planes, batch)

    monkeypatch.setattr(zcover, "add", spy)
    p = multiplicity_profile(sys_of((0, 2), *[(1, 30_030)] * 300))
    assert len(received) == 301
    assert len({id(mask) for mask in received}) == 2
    assert (p.min_w, p.max_w, p.covered) == (0, 300, 30_030 // 2 + 1)


def test_few_masks_reach_the_period_width(monkeypatch):
    # the class of the period's modulus comes first, yet the 600 classes
    # of modulus 2 are summed at width 2: only the planes, lifted once,
    # reach the period, where a full-period scan sums 601 masks there
    s = sys_of((5, 9_699_690), *[(0, 2)] * 300, *[(1, 2)] * 300)
    period = s.period()
    wide = [0]

    def lift(bits, width, target):
        wide[0] += width < target == period
        return _lift(bits, width, target)

    def summed(planes, masks):
        batch = list(masks)
        wide[0] += sum(mask.bit_length() > period // 2 for mask in batch)
        return add(planes, batch)

    monkeypatch.setattr(zcover, "_lift", lift)
    monkeypatch.setattr(zcover, "add", summed)
    p = multiplicity_profile(s)
    assert (p.min_w, p.max_w, p.covered) == (300, 301, period)
    assert 0 < wide[0] <= p.max_w.bit_length() + 1


def test_lifted_scan_peaks_below_the_full_period_scan():
    # a chain of splits to an exact cover of period 8,154,432: each lift
    # frees the narrower planes, and no batch mask outlives its add
    script, k = [], 1
    for d in (3, 2, 2, 4, 6, 11, 9, 11, 13, 2):
        script.append((k - 1, d))
        k += d - 1
    s = generate_exact_cover(script)
    assert s.period() == 8_154_432
    peaks = []
    for run in (multiplicity_profile, oracle_scan):
        tracemalloc.start()
        try:
            run(s)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


@given(st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=40))
def test_planes_hold_each_count_in_binary(masks):
    # bit j of the count of x is bit x of planes[j]; min and max are over
    # the points of full only
    full = 2**12 - 1 - 0b1010
    planes = add([], masks)
    lo, hi, covered = walk(full, planes)
    counts = [sum(m >> x & 1 for m in masks) for x in range(12)]
    assert [sum((p >> x & 1) << j for j, p in enumerate(planes)) for x in range(12)] == counts
    inside = [counts[x] for x in range(12) if full >> x & 1]
    assert (lo, hi) == (min(inside), max(inside))
    assert covered == sum(1 for c in counts if c)
    assert len(planes) == max(counts).bit_length()


def test_period_budget_refusal():
    primorial = sys_of(*[(0, n) for n in (2, 3, 5, 7, 11, 13, 17, 19, 23)])
    with pytest.raises(BudgetError, match="exceeds budget"):
        multiplicity_profile(primorial)
    with pytest.raises(BudgetError, match="exceeds budget"):
        multiplicity_profile(sys_of((0, 11), (0, 13)), period_budget=100)


def test_period_refused_before_any_mask(monkeypatch):
    def no_masks(*args):
        raise AssertionError("a mask was built for a refused period")

    for name in ("_batch_masks", "_lift", "add"):
        monkeypatch.setattr(zcover, name, no_masks)
    with pytest.raises(BudgetError, match="exceeds budget"):
        multiplicity_profile(sys_of((0, 11), (0, 13)), period_budget=100)


@given(residue_systems)
def test_double_counting(s):
    p = multiplicity_profile(s)
    assert p.sum_w == sum(p.period // n for _, n in s)
    assert summary(p) == scan(s)


# ---------------------------------------------------------------- classify


def test_classify_exact():
    c = classify(EXACT4)
    assert c.is_cover and c.is_exact and c.uniform_m == 1 and not c.is_trivial
    # the flags are read off the one profile record
    assert c == multiplicity_profile(EXACT4) and (c.k, c.period) == (3, 4)


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
        with pytest.raises(BudgetError, match="exceeds budget"):
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
        with pytest.raises(BudgetError, match="exceeds budget"):
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
        s = ResidueSystem([(rng.randrange(n), n) for n in moduli])
        zeroed = ResidueSystem([(0, n) for n in moduli])
        assert check_rogers(s).zeroed_covered == multiplicity_profile(zeroed).covered


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
    with pytest.raises(BudgetError, match="exceeds budget"):
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
    assert list(s) == [(0, 1)]


def test_generate_two_splits():
    s = generate_exact_cover([(0, 2), (1, 2)])
    assert list(s) == [(0, 2), (1, 4), (3, 4)]


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
    moduli = sorted(s.moduli())
    if len(moduli) > 1:
        assert moduli[-1] == moduli[-2]


def test_largest_modulus_multiplicity():
    assert largest_modulus_multiplicity(EXACT4) == (4, 2, 2)
    with pytest.raises(ValueError):
        largest_modulus_multiplicity(sys_of((0, 1)))


@given(split_scripts, st.integers(min_value=1, max_value=3))
def test_uniform_reciprocal_sum(raw, m):
    # m stacked copies of an exact cover form a uniform m-cover with
    # reciprocal modulus sum exactly m
    base = generate_exact_cover(normalize_script(raw))
    stacked = ResidueSystem(base * m)
    c = classify(stacked)
    assert c.uniform_m == m
    assert sum(Fraction(1, n) for n in stacked.moduli()) == m
