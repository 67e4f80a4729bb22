"""Tests for coset systems over finite groups and the cover machinery."""

import hashlib
import math
import random
import re
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction

import pytest

from coverlab import gcover, group, levels
from coverlab.arith import divisor_list, euler_product, factorize, least_prime, ord_of
from coverlab.cli import main
from coverlab.errors import InputError, SearchBudgetError
from coverlab.gcover import (
    DEFAULT_NODE_BUDGET,
    KERNEL_SUBSET_CAP,
    CosetSystem,
    EqualPairReport,
    KernelReport,
    MaxIndexReport,
    SquarefreeBound,
    UniformCoverReport,
    WeightProfile,
    _Nodes,
    _partition_with_indices,
    check_aligned_union_bound,
    check_uniform_cover,
    check_union_lower_bound,
    enumerate_uniform_covers,
    feasible_distinct_index_sets,
    kernel_of,
    probe_max_index_multiplicity,
    search_distinct_index_partition,
    weight_profile,
)
from coverlab.group import (
    FiniteGroup,
    Subgroup,
    _bits,
    all_subgroups,
    catalog_group,
    core_of,
    cycles_str,
    cyclic_group,
    group_from_generators,
    has_normal_sylow,
    is_normal,
    is_solvable,
    is_subnormal,
    left_coset_mask,
    load_catalog,
    quotient_group,
    subgroup_closure,
    trivial_subgroup,
)
from coverlab.zcover import ResidueSystem, multiplicity_profile


def sub_of_size(G, size, which=0):
    return [H for H in all_subgroups(G) if H.size == size][which]


def left_cosets(G, H):
    """(least member, H) for every left coset of H."""
    out, seen = [], 0
    for x in range(G.order):
        if not seen >> x & 1:
            out.append((x, H))
            seen |= left_coset_mask(x, H)
    return out


def a5_two_cover():
    """The 5 cosets of an index-5 subgroup and the 6 of an index-6 one of A5."""
    G = group_from_generators(5, ["(1 2 3 4 5)", "(1 2 3)"], name="A5")
    h5 = sub_of_size(G, 12)
    h6 = sub_of_size(G, 10)
    return CosetSystem(G, left_cosets(G, h5) + left_cosets(G, h6))


def c4_cover():
    """Partition of C4 with indices (2, 4, 4)."""
    G = catalog_group("C4")
    two = sub_of_size(G, 2)
    triv = trivial_subgroup(G)
    return CosetSystem(G, [(0, two), (1, triv), (3, triv)])


# ------------------------------------------------------------- validation


def test_system_validation():
    G = catalog_group("C4")
    with pytest.raises(ValueError, match="at least one"):
        CosetSystem(G, ())
    with pytest.raises(ValueError, match="out of range"):
        CosetSystem(G, [(4, trivial_subgroup(G))])
    with pytest.raises(ValueError, match="different group"):
        CosetSystem(G, ((0, trivial_subgroup(catalog_group("S3"))),))
    H = trivial_subgroup(G)
    for check in (check_union_lower_bound, check_aligned_union_bound):
        with pytest.raises(ValueError, match="at least one"):
            check(H, [])
        with pytest.raises(ValueError, match="out of range"):
            check(H, [(4, sub_of_size(G, 2))])
        # the system is built over H's group, which refuses another group's entry
        with pytest.raises(ValueError, match="different group"):
            check(H, [(0, trivial_subgroup(catalog_group("S3")))])


def test_systems_compare_by_parent_and_entries_not_masks():
    G = catalog_group("C4")
    entries = ((0, sub_of_size(G, 2)), (1, trivial_subgroup(G)), (3, trivial_subgroup(G)))
    computed = CosetSystem(G, entries)
    handed = CosetSystem._trusted(G, entries, computed.masks)
    other = CosetSystem._trusted(G, entries, (G.full_mask(),) * 3)  # masks take no part
    assert computed == handed == other
    assert hash(computed) == hash(handed) == hash(other)
    assert computed != CosetSystem(G, entries[::-1])
    twin = FiniteGroup(G.table, name=G.name)  # same table, another object
    assert computed != CosetSystem(twin, tuple((r, Subgroup(twin, s.mask)) for r, s in entries))
    # each refusal keeps its type and message
    for args, error, message in [
        ((G, ()), InputError, "coset system needs at least one entry"),
        ((G, ((4, entries[1][1]),)), InputError, "representative 4 out of range"),
        ((twin, entries), ValueError, "entry subgroup belongs to a different group"),
    ]:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            CosetSystem(*args)


def test_public_constructor_takes_entries_only():
    # one coset of C4's index-2 subgroup covers half the group; handed the
    # whole group's mask, profile or facts it would read as a cover
    G = catalog_group("C4")
    half = [(0, sub_of_size(G, 2))]
    whole = CosetSystem(G, [(0, Subgroup(G, G.full_mask()))])
    for args, kwargs in [
        ((G, half, whole.masks), {}),
        ((G, half), {"masks": whole.masks}),
        ((G, half), {"profile": weight_profile(whole)}),
        ((G, half), {"facts": whole.facts}),
    ]:
        with pytest.raises(TypeError):
            CosetSystem(*args, **kwargs)
    assert weight_profile(whole).is_cover and not weight_profile(CosetSystem(G, half)).is_cover


def test_canonical_form():
    cov = c4_cover()
    G = cov.parent
    shuffled = CosetSystem(
        G, [(3, trivial_subgroup(G)), (2, sub_of_size(G, 2)), (1, trivial_subgroup(G))]
    )
    # rep 2 names the same coset of <2> as rep 0
    assert shuffled.canonical() == cov.canonical()
    assert shuffled.canonical().indices() == (2, 4, 4)


def test_indices_and_masks():
    cov = c4_cover()
    assert cov.indices() == (2, 4, 4)
    assert [m.bit_count() for m in cov.masks] == [2, 1, 1]


# --------------------------------------------------------- weight profile


def test_profile_partition():
    w = weight_profile(c4_cover())
    assert w.counts == (1, 1, 1, 1)
    assert w.uniform_m == 1 and w.is_cover and w.is_partition
    assert not w.is_trivial


def test_profile_mass_identity():
    # total weight mass equals the sum of coset sizes, cover or not
    rng = random.Random(7)
    for G in load_catalog():
        if not 1 < G.order <= 12:
            continue
        subs = all_subgroups(G)
        for _ in range(20):
            k = rng.randint(1, 4)
            cov = CosetSystem(
                G,
                [(rng.randrange(G.order), rng.choice(subs)) for _ in range(k)],
            )
            w = weight_profile(cov)
            assert sum(w.counts) == sum(G.order // n for n in cov.indices())
            assert w.covered == sum(1 for c in w.counts if c)
            assert w.is_cover == (w.min_w >= 1)


def test_profile_trivial_cover():
    G = catalog_group("S3")
    w = weight_profile(CosetSystem(G, [(0, Subgroup(G, G.full_mask()))]))
    assert w.is_trivial and w.uniform_m == 1


@pytest.mark.parametrize("seed", range(4))
def test_profile_matches_the_residue_layer(seed):
    # a residue system of period L is a coset cover of Z/L: the class a mod n
    # is the coset a + <n>, so both layers give the same min, max and covered
    rng = random.Random(seed)
    for _ in range(25):
        ns = divisor_list(rng.randint(1, 200))
        pairs = []
        for _ in range(rng.randint(1, 8)):
            n = rng.choice(ns)
            pairs += [(rng.randrange(n), n)] * rng.choice((1, 1, 2, 3))
        system = ResidueSystem(pairs)
        L = system.period()
        G = cyclic_group(L)
        cover = CosetSystem(
            G, [(a, Subgroup(G, sum(1 << x for x in range(0, L, n)))) for a, n in pairs]
        )
        w = weight_profile(cover)
        z = multiplicity_profile(system)
        assert (w.min_w, w.max_w, w.covered) == (z.min_w, z.max_w, z.covered), pairs
        assert w.counts == tuple(sum(x % n == a for a, n in pairs) for x in range(L))


def reciprocal_index_sum(cover):
    """Sum of 1/n_i; equals m exactly for every uniform m-cover."""
    return sum((Fraction(1, n) for n in cover.indices()), Fraction(0))


def test_reciprocal_sum():
    assert reciprocal_index_sum(c4_cover()) == Fraction(1)
    for cover in enumerate_uniform_covers(catalog_group("D4"), 6, 2):
        assert reciprocal_index_sum(cover) == 2


# ----------------------------------------------------------------- kernel


def test_kernel_on_named_partition():
    r = kernel_of(c4_cover())
    assert r.kernel.index == 1  # constant weight, every translation fixes it
    assert r.contains_intersection and r.union_property_verified
    assert r.subsets_checked == 7 and not r.capped


def test_kernel_contains_the_intersection_of_the_entries_past_the_cap():
    # twelve whole-group entries, then one coset aH of S3's non-normal H past
    # the subset cap: w is 13 on aH and 12 off it, so the kernel is H, and
    # so is the intersection of the subgroups, read from the last entry alone
    G = catalog_group("S3")
    H = sub_of_size(G, 2)
    cover = CosetSystem(G, [(0, Subgroup(G, G.full_mask()))] * KERNEL_SUBSET_CAP + [(1, H)])
    r = kernel_of(cover)
    assert r.kernel == H and r.contains_intersection and r.capped
    assert r == oracle_kernel_of(cover)


def test_constant_weight_kernel_matches_the_translation_test():
    # a uniform cover's kernel is G with no translation tested; the loop of
    # oracle_kernel_of is the reference
    for name in ("S3", "D4", "Q8", "A4"):
        covers = list(enumerate_uniform_covers(catalog_group(name), 5, 1))
        assert covers
        for cover in covers:
            r = kernel_of(cover)
            assert r.kernel.index == 1 and r == oracle_kernel_of(cover), cover
    # a weight that is not constant is still tested: the one coset H of S3
    # is kept by exactly the right translations in H, a proper subgroup
    G = catalog_group("S3")
    H = sub_of_size(G, 2)
    cover = CosetSystem(G, [(0, H)])
    assert weight_profile(cover).uniform_m is None
    r = kernel_of(cover)
    assert r.kernel == H and r == oracle_kernel_of(cover)


def test_kernel_union_property_exhaustive_small():
    # every uniform 1-cover of every group of order <= 8
    for G in load_catalog():
        if not 1 < G.order <= 8:
            continue
        for cov in enumerate_uniform_covers(G, 4, 1):
            r = kernel_of(cov)
            assert r.contains_intersection, cov
            assert r.union_property_verified, cov


def test_kernel_union_property_random():
    rng = random.Random(20924)
    groups = [G for G in load_catalog() if 1 < G.order <= 12]
    for _ in range(500):
        G = rng.choice(groups)
        subs = all_subgroups(G)
        k = rng.randint(1, 4)
        cov = CosetSystem(
            G, [(rng.randrange(G.order), rng.choice(subs)) for _ in range(k)]
        )
        r = kernel_of(cov)
        assert r.contains_intersection
        assert r.union_property_verified


# ----------------------------------------------------- union lower bound


def test_union_bound_c12_instance():
    G = catalog_group("C12")
    r = check_union_lower_bound(
        trivial_subgroup(G), [(0, sub_of_size(G, 6)), (1, sub_of_size(G, 4))]
    )
    assert (r.index_h, r.indices) == (12, (2, 3))
    assert r.lhs == 8 and r.rhs == 8
    assert r.hypothesis == "subnormal" and r.holds


def test_union_bound_requires_containment():
    G = catalog_group("C12")
    with pytest.raises(ValueError, match="contain H"):
        check_union_lower_bound(sub_of_size(G, 4), [(0, sub_of_size(G, 6))])


def test_union_bound_hypothesis_field():
    S3 = catalog_group("S3")
    two = sub_of_size(S3, 2)
    r = check_union_lower_bound(trivial_subgroup(S3), [(0, two)])
    # a non-subnormal entry, but S3 has a full prime-quotient series
    assert r.hypothesis == "series"
    assert r.holds
    # H of order 2 is not normal in S3, so no series starts at it
    r = check_union_lower_bound(two, [(0, two)])
    assert r.hypothesis == "none"
    assert (r.index_h, r.indices, r.lhs, r.rhs) == (3, (3,), 1, 1)


def test_union_bound_exhaustive_c12():
    # every choice of <= 2 subgroups above H, every pair of shifts; lhs
    # against the H-cosets met, counted coset by coset
    G = catalog_group("C12")
    for H in all_subgroups(G):
        above = [S for S in all_subgroups(G) if S.mask & H.mask == H.mask]
        h_cosets = [left_coset_mask(x, H) for x, _ in left_cosets(G, H)]
        for s1 in above:
            for s2 in above:
                for a in range(0, G.order, 5):
                    for b in range(0, G.order, 7):
                        r = check_union_lower_bound(H, [(a, s1), (b, s2)])
                        assert r.holds, (H, s1, s2, a, b)
                        union = left_coset_mask(a, s1) | left_coset_mask(b, s2)
                        assert r.lhs == sum(1 for c in h_cosets if c & union)


# ---------------------------------------------------- aligned union bound


def test_aligned_full_h():
    G = catalog_group("C12")
    s6 = sub_of_size(G, 6)
    r = check_aligned_union_bound(Subgroup(G, G.full_mask()), [(0, s6), (1, s6)])
    assert r.case == "a"
    assert r.lhs == 2 and r.rhs == 2 and r.holds


def test_aligned_proper_h():
    G = catalog_group("C12")
    s2, s4 = sub_of_size(G, 2), sub_of_size(G, 4)
    r = check_aligned_union_bound(s2, [(0, s4), (1, s4), (2, s4)])
    assert r.case == "a"
    assert r.index_h == 6 and r.indices == (3, 3, 3)
    assert r.lhs == 1 and r.rhs == 3 and r.holds


def test_aligned_cases_b_c_none():
    # every entry normal and H subnormal but not normal
    D4 = catalog_group("D4")
    H = sub_of_size(D4, 2)
    K = next(K for K in all_subgroups(D4) if K.size == 4 and K.mask & H.mask == H.mask)
    r = check_aligned_union_bound(H, [(0, trivial_subgroup(D4)), (0, K)])
    assert r.case == "b" and r.holds
    # every entry normal, H not subnormal, S3 over the intersection solvable
    S3 = catalog_group("S3")
    two = sub_of_size(S3, 2)
    r = check_aligned_union_bound(
        two, [(0, trivial_subgroup(S3)), (0, Subgroup(S3, S3.full_mask()))]
    )
    assert r.case == "c" and r.holds
    # a non-normal entry and a non-normal H: no case applies
    r = check_aligned_union_bound(two, [(0, trivial_subgroup(S3)), (0, two)])
    assert r.case == "none" and not r.d_both_branches
    assert (r.lhs, r.rhs) == (1, Fraction(3, 2))


def test_aligned_case_a_from_subnormal_entries():
    # the four left cosets of <(2 4)>, not normal in D4 but subnormal, as
    # in every 2-group: case a rests on subnormality alone
    D4 = catalog_group("D4")
    K = Subgroup(D4, 0b101)
    assert repr(K) == "Subgroup<0,2>" and not is_normal(K) and is_subnormal(K)
    entries = [(min(_bits(coset)), K) for coset in group.left_cosets(D4, K.mask)]
    r = check_aligned_union_bound(Subgroup(D4, D4.full_mask()), entries)
    assert r.case == "a" and r.indices == (4, 4, 4, 4)
    assert r.lhs == r.rhs == 4 and r.holds


def test_aligned_case_d_by_one_branch_on_a_non_solvable_group():
    # S5 over A5 is C2, solvable, while S5 over the trivial core of a point
    # stabilizer S4 is not: case d by the first branch alone, which fails
    # if the branches' "or" is made "and" or d_both's "and" is made "or"
    G = group_from_generators(5, ["(1 2 3 4 5)", "(1 2)"], name="S5")
    a5 = Subgroup(G, perm_mask(G, is_even))
    s4 = Subgroup(G, perm_mask(G, lambda p: p[4] == 4))
    entries = [(min(_bits(coset)), s4) for coset in group.left_cosets(G, s4.mask)]
    r = check_aligned_union_bound(a5, entries)
    assert (r.case, r.d_both_branches, r.index_h, r.indices) == ("d", False, 2, (5,) * 5)
    assert r.lhs == r.rhs == 5 and r.holds


def test_aligned_rejects_misaligned_union():
    G = catalog_group("C12")
    with pytest.raises(ValueError, match="union of left H-cosets"):
        check_aligned_union_bound(
            Subgroup(G, G.full_mask()), [(0, sub_of_size(G, 6)), (0, sub_of_size(G, 4))]
        )


def test_aligned_random_sweep():
    # any aligned instance with an applicable case must satisfy the bound
    rng = random.Random(11)
    names = ("C12", "D6", "Dic3", "C6xC2", "A4")
    seen_cases = set()
    for name in names:
        G = catalog_group(name)
        subs = all_subgroups(G)
        for _ in range(400):
            H = rng.choice(subs)
            k = rng.randint(1, 3)
            entries = [(rng.randrange(G.order), rng.choice(subs)) for _ in range(k)]
            union = 0
            for rep, sub in entries:
                union |= left_coset_mask(rep, sub)
            if not oracle_is_union_of_left_cosets(G, union, H.mask):
                with pytest.raises(ValueError, match="not a union of left H-cosets"):
                    check_aligned_union_bound(H, entries)
                continue
            r = check_aligned_union_bound(H, entries)
            seen_cases.add(r.case)
            if r.case != "none":
                assert r.holds, (name, H, entries)
    assert "a" in seen_cases and "d" in seen_cases


# --------------------------------------------------------- uniform covers


def test_uniform_c4_partition():
    r = check_uniform_cover(c4_cover())
    assert (r.m, r.k, r.indices) == (1, 3, (2, 4, 4))
    assert r.lcm_indices == 4 and r.prime_powers == ((2, 2),)
    assert (r.prime, r.alpha, r.beta) == (2, 2, 1)
    assert r.epsilon == Fraction(3, 4)
    assert r.top_multiplicity == 2
    assert r.lhs == 2 and r.rhs == 3 and r.holds
    assert r.cond_b and r.cond_c and r.big_subnormal
    assert not r.cond_a_vacuous
    assert (r.max_multiplicity, r.min_prime, r.multiplicity_floor) == (2, 2, 2)
    assert r.squarefree is None  # lcm 4 is not squarefree
    assert r.equal_pair.applicable and r.equal_pair.pair == (1, 2)


def test_uniform_s3_halves():
    G = catalog_group("S3")
    three = sub_of_size(G, 3)
    r = check_uniform_cover(CosetSystem(G, [(0, three), (1, three)]))
    assert r.indices == (2, 2) and r.m == 1
    assert (r.prime, r.alpha, r.beta) == (2, 1, 1)
    assert r.epsilon == Fraction(1, 2)
    assert r.lhs == 2 and r.rhs == 2 and r.holds
    assert r.squarefree is not None
    assert r.squarefree.product_bound == 2 and r.squarefree.holds
    assert r.equal_pair.pair == (0, 1)


def test_uniform_non_solvable_a5():
    # A5 is simple, so no core quotient is solvable and no hypothesis holds
    cover = a5_two_cover()
    assert weight_profile(cover).uniform_m == 2
    r = check_uniform_cover(cover)
    assert (r.m, r.k, r.indices) == (2, 11, (5,) * 5 + (6,) * 6)
    assert not (r.cond_a or r.cond_b or r.cond_c or r.applicable)
    assert r.lhs == 5 and r.rhs == 10 and r.holds


def test_uniform_requires_uniform():
    G = catalog_group("C4")
    two = sub_of_size(G, 2)
    with pytest.raises(ValueError):
        check_uniform_cover(CosetSystem(G, [(0, two), (1, two), (3, two)]))
    with pytest.raises(ValueError):
        check_uniform_cover(CosetSystem(G, [(0, Subgroup(G, G.full_mask()))]))


def test_max_index_probe():
    r = probe_max_index_multiplicity(c4_cover())
    assert (r.n_max, r.multiplicity, r.least_prime) == (4, 2, 2)
    assert r.all_subnormal and r.holds


def test_probe_first_on_fresh_groups_matches_the_oracles():
    # on groups built here, with empty memos, every probe runs before any
    # check_uniform_cover, so the probe reads subnormality first itself;
    # S3's non-normal order-2 subgroup is not subnormal, nor is it times C5
    # in S3xC5, where the index-5 S3 beside it is (big_subnormal holds)
    S3 = group_from_generators(3, ["(1 2 3)", "(1 2)"], name="S3")
    D4 = group_from_generators(4, ["(1 2 3 4)", "(1 3)"], name="D4")
    S3xC5 = group_from_generators(8, ["(1 2 3)", "(1 2)", "(4 5 6 7 8)"], name="S3xC5")
    fresh = [CosetSystem(S3, left_cosets(S3, sub_of_size(S3, 2)))]
    fresh += [*enumerate_uniform_covers(S3, 4, 1), *enumerate_uniform_covers(D4, 5, 2)]
    fresh.append(CosetSystem(S3xC5, left_cosets(S3xC5, sub_of_size(S3xC5, 10, 1))
                             + left_cosets(S3xC5, sub_of_size(S3xC5, 6))))
    assert not any(fact == "subnormal" for G in (S3, D4, S3xC5) for fact, _ in G._memo)
    probes = [probe_max_index_multiplicity(cover) for cover in fresh]
    for cover, probe in zip(fresh, probes):
        assert probe == oracle_probe_max_index_multiplicity(cover)
        assert check_uniform_cover(cover) == oracle_check_uniform_cover(cover)
        assert cover.canonical().indices() == tuple(sorted(cover.indices()))
    assert not probes[0].all_subnormal and probes[0].n_max == 3
    assert not probes[-1].all_subnormal and check_uniform_cover(fresh[-1]).big_subnormal
    assert {probe.all_subnormal for probe in probes} == {False, True}


# ------------------------------------------------------------ enumeration


def oracle_covers(G, k_max, m):
    """(covers, nodes) by a nondecreasing walk over the canonical
    coset order, pruned on the remaining mass and on elements no later
    coset can reach: an independent reference for enumerate_uniform_covers."""
    choices = []
    for sub in all_subgroups(G):
        seen = 0
        for x in range(G.order):
            if seen >> x & 1:
                continue
            mask = left_coset_mask(x, sub)
            seen |= mask
            choices.append((sub.index, sub.mask, x, mask, sub))
    choices.sort(key=lambda t: t[:3])
    suffix = [0] * (len(choices) + 1)
    for i in range(len(choices) - 1, -1, -1):
        suffix[i] = suffix[i + 1] | choices[i][3]
    w = [0] * G.order
    picked = []
    covers = []
    nodes = 0

    def rec(pos, mass):
        nonlocal nodes
        if mass == 0:
            if any(sub.index > 1 for _, sub in picked):
                covers.append(CosetSystem(G, tuple(picked)))
            return
        if len(picked) == k_max:
            return
        slots = k_max - len(picked)
        need = sum(1 << x for x in range(G.order) if w[x] < m)
        for i in range(pos, len(choices)):
            idx, _, rep, cmask, sub = choices[i]
            nodes += 1
            if need & ~suffix[i]:
                return
            size = G.order // idx
            if mass > slots * size:
                return
            if any(w[x] == m for x in _bits(cmask)):
                continue
            picked.append((rep, sub))
            for x in _bits(cmask):
                w[x] += 1
            rec(i, mass - size)
            for x in _bits(cmask):
                w[x] -= 1
            picked.pop()

    rec(0, m * G.order)
    return covers, nodes


def test_enumerate_c2():
    stream = enumerate_uniform_covers(catalog_group("C2"), 4, 1)
    covs = list(stream)
    assert [c.indices() for c in covs] == [(2, 2)]
    assert stream.nodes == 4 and not stream.truncated
    covs, nodes = oracle_covers(catalog_group("C2"), 4, 1)
    assert [c.indices() for c in covs] == [(2, 2)]
    assert nodes == 5


def test_enumerate_matches_oracle_catalog():
    # the sweep's sizes, same covers in the same order
    for G in load_catalog():
        k = 5 if G.order <= 12 else 4
        got = list(enumerate_uniform_covers(G, k, 1))
        assert got == oracle_covers(G, k, 1)[0], G.name


def test_enumerate_matches_oracle_m2():
    for name, k in (("C6", 6), ("S3", 6), ("D4", 6), ("C2xC2xC2", 6), ("Q8", 5)):
        G = catalog_group(name)
        got = list(enumerate_uniform_covers(G, k, 2))
        assert got == oracle_covers(G, k, 2)[0], name


def test_enumerate_c4():
    covs = list(enumerate_uniform_covers(catalog_group("C4"), 4, 1))
    shapes = sorted(c.indices() for c in covs)
    assert shapes == [(2, 2), (2, 4, 4), (2, 4, 4), (4, 4, 4, 4)]


def test_enumerate_s3_counts():
    from collections import Counter

    covs = list(enumerate_uniform_covers(catalog_group("S3"), 6, 1))
    assert len(covs) == 37
    by_shape = Counter(c.indices() for c in covs)
    assert by_shape[(2, 2)] == 1
    assert by_shape[(3, 3, 3)] == 6
    assert by_shape[(2, 6, 6, 6)] == 2
    assert by_shape[(3, 3, 6, 6)] == 18
    assert by_shape[(3, 6, 6, 6, 6)] == 9
    assert by_shape[(6, 6, 6, 6, 6, 6)] == 1


def test_enumerate_canonical_and_distinct():
    for name, k, m in (("C4", 4, 1), ("S3", 4, 1), ("D4", 4, 2)):
        seen = set()
        for cov in enumerate_uniform_covers(catalog_group(name), k, m):
            assert weight_profile(cov).uniform_m == m
            assert not weight_profile(cov).is_trivial
            assert cov.canonical() == cov
            key = tuple(sorted(zip(cov.masks, (s.mask for _, s in cov.entries))))
            assert key not in seen
            seen.add(key)


def test_enumerate_budget_truncation():
    G = catalog_group("D4")
    full = list(enumerate_uniform_covers(G, 6, 2))
    for budget in (50, 5000):
        stream = enumerate_uniform_covers(G, 6, 2, node_budget=budget)
        covs = list(stream)
        assert stream.truncated
        assert stream.nodes == budget + 1
        # the covers found before the stop, in the full run's order
        assert covs == [c for c in full if c in covs]
    assert len(covs) > 0


# (enumeration nodes, partition search nodes) of every catalog group at the
# sweep's sizes: k = 5 up to order 12, k = 4 above, SD16 at k = 8, m = 2
CATALOG_NODES = {
    "C1": (1, 0), "C2": (4, 0), "C3": (6, 0), "C2xC2": (44, 0), "C4": (16, 0),
    "C5": (10, 0), "C6": (46, 5), "S3": (193, 11), "C7": (1, 0),
    "C2xC2xC2": (6961, 0), "C4xC2": (640, 0), "C8": (74, 0), "D4": (2149, 0),
    "Q8": (184, 0), "C3xC3": (155, 0), "C9": (23, 0), "C10": (22, 0),
    "D5": (1345, 0), "C11": (1, 0), "A4": (2307, 0), "C12": (296, 25),
    "C6xC2": (1368, 97), "D6": (11023, 151), "Dic3": (864, 31), "C13": (1, 0),
    "C14": (6, 0), "D7": (12, 0), "C15": (18, 0), "(C2xC2):C4": (7527, 0),
    "C16": (62, 0), "C2xC2xC2xC2": (202096, 0), "C4:C4": (2276, 0),
    "C4oD4": (7762, 0), "C4xC2xC2": (12434, 0), "C4xC4": (2090, 0),
    "C8xC2": (719, 0), "D4xC2": (24806, 0), "D8": (2948, 0), "M16": (720, 0),
    "Q16": (1007, 0), "Q8xC2": (4775, 0), "SD16": (999857, 0),
}  # fmt: skip


def test_node_counts_are_pinned_on_the_catalog():
    for G in load_catalog():
        k, m = (8, 2) if G.name == "SD16" else ((5, 1) if G.order <= 12 else (4, 1))
        stream = enumerate_uniform_covers(G, k, m)
        for _ in stream:
            pass
        got = stream.nodes, search_distinct_index_partition(G).nodes_explored
        assert got == CATALOG_NODES[G.name], G.name


def test_budget_cuts_keep_the_covers_found_before_them():
    # SD16 (8, 2) cut at three budgets: the covers and their order, pinned
    # as a digest of their (representative, subgroup mask) entries
    G = catalog_group("SD16")
    for budget, count, digest in (
        (50, 4, "0bc7679007a75113"),
        (777, 42, "3866c8621e814823"),
        (5000, 236, "3e36742f72b784bc"),
    ):
        stream = enumerate_uniform_covers(G, 8, 2, node_budget=budget)
        covers = [[(rep, sub.mask) for rep, sub in c.entries] for c in stream]
        assert stream.truncated and stream.nodes == budget + 1
        assert len(covers) == count
        assert hashlib.sha256(repr(covers).encode()).hexdigest()[:16] == digest


def test_enumerate_yields_before_the_search_ends():
    # 5000 nodes cut D4 (6, 2) short but finish the covers holding the
    # whole group (least position 0), so the first cover comes before the cut
    stream = enumerate_uniform_covers(catalog_group("D4"), 6, 2, node_budget=5000)
    it = iter(stream)
    assert next(it).indices()[0] == 1 and not stream.truncated
    rest = list(it)
    assert stream.truncated and len(rest) == 337


def test_enumerate_rejects():
    from coverlab.group import cyclic_group

    with pytest.raises(ValueError, match="k_max"):
        enumerate_uniform_covers(catalog_group("C4"), 0, 1)
    with pytest.raises(ValueError, match="k_max"):
        enumerate_uniform_covers(catalog_group("C16"), 9, 1)
    with pytest.raises(ValueError, match="order"):
        enumerate_uniform_covers(cyclic_group(30), 4, 1)


# ---------------------------------------------------- exact-cover engine


def oracle_exact_covers(n_items, masks, m, k_max, nodes):
    """The engine one node at a time: each option of a row is tried and
    counted in turn, a blocked one included, and the child's first live
    option is found by a linear scan.  The reference for _exact_covers."""
    if m > k_max:
        return
    sizes = [mask.bit_count() for mask in masks]
    holders = [[i for i, mk in enumerate(masks) if mk >> x & 1] for x in range(n_items)]
    n_opts, steps = len(masks), range(1, m + 1)
    picked = []

    def rec(level, mass, live, last_item, last_pick):
        top = level[m]
        if picked:
            x = (~top & (top + 1)).bit_length() - 1
            row = holders[x]
            row = row[bisect_left(row, last_pick if x == last_item else picked[0]) :]
        else:
            x, row = -1, [i for i in range(n_opts) if mass <= k_max * sizes[i]]
        slots = k_max - len(picked) - 1
        for i in row:
            nodes.spent += 1
            if nodes.spent > nodes.budget:
                raise SearchBudgetError(f"{nodes.what} exceeded {nodes.budget} nodes")
            mask = masks[i]
            if mask & top:
                continue
            rest = mass - sizes[i]
            if not rest:
                yield tuple(sorted(picked + [i]))
                continue
            blocked, nxt = top | level[m - 1] & mask, live if picked else i
            while nxt < n_opts and masks[nxt] & blocked:
                nxt += 1
            if nxt < n_opts and rest <= slots * sizes[nxt]:
                picked.append(i)
                new = [-1] + [level[j] | level[j - 1] & mask for j in steps]
                yield from rec(new, rest, nxt, x, i)
                picked.pop()

    if masks and m * n_items <= k_max * sizes[0]:
        yield from rec([-1] + [0] * m, m * n_items, 0, -1, 0)


class CheckLog:
    """Stands in for _Nodes with no budget, logging the count at each
    check against the budget: one run shows where a run at any budget
    would be cut."""

    what = "logged run"

    def __init__(self):
        self.spent, self.checks = 0, []

    @property
    def budget(self):
        self.checks.append(self.spent)
        return math.inf


def logged_run(engine, *args):
    """(covers, the count at the last check before each, the final count)."""
    nodes = CheckLog()
    covers, before = [], []
    for picks in engine(*args, nodes):
        covers.append(picks)
        before.append(nodes.checks[-1])
    # the count only grows, and the last nodes are checked too
    assert nodes.checks == sorted(nodes.checks)
    assert nodes.checks[-1:] == ([nodes.spent] if nodes.spent else [])
    return covers, before, nodes.spent


def budgeted_run(engine, *args, budget):
    """(covers, final count, whether the budget cut the run)."""
    nodes = _Nodes(budget, "differential run")
    covers = []
    try:
        for picks in engine(*args, nodes):
            covers.append(picks)
    except SearchBudgetError:
        return covers, nodes.spent, True
    return covers, nodes.spent, False


def assert_engine_matches_oracle(*args):
    """The same covers in the same order and the same final count, and at
    each budget from 1 to that count the same cut after the same covers.
    Equal logs show it for every budget, since a run is cut at its first
    check past the budget; budgeted runs of both engines confirm it, with
    the count at budget + 1, at every budget up to 1000 nodes and past
    that (where they would be quadratic in the count) at every 499th
    budget and at the count of every 20th cover and the one before it."""
    covers, before, total = logged_run(oracle_exact_covers, *args)
    assert logged_run(gcover._exact_covers, *args) == (covers, before, total)
    budgets = range(1, total + 1) if total <= 1000 else sorted(
        {*range(1, total, 499), *(b + d for b in before[::20] for d in (-1, 0)), total}
    )
    for budget in budgets:
        want = covers[: bisect_right(before, budget)], min(budget + 1, total), budget < total
        assert budgeted_run(oracle_exact_covers, *args, budget=budget) == want
        assert budgeted_run(gcover._exact_covers, *args, budget=budget) == want
    return covers, total


def coset_masks(G):
    return [c[3] for c in gcover._cosets(G, all_subgroups(G))]


@pytest.mark.parametrize("name, k, m, counts", [
    ("S3", 5, 2, (35, 351)), ("D4", 6, 2, (598, 10234)), ("C2xC2xC2", 5, 1, (673, 6961)),
])
def test_engine_matches_the_oracle_at_every_budget(name, k, m, counts):
    G = catalog_group(name)
    covers, total = assert_engine_matches_oracle(G.order, coset_masks(G), m, k)
    assert (len(covers), total) == counts


def test_engine_matches_the_oracle_on_the_labelled_path(monkeypatch):
    # m = 1 with a label item per index: every call the partition search
    # makes, two index sets on each group
    engine, calls = gcover._exact_covers, []

    def recorded(*args):
        calls.append(args[:4])
        return engine(*args)

    monkeypatch.setattr(gcover, "_exact_covers", recorded)
    for name in ("D6", "C6xC2"):
        search_distinct_index_partition(catalog_group(name))
    monkeypatch.undo()
    assert len(calls) == 4
    for args in calls:
        assert_engine_matches_oracle(*args)


def test_engine_matches_the_oracle_on_sd16():
    args = 16, coset_masks(catalog_group("SD16")), 2, 8
    want = budgeted_run(oracle_exact_covers, *args, budget=DEFAULT_NODE_BUDGET)
    assert budgeted_run(gcover._exact_covers, *args, budget=DEFAULT_NODE_BUDGET) == want
    assert (len(want[0]), want[1]) == (26315, 999857)  # one is the whole group twice


# --------------------------------------------------- distinct-index hunt


def test_feasible_sets():
    assert feasible_distinct_index_sets(4) == []
    assert feasible_distinct_index_sets(12) == [(2, 3, 6), (2, 4, 6, 12)]
    f24 = feasible_distinct_index_sets(24)
    assert len(f24) == 5
    assert (2, 3, 6) in f24 and (3, 4, 6, 8, 12, 24) in f24
    for s in f24:
        assert sum(Fraction(1, d) for d in s) == 1
        assert len(set(s)) == len(s) >= 2


def test_search_all_small_groups_empty_handed():
    for G in load_catalog():
        if G.order > 12:
            continue
        r = search_distinct_index_partition(G)
        assert r.found is None, G.name
        for ms in r.index_multisets_tried:
            assert sum(Fraction(1, d) for d in ms) == 1


def oracle_search(G):
    """(found, nodes, index sets tried) by placing, at the least uncovered
    element, the coset of each subgroup whose index is still unused: an
    independent reference for search_distinct_index_partition."""
    by_index = {}
    for sub in all_subgroups(G):
        by_index.setdefault(sub.index, []).append(sub)
    full = G.full_mask()
    nodes = 0
    tried = []

    def place(covered, remaining, picked):
        nonlocal nodes
        if covered == full:
            return picked if not remaining else None
        x = (~covered & full & -(~covered & full)).bit_length() - 1
        for pos, d in enumerate(remaining):
            for sub in by_index.get(d, ()):
                nodes += 1
                cmask = left_coset_mask(x, sub)
                if cmask & covered:
                    continue
                got = place(
                    covered | cmask,
                    remaining[:pos] + remaining[pos + 1 :],
                    picked + [(x, sub)],
                )
                if got is not None:
                    return got
        return None

    for S in feasible_distinct_index_sets(G.order):
        tried.append(S)
        if any(d not in by_index for d in S):
            continue
        got = place(0, S, [])
        if got is not None:
            return CosetSystem(G, tuple(got)).canonical(), nodes, tuple(tried)
    return None, nodes, tuple(tried)


def test_search_d6_trace():
    r = search_distinct_index_partition(catalog_group("D6"))
    assert r.group == "D6" and r.found is None
    assert r.index_multisets_tried == ((2, 3, 6), (2, 4, 6, 12))
    assert r.nodes_explored == 151
    assert oracle_search(catalog_group("D6")) == (None, 750, r.index_multisets_tried)


def test_search_matches_oracle_catalog():
    for G in load_catalog():
        r = search_distinct_index_partition(G)
        found, _, tried = oracle_search(G)
        assert (r.found, r.index_multisets_tried) == (found, tried), G.name


def test_search_finds_repeated_index_partition():
    # Herzog-Schoenheim rules out distinct indices, so the positive
    # control is a label set with a repeated index: C4 = <2> + {1} + {3}
    G = catalog_group("C4")
    counter = _Nodes(DEFAULT_NODE_BUDGET, "test")
    got = _partition_with_indices(G, all_subgroups(G), (2, 4, 4), counter)
    assert got == c4_cover().canonical()
    assert weight_profile(got).is_partition
    assert _partition_with_indices(G, all_subgroups(G), (2, 2, 4), counter) is None


def test_search_budget():
    with pytest.raises(SearchBudgetError, match="partition search on D6 exceeded 10 nodes"):
        search_distinct_index_partition(catalog_group("D6"), node_budget=10)


# ------------------------------------------------- differential oracles
#
# The per-element versions of the per-cover checks: each recomputes the
# coset masks, counts weights one element at a time, factors every index
# and tests coset unions element by element.


def oracle_masks(cover):
    G = cover.parent
    return tuple(left_coset_mask(rep, sub) for rep, sub in cover.entries)


def oracle_weight_profile(cover):
    G = cover.parent
    counts = [0] * G.order
    for mask in oracle_masks(cover):
        for x in _bits(mask):
            counts[x] += 1
    lo = min(counts)
    hi = max(counts)
    return WeightProfile(
        counts=tuple(counts),
        min_w=lo,
        max_w=hi,
        covered=sum(1 for c in counts if c),
        uniform_m=lo if lo == hi else None,
        is_cover=lo >= 1,
        is_partition=lo == hi == 1,
        is_trivial=all(sub.index == 1 for _, sub in cover.entries),
    )


def oracle_is_union_of_left_cosets(G, union, sub_mask):
    members = list(_bits(sub_mask))
    for g in _bits(union):
        row = G.table[g]
        for d in members:
            if not union >> row[d] & 1:
                return False
    return True


def oracle_kernel_of(cover):
    G = cover.parent
    masks = oracle_masks(cover)
    w = oracle_weight_profile(cover).counts
    kmask = 0
    for x in range(G.order):
        col = [row[x] for row in G.table]
        if all(w[col[g]] == w[g] for g in range(G.order)):
            kmask |= 1 << x
    kernel = Subgroup(G, kmask)

    inter = G.full_mask()
    for _, sub in cover.entries:
        inter &= sub.mask
    contains = kmask & inter == inter

    k = len(masks)
    capped = k > KERNEL_SUBSET_CAP
    scope = min(k, KERNEL_SUBSET_CAP)
    ok = True
    checked = 0
    for bits in range(1, 1 << scope):
        union = 0
        for i in range(scope):
            if bits >> i & 1:
                union |= masks[i]
        dmask = kmask
        for j in range(k):
            if not (j < scope and bits >> j & 1):
                dmask &= cover.entries[j][1].mask
        checked += 1
        if not oracle_is_union_of_left_cosets(G, union, dmask):
            ok = False
            break
    return KernelReport(
        kernel=kernel,
        contains_intersection=contains,
        union_property_verified=ok,
        subsets_checked=checked,
        capped=capped,
    )


def oracle_require_nontrivial_uniform(cover):
    prof = oracle_weight_profile(cover)
    if prof.uniform_m is None or prof.uniform_m == 0:
        raise ValueError("system is not a uniform cover")
    if prof.is_trivial:
        raise ValueError("system is trivial (every subgroup is the whole group)")
    return prof


def oracle_check_uniform_cover(cover):
    prof = oracle_require_nontrivial_uniform(cover)
    G = cover.parent
    ns = tuple(sub.index for _, sub in cover.entries)
    N = math.lcm(*ns)
    pp = factorize(N).pairs
    p_r, alpha_r = pp[-1]
    r = len(pp)

    orders = [ord_of(n, p_r) for n in ns]
    beta = min(o for o in orders if o > 0)
    epsilon = 1 - Fraction(1, p_r ** (alpha_r - beta + 1))
    for p, a in pp[:-1]:
        epsilon *= 1 - Fraction(1, p ** (a + 1))
    counts = Counter(ns)
    top_mult = max(counts[n] for n in counts if n % p_r == 0)
    mert = euler_product(p for p, _ in pp)
    lhs = Fraction(p_r**beta)
    rhs = epsilon * top_mult * mert

    top = [sub for (_, sub), o in zip(cover.entries, orders) if o > 0]
    rest = [sub for (_, sub), o in zip(cover.entries, orders) if o == 0]
    distinct = {sub.mask: sub for _, sub in cover.entries}
    subnormal = {m: is_subnormal(sub) for m, sub in distinct.items()}
    subn_top = all(subnormal[s.mask] for s in top)
    cond_a_vacuous = False
    if subn_top:
        cond_a = True
    else:
        solv_top = all(is_solvable(quotient_group(core_of(s))) for s in top)
        solv_rest = all(is_solvable(quotient_group(core_of(s))) for s in rest)
        cond_a = solv_top or solv_rest
        cond_a_vacuous = cond_a and not solv_top and not rest

    cond_b = True
    for sub in rest:
        if sub.index > p_r and not subnormal[sub.mask]:
            if not has_normal_sylow(quotient_group(core_of(sub)), p_r):
                cond_b = False
                break

    icore = G.full_mask()
    for sub in distinct.values():
        icore &= core_of(sub).mask
    Q = quotient_group(Subgroup(G, icore))
    p_bar = factorize(Q.order).pairs[-1][0]
    q_solvable = is_solvable(Q)
    cond_c = q_solvable and has_normal_sylow(Q, p_bar)

    squarefree = None
    if factorize(G.order).is_squarefree():
        num = 1
        den = 1
        for p, _ in pp:
            num *= p
        for p, _ in pp[:-1]:
            den *= p + 1
        squarefree = SquarefreeBound(
            product_bound=Fraction(num, den),
            weak_bound=max(Fraction(pp[0][0]), Fraction(2 * p_r, r + 1)),
            multiplicity=top_mult,
        )

    big_subn = all(subnormal[sub.mask] for _, sub in cover.entries if sub.index >= p_r)
    via_subnormal = p_r > r and big_subn
    via_sylow = p_r > r and q_solvable and has_normal_sylow(Q, p_r)
    pair = None
    if top_mult >= 2:
        witness = next(n for n in counts if n % p_r == 0 and counts[n] == top_mult)
        pos = [i for i, n in enumerate(ns) if n == witness]
        pair = (pos[0], pos[1])
    equal_pair = EqualPairReport(
        prime=p_r,
        applicable=(via_subnormal or via_sylow) and Q.order % p_r == 0,
        via_subnormal=via_subnormal,
        via_sylow=via_sylow,
        pair=pair,
    )

    shrink = p_r / mert
    return UniformCoverReport(
        m=prof.uniform_m,
        k=len(cover),
        indices=tuple(sorted(ns)),
        lcm_indices=N,
        prime_powers=tuple(pp),
        prime=p_r,
        alpha=alpha_r,
        beta=beta,
        epsilon=epsilon,
        top_multiplicity=top_mult,
        lhs=lhs,
        rhs=rhs,
        cond_a=cond_a,
        cond_a_vacuous=cond_a_vacuous,
        cond_b=cond_b,
        cond_c=cond_c,
        big_subnormal=big_subn,
        max_multiplicity=max(counts.values()),
        min_prime=pp[0][0],
        multiplicity_floor=1 + math.floor(shrink),
        squarefree=squarefree,
        equal_pair=equal_pair,
    )


def oracle_probe_max_index_multiplicity(cover):
    oracle_require_nontrivial_uniform(cover)
    G = cover.parent
    ns = tuple(sub.index for _, sub in cover.entries)
    n_max = max(ns)
    return MaxIndexReport(
        n_max=n_max,
        multiplicity=sum(1 for n in ns if n == n_max),
        least_prime=least_prime(n_max),
        all_subnormal=all(
            is_subnormal(sub) for _, sub in cover.entries
        ),
    )


def assert_matches_oracles(cover, kernel=True):
    assert cover.masks == oracle_masks(cover)
    assert cover.indices() == tuple(sub.index for _, sub in cover.entries)
    assert weight_profile(cover) == oracle_weight_profile(cover)
    if kernel:
        assert kernel_of(cover) == oracle_kernel_of(cover)
    try:
        want = oracle_check_uniform_cover(cover), oracle_probe_max_index_multiplicity(cover)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            check_uniform_cover(cover)
        with pytest.raises(ValueError, match=re.escape(str(e))):
            probe_max_index_multiplicity(cover)
        return None
    got = check_uniform_cover(cover), probe_max_index_multiplicity(cover)
    assert got == want, cover
    return got[0]


def test_checks_match_oracles_on_the_sweep_catalog():
    # every cover the sweep checks, at its sizes, SD16 aside
    for G in load_catalog():
        if G.name == "SD16":
            continue
        k = 5 if G.order <= 12 else 4
        for cover in enumerate_uniform_covers(G, k, 1):
            assert_matches_oracles(cover)


def test_checks_match_oracles_on_sd16_sample():
    covers = list(enumerate_uniform_covers(catalog_group("SD16"), 8, 2))
    assert len(covers) == 26314
    for cover in covers[::97]:
        assert_matches_oracles(cover)


def test_covers_of_one_subgroup_sequence_share_their_reports():
    # every SD16 (8, 2) cover against its entries rebuilt with nothing handed
    # over, which compute their own reports; the enumerated covers of one
    # subgroup sequence (in entry order) return one report object each
    G = catalog_group("SD16")
    first, n = {}, 0
    for n, cover in enumerate(enumerate_uniform_covers(G, 8, 2), 1):
        got = check_uniform_cover(cover), probe_max_index_multiplicity(cover)
        rebuilt = CosetSystem(G, cover.entries)
        assert got == (check_uniform_cover(rebuilt), probe_max_index_multiplicity(rebuilt))
        want = first.setdefault(tuple(sub.mask for _, sub in cover.entries), got)
        assert got[0] is want[0] and got[1] is want[1]
    assert (n, len(first)) == (26314, 2867)
    assert check_uniform_cover(rebuilt) is not got[0]


def test_checks_match_oracles_on_random_systems():
    # non-uniform systems, most with uncovered elements, and systems past
    # the kernel's subset cap
    rng = random.Random(8)
    groups = [G for G in load_catalog() if 1 < G.order <= 16]
    uncovered = capped = 0
    for trial in range(300):
        G = rng.choice(groups)
        subs = all_subgroups(G)
        k = KERNEL_SUBSET_CAP + 1 if trial % 50 == 0 else rng.randint(1, 5)
        cover = CosetSystem(
            G, [(rng.randrange(G.order), rng.choice(subs)) for _ in range(k)]
        )
        uncovered += weight_profile(cover).covered < G.order
        capped += kernel_of(cover).capped
        assert_matches_oracles(cover)
    assert uncovered > 100 and capped == 6


def test_checks_match_oracles_in_any_entry_order():
    # the equal pair names entry positions, so it depends on the order the
    # cached arithmetic does not see: (2, 2, 3, 3, 6, 6) read backwards
    # takes its witness from the 6s instead of the 3s
    rng = random.Random(2)
    moved = 0
    for name in ("C6", "S3", "D4"):
        for cover in enumerate_uniform_covers(catalog_group(name), 6, 2):
            entries = list(cover.entries)
            for order in (entries[::-1], rng.sample(entries, len(entries))):
                shuffled = CosetSystem(cover.parent, tuple(order))
                r = assert_matches_oracles(shuffled, kernel=False)
                moved += r.equal_pair.pair != check_uniform_cover(cover).equal_pair.pair
    assert moved > 0


def test_masks_handed_over_match_the_cosets():
    G = catalog_group("D4")
    for cover in enumerate_uniform_covers(G, 5, 1):
        assert cover.masks == oracle_masks(cover)
        assert cover.canonical().masks == oracle_masks(cover.canonical())


def test_checking_a_cover_costs_no_coset_walk_and_no_factorization(monkeypatch):
    G = catalog_group("D4")
    reports = [oracle_check_uniform_cover(c) for c in enumerate_uniform_covers(G, 5, 1)]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # a walk runs in gcover (a system's masks) or in group (a partition)
    monkeypatch.setattr(gcover, "left_coset_mask", counted("coset", left_coset_mask))
    monkeypatch.setattr(group, "left_coset_mask", counted("coset", left_coset_mask))
    monkeypatch.setattr(gcover, "factorize", counted("factorize", factorize))
    gcover._index_arithmetic.cache_clear()
    # the coset partitions are group memo facts from the first enumeration
    covers = list(enumerate_uniform_covers(G, 5, 1))
    assert len(covers) == 248
    for cover, want in zip(covers, reports):
        assert check_uniform_cover(cover) == want
        probe_max_index_multiplicity(cover)
        kernel_of(cover)
        weight_profile(cover)
    assert calls["coset"] == 0
    tuples = {r.indices for r in reports}
    quotient_orders = {G.order}  # the group order's squarefree test
    for cover in covers:
        icore = G.full_mask()
        for _, sub in cover.entries:
            icore &= core_of(sub).mask
        quotient_orders.add(G.order // icore.bit_count())
    assert 0 < calls["factorize"] <= len(tuples) + len(quotient_orders)
    assert len(covers) > 10 * (len(tuples) + len(quotient_orders))


def test_three_checks_of_one_cover_sum_one_profile(monkeypatch):
    calls = []

    def counted(planes, masks):
        calls.append(len(masks))
        return levels.add(planes, masks)

    monkeypatch.setattr(gcover, "add", counted)
    for cover in enumerate_uniform_covers(catalog_group("D4"), 5, 1):
        # an enumerated cover is handed the profile the search proved, and
        # the same entries built by hand sum theirs once
        for system, want in ((cover, []), (CosetSystem(cover.parent, cover.entries), [len(cover)])):
            calls.clear()
            check_uniform_cover(system)
            probe_max_index_multiplicity(system)
            kernel_of(system)
            assert calls == want


def test_flags_are_computed_once_per_subgroup_sequence(monkeypatch):
    # the flags are part of the check's report, computed once per subgroup
    # sequence of a D4 stream from its distinct subgroups, and never by the
    # probe; a 2-cover with three subgroups whose equal pair opens it, read
    # backwards, is a new sequence with the same flags and another pair
    G = catalog_group("D4")
    calls = []
    set_flags = gcover._set_flags
    monkeypatch.setattr(gcover, "_set_flags", lambda *args: calls.append(args) or set_flags(*args))
    covers = list(enumerate_uniform_covers(G, 6, 2))
    for cover in covers:
        probe_max_index_multiplicity(cover)
    assert calls == []
    reports = [check_uniform_cover(cover) for cover in covers]
    sequences = {tuple(sub.mask for _, sub in cover.entries) for cover in covers}
    assert len(calls) == len(sequences) < len(covers)
    assert all(len({sub.mask for sub in subs}) == len(subs) for _, subs, _ in calls)
    cover, report = next(
        (c, r) for c, r in zip(covers, reports)
        if len({sub.mask for _, sub in c.entries}) == 3 and r.equal_pair.pair == (0, 1)
    )
    calls.clear()
    backwards = CosetSystem(G, cover.entries[::-1])
    moved = check_uniform_cover(backwards)
    assert len(calls) == 1 and moved == oracle_check_uniform_cover(backwards)
    assert moved.equal_pair.pair != (0, 1)
    assert moved._replace(equal_pair=None) == report._replace(equal_pair=None)
    assert moved.equal_pair._replace(pair=None) == report.equal_pair._replace(pair=None)


def test_subgroup_facts_of_a_cover_check_are_the_group_memos(monkeypatch):
    # gcover keeps only the group order's squarefree test in a group's
    # memo; a subgroup's core, subnormality and quotient are memoized by
    # group alone, and every report lives in its sequence's record
    plain = group.FiniteGroup.memo
    keepers = set()

    def memo(G, fact, *rest):
        keepers.add((sys._getframe(1).f_globals["__name__"], fact))
        return plain(G, fact, *rest)

    monkeypatch.setattr(group.FiniteGroup, "memo", memo)
    G = group_from_generators(4, ["(1 2 3 4)", "(1 3)"], name="D4")
    for cover in enumerate_uniform_covers(G, 5, 2):
        check_uniform_cover(cover)
        probe_max_index_multiplicity(cover)
    assert {fact for keeper, fact in keepers if keeper == "coverlab.gcover"} == {"squarefree"}
    assert {"core", "subnormal", "quotient"} <= {fact for _, fact in keepers}


def test_cover_checks_enumerate_no_quotients_lattice(monkeypatch):
    # solvability and normal Sylow subgroups of G over a core are read
    # from element orders and commutators: only G's own lattice is built
    lattices = []
    lattice = group._lattice
    monkeypatch.setattr(group, "_lattice", lambda K: lattices.append(K) or lattice(K))
    # a fresh catalog: C4 below has no quotient memoized by an earlier test
    monkeypatch.setattr(group, "_catalog_cache", None)
    G = group_from_generators(4, ["(1 2 3 4)", "(1 3)"], name="D4")
    covers = list(enumerate_uniform_covers(G, 6, 1))
    assert len(covers) == 358
    for cover in covers:
        check_uniform_cover(cover)
        probe_max_index_multiplicity(cover)
    assert lattices == [G]
    lattices.clear()
    assert main(["uniform-cover", "group C4\n0 : 2\n1 : 2\n"]) == 0
    assert lattices == []


# ------------------------------------------- non-solvable uniform covers


def perm_mask(G, keep):
    return sum(1 << x for x in range(G.order) if keep(G.perms[x]))


def is_even(perm):
    seen, swaps = set(), 0
    for start in range(len(perm)):
        x, length = start, 0
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        swaps += max(length - 1, 0)
    return swaps % 2 == 0


def s5_two_cover():
    """The 2 cosets of A5 and the 5 of a point stabilizer S4 in S5."""
    G = group_from_generators(5, ["(1 2 3 4 5)", "(1 2)"], name="S5")
    a5 = Subgroup(G, perm_mask(G, is_even))
    s4 = Subgroup(G, perm_mask(G, lambda p: p[4] == 4))
    return CosetSystem(G, left_cosets(G, a5) + left_cosets(G, s4))


def psl27_two_cover():
    """The 7 cosets of a point stabilizer (index 7) and the 8 of a Sylow
    7-normalizer (index 8) in PSL(2,7), 15 entries: past the subset cap."""
    G = group_from_generators(7, ["(1 2 3 4 5 6 7)", "(1 2)(3 6)"], name="PSL(2,7)")
    stab = Subgroup(G, perm_mask(G, lambda p: p[0] == 0))
    return CosetSystem(G, left_cosets(G, stab) + left_cosets(G, sub_of_size(G, 21)))


def test_uniform_non_solvable_s5():
    cover = s5_two_cover()
    r = assert_matches_oracles(cover)
    assert (r.m, r.indices) == (2, (2, 2, 5, 5, 5, 5, 5))
    # A5 is normal of index 2 with a solvable quotient: cond_a holds through
    # the rest while the S4 cosets have the non-solvable S5 over their core
    assert r.cond_a and not r.cond_a_vacuous and r.cond_b and not r.cond_c
    assert r.applicable and r.holds
    assert (r.lhs, r.rhs) == (5, Fraction(15, 2))
    assert r.squarefree is None and r.equal_pair.pair == (2, 3)
    assert not r.equal_pair.applicable
    probe = probe_max_index_multiplicity(cover)
    assert (probe.n_max, probe.multiplicity, probe.least_prime) == (5, 5, 5)
    assert not probe.all_subnormal
    k = kernel_of(cover)
    assert k.kernel.index == 1 and k.union_property_verified and not k.capped


def test_uniform_non_solvable_psl27():
    cover = psl27_two_cover()
    r = assert_matches_oracles(cover)
    assert (r.m, r.k, r.indices) == (2, 15, (7,) * 7 + (8,) * 8)
    assert not (r.cond_a or r.cond_b or r.cond_c or r.applicable)
    assert r.lhs == 7 and r.holds
    k = kernel_of(cover)
    assert k.capped and k.subsets_checked == 2**KERNEL_SUBSET_CAP - 1
    assert k.union_property_verified


def test_uniform_non_solvable_a5_matches_oracles():
    assert_matches_oracles(a5_two_cover())
    # one subgroup's cosets: every index is divisible by 5 and nothing is
    # subnormal or solvable over its core, so cond_a holds only vacuously
    G = a5_two_cover().parent
    r = assert_matches_oracles(CosetSystem(G, left_cosets(G, sub_of_size(G, 12))))
    assert r.cond_a and r.cond_a_vacuous and r.indices == (5,) * 5


def first_cover_with(G, k, indices):
    return next(c for c in enumerate_uniform_covers(G, k, 1) if c.indices() == indices)


def test_flag_false_and_true_at_one_index_multiset():
    # the arithmetic is cached per index multiset; the flags are not.  cond_a
    # is false only on the non-solvable covers above, and no cover found has
    # equal_pair.pair None (every searched cover repeats an index that the
    # largest prime divides)
    gcover._index_arithmetic.cache_clear()
    ns = (4, 4, 6, 6, 6)
    a4 = first_cover_with(catalog_group("A4"), 5, ns)
    c12 = first_cover_with(catalog_group("C12"), 5, ns)
    for cover in (a4, c12, a4):
        r = assert_matches_oracles(cover)
        assert r.cond_b == r.cond_c == (cover is c12)
        assert r.squarefree is None
    assert gcover._index_arithmetic.cache_info().misses == 1
    # the same multiset in a group of squarefree order and in one that is not
    assert assert_matches_oracles(first_cover_with(catalog_group("C2"), 2, (2, 2))).squarefree
    assert not assert_matches_oracles(first_cover_with(catalog_group("C2xC2"), 2, (2, 2))).squarefree
