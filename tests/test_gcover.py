"""Tests for coset systems over finite groups and the cover machinery."""

import random
from fractions import Fraction

import pytest

from coverlab.errors import SearchBudgetError
from coverlab.gcover import (
    DEFAULT_NODE_BUDGET,
    CosetSystem,
    _Nodes,
    _partition_with_indices,
    check_aligned_union_bound,
    check_uniform_cover,
    check_union_lower_bound,
    enumerate_uniform_covers,
    feasible_distinct_index_sets,
    kernel_of,
    probe_max_index_multiplicity,
    reciprocal_index_sum,
    search_distinct_index_partition,
    weight_profile,
)
from coverlab.group import (
    _bits,
    all_subgroups,
    catalog_group,
    cycles_str,
    full_subgroup,
    group_from_generators,
    is_normal,
    left_coset_mask,
    load_catalog,
    subgroup_closure,
    trivial_subgroup,
)


def sub_of_size(G, size, which=0):
    return [H for H in all_subgroups(G) if H.size == size][which]


def left_cosets(G, H):
    """(least member, H) for every left coset of H."""
    out, seen = [], 0
    for x in range(G.order):
        if not seen >> x & 1:
            out.append((x, H))
            seen |= left_coset_mask(G, x, H)
    return out


def a5_two_cover():
    """The 5 cosets of an index-5 subgroup and the 6 of an index-6 one of A5."""
    G = group_from_generators(5, ["(1 2 3 4 5)", "(1 2 3)"], name="A5")
    h5 = sub_of_size(G, 12)
    h6 = sub_of_size(G, 10)
    return CosetSystem.from_pairs(G, left_cosets(G, h5) + left_cosets(G, h6))


def c4_cover():
    """Partition of C4 with indices (2, 4, 4)."""
    G = catalog_group("C4")
    two = sub_of_size(G, 2)
    triv = trivial_subgroup(G)
    return CosetSystem.from_pairs(G, [(0, two), (1, triv), (3, triv)])


# ------------------------------------------------------------- validation


def test_system_validation():
    G = catalog_group("C4")
    with pytest.raises(ValueError, match="at least one"):
        CosetSystem(G, ())
    with pytest.raises(ValueError, match="out of range"):
        CosetSystem.from_pairs(G, [(4, trivial_subgroup(G))])
    with pytest.raises(ValueError, match="different group"):
        CosetSystem(G, ((0, trivial_subgroup(catalog_group("S3"))),))
    H = trivial_subgroup(G)
    for check in (check_union_lower_bound, check_aligned_union_bound):
        with pytest.raises(ValueError, match="at least one"):
            check(G, H, [])
        with pytest.raises(ValueError, match="out of range"):
            check(G, H, [(4, sub_of_size(G, 2))])
        with pytest.raises(ValueError, match="different group"):
            check(G, H, [(0, trivial_subgroup(catalog_group("S3")))])


def test_canonical_form():
    cov = c4_cover()
    G = cov.parent
    shuffled = CosetSystem.from_pairs(
        G, [(3, trivial_subgroup(G)), (2, sub_of_size(G, 2)), (1, trivial_subgroup(G))]
    )
    # rep 2 names the same coset of <2> as rep 0
    assert shuffled.canonical() == cov.canonical()
    assert shuffled.canonical().indices() == (2, 4, 4)


def test_indices_and_masks():
    cov = c4_cover()
    assert cov.indices() == (2, 4, 4)
    assert [m.bit_count() for m in cov.coset_masks()] == [2, 1, 1]


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
            cov = CosetSystem.from_pairs(
                G,
                [(rng.randrange(G.order), rng.choice(subs)) for _ in range(k)],
            )
            w = weight_profile(cov)
            assert sum(w.counts) == sum(G.order // n for n in cov.indices())
            assert w.covered == sum(1 for c in w.counts if c)
            assert w.is_cover == (w.min_w >= 1)


def test_profile_trivial_cover():
    G = catalog_group("S3")
    w = weight_profile(CosetSystem.from_pairs(G, [(0, full_subgroup(G))]))
    assert w.is_trivial and w.uniform_m == 1


def test_reciprocal_sum():
    assert reciprocal_index_sum(c4_cover()) == Fraction(1)


# ----------------------------------------------------------------- kernel


def test_kernel_on_named_partition():
    r = kernel_of(c4_cover())
    assert r.kernel.is_full()  # constant weight, every translation fixes it
    assert r.contains_intersection and r.union_property_verified
    assert r.subsets_checked == 7 and not r.capped


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
        cov = CosetSystem.from_pairs(
            G, [(rng.randrange(G.order), rng.choice(subs)) for _ in range(k)]
        )
        r = kernel_of(cov)
        assert r.contains_intersection
        assert r.union_property_verified


# ----------------------------------------------------- union lower bound


def test_union_bound_c12_instance():
    G = catalog_group("C12")
    r = check_union_lower_bound(
        G, trivial_subgroup(G), [(0, sub_of_size(G, 6)), (1, sub_of_size(G, 4))]
    )
    assert (r.index_h, r.indices) == (12, (2, 3))
    assert r.lhs == 8 and r.rhs == 8
    assert r.hypothesis == "subnormal" and r.holds


def test_union_bound_requires_containment():
    G = catalog_group("C12")
    with pytest.raises(ValueError, match="contain H"):
        check_union_lower_bound(G, sub_of_size(G, 4), [(0, sub_of_size(G, 6))])


def test_union_bound_hypothesis_field():
    S3 = catalog_group("S3")
    two = sub_of_size(S3, 2)
    r = check_union_lower_bound(S3, trivial_subgroup(S3), [(0, two)])
    # a non-subnormal entry, but S3 has a full prime-quotient series
    assert r.hypothesis == "series"
    assert r.holds
    # H of order 2 is not normal in S3, so no series starts at it
    r = check_union_lower_bound(S3, two, [(0, two)])
    assert r.hypothesis == "none"
    assert (r.index_h, r.indices, r.lhs, r.rhs) == (3, (3,), 1, 1)


def test_union_bound_exhaustive_c12():
    # every choice of <= 2 subgroups above H, every pair of shifts
    G = catalog_group("C12")
    for H in all_subgroups(G):
        above = [S for S in all_subgroups(G) if S.mask & H.mask == H.mask]
        for s1 in above:
            for s2 in above:
                for a in range(0, G.order, 5):
                    for b in range(0, G.order, 7):
                        r = check_union_lower_bound(G, H, [(a, s1), (b, s2)])
                        assert r.holds, (H, s1, s2, a, b)


# ---------------------------------------------------- aligned union bound


def test_aligned_full_h():
    G = catalog_group("C12")
    s6 = sub_of_size(G, 6)
    r = check_aligned_union_bound(G, full_subgroup(G), [(0, s6), (1, s6)])
    assert r.case == "a"
    assert r.lhs == 2 and r.rhs == 2 and r.holds


def test_aligned_proper_h():
    G = catalog_group("C12")
    s2, s4 = sub_of_size(G, 2), sub_of_size(G, 4)
    r = check_aligned_union_bound(G, s2, [(0, s4), (1, s4), (2, s4)])
    assert r.case == "a"
    assert r.index_h == 6 and r.indices == (3, 3, 3)
    assert r.lhs == 1 and r.rhs == 3 and r.holds


def test_aligned_cases_b_c_none():
    # every entry normal and H subnormal but not normal
    D4 = catalog_group("D4")
    H = sub_of_size(D4, 2)
    K = next(K for K in all_subgroups(D4) if K.size == 4 and K.mask & H.mask == H.mask)
    r = check_aligned_union_bound(D4, H, [(0, trivial_subgroup(D4)), (0, K)])
    assert r.case == "b" and r.holds
    # every entry normal, H not subnormal, S3 over the intersection solvable
    S3 = catalog_group("S3")
    two = sub_of_size(S3, 2)
    r = check_aligned_union_bound(
        S3, two, [(0, trivial_subgroup(S3)), (0, full_subgroup(S3))]
    )
    assert r.case == "c" and r.holds
    # a non-normal entry and a non-normal H: no case applies
    r = check_aligned_union_bound(S3, two, [(0, trivial_subgroup(S3)), (0, two)])
    assert r.case == "none" and not r.d_both_branches
    assert (r.lhs, r.rhs) == (1, Fraction(3, 2))


def test_aligned_rejects_misaligned_union():
    G = catalog_group("C12")
    with pytest.raises(ValueError, match="union of left H-cosets"):
        check_aligned_union_bound(
            G, full_subgroup(G), [(0, sub_of_size(G, 6)), (0, sub_of_size(G, 4))]
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
            try:
                r = check_aligned_union_bound(G, H, entries)
            except ValueError:
                continue
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
    r = check_uniform_cover(CosetSystem.from_pairs(G, [(0, three), (1, three)]))
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
        check_uniform_cover(CosetSystem.from_pairs(G, [(0, two), (1, two), (3, two)]))
    with pytest.raises(ValueError):
        check_uniform_cover(CosetSystem.from_pairs(G, [(0, full_subgroup(G))]))


def test_max_index_probe():
    r = probe_max_index_multiplicity(c4_cover())
    assert (r.n_max, r.multiplicity, r.least_prime) == (4, 2, 2)
    assert r.all_subnormal and r.holds


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
            mask = left_coset_mask(G, x, sub)
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
            if any(not sub.is_full() for _, sub in picked):
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
            key = tuple(sorted(zip(cov.coset_masks(), (s.mask for _, s in cov.entries))))
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
                cmask = left_coset_mask(G, x, sub)
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
