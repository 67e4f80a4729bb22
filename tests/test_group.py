"""Tests for the finite group engine: tables, lattices, series, catalog."""

import importlib.util
import math
import random
import re
import sys
import time
from importlib import resources
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coverlab.group as group_module
from coverlab.arith import factorize, is_prime
from coverlab.errors import BudgetError, InputError
from coverlab.group import (
    DEGREE_CAP,
    ORDER_CAP,
    FiniteGroup,
    Subgroup,
    all_subgroups,
    catalog_group,
    center_mask,
    check_core_primes,
    check_core_sylow_exclusion,
    check_hall_normality,
    check_index_intersection,
    check_pyramidal_sylow,
    check_solvable_tower,
    clean_lines,
    core_excluded_primes,
    core_of,
    cycles_str,
    cyclic_group,
    fingerprint,
    group_from_generators,
    has_normal_sylow,
    is_normal,
    is_pyramidal,
    is_solvable,
    is_subnormal,
    left_coset_mask,
    load_catalog,
    parse_cycles,
    prime_quotient_series,
    pyramidal_chain,
    quotient_group,
    read_group_records,
    realize_record,
    structural_suite,
    subgroup_closure,
    trivial_subgroup,
)


# ------------------------------------------------------------ brute oracles


def subgroup_as_group(G: FiniteGroup, H: Subgroup) -> FiniteGroup:
    """H with elements renumbered 0..|H|-1 in ascending id order."""
    members = list(H.members())
    pos = {x: i for i, x in enumerate(members)}
    table = [tuple(pos[G.table[a][b]] for b in members) for a in members]
    return FiniteGroup(table, name=f"{G.name}|sub{H.size}")


def hall_subgroup(G: FiniteGroup, omega) -> Subgroup | None:
    """A subgroup whose order is the omega-part of |G|, the first in
    lattice order, or None: the lattice search has_normal_sylow's element
    count replaced."""
    omega = set(omega)
    for p in omega:
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
    target = 1
    for p, e in factorize(G.order).pairs:
        if p in omega:
            target *= p**e
    return next((H for H in all_subgroups(G) if H.size == target), None)


def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, which Sylow's theorem guarantees."""
    return hall_subgroup(G, (p,))


def derived_series_masks(G: FiniteGroup) -> list[int]:
    """The derived series of G from G down to its fixed point, as masks."""
    masks = [G.full_mask()]
    while (nxt := G.derived_mask(masks[-1])) != masks[-1]:
        masks.append(nxt)
    return masks


def brute_subgroup_masks(G: FiniteGroup) -> set[int]:
    """Every subset containing 0 that is closed under the table."""
    out = set()
    for mask in range(1, 1 << G.order, 2):
        elems = [i for i in range(G.order) if mask >> i & 1]
        if all(mask >> G.table[a][b] & 1 for a in elems for b in elems):
            out.add(mask)
    return out


def brute_is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    return all(
        H.mask >> G.conj(g, h) & 1 for g in range(G.order) for h in H.members()
    )


def brute_is_subnormal(G: FiniteGroup, H: Subgroup) -> bool:
    """Chain existence by memoized descent over the whole lattice."""
    subs = all_subgroups(G)
    memo: dict[int, bool] = {}

    def reach(top: int) -> bool:
        # can we get from the subgroup with mask `top` down to H?
        if top == H.mask:
            return True
        if top not in memo:
            memo[top] = False
            memo[top] = any(
                reach(s.mask)
                for s in subs
                if s.mask != top
                and s.mask & ~top == 0
                and H.mask & ~s.mask == 0
                and G.normal_in(s.mask, top)
            )
        return memo[top]

    return reach(G.full_mask())


def brute_core_mask(G: FiniteGroup, H: Subgroup) -> int:
    normal_inside = [
        s.mask
        for s in all_subgroups(G)
        if s.mask & ~H.mask == 0 and G.normal_in(s.mask, G.full_mask())
    ]
    return max(normal_inside, key=lambda m: m.bit_count())


def oracle_closure_mask(G: FiniteGroup, mask: int) -> int:
    """The quadratic set-based closure that coset extension replaced:
    multiply every new member by every member on both sides."""
    table = G.table
    members = {0} | {x for x in range(G.order) if mask >> x & 1}
    queue = list(members)
    while queue:
        x = queue.pop()
        row = table[x]
        for y in tuple(members):
            for z in (row[y], table[y][x]):
                if z not in members:
                    members.add(z)
                    queue.append(z)
    return sum(1 << x for x in members)


def oracle_lattice_masks(
    G: FiniteGroup, closure=oracle_closure_mask
) -> tuple[int, ...]:
    """The lattice by joins of every subgroup with every cyclic subgroup,
    each join closed from scratch by closure (the oracle closure unless
    given)."""
    closed: dict[int, int] = {}

    def close(mask: int) -> int:
        if mask not in closed:
            closed[mask] = closure(G, mask)
        return closed[mask]

    cyclics = {close(1 << g) for g in range(G.order)}
    subs = {1} | cyclics
    frontier = set(subs)
    while frontier:
        new = set()
        for h in frontier:
            for c in cyclics:
                if c & ~h:
                    j = close(h | c)
                    if j not in subs:
                        new.add(j)
        subs |= new
        frontier = new
    return tuple(sorted(subs, key=lambda m: (m.bit_count(), m)))


def brute_is_associative(table) -> bool:
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def reduced_latin_squares(n: int):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield tuple(tuple(r) for r in rows)
            return
        i, j = cells[k]
        used = set(rows[i][:j]) | {rows[r][j] for r in range(i)}
        for v in range(n):
            if v not in used:
                rows[i][j] = v
                yield from fill(k + 1)
        rows[i][j] = None

    yield from fill(0)


def inline_a5() -> FiniteGroup:
    return group_from_generators(5, ["(1 2 3 4 5)", "(1 2 3)"], name="A5")


def inline_s5() -> FiniteGroup:
    return group_from_generators(5, ["(1 2 3 4 5)", "(1 2)"], name="S5")


def oracle_pyramidal_chain(G: FiniteGroup):
    """The lattice DFS that the shared prime-index walk replaced: indices
    never increase going up, and normality is not tested."""
    subs = all_subgroups(G)
    n = G.order
    dead: set[tuple[int, int]] = set()

    def dfs(mask: int, size: int, allowed: int):
        if size == n:
            return [mask]
        key = (mask, allowed)
        if key in dead:
            return None
        for s in subs:
            q, rem = divmod(s.size, size)
            if rem or q <= 1 or q > allowed or not is_prime(q):
                continue
            if s.mask & ~mask == 0 or mask & ~s.mask:
                continue
            rest = dfs(s.mask, s.size, q)
            if rest is not None:
                return [mask] + rest
        dead.add(key)
        return None

    return dfs(1, 1, n)


def oracle_prime_quotient_series(G: FiniteGroup, H: Subgroup, p_first):
    """The series DFS that the shared prime-index walk replaced."""
    subs = all_subgroups(G)
    full = G.full_mask()
    dead: set[tuple[int, bool]] = set()

    def dfs(mask: int, size: int, non_p_seen: bool):
        if mask == full:
            return [mask]
        key = (mask, non_p_seen)
        if key in dead:
            return None
        for s in subs:
            q, rem = divmod(s.size, size)
            if rem or q <= 1 or not is_prime(q):
                continue
            if mask & ~s.mask or s.mask == mask:
                continue
            if not G.normal_in(mask, s.mask):
                continue
            flag = non_p_seen
            if p_first is not None:
                if q == p_first:
                    if non_p_seen:
                        continue
                else:
                    flag = True
            rest = dfs(s.mask, s.size, flag)
            if rest is not None:
                return [mask] + rest
        dead.add(key)
        return None

    return dfs(H.mask, H.size, False)


def _masks(chain):
    return None if chain is None else [H.mask for H in chain]


# the bench's inline records beside the catalog, of orders 20 to 72
INLINE_RECORDS = {
    "S4xC2": (6, ["(1 2)", "(1 2 3 4)", "(5 6)"]),
    "C3xS4": (7, ["(1 2)", "(1 2 3 4)", "(5 6 7)"]),
    "A5": (5, ["(1 2 3 4 5)", "(1 2 3)"]),
    "D20": (10, ["(1 2 3 4 5 6 7 8 9 10)", "(1 10)(2 9)(3 8)(4 7)(5 6)"]),
    "A4xC2": (6, ["(1 2 3)", "(1 2)(3 4)", "(5 6)"]),
}


# ---------------------------------------------------------------- catalog

# one frozen count per catalog entry, cross-checked against the
# brute-force lattice for every group small enough to enumerate subsets
SUBGROUP_COUNTS = {
    "C1": 1, "C2": 2, "C3": 2, "C2xC2": 5, "C4": 3, "C5": 2, "C6": 4,
    "S3": 6, "C7": 2, "C2xC2xC2": 16, "C4xC2": 8, "C8": 4, "D4": 10,
    "Q8": 6, "C3xC3": 6, "C9": 3, "C10": 4, "D5": 8, "C11": 2, "A4": 10,
    "C12": 6, "C6xC2": 10, "D6": 16, "Dic3": 8, "C13": 2, "C14": 4,
    "D7": 10, "C15": 4, "(C2xC2):C4": 23, "C16": 5, "C2xC2xC2xC2": 67,
    "C4:C4": 15, "C4oD4": 23, "C4xC2xC2": 27, "C4xC4": 15, "C8xC2": 11,
    "D4xC2": 35, "D8": 19, "M16": 11, "Q16": 11, "Q8xC2": 19, "SD16": 15,
}


def test_catalog_complete():
    cat = load_catalog()
    assert len(cat) == 42
    assert sorted(G.name for G in cat) == sorted(SUBGROUP_COUNTS)


def test_catalog_subgroup_counts():
    for name, count in SUBGROUP_COUNTS.items():
        assert len(all_subgroups(catalog_group(name))) == count, name


def test_catalog_counts_against_brute_lattice():
    for g in load_catalog():
        if g.order <= 12:
            masks = {s.mask for s in all_subgroups(g)}
            assert masks == brute_subgroup_masks(g), g.name


def test_catalog_fingerprints_distinct_per_order():
    by_order: dict[int, list] = {}
    for g in load_catalog():
        by_order.setdefault(g.order, []).append(fingerprint(g))
    for order, prints in by_order.items():
        assert len(set(prints)) == len(prints), order


def _shipped_catalog_text() -> str:
    return resources.files("coverlab").joinpath("data/groups_le16.txt").read_text()


def test_catalog_check_refuses_an_injected_isomorphic_pair(monkeypatch):
    # C4 swapped for a relabelled C2xC2: order 4 still counts 2 groups,
    # the two tie on every cheap part, and only their lattices are counted
    c4 = "group C4\ndegree 4\ngen (1 2 3 4)\norder 4\nend\n"
    klein = "group V4\ndegree 4\ngen (1 3)\ngen (2 4)\norder 4\nend\n"
    text = _shipped_catalog_text()
    assert c4 in text
    lattices = []

    def counted(G):
        lattices.append(G.name)
        return all_subgroups(G)

    monkeypatch.setattr(group_module, "all_subgroups", counted)
    with pytest.raises(ValueError, match="catalog fingerprint collision at order 4$"):
        group_module._Catalog(text.replace(c4, klein)).whole
    assert sorted(lattices) == ["C2xC2", "V4"]


def test_catalog_check_refuses_a_missing_order():
    c7 = "group C7\ndegree 7\ngen (1 2 3 4 5 6 7)\norder 7\nend\n"
    text = _shipped_catalog_text()
    assert c7 in text
    message = "^catalog has 0 groups of order 7, classification says 1$"
    with pytest.raises(ValueError, match=message):
        group_module._Catalog(text.replace(c7, "")).whole


def test_catalog_check_passes_the_shipped_cheap_tie():
    # C4:C4 and Q8xC2 agree on every fingerprint part but the subgroup
    # count (15 against 19), so the shipped catalog loads only through it
    groups = group_module._Catalog(_shipped_catalog_text()).whole
    ties: dict[tuple, list] = {}
    for g in groups:
        ties.setdefault(group_module._cheap_fingerprint(g), []).append(g)
    tied = [tie for tie in ties.values() if len(tie) > 1]
    assert [[g.name for g in tie] for tie in tied] == [["C4:C4", "Q8xC2"]]
    assert [len(all_subgroups(g)) for g in tied[0]] == [15, 19]


def test_fresh_catalog_load_builds_two_lattices_and_no_labels(monkeypatch):
    calls = []

    def counted(perm):
        calls.append(perm)
        return cycles_str(perm)

    monkeypatch.setattr(group_module, "cycles_str", counted)
    monkeypatch.setattr(group_module, "_catalog_cache", None)
    groups = load_catalog()
    with_lattice = {g.name for g in groups if ("lattice", g.full_mask()) in g._memo}
    assert with_lattice == {"C4:C4", "Q8xC2"}
    assert calls == []
    # nor does building a group, a quotient or a subgroup's repr
    G = group_from_generators(5, ["(1 2 3 4 5)", "(2 5)(3 4)"], name="D10")
    five = [H for H in all_subgroups(G) if H.size == 5][0]
    assert quotient_group(five).order == 2
    assert repr(five) == "Subgroup<0,1,3,6,9>"
    assert calls == []


def test_catalog_file_matches_its_generator():
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_catalog.py"
    spec = importlib.util.spec_from_file_location("make_catalog", script)
    make_catalog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_catalog)
    data = resources.files("coverlab").joinpath("data/groups_le16.txt").read_bytes()
    assert make_catalog.catalog_text().encode() == data


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog_group("M11")


def test_a_fresh_named_lookup_matches_the_full_load(monkeypatch):
    for G in load_catalog():
        monkeypatch.setattr(group_module, "_catalog_cache", None)
        H = catalog_group(G.name)
        assert H is not G
        assert (H.perms, H.table) == (G.perms, G.table), G.name


@pytest.mark.parametrize(
    "old, new, error, message",
    [
        ("order 8", "order 16", InputError, "close to order 8, record says 16"),
        ("order 8", "order 201", BudgetError, "above the order cap"),
        ("degree 8", "degree 100000000", BudgetError, "above the degree cap"),
        ("(1 2 5 6)(3 8 7 4)", "(1 2 5 9)", InputError, "out of range"),
    ],
)
def test_a_named_lookup_keeps_its_record_checks(old, new, error, message):
    text = _shipped_catalog_text()
    q8 = text[text.index("group Q8\n") :]
    q8 = q8[: q8.index("end\n")]
    catalog = group_module._Catalog(text.replace(q8, q8.replace(old, new)))
    with pytest.raises(error, match=message):
        catalog.realize(("Q8",))
    assert catalog.realize(("D4",))[0].order == 8


# ----------------------------------------------------------- construction


def test_table_validation():
    with pytest.raises(ValueError, match="empty"):
        FiniteGroup([])
    with pytest.raises(ValueError, match="square"):
        FiniteGroup([(0, 1), (1,)])
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup([(1, 0), (0, 1)])
    with pytest.raises(ValueError, match="Latin"):
        FiniteGroup([(0, 1), (1, 1)])


def test_table_validation_rejects_nonassociative_loop():
    # Latin square with identity, found by search; (1*2)*2 = 4 but 1*(2*2) = 1
    loop = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 3, 4, 0, 1),
        (3, 4, 1, 2, 0),
        (4, 2, 0, 1, 3),
    )
    with pytest.raises(ValueError, match="associativity"):
        FiniteGroup(loop)


def test_light_test_matches_triple_scan_on_every_small_loop():
    # every reduced Latin square of order <= 6 is a table with identity 0;
    # the generating-set test must refuse exactly the non-associative ones
    counts = {1: 1, 2: 1, 3: 1, 4: 4, 5: 56, 6: 9408}
    for n, count in counts.items():
        seen = groups = 0
        for table in reduced_latin_squares(n):
            seen += 1
            if brute_is_associative(table):
                groups += 1
                FiniteGroup(table)
            else:
                with pytest.raises(ValueError, match="associativity"):
                    FiniteGroup(table)
        assert seen == count, n
        assert groups > 0, n


def test_generator_graph_table_matches_composition():
    for G in (*load_catalog(), inline_a5(), inline_s5()):
        perms = G.perms
        index = {p: i for i, p in enumerate(perms)}
        degree = range(len(perms[0]))
        composed = tuple(
            tuple(index[tuple(a[b[i]] for i in degree)] for b in perms) for a in perms
        )
        assert G.table == composed, G.name


def test_generators_closure_cap():
    # S6 has 720 elements: the closure is stopped as it passes the cap
    with pytest.raises(BudgetError, match="group S6: closure passed 200 elements"):
        group_from_generators(6, ["(1 2 3 4 5 6)", "(1 2)"], name="S6")


def test_order_cap_boundary():
    assert ORDER_CAP == 200
    cycle = "(" + " ".join(str(i) for i in range(1, 201)) + ")"
    assert group_from_generators(200, [cycle]).order == 200
    with pytest.raises(BudgetError, match="closure passed 200 elements"):
        group_from_generators(201, [cycle[:-1] + " 201)"])
    assert cyclic_group(200).order == 200
    with pytest.raises(BudgetError, match="table of order 201 is above the order cap"):
        cyclic_group(201)


def test_degree_cap_boundary():
    assert DEGREE_CAP == 10_000
    G = group_from_generators(DEGREE_CAP, [f"(1 2)({DEGREE_CAP - 1} {DEGREE_CAP})"])
    assert G.order == 2 and len(G.perms[0]) == DEGREE_CAP
    message = "^group X: degree 10001 is above the degree cap 10000$"
    with pytest.raises(BudgetError, match=message):
        group_from_generators(DEGREE_CAP + 1, ["(1 2)"], name="X")


def test_cyclic_group_over_cap_refused_before_its_table():
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="^table of order 2000 is above the order cap 200$"):
        cyclic_group(2000)
    assert time.perf_counter() - start < 0.1
    assert cyclic_group(ORDER_CAP).order == ORDER_CAP


def test_record_over_cap_refused_before_closure(monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("closure started")

    monkeypatch.setattr(group_module, "group_from_generators", no_closure)
    text = "group C2000\ndegree 2000\ngen (1 2)\norder 2000\nend\n"
    (rec,) = read_group_records(clean_lines(text))
    message = "group C2000: record says order 2000, above the order cap 200"
    with pytest.raises(BudgetError, match=f"^{message}$"):
        realize_record(rec)


def test_record_order_mismatch():
    recs = read_group_records(clean_lines("group bad\ndegree 3\ngen (1 2 3)\norder 5\nend\n"))
    with pytest.raises(ValueError, match="order"):
        realize_record(recs[0])


def test_parse_cycles_errors():
    with pytest.raises(ValueError, match="repeated"):
        parse_cycles(4, "(1 2 1)")
    with pytest.raises(ValueError, match="range"):
        parse_cycles(3, "(1 4)")
    with pytest.raises(ValueError, match="unparsed"):
        parse_cycles(3, "(1 2) junk")


# every code point str.split() splits on
_SPACES = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


def test_regex_whitespace_is_str_whitespace():
    # so a cycle body split by str.split() and by the regex [,\s]+ is split
    # at the same code points
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(re.findall(r"\s", every)) == _SPACES


@settings(max_examples=300)
@given(st.text(st.sampled_from("1234,\u0663") | st.sampled_from(_SPACES)))
def test_cycle_points_split_as_the_regex_does(body):
    def read(text):
        try:
            return parse_cycles(4, text)
        except InputError:
            return None

    points = [t for t in re.split(r"[,\s]+", body.strip()) if t]
    assert read(f"({body})") == read("(" + " ".join(points) + ")")


@settings(max_examples=80)
@given(st.permutations(tuple(range(6))))
def test_cycles_str_round_trip(perm):
    perm = tuple(perm)
    assert parse_cycles(6, cycles_str(perm)) == perm


def test_element_orders_cyclic():
    G = catalog_group("C12")
    orders = sorted(G.element_order(x) for x in range(12))
    # phi(d) elements of each order d dividing 12
    assert orders == [1, 2, 3, 3, 4, 4, 6, 6, 12, 12, 12, 12]


def test_closure_matches_quadratic_oracle():
    rng = random.Random(2003)
    for G in (*load_catalog(), inline_a5(), inline_s5()):
        n = G.order
        masks = [1 << x for x in range(n)]
        for _ in range(40):
            picked = rng.sample(range(n), rng.randint(1, min(n, 4)))
            masks.append(sum(1 << x for x in picked))
            masks.append(rng.getrandbits(n))
        for mask in masks:
            assert G.closure_mask(mask) == oracle_closure_mask(G, mask), (G.name, mask)


def test_lattice_matches_oracle_lattice():
    for G in (*load_catalog(), inline_a5()):
        masks = tuple(H.mask for H in all_subgroups(G))
        assert masks == oracle_lattice_masks(G), G.name


def test_double_coset_pruned_lattice_matches_unpruned_joins():
    # groups past the oracle closure's reach (15 s on S5): the unpruned
    # joins use the coset-extension closure, which
    # test_closure_matches_quadratic_oracle checks against the oracle
    def closure(G, mask):
        return group_module._generate(G.table, mask)[1]

    for G in (
        inline_s5(),
        group_from_generators(7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)", "(1 2)(3 6)"]),
        group_from_generators(6, ["(1 2 3 4)", "(1 2)", "(5 6)"]),
        elementary_abelian(5),
    ):
        masks = tuple(H.mask for H in all_subgroups(G))
        assert masks == oracle_lattice_masks(G, closure), G.name


def test_lattice_seeds_every_subgroups_generators(monkeypatch):
    # a fresh table, so no earlier test has filled its memo
    G = FiniteGroup(catalog_group("SD16").table, name="SD16")
    subs = all_subgroups(G)
    runs = []
    original = group_module._generate

    def counted(table, mask):
        runs.append(mask)
        return original(table, mask)

    monkeypatch.setattr(group_module, "_generate", counted)
    gens = {H.mask: G.generators(H.mask) for H in subs}
    assert all(G.closure_mask(H.mask) == H.mask for H in subs)
    assert runs == []
    for mask, gs in gens.items():
        assert original(G.table, sum(1 << g for g in gs) | 1)[1] == mask


def test_subgroup_validates_and_compares_by_parent_identity():
    table = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    G, twin = FiniteGroup(table), FiniteGroup(table)
    with pytest.raises(InputError, match="^mask is not closed under the group operation$"):
        Subgroup(G, 0b0011)
    H = Subgroup(G, 0b0101)
    assert H == Subgroup(G, 0b0101) and hash(H) == hash(Subgroup(G, 0b0101))
    # the same mask of an equal table is another subgroup when the parent
    # is another object
    assert H != Subgroup(twin, 0b0101) and H != Subgroup(G, 0b1111)
    assert len({H, Subgroup(G, 0b0101), Subgroup(twin, 0b0101)}) == 2


def test_subgroup_closure_generates():
    G = catalog_group("D4")
    H = subgroup_closure(G, [x for x in range(8) if G.element_order(x) == 4][:1])
    assert H.size == 4


def test_cross_parent_rejected():
    # a fact of one subgroup reads its group from the subgroup; the one
    # fact of several refuses subgroups of two groups as a fault, not as
    # bad input
    G, K = catalog_group("S3"), catalog_group("C6")
    with pytest.raises(ValueError, match="different group") as e:
        check_index_intersection((trivial_subgroup(G), trivial_subgroup(K)))
    assert e.type is ValueError


# ------------------------------------------------------- cosets and cores


def test_cosets_partition():
    for name in ("S3", "D4", "A4"):
        G = catalog_group(name)
        for H in all_subgroups(G):
            seen = 0
            masks = {left_coset_mask(g, H) for g in range(G.order)}
            assert len(masks) == H.index
            for m in masks:
                assert m.bit_count() == H.size
                assert seen & m == 0
                seen |= m
            assert seen == G.full_mask()


def test_normality_against_brute():
    for name in ("S3", "D4", "A4", "D6"):
        G = catalog_group(name)
        for H in all_subgroups(G):
            assert is_normal(H) == brute_is_normal(G, H), (name, H)


def test_core_against_brute():
    for G in (*load_catalog(), inline_a5()):
        for H in all_subgroups(G):
            assert core_of(H).mask == brute_core_mask(G, H), (G.name, H)


def test_subnormality_against_brute():
    subs = [(G, H) for G in load_catalog() for H in all_subgroups(G)]
    assert len(subs) == 460
    for G, H in subs:
        assert is_subnormal(H) is brute_is_subnormal(G, H), (G.name, H)


def test_subnormal_defects():
    S3 = catalog_group("S3")
    assert is_subnormal(Subgroup(S3, S3.full_mask()))
    assert is_subnormal(trivial_subgroup(S3))
    two = [H for H in all_subgroups(S3) if H.size == 2][0]
    assert not is_subnormal(two)
    A4 = catalog_group("A4")
    two = [H for H in all_subgroups(A4) if H.size == 2][0]
    # C2 < V4 < A4: subnormal with defect 2, though not normal
    assert is_subnormal(two) and not is_normal(two)


# --------------------------------------------------------- sylow and hall


def test_sylow_sizes_whole_catalog():
    for G in load_catalog():
        for p, _ in factorize(G.order).pairs:
            part = 1
            n = G.order
            while n % p == 0:
                part *= p
                n //= p
            assert sylow_subgroup(G, p).size == part, (G.name, p)


def test_sylow_refuses_a_non_prime():
    with pytest.raises(ValueError, match="^4 is not prime$"):
        sylow_subgroup(catalog_group("S3"), 4)


def test_sylow_rejects_nondivisor_fine():
    # p not dividing the order gives the trivial subgroup
    assert sylow_subgroup(catalog_group("S3"), 5).size == 1


def test_hall_exists_for_every_prime_set():
    # all catalog groups are solvable, so every Hall subgroup exists
    for G in load_catalog():
        primes = []
        n = G.order
        for p in range(2, n + 1):
            if n % p == 0 and all(p % q for q in primes):
                primes.append(p)
        for r in range(len(primes) + 1):
            for omega in combinations(primes, r):
                part = 1
                n = G.order
                for p in omega:
                    while n % p == 0:
                        part *= p
                        n //= p
                H = hall_subgroup(G, omega)
                assert H is not None and H.size == part, (G.name, omega)


def test_hall_named_cases():
    C12 = catalog_group("C12")
    assert hall_subgroup(C12, {2, 3}).mask == C12.full_mask()
    A4 = catalog_group("A4")
    H = hall_subgroup(A4, {2})
    assert H.size == 4 and is_normal(H)
    S3 = catalog_group("S3")
    assert is_normal(sylow_subgroup(S3, 3))


def test_hall_subgroup_can_be_missing():
    # A5 is not solvable: it has no subgroup of order 20, the {2, 5}-part
    assert hall_subgroup(inline_a5(), {2, 5}) is None


def test_normal_sylow_count_matches_the_lattice_oracle():
    # every catalog group, the bench's inline records but A4xC2, S5,
    # PSL(2,7), F20 and C7:C3, and their quotients by nontrivial normal
    # subgroups, at every prime to 13
    records = {
        name: INLINE_RECORDS[name] for name in ("S4xC2", "C3xS4", "A5", "D20")
    } | {
        "S5": (5, ["(1 2 3 4 5)", "(1 2)"]),
        "PSL(2,7)": (7, ["(1 2 3 4 5 6 7)", "(1 2)(3 6)"]),
        "F20": (5, ["(1 2 3 4 5)", "(2 3 5 4)"]),
        "C7:C3": (7, ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"]),
    }
    groups = [*load_catalog()]
    groups += [group_from_generators(d, gens, name=n) for n, (d, gens) in records.items()]
    for G in groups[:]:
        groups += [quotient_group(N) for N in all_subgroups(G) if N.size > 1 and is_normal(N)]
    pairs = 0
    for G in groups:
        for p in (2, 3, 5, 7, 11, 13):
            assert has_normal_sylow(G, p) == is_normal(sylow_subgroup(G, p)), (G.name, p)
            pairs += 1
    assert pairs == 2376
    with pytest.raises(InputError, match="^4 is not prime$"):
        has_normal_sylow(catalog_group("S3"), 4)


# ------------------------------------------------------- chains and series


def test_pyramidal_chain_shape():
    for G in load_catalog():
        chain = pyramidal_chain(G)
        if chain is None:
            continue
        assert chain[0].size == 1 and chain[-1].mask == G.full_mask()
        last = G.order + 1
        for low, high in zip(chain, chain[1:]):
            q = high.size // low.size
            assert high.size % low.size == 0
            assert q <= last
            assert G.normal_in(low.mask, high.mask)
            last = q


def test_pyramidal_catalog_split():
    non = [G.name for G in load_catalog() if G.order > 1 and not is_pyramidal(G)]
    assert non == ["A4"]


def test_pyramidal_named_cases():
    chain = pyramidal_chain(catalog_group("S3"))
    assert [h.size for h in chain] == [1, 3, 6]
    assert not is_pyramidal(catalog_group("A4"))


def test_prime_series_c12():
    G = catalog_group("C12")
    ser = prime_quotient_series(trivial_subgroup(G))
    steps = sorted(b.size // a.size for a, b in zip(ser, ser[1:]))
    assert steps == [2, 2, 3]
    ser3 = prime_quotient_series(trivial_subgroup(G), p_first=3)
    assert [h.size for h in ser3] == [1, 3, 6, 12]


def test_prime_series_one_node():
    G = catalog_group("S3")
    full = Subgroup(G, G.full_mask())
    assert prime_quotient_series(full) == (full,)


def test_prime_series_steps_are_normal():
    for name in ("D4", "A4", "D6", "SD16"):
        G = catalog_group(name)
        ser = prime_quotient_series(trivial_subgroup(G))
        assert ser is not None
        for a, b in zip(ser, ser[1:]):
            q = b.size // a.size
            assert q in (2, 3) and G.normal_in(a.mask, b.mask)


def test_prime_series_p_first_ordering():
    # once a non-p step happens, no later step may have index p
    for name in ("C12", "D6", "C6xC2", "Dic3"):
        G = catalog_group(name)
        for p in (2, 3):
            ser = prime_quotient_series(trivial_subgroup(G), p_first=p)
            if ser is None:
                continue
            steps = [b.size // a.size for a, b in zip(ser, ser[1:])]
            tail = [q for q in steps if q != p]
            assert steps == [p] * (len(steps) - len(tail)) + tail


@pytest.mark.parametrize("name", [*SUBGROUP_COUNTS, *INLINE_RECORDS])
def test_prime_chains_match_the_dfs_oracles(name):
    if name in INLINE_RECORDS:
        G = group_from_generators(*INLINE_RECORDS[name], name=name)
    else:
        G = catalog_group(name)
    assert _masks(pyramidal_chain(G)) == oracle_pyramidal_chain(G)
    for H in all_subgroups(G):
        # the oracle walks H rebuilt as a group; map its ids back to G's
        members = H.members()
        oracle = oracle_pyramidal_chain(subgroup_as_group(G, H))
        expected = oracle and [
            sum(1 << x for i, x in enumerate(members) if m >> i & 1) for m in oracle
        ]
        chain = group_module._prime_chain(
            G, 1, H.mask, group_module._non_increasing, H.size
        )
        assert _masks(chain) == expected, H
        assert group_module._is_pyramidal_at(G, H.mask) == (oracle is not None), H
        for p in [None, *factorize(G.order).primes()]:
            assert _masks(prime_quotient_series(H, p)) == (
                oracle_prime_quotient_series(G, H, p)
            ), (H, p)


def test_solvable_catalog():
    assert all(is_solvable(G) for G in load_catalog())
    assert derived_series_masks(catalog_group("A4"))[-1] == 1


# --------------------------------------------------------------- quotients


def test_quotient_c12_by_c3():
    G = catalog_group("C12")
    N = [H for H in all_subgroups(G) if H.size == 3][0]
    Q = quotient_group(N)
    assert Q.order == 4
    assert max(Q.element_order(x) for x in range(4)) == 4


def test_quotient_a4_by_v4():
    G = catalog_group("A4")
    N = [H for H in all_subgroups(G) if H.size == 4][0]
    assert quotient_group(N).order == 3


def test_quotient_d4_by_center():
    G = catalog_group("D4")
    Q = quotient_group(Subgroup(G, center_mask(G)))
    assert Q.order == 4
    assert all(Q.element_order(x) <= 2 for x in range(4))


def test_quotient_requires_normal():
    G = catalog_group("S3")
    H = [s for s in all_subgroups(G) if s.size == 2][0]
    with pytest.raises(ValueError):
        quotient_group(H)


def test_subgroup_as_group_preserves_orders():
    G = catalog_group("A4")
    V = [H for H in all_subgroups(G) if H.size == 4][0]
    K = subgroup_as_group(G, V)
    assert K.order == 4 and K.is_abelian()
    assert sorted(K.element_order(x) for x in range(4)) == [1, 2, 2, 2]


def test_center_sizes():
    assert center_mask(catalog_group("D4")).bit_count() == 2
    assert center_mask(catalog_group("Q8")).bit_count() == 2
    G = catalog_group("C6xC2")
    assert center_mask(G) == G.full_mask()


# --------------------------------------------------------- identity suite


def test_suite_holds_on_small_catalog():
    for G in load_catalog():
        if G.order <= 12:
            for line in structural_suite(G):
                assert line.holds, (G.name, line.name)


def test_suite_line_names_and_vacuous_notes():
    lines = structural_suite(catalog_group("C1"))
    names = [l.name for l in lines]
    assert names == [
        "index-intersection",
        "core-primes",
        "hall-normality",
        "core-sylow-exclusion",
        "pyramidal-sylow",
        "solvable-tower",
        "pyramidal-heredity",
    ]
    by_name = {l.name: l for l in lines}
    assert by_name["pyramidal-sylow"].checked == 0
    assert by_name["pyramidal-sylow"].note == "no pyramidal chain"
    assert by_name["solvable-tower"].checked == 0


def test_index_intersection_instances():
    G = catalog_group("D6")
    subnormal = [H for H in all_subgroups(G) if is_subnormal(H)]
    for a in subnormal:
        for b in subnormal:
            assert check_index_intersection((a, b))


def test_index_intersection_sweep_matches_the_check_on_every_combination():
    # the suite's one-pass sweep over flat rows against check_index_intersection
    # on every combination with replacement of one to three subnormal
    # subgroups: the same verdict, and checked is their number
    groups = [*load_catalog(), elementary_abelian(4)]
    groups += [group_from_generators(*INLINE_RECORDS[name], name=name) for name in ("A5", "C3xS4")]
    for G in groups:
        subnormal = [H for H in all_subgroups(G) if is_subnormal(H)]
        combos = [c for r in (1, 2, 3) for c in combinations_with_replacement(subnormal, r)]
        want = all(check_index_intersection(combo) for combo in combos)
        rows = [(H.mask, H.index) for H in subnormal]
        assert group_module._index_intersection_sweep(G.order, rows) == want, G.name
        line = structural_suite(G)[0]
        assert (line.name, line.holds, line.checked) == ("index-intersection", want, len(combos))
    # rows no group has, each failing one conjunct alone: |G| over the
    # intersection 8 does not divide the index product 4, though both are
    # powers of 2; 2 divides 6, but the primes {2} and {2, 3} differ
    sweep = group_module._index_intersection_sweep
    assert not sweep(8, [(0b1, 4)])
    assert not sweep(6, [(0b111, 6)])
    # and three rows of index 2 on 12 points, meeting two at a time in 3
    # points and all three in 1: every pair passes, the triple does not
    points = [(0, 1, 2, 3, 4, 7), (0, 1, 2, 5, 6, 8), (0, 3, 4, 5, 6, 9)]
    rows = [(sum(1 << x for x in p), 2) for p in points]
    assert all(sweep(12, pair) for pair in combinations(rows, 2))
    assert not sweep(12, rows)


def test_check_preconditions():
    S3 = catalog_group("S3")
    two = [H for H in all_subgroups(S3) if H.size == 2][0]
    with pytest.raises(ValueError, match="subnormal"):
        check_core_primes(two)
    with pytest.raises(ValueError, match="subnormal"):
        check_index_intersection((two,))
    with pytest.raises(ValueError, match="at least one"):
        check_index_intersection(())
    D4 = catalog_group("D4")
    sub2 = [H for H in all_subgroups(D4) if H.size == 2][0]
    with pytest.raises(ValueError, match="Hall"):
        check_hall_normality(sub2)
    with pytest.raises(InputError, match="^requires a subnormal subgroup$"):
        check_hall_normality(two)
    with pytest.raises(ValueError, match="prime"):
        check_solvable_tower(S3, 4)


def test_check_named_instances():
    S3 = catalog_group("S3")
    three = [H for H in all_subgroups(S3) if H.size == 3][0]
    assert check_core_primes(three)
    assert check_hall_normality(three)
    assert check_solvable_tower(S3, 3) and check_solvable_tower(S3, 2)
    assert check_pyramidal_sylow(S3)
    A4 = catalog_group("A4")
    assert check_pyramidal_sylow(A4)  # vacuous: no pyramidal chain
    # no subgroup of a subnormal-only sweep excludes a prime; exercise the
    # excluded-prime path on a non-normal subgroup with trivial core
    two = [H for H in all_subgroups(S3) if H.size == 2][0]
    assert core_excluded_primes(two) == (2,)
    assert check_core_sylow_exclusion(two)


def test_core_sylow_exclusion_without_an_excluded_prime():
    # the order-3 subgroup of S3 is normal, its own core: no prime excluded
    S3 = catalog_group("S3")
    three = [H for H in all_subgroups(S3) if H.size == 3][0]
    assert core_excluded_primes(three) == ()
    assert check_core_sylow_exclusion(three)


def oracle_quotient_has_normal_sylow(G: FiniteGroup, N: int, p: int) -> bool:
    """Is a Sylow p-subgroup of G/N normal, read in G: PN/N is one, for P a
    Sylow p-subgroup of G, and it is normal in G/N iff PN is in G."""
    PN = oracle_closure_mask(G, sylow_subgroup(G, p).mask | N)
    return brute_is_normal(G, Subgroup(G, PN))


def test_sylow_theorem_checks_evaluate_every_instance_the_oracles_name(monkeypatch):
    # both checks are theorems, so their verdicts are always true; what pins
    # them is what they ask: has_normal_sylow is spied on, and each call must
    # be an instance the oracles name, with the oracle's answer
    asked = []
    real = group_module.has_normal_sylow

    def spy(Q, p):
        asked.append((Q, p, real(Q, p)))
        return asked[-1][2]

    monkeypatch.setattr(group_module, "has_normal_sylow", spy)

    def primes(n):
        return {p for p in range(2, n + 1) if n % p == 0 and is_prime(p)}

    pairs = pyramidal = 0
    for G in load_catalog():
        for H in all_subgroups(G):
            core = brute_core_mask(G, H)
            excluded = sorted(primes(G.order // core.bit_count()) - primes(H.index))
            assert core_excluded_primes(H) == tuple(excluded), (G.name, H)
            asked.clear()
            assert check_core_sylow_exclusion(H), (G.name, H)
            assert [(Q.order * core.bit_count(), p, normal) for Q, p, normal in asked] == [
                (G.order, p, oracle_quotient_has_normal_sylow(G, core, p)) for p in excluded
            ]
            pairs += len(excluded)
        asked.clear()
        assert check_pyramidal_sylow(G), G.name
        if G.order > 1 and oracle_pyramidal_chain(G) is not None:
            top = max(primes(G.order))
            assert asked == [(G, top, brute_is_normal(G, sylow_subgroup(G, top)))]
            pyramidal += 1
        else:
            assert asked == [], G.name
    assert (pairs, pyramidal) == (25, 40)  # every catalog group but C1 and A4
    # and each verdict is the answer it was given: every Sylow subgroup
    # reported normal fails every excluded prime, none fails every pyramid
    for answer in (True, False):
        monkeypatch.setattr(group_module, "has_normal_sylow", lambda Q, p: answer)
        for G in load_catalog():
            for H in all_subgroups(G):
                assert check_core_sylow_exclusion(H) == (not answer or not core_excluded_primes(H))
            assert check_pyramidal_sylow(G) == (answer or not (G.order > 1 and is_pyramidal(G)))


# ------------------------------------------------------ non-solvable groups


@pytest.mark.parametrize(
    "build, subgroups, budget_s", [(inline_a5, 59, 1.0), (inline_s5, 156, 10.0)]
)
def test_nonsolvable_suite(build, subgroups, budget_s):
    G = build()
    start = time.perf_counter()
    lines = {line.name: line for line in structural_suite(G)}
    assert time.perf_counter() - start < budget_s
    subs = all_subgroups(G)
    assert len(subs) == subgroups
    assert all(oracle_closure_mask(G, H.mask) == H.mask for H in subs)
    assert all(line.holds for line in lines.values()), lines
    assert not is_solvable(G) and not is_pyramidal(G)
    # the branches every catalog group skips: no pyramidal chain, and
    # quotients by cores that exclude a prime
    assert lines["pyramidal-sylow"].checked == 0
    assert lines["pyramidal-sylow"].note == "no pyramidal chain"
    assert lines["pyramidal-heredity"].note == "no pyramidal chain"
    assert lines["core-sylow-exclusion"].checked > 0
    assert lines["solvable-tower"].checked == 3
    for p in (2, 3, 5):
        assert prime_quotient_series(trivial_subgroup(G), p_first=p) is None


def test_a5_suite_counts():
    lines = {line.name: line.checked for line in structural_suite(inline_a5())}
    assert lines == {
        "index-intersection": 9,
        "core-primes": 2,
        "hall-normality": 2,
        "core-sylow-exclusion": 42,
        "pyramidal-sylow": 0,
        "solvable-tower": 3,
        "pyramidal-heredity": 0,
    }


def test_s5_derived_series_stops_at_a5():
    assert [m.bit_count() for m in derived_series_masks(inline_s5())] == [120, 60]


def test_a5_suite_reads_quotient_and_lattice_from_memo(monkeypatch):
    G = inline_a5()
    built = []
    lattice = group_module._lattice
    monkeypatch.setattr(
        group_module, "_lattice", lambda K: built.append(K) or lattice(K)
    )
    structural_suite(G)
    assert built == [G]
    H = next(H for H in all_subgroups(G) if H.size == 5)
    assert core_of(H).size == 1
    assert quotient_group(core_of(H)) is G
    assert all_subgroups(G) is all_subgroups(quotient_group(trivial_subgroup(G)))
    assert built == [G]


def elementary_abelian(rank: int) -> FiniteGroup:
    gens = [f"({2 * i + 1} {2 * i + 2})" for i in range(rank)]
    return group_from_generators(2 * rank, gens, name=f"C2^{rank}")


def test_suite_heredity_reads_the_parents_lattice(monkeypatch):
    # every proper subgroup's pyramidality is walked in G's own lattice:
    # no subgroup is rebuilt as a group and no second lattice is enumerated
    G = elementary_abelian(4)
    built, lattices = [], []
    init, lattice = FiniteGroup.__init__, group_module._lattice
    monkeypatch.setattr(
        FiniteGroup,
        "__init__",
        lambda self, *a, **k: built.append(a) or init(self, *a, **k),
    )
    monkeypatch.setattr(
        group_module, "_lattice", lambda K: lattices.append(K) or lattice(K)
    )
    lines = {line.name: line for line in structural_suite(G)}
    assert built == [] and lattices == [G]
    assert lines["index-intersection"].checked == 54739
    heredity = lines["pyramidal-heredity"]
    assert heredity.holds and heredity.checked == 65


def test_suite_refuses_index_intersection_sweep_over_its_cap(monkeypatch):
    G = elementary_abelian(6)
    checked = []
    monkeypatch.setattr(
        group_module, "_index_intersection_sweep", lambda *a: checked.append(a) or True
    )
    cap = group_module.INDEX_INTERSECTION_CAP
    with pytest.raises(BudgetError) as e:
        structural_suite(G)
    # 2825 subgroups, all normal: C(2825,1) + C(2826,2) + C(2827,3)
    assert str(e.value) == (
        f"group C2^6: index-intersection sweep has 3765530075 instances, "
        f"above the cap {cap}"
    )
    assert checked == []


def test_quotient_is_memoized():
    G = catalog_group("A4")
    V = [H for H in all_subgroups(G) if H.size == 4][0]
    assert quotient_group(V) is quotient_group(Subgroup(G, V.mask))
