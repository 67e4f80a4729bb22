"""Finite systems of left cosets a_i G_i inside a finite group.

Classification by covering multiplicity, the multiplicity kernel, exact
index bounds for uniform covers together with the hypothesis flags that
make each bound a theorem instance, and two desk-scale exhaustive
searches (uniform-cover enumeration and the distinct-index partition
hunt).  Cosets are bitmasks; every inequality is evaluated in exact
rational arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .arith import divisor_list, euler_product, factorize, least_prime
from .errors import SearchBudgetError
from .group import (
    FiniteGroup,
    Subgroup,
    _bits,
    all_subgroups,
    core_of,
    has_normal_sylow,
    is_normal,
    is_solvable,
    is_subnormal,
    left_coset_mask,
    prime_quotient_series,
    quotient_group,
)

# hard caps for the exhaustive explorers; exactness over coverage
ENUM_ORDER_MAX = 24
ENUM_K_MAX = 8
SEARCH_ORDER_MAX = 24
DEFAULT_NODE_BUDGET = 5_000_000

# kernel union-property sweeps stop considering entries past this count
KERNEL_SUBSET_CAP = 12

EntryLike = tuple[int, Union[Subgroup, int]]


# ------------------------------------------------------------------ systems


@dataclass(frozen=True)
class CosetSystem:
    """Left cosets rep*sub over one parent group, in given order.

    Entries may repeat; n_i denotes the index of the i-th subgroup.
    """

    parent: FiniteGroup
    entries: tuple[tuple[int, Subgroup], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("coset system needs at least one entry")
        for rep, sub in self.entries:
            if sub.parent is not self.parent:
                raise ValueError("entry subgroup belongs to a different group")
            if not 0 <= rep < self.parent.order:
                raise ValueError(f"representative {rep} out of range")

    @staticmethod
    def from_pairs(G: FiniteGroup, pairs: Sequence[EntryLike]) -> "CosetSystem":
        entries = []
        for rep, sub in pairs:
            if isinstance(sub, int):
                sub = Subgroup(G, sub)
            entries.append((rep, sub))
        return CosetSystem(G, tuple(entries))

    def __len__(self):
        return len(self.entries)

    def indices(self) -> tuple[int, ...]:
        return tuple(sub.index for _, sub in self.entries)

    def coset_masks(self) -> tuple[int, ...]:
        G = self.parent
        return tuple(left_coset_mask(G, rep, sub) for rep, sub in self.entries)

    def canonical(self) -> "CosetSystem":
        """Reps replaced by the least member of their coset, entries
        sorted by (index, subgroup mask, representative)."""
        keyed = []
        for (rep, sub), mask in zip(self.entries, self.coset_masks()):
            least = (mask & -mask).bit_length() - 1
            keyed.append((sub.index, sub.mask, least, sub))
        keyed.sort(key=lambda t: t[:3])
        return CosetSystem(
            self.parent, tuple((least, sub) for _, _, least, sub in keyed)
        )

    def __repr__(self):
        return (
            f"CosetSystem({self.parent.name}, k={len(self.entries)}, "
            f"indices={self.indices()})"
        )


@dataclass(frozen=True)
class WeightProfile:
    """Covering multiplicities w(x) = #{i : x in a_i G_i} per element."""

    counts: tuple[int, ...]
    min_w: int
    max_w: int
    covered: int
    uniform_m: Optional[int]
    is_cover: bool
    is_partition: bool
    is_trivial: bool


def weight_profile(cover: CosetSystem) -> WeightProfile:
    """Per-element covering counts with the usual classification flags.

    uniform_m is set iff the count is constant; is_partition means
    constant one; is_trivial means every subgroup is the whole group.
    """
    G = cover.parent
    counts = [0] * G.order
    for mask in cover.coset_masks():
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
        is_trivial=all(sub.is_full() for _, sub in cover.entries),
    )


def _require_nontrivial_uniform(cover: CosetSystem) -> WeightProfile:
    prof = weight_profile(cover)
    if prof.uniform_m is None or prof.uniform_m == 0:
        raise ValueError("system is not a uniform cover")
    if prof.is_trivial:
        raise ValueError("system is trivial (every subgroup is the whole group)")
    return prof


def _normalize_entries(
    G: FiniteGroup, entries: Sequence[EntryLike]
) -> list[tuple[int, Subgroup]]:
    out = []
    for rep, sub in entries:
        if isinstance(sub, int):
            sub = Subgroup(G, sub)
        elif sub.parent is not G:
            raise ValueError("entry subgroup belongs to a different group")
        if not 0 <= rep < G.order:
            raise ValueError(f"representative {rep} out of range")
        out.append((rep, sub))
    if not out:
        raise ValueError("need at least one entry")
    return out


# ------------------------------------------------------------------- kernel


@dataclass(frozen=True)
class KernelReport:
    """The subgroup of right translations preserving the weight function."""

    kernel: Subgroup
    contains_intersection: bool
    union_property_verified: bool
    subsets_checked: int
    capped: bool


def _is_union_of_left_cosets(G: FiniteGroup, union: int, sub_mask: int) -> bool:
    members = list(_bits(sub_mask))
    for g in _bits(union):
        row = G.table[g]
        for d in members:
            if not union >> row[d] & 1:
                return False
    return True


def kernel_of(cover: CosetSystem) -> KernelReport:
    """K = {x : w(gx) = w(g) for all g}, by direct test over the group.

    Also verifies that K contains the intersection of the subgroups, and
    that for every nonempty entry subset I the partial union over I is a
    union of left cosets of K intersected with the subgroups outside I.
    Subset sweeps consider only the first KERNEL_SUBSET_CAP entries;
    capped is set when entries were left out.
    """
    G = cover.parent
    masks = cover.coset_masks()
    w = weight_profile(cover).counts
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
        if not _is_union_of_left_cosets(G, union, dmask):
            ok = False
            break
    return KernelReport(
        kernel=kernel,
        contains_intersection=contains,
        union_property_verified=ok,
        subsets_checked=checked,
        capped=capped,
    )


# ------------------------------------------------- union-of-cosets bounds


@dataclass(frozen=True)
class UnionBoundReport:
    """H-cosets met by the union, against index-multiple counts below h."""

    index_h: int
    indices: tuple[int, ...]
    lhs: int
    rhs: int
    hypothesis: str  # "subnormal" | "series" | "none"

    @property
    def holds(self) -> bool:
        return self.lhs >= self.rhs


def check_union_lower_bound(
    G: FiniteGroup, H: Subgroup, entries: Sequence[EntryLike]
) -> UnionBoundReport:
    """Count left H-cosets meeting the union of the a_i G_i and compare
    with |{0 <= n < [G:H] : some n_i divides n}|.

    Every subgroup must contain H.  The hypothesis field records what
    makes the inequality more than an observation: "subnormal" when all
    the G_i are subnormal, otherwise "series" when some chain from H to
    G has prime-order quotients all the way; "none" means the numbers
    are still reported but nothing is guaranteed.
    """
    pairs = _normalize_entries(G, entries)
    for _, sub in pairs:
        if sub.mask & H.mask != H.mask:
            raise ValueError("every entry subgroup must contain H")
    h = H.index
    union = 0
    for rep, sub in pairs:
        union |= left_coset_mask(G, rep, sub)
    met = set()
    for x in _bits(union):
        cmask = left_coset_mask(G, x, H)
        met.add(cmask & -cmask)
    ns = tuple(sub.index for _, sub in pairs)
    rhs = sum(1 for n in range(h) if any(n % d == 0 for d in ns))
    if all(is_subnormal(G, sub).is_subnormal for _, sub in pairs):
        hyp = "subnormal"
    elif prime_quotient_series(G, H) is not None:
        hyp = "series"
    else:
        hyp = "none"
    return UnionBoundReport(
        index_h=h, indices=ns, lhs=len(met), rhs=rhs, hypothesis=hyp
    )


@dataclass(frozen=True)
class AlignedUnionReport:
    """Index-gcd bound for unions that are exactly unions of H-cosets.

    lhs = (n_1,...,n_k) / (h,n_1,...,n_k); rhs = max index multiplicity
    times the reciprocal divisor sum of lcm/gcd.  The case field records
    which normality/solvability combination applies: "a" all G_i
    subnormal with H normal, "b" all G_i normal with H subnormal, "c"
    all G_i normal with G over their intersection solvable, "d" H normal
    with G/H solvable or every G over the core of G_i solvable.
    """

    case: str  # "a" | "b" | "c" | "d" | "none"
    d_both_branches: bool
    index_h: int
    indices: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


def check_aligned_union_bound(
    G: FiniteGroup, H: Subgroup, entries: Sequence[EntryLike]
) -> AlignedUnionReport:
    pairs = _normalize_entries(G, entries)
    union = 0
    for rep, sub in pairs:
        union |= left_coset_mask(G, rep, sub)
    for x in _bits(union):
        if left_coset_mask(G, x, H) & ~union:
            raise ValueError("union of the cosets is not a union of left H-cosets")

    h = H.index
    ns = tuple(sub.index for _, sub in pairs)
    g_all = math.gcd(*ns)
    lhs = Fraction(g_all, math.gcd(h, g_all))
    mult = max(Counter(ns).values())
    ratio = math.lcm(*ns) // g_all
    rhs = mult * sum(Fraction(1, d) for d in divisor_list(ratio))

    all_normal = all(is_normal(G, sub) for _, sub in pairs)
    all_subn = all_normal or all(is_subnormal(G, sub).is_subnormal for _, sub in pairs)
    h_normal = is_normal(G, H)
    case = "none"
    d_both = False
    if all_subn and h_normal:
        case = "a"
    elif all_normal and is_subnormal(G, H).is_subnormal:
        case = "b"
    elif all_normal:
        inter = G.full_mask()
        for _, sub in pairs:
            inter &= sub.mask
        if is_solvable(quotient_group(G, Subgroup(G, inter))):
            case = "c"
    if case == "none" and h_normal:
        gh_solvable = is_solvable(quotient_group(G, H))
        cores_solvable = all(
            is_solvable(quotient_group(G, core_of(G, sub))) for _, sub in pairs
        )
        if gh_solvable or cores_solvable:
            case = "d"
            d_both = gh_solvable and cores_solvable
    return AlignedUnionReport(
        case=case,
        d_both_branches=d_both,
        index_h=h,
        indices=ns,
        lhs=lhs,
        rhs=rhs,
    )


# ------------------------------------------------------- uniform covers


@dataclass(frozen=True)
class SquarefreeBound:
    """Multiplicity floor for uniform covers of squarefree-order groups."""

    product_bound: Fraction
    weak_bound: Fraction
    multiplicity: int

    @property
    def holds(self) -> bool:
        return self.multiplicity >= self.product_bound >= self.weak_bound


@dataclass(frozen=True)
class EqualPairReport:
    """Existence of two equal indices divisible by the designated prime."""

    prime: int
    applicable: bool
    via_subnormal: bool
    via_sylow: bool
    pair: Optional[tuple[int, int]]

    @property
    def holds(self) -> bool:
        return not self.applicable or self.pair is not None


@dataclass(frozen=True)
class UniformCoverReport:
    """Exact index bound at the largest prime of the index lcm.

    The inequality compares prime**beta with epsilon * top_multiplicity
    * prod p/(p-1) over the primes of the lcm; it is a theorem whenever
    (cond_a and cond_b) or cond_c holds.  multiplicity_floor is the
    integer floor forced on top_multiplicity, and min_prime the floor
    forced on max_multiplicity, under the same hypotheses.
    """

    m: int
    k: int
    indices: tuple[int, ...]
    lcm_indices: int
    prime_powers: tuple[tuple[int, int], ...]
    prime: int
    alpha: int
    beta: int
    epsilon: Fraction
    top_multiplicity: int
    lhs: Fraction
    rhs: Fraction
    cond_a: bool
    cond_a_vacuous: bool
    cond_b: bool
    cond_c: bool
    big_subnormal: bool
    max_multiplicity: int
    min_prime: int
    multiplicity_floor: int
    squarefree: Optional[SquarefreeBound]
    equal_pair: EqualPairReport

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def applicable(self) -> bool:
        return (self.cond_a and self.cond_b) or self.cond_c

    @property
    def multiplicity_applicable(self) -> bool:
        # the hypothesis backing the two multiplicity floors: every
        # subgroup of index >= the designated prime subnormal, or cond_c
        return self.big_subnormal or self.cond_c

    @property
    def floor_ok(self) -> bool:
        return self.top_multiplicity >= self.multiplicity_floor

    @property
    def max_mult_ok(self) -> bool:
        return self.max_multiplicity >= self.min_prime


def check_uniform_cover(cover: CosetSystem) -> UniformCoverReport:
    """Evaluate the index bound and its hypothesis flags for a
    nontrivial uniform cover, with the squarefree-order bound and the
    equal-index-pair consequence attached when their hypotheses apply."""
    prof = _require_nontrivial_uniform(cover)
    G = cover.parent
    ns = cover.indices()
    N = math.lcm(*ns)
    pp = factorize(N).pairs
    p_r, alpha_r = pp[-1]
    r = len(pp)

    orders = [factorize(n).ord_of(p_r) for n in ns]
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
    subnormal = {m: is_subnormal(G, sub).is_subnormal for m, sub in distinct.items()}
    subn_top = all(subnormal[s.mask] for s in top)
    cond_a_vacuous = False
    if subn_top:
        cond_a = True
    else:
        solv_top = all(is_solvable(quotient_group(G, core_of(G, s))) for s in top)
        solv_rest = all(is_solvable(quotient_group(G, core_of(G, s))) for s in rest)
        cond_a = solv_top or solv_rest
        cond_a_vacuous = cond_a and not solv_top and not rest

    cond_b = True
    for sub in rest:
        if sub.index > p_r and not subnormal[sub.mask]:
            if not has_normal_sylow(quotient_group(G, core_of(G, sub)), p_r):
                cond_b = False
                break

    icore = G.full_mask()
    for sub in distinct.values():
        icore &= core_of(G, sub).mask
    Q = quotient_group(G, Subgroup(G, icore))
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
        witness = next(
            n for n in counts if n % p_r == 0 and counts[n] == top_mult
        )
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


def reciprocal_index_sum(cover: CosetSystem) -> Fraction:
    """Sum of 1/n_i; equals m exactly for every uniform m-cover."""
    return sum((Fraction(1, n) for n in cover.indices()), Fraction(0))


@dataclass(frozen=True)
class MaxIndexReport:
    """Multiplicity of the largest index against its least prime factor."""

    n_max: int
    multiplicity: int
    least_prime: int
    all_subnormal: bool

    @property
    def holds(self) -> bool:
        return self.multiplicity >= self.least_prime


def probe_max_index_multiplicity(cover: CosetSystem) -> MaxIndexReport:
    """Check that the largest index occurs at least as often as its least
    prime factor.  Informational unless every subgroup is subnormal."""
    _require_nontrivial_uniform(cover)
    G = cover.parent
    ns = cover.indices()
    n_max = max(ns)
    return MaxIndexReport(
        n_max=n_max,
        multiplicity=sum(1 for n in ns if n == n_max),
        least_prime=least_prime(n_max),
        all_subnormal=all(
            is_subnormal(G, sub).is_subnormal for _, sub in cover.entries
        ),
    )


# ------------------------------------------------------------ enumeration


class _BudgetStop(Exception):
    pass


class CoverStream:
    """Iterator over enumerated covers; truncated is set (after
    exhaustion) when the node budget ran out before the search space."""

    def __init__(self):
        self.truncated = False
        self.nodes = 0
        self._gen = None

    def __iter__(self) -> Iterator[CosetSystem]:
        return self._gen


def enumerate_uniform_covers(
    G: FiniteGroup,
    k_max: int,
    m: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CoverStream:
    """Yield every nontrivial uniform m-cover of G with at most k_max
    entries, one representative per entry reordering.

    Entries are chosen as a nondecreasing sequence in the canonical
    order (index, subgroup mask, least coset member), so each multiset
    of cosets appears exactly once.  The whole-group entry is allowed as
    long as some entry is a proper coset.  Backtracking prunes on the
    remaining weight mass and on deficient elements no later choice can
    still cover.
    """
    if G.order > ENUM_ORDER_MAX:
        raise ValueError(f"enumeration capped at order {ENUM_ORDER_MAX}")
    if not 1 <= k_max <= ENUM_K_MAX:
        raise ValueError(f"k_max must be in 1..{ENUM_K_MAX}")
    if m < 1:
        raise ValueError("m must be positive")

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
    n_choice = len(choices)
    suffix = [0] * (n_choice + 1)
    for i in range(n_choice - 1, -1, -1):
        suffix[i] = suffix[i + 1] | choices[i][3]

    stream = CoverStream()
    order = G.order

    def gen():
        w = [0] * order
        picked: list[tuple[int, Subgroup]] = []

        def rec(pos: int, mass: int):
            if mass == 0:
                if any(not sub.is_full() for _, sub in picked):
                    yield CosetSystem(G, tuple(picked))
                return
            if len(picked) == k_max:
                return
            slots = k_max - len(picked)
            need = 0
            for x in range(order):
                if w[x] < m:
                    need |= 1 << x
            for i in range(pos, n_choice):
                idx, _, rep, cmask, sub = choices[i]
                stream.nodes += 1
                if stream.nodes > node_budget:
                    raise _BudgetStop
                if need & ~suffix[i]:
                    return
                size = order // idx
                if mass > slots * size:
                    return
                blocked = False
                for x in _bits(cmask):
                    if w[x] == m:
                        blocked = True
                        break
                if blocked:
                    continue
                picked.append((rep, sub))
                for x in _bits(cmask):
                    w[x] += 1
                yield from rec(i, mass - size)
                for x in _bits(cmask):
                    w[x] -= 1
                picked.pop()

        try:
            yield from rec(0, m * order)
        except _BudgetStop:
            stream.truncated = True

    stream._gen = gen()
    return stream


# ---------------------------------------------------------------- searches


@dataclass(frozen=True)
class HsSearchResult:
    """Outcome of the distinct-index partition hunt on one group."""

    group: str
    found: Optional[CosetSystem]
    nodes_explored: int
    index_multisets_tried: tuple[tuple[int, ...], ...]


def feasible_distinct_index_sets(order: int) -> list[tuple[int, ...]]:
    """Subsets of the divisors of order (excluding 1, size >= 2) whose
    reciprocals sum to exactly 1 -- the arithmetic gate any distinct-index
    partition must pass."""
    divs = [d for d in divisor_list(order) if d > 1]
    out: list[tuple[int, ...]] = []
    tail = [Fraction(0)] * (len(divs) + 1)
    for i in range(len(divs) - 1, -1, -1):
        tail[i] = tail[i + 1] + Fraction(1, divs[i])

    def walk(i: int, acc: list[int], left: Fraction):
        if left == 0:
            if len(acc) >= 2:
                out.append(tuple(acc))
            return
        if i == len(divs) or left < 0 or tail[i] < left:
            return
        acc.append(divs[i])
        walk(i + 1, acc, left - Fraction(1, divs[i]))
        acc.pop()
        walk(i + 1, acc, left)

    walk(0, [], Fraction(1))
    return out


def search_distinct_index_partition(
    G: FiniteGroup, node_budget: int = DEFAULT_NODE_BUDGET
) -> HsSearchResult:
    """Exhaustive hunt for a partition of G into more than one coset with
    pairwise distinct indices.

    Feasible index sets come first (reciprocals summing to 1 over
    distinct divisors); each is then tried by backtracking placement
    that always extends at the least uncovered element, whose coset is
    determined by the subgroup chosen.  found stays None on every group
    anyone has ever looked at.
    """
    if G.order > SEARCH_ORDER_MAX:
        raise ValueError(f"search capped at order {SEARCH_ORDER_MAX}")
    by_index: dict[int, list[Subgroup]] = {}
    for sub in all_subgroups(G):
        by_index.setdefault(sub.index, []).append(sub)
    full = G.full_mask()
    nodes = 0
    tried: list[tuple[int, ...]] = []

    def place(
        covered: int, remaining: tuple[int, ...], picked: list[tuple[int, Subgroup]]
    ) -> Optional[list[tuple[int, Subgroup]]]:
        nonlocal nodes
        if covered == full:
            return picked if not remaining else None
        x = (~covered & full & -(~covered & full)).bit_length() - 1
        for pos, d in enumerate(remaining):
            for sub in by_index.get(d, ()):
                nodes += 1
                if nodes > node_budget:
                    raise SearchBudgetError(
                        f"partition search on {G.name} exceeded {node_budget} nodes"
                    )
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
            system = CosetSystem(G, tuple(got)).canonical()
            if not weight_profile(system).is_partition:
                raise RuntimeError("search produced a non-partition, logic error")
            return HsSearchResult(G.name, system, nodes, tuple(tried))
    return HsSearchResult(G.name, None, nodes, tuple(tried))
