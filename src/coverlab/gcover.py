"""Finite systems of left cosets a_i G_i inside a finite group.

Classification by covering multiplicity, the multiplicity kernel (its
partial-union property checked once per distinct subgroup D, not once
per entry subset), exact index bounds for uniform covers together with
the hypothesis flags that make each bound a theorem instance, and two
desk-scale exhaustive searches (uniform-cover enumeration and the
distinct-index partition hunt), both by one exact-cover backtracker on
bitsets of coset positions, which branches on the least coset, then on
the least element still short of its multiplicity; a node is one coset
tried at a branch, the cosets skipped as blocked or too small are
counted in bulk, to the same count as one at a time, a branch the cut
rules out is refused before it is entered, and the last pick is made in
its parent's loop, with no call of its own.  Covers come out in
lexicographic order of their canonical coset positions.  Each fact has
one owner.  A system holds its coset bitmasks and its weight profile,
summed once into binary bit planes (`levels.add` and `levels.walk`,
shared with the residue layer).  Its indices and the check's and
probe's reports, hypothesis flags included, are one record per subgroup
sequence, which the enumerator shares among the covers of one sequence.
A subgroup's cosets, core, subnormality and quotient by its core are
group memo facts, and an index multiset's arithmetic is cached per
multiset.  Inequalities are exact rationals.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import groupby
from operator import and_, itemgetter, or_
from typing import Iterator, NamedTuple, Optional, Sequence

from .arith import divisor_list, euler_product, factorize, index_bound_factor, ord_of
from .errors import BudgetError, InputError
from .group import (
    FiniteGroup,
    Subgroup,
    _bits,
    _prime_support,
    all_subgroups,
    core_of,
    has_normal_sylow,
    is_normal,
    is_solvable,
    is_subnormal,
    left_coset_mask,
    left_cosets,
    prime_quotient_series,
    quotient_group,
)
from .levels import add, walk

# hard caps for the exhaustive explorers; exactness over coverage
ENUM_ORDER_MAX = 24
ENUM_K_MAX = 8
SEARCH_ORDER_MAX = 24
DEFAULT_NODE_BUDGET = 5_000_000

# kernel union-property sweeps stop considering entries past this count
KERNEL_SUBSET_CAP = 12


# ------------------------------------------------------------------ systems


class SequenceFacts:
    """What the checks read of a system's subgroup sequence (the entries'
    subgroups in entry order) alone: the indices, and the reports of
    check_uniform_cover and the probe, None until first asked for.  Every
    report field, the hypothesis flags and m = sum 1/n_i included, is a
    function of the sequence, so covers with one sequence can share one."""

    __slots__ = ("indices", "check", "probe")

    def __init__(self, indices: tuple[int, ...]):
        self.indices, self.check, self.probe = indices, None, None


class CosetSystem:
    """Left cosets rep*sub over one parent group, in given order.

    Entries may repeat; n_i denotes the index of the i-th subgroup.  The
    constructor checks every entry and computes masks, the coset of each
    entry as a bitmask, and facts, the SequenceFacts of the entries'
    subgroup sequence; the weight profile is summed on first use.  Two
    systems are equal when their parents and entries are; no mask,
    profile or other fact takes part.
    """

    __slots__ = ("parent", "entries", "masks", "facts", "_profile")

    def __init__(self, parent: FiniteGroup, entries: Sequence[tuple[int, Subgroup]]):
        entries = tuple(entries)
        if not entries:
            raise InputError("coset system needs at least one entry")
        for rep, sub in entries:
            if sub.parent is not parent:
                raise ValueError("entry subgroup belongs to a different group")
            if not 0 <= rep < parent.order:
                raise InputError(f"representative {rep} out of range")
        self._fill(parent, entries, tuple(left_coset_mask(rep, sub) for rep, sub in entries))

    @classmethod
    def _trusted(cls, parent, entries, masks, profile=None, facts=None) -> "CosetSystem":
        """The system of entries and masks taken from parent's own coset
        table or a checked system, built without the constructor's checks;
        profile and facts, when given, are what the caller has proved."""
        system = cls.__new__(cls)
        system._fill(parent, entries, masks, profile, facts)
        return system

    def _fill(self, parent, entries, masks, profile=None, facts=None):
        self.parent, self.entries, self.masks, self._profile = parent, entries, masks, profile
        self.facts = facts or SequenceFacts(tuple(parent.order // c.bit_count() for c in masks))

    def __eq__(self, other):
        if not isinstance(other, CosetSystem):
            return NotImplemented
        return (self.parent, self.entries) == (other.parent, other.entries)

    def __hash__(self):
        return hash((self.parent, self.entries))

    def __len__(self):
        return len(self.entries)

    def indices(self) -> tuple[int, ...]:
        return self.facts.indices

    def canonical(self) -> "CosetSystem":
        """Reps replaced by the least member of their coset, entries
        sorted by (index, subgroup mask, representative)."""
        keyed = []
        for (rep, sub), mask in zip(self.entries, self.masks):
            least = (mask & -mask).bit_length() - 1
            keyed.append((sub.index, sub.mask, least, sub, mask))
        keyed.sort(key=lambda t: t[:3])
        entries = tuple((least, sub) for _, _, least, sub, _ in keyed)
        return CosetSystem._trusted(self.parent, entries, tuple(t[4] for t in keyed))

    def __repr__(self):
        return (
            f"CosetSystem({self.parent.name}, k={len(self.entries)}, "
            f"indices={self.indices()})"
        )


class WeightProfile(NamedTuple):
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
    """Per-element covering counts with the usual classification flags,
    summed from the masks once per system.

    uniform_m is set iff the count is constant; is_partition means
    constant one; is_trivial means every subgroup is the whole group.
    """
    if cover._profile is not None:
        return cover._profile
    G = cover.parent
    full = G.full_mask()
    planes = add([], cover.masks)
    lo, hi, covered = walk(full, planes)
    if lo == hi:
        counts = (lo,) * G.order
    else:
        counts = tuple(
            sum((plane >> x & 1) << j for j, plane in enumerate(planes))
            for x in range(G.order)
        )
    cover._profile = WeightProfile(
        counts, lo, hi, covered, lo if lo == hi else None, lo >= 1, lo == hi == 1,
        cover.masks.count(full) == len(cover.masks),
    )
    return cover._profile


def _require_nontrivial_uniform(cover: CosetSystem) -> WeightProfile:
    prof = weight_profile(cover)
    if prof.uniform_m is None or prof.uniform_m == 0:
        raise InputError("system is not a uniform cover")
    if prof.is_trivial:
        raise InputError("system is trivial (every subgroup is the whole group)")
    return prof


def _cosets(G: FiniteGroup, subs: Sequence[Subgroup]) -> list[tuple]:
    """(index, subgroup mask, least member, coset mask, sub) for every left
    coset of every subgroup in subs, sorted by the first three fields."""
    out = [
        (sub.index, sub.mask, (c & -c).bit_length() - 1, c, sub)
        for sub in subs
        for c in left_cosets(G, sub.mask)
    ]
    return sorted(out, key=lambda t: t[:3])


def _is_union_of(union: int, cosets: Sequence[int]) -> bool:
    for c in cosets:
        meet = union & c
        if meet and meet != c:
            return False
    return True


# ------------------------------------------------------------------- kernel


class KernelReport(NamedTuple):
    """The subgroup of right translations preserving the weight function."""

    kernel: Subgroup
    contains_intersection: bool
    union_property_verified: bool
    subsets_checked: int
    capped: bool


def kernel_of(cover: CosetSystem) -> KernelReport:
    """K = {x : w(gx) = w(g) for all g}, by direct test over the group.

    Also verifies that K contains the intersection of the subgroups, and
    that for every nonempty entry subset I the partial union over I is a
    union of left cosets of D, the meet of K with the subgroups outside I.
    That holds for all I iff, for each distinct D, the union U_D of the
    entries whose subgroups do not contain D is a union of D-cosets: an
    entry whose subgroup contains D is such a union, as is each entry
    outside I, so the union over I is U_D with some of those added; and
    U_D is empty or the union over the entries not containing D, whose D
    is D again.  So one check per D; only after a failure are the subsets
    scanned by their bits, and subsets_checked counts them up to the
    first that fails, or all.  Subset checks consider only the first
    KERNEL_SUBSET_CAP entries; capped is set when entries were left out.
    """
    G = cover.parent
    masks = cover.masks
    prof = weight_profile(cover)
    if prof.uniform_m is not None:  # every translation keeps a constant w
        kmask = G.full_mask()
    else:
        w, kmask = prof.counts, 0
        for x in range(G.order):
            col = [row[x] for row in G.table]
            if all(w[col[g]] == w[g] for g in range(G.order)):
                kmask |= 1 << x
    kernel = Subgroup(G, kmask)

    subs = [sub.mask for _, sub in cover.entries]
    scope = min(len(subs), KERNEL_SUBSET_CAP)
    past = reduce(and_, subs[scope:], G.full_mask())  # the subgroups past the cap
    pairs = tuple(zip(masks, subs[:scope]))
    ds = {kmask & past}  # each subset's D, and the meet of all, where U_D is empty
    for sub in set(subs[:scope]):
        ds |= {d & sub for d in ds}
    ok = all(_is_union_of(reduce(or_, (c for c, s in pairs if d & s != d), 0),
                          left_cosets(G, d)) for d in ds - {1})  # U_D, once per D
    checked = (1 << scope) - 1
    if not ok:  # union and intersection of each subset by its bits
        union, inside = [0], [G.full_mask()]
        for mask, sub in pairs:  # those holding entry i: those without it, and i
            union += [u | mask for u in union]
            inside += [d & sub for d in inside]
        # each subset's union, beside the meet over its complement
        checked = next(b for b, (part, rest) in enumerate(zip(union[1:], inside[-2::-1]), 1)
                       if not _is_union_of(part, left_cosets(G, kmask & past & rest)))
    inter = reduce(and_, subs, G.full_mask())
    return KernelReport(kernel, kmask & inter == inter, ok, checked, len(subs) > KERNEL_SUBSET_CAP)


# ------------------------------------------------- union-of-cosets bounds


class UnionBoundReport(NamedTuple):
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
    H: Subgroup, entries: Sequence[tuple[int, Subgroup]]
) -> UnionBoundReport:
    """Count left H-cosets meeting the union of the a_i G_i and compare
    with |{0 <= n < [G:H] : some n_i divides n}|.

    Every subgroup must contain H.  The hypothesis field records what
    makes the inequality more than an observation: "subnormal" when all
    the G_i are subnormal, otherwise "series" when some chain from H to
    G has prime-order quotients all the way; "none" means the numbers
    are still reported but nothing is guaranteed.
    """
    G = H.parent
    system = CosetSystem(G, entries)
    for _, sub in system.entries:
        if sub.mask & H.mask != H.mask:
            raise InputError("every entry subgroup must contain H")
    h = H.index
    union = reduce(or_, system.masks)
    met = sum(1 for c in left_cosets(G, H.mask) if c & union)
    ns = system.indices()
    rhs = sum(1 for n in range(h) if any(n % d == 0 for d in ns))
    if all(is_subnormal(sub) for _, sub in system.entries):
        hyp = "subnormal"
    elif prime_quotient_series(H) is not None:
        hyp = "series"
    else:
        hyp = "none"
    return UnionBoundReport(index_h=h, indices=ns, lhs=met, rhs=rhs, hypothesis=hyp)


class AlignedUnionReport(NamedTuple):
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
    H: Subgroup, entries: Sequence[tuple[int, Subgroup]]
) -> AlignedUnionReport:
    G = H.parent
    system = CosetSystem(G, entries)
    pairs = system.entries
    union = reduce(or_, system.masks)
    if not _is_union_of(union, left_cosets(G, H.mask)):
        raise InputError("union of the cosets is not a union of left H-cosets")

    h = H.index
    ns = system.indices()
    g_all = math.gcd(*ns)
    lhs = Fraction(g_all, math.gcd(h, g_all))
    mult = max(Counter(ns).values())
    ratio = math.lcm(*ns) // g_all
    rhs = mult * sum(Fraction(1, d) for d in divisor_list(ratio))

    all_normal = all(is_normal(sub) for _, sub in pairs)
    all_subn = all_normal or all(is_subnormal(sub) for _, sub in pairs)
    h_normal = is_normal(H)
    case = "none"
    d_both = False
    if all_subn and h_normal:
        case = "a"
    elif all_normal and is_subnormal(H):
        case = "b"
    elif all_normal:
        inter = reduce(and_, (sub.mask for _, sub in pairs))
        if is_solvable(quotient_group(Subgroup(G, inter))):
            case = "c"
    if case == "none" and h_normal:
        gh_solvable = is_solvable(quotient_group(H))
        cores_solvable = all(is_solvable(quotient_group(core_of(sub))) for _, sub in pairs)
        if gh_solvable or cores_solvable:
            case = "d"
            d_both = gh_solvable and cores_solvable
    return AlignedUnionReport(case, d_both, h, ns, lhs, rhs)


# ------------------------------------------------------- uniform covers


class SquarefreeBound(NamedTuple):
    """Multiplicity floor for uniform covers of squarefree-order groups."""

    product_bound: Fraction
    weak_bound: Fraction
    multiplicity: int

    @property
    def holds(self) -> bool:
        return self.multiplicity >= self.product_bound >= self.weak_bound


class EqualPairReport(NamedTuple):
    """Existence of two equal indices divisible by the designated prime."""

    prime: int
    applicable: bool
    via_sylow: bool
    pair: Optional[tuple[int, int]]

    @property
    def holds(self) -> bool:
        return not self.applicable or self.pair is not None


class UniformCoverReport(NamedTuple):
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


@lru_cache(maxsize=4096)
def _index_arithmetic(ns: tuple[int, ...]) -> tuple[tuple, tuple, SquarefreeBound]:
    """The report fields of check_uniform_cover that depend on the sorted
    indices ns alone, in field order: those before the flags, those after
    them, and the squarefree-order bound."""
    N = math.lcm(*ns)
    pp = factorize(N).pairs
    p_r, alpha_r = pp[-1]
    # beta: the least p_r-order among the indices p_r divides
    orders = (ord_of(n, p_r) for n in ns)
    beta = min(o for o in orders if o > 0)
    epsilon = index_bound_factor(pp, p_r, alpha_r - beta + 1)
    counts = Counter(ns)
    top_mult = max(counts[n] for n in counts if n % p_r == 0)
    mert = euler_product(p for p, _ in pp)
    head = (len(ns), ns, N, tuple(pp), p_r, alpha_r, beta, epsilon, top_mult,
            Fraction(p_r**beta), epsilon * top_mult * mert)
    tail = (max(counts.values()), pp[0][0], 1 + math.floor(p_r / mert))
    squarefree = SquarefreeBound(
        Fraction(math.prod(p for p, _ in pp), math.prod(p + 1 for p, _ in pp[:-1])),
        max(Fraction(pp[0][0]), Fraction(2 * p_r, len(pp) + 1)),
        top_mult,
    )
    return head, tail, squarefree


def _set_flags(G: FiniteGroup, subs: Sequence[Subgroup], p_r: int) -> tuple[bool, ...]:
    """The hypothesis flags of check_uniform_cover: cond_a,
    cond_a_vacuous, cond_b, cond_c, big_subnormal, via_sylow, and p_r
    dividing the order of G over the intersected cores.  They read only
    the distinct subgroups subs and p_r, the largest prime of the index
    lcm; each subgroup's core, subnormality and G over its core are read
    from the group memo."""

    def over_core(sub: Subgroup) -> FiniteGroup:
        return quotient_group(core_of(sub))

    top = [s for s in subs if s.index % p_r == 0]
    rest = [s for s in subs if s.index % p_r]
    # cond_a: the top subgroups subnormal, else G over the cores of the top
    # or of the rest solvable, vacuously so when the rest is empty
    top_ok = all(is_subnormal(s) for s in top) or all(is_solvable(over_core(s)) for s in top)
    cond_a = top_ok or all(is_solvable(over_core(s)) for s in rest)
    cond_b = all(
        is_subnormal(s) or s.index <= p_r or has_normal_sylow(over_core(s), p_r) for s in rest
    )
    icore = reduce(and_, (core_of(s).mask for s in subs))
    Q = quotient_group(Subgroup(G, icore))  # icore is normal
    q_solvable = is_solvable(Q)
    return (
        cond_a,
        cond_a and not top_ok and not rest,
        cond_b,
        q_solvable and has_normal_sylow(Q, max(_prime_support(Q.order))),
        all(is_subnormal(s) for s in subs if s.index >= p_r),
        q_solvable and has_normal_sylow(Q, p_r),
        Q.order % p_r == 0,
    )


def check_uniform_cover(cover: CosetSystem) -> UniformCoverReport:
    """Evaluate the index bound and its hypothesis flags for a
    nontrivial uniform cover, with the squarefree-order bound and the
    equal-index-pair consequence attached when their hypotheses apply.
    The report, flags included, is computed once per cover.facts, then
    returned as it is."""
    prof, facts = _require_nontrivial_uniform(cover), cover.facts
    if facts.check is not None:
        return facts.check
    G = cover.parent
    ns = cover.indices()
    head, tail, squarefree = _index_arithmetic(tuple(sorted(ns)))
    p_r, top_mult = head[4], head[8]  # prime, top_multiplicity
    subs = tuple({sub.mask: sub for _, sub in cover.entries}.values())
    cond_a, vacuous, cond_b, cond_c, big_subn, via_sylow, q_div = _set_flags(G, subs, p_r)
    if not G.memo("squarefree", G.full_mask(), lambda: factorize(G.order).is_squarefree()):
        squarefree = None
    pair = None
    if top_mult >= 2:
        witness = next(n for n in ns if n % p_r == 0 and ns.count(n) == top_mult)
        first = ns.index(witness)
        pair = (first, ns.index(witness, first + 1))
    # the subnormal branch, p_r > r and big_subnormal, is big_subnormal:
    # p_r > r always holds, since the r primes of the index lcm are all
    # <= p_r, so r <= pi(p_r) < p_r
    equal_pair = EqualPairReport(p_r, (big_subn or via_sylow) and q_div, via_sylow, pair)
    facts.check = UniformCoverReport(
        prof.uniform_m, *head, cond_a, vacuous, cond_b, cond_c, big_subn, *tail,
        squarefree, equal_pair,
    )
    return facts.check


class MaxIndexReport(NamedTuple):
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
    prime factor.  Informational unless every subgroup is subnormal, read
    from the group memo; the report is computed once per cover.facts."""
    _require_nontrivial_uniform(cover)
    facts, ns = cover.facts, cover.indices()
    if facts.probe is None:
        n_max = max(ns)
        all_subn = all(is_subnormal(sub) for _, sub in cover.entries)
        facts.probe = MaxIndexReport(n_max, ns.count(n_max), min(_prime_support(n_max)), all_subn)
    return facts.probe


# ------------------------------------------------------------ exact covers


class _Nodes:
    """Nodes spent by one search; the first past budget is refused as what."""

    __slots__ = ("budget", "what", "spent")

    def __init__(self, budget: int, what: str):
        self.budget, self.what, self.spent = budget, what, 0


def _exact_covers(
    n_items: int, masks: Sequence[int], m: int, k_max: int, nodes: _Nodes
) -> Iterator[tuple[int, ...]]:
    """Each multiset of at most k_max options covering every one of
    n_items items exactly m times, once, as a sorted tuple of option
    positions (exact cover with multiplicities, Knuth TAOCP 7.2.2.1).

    Options must come in nonincreasing size.  A node is one option tried
    at a branch: first on the least position, so the multisets come
    grouped by it in increasing order, then on the least item still short
    of m, with picks made in a row for one item nondecreasing in position,
    so each multiset appears once.  A branch is cut when the mass missing
    exceeds the free slots times the largest option allowed.  Rows are
    bitsets over option positions: the options blocked by a full item,
    and those too small to leave the slots fillable, yield nothing and
    are skipped, counted in bulk before the next option tried and at the
    end of the row, so the count is the same as one at a time.  Past
    nodes.budget, spent is set to budget + 1 and BudgetError
    raised, after the same multisets as a count one at a time.  Each item
    lies in m of the options picked, so none is found when m exceeds
    k_max, and that answer comes before anything is sized by m.
    """
    if m > k_max:
        return
    sizes = [mask.bit_count() for mask in masks]
    # meets[x]: the options holding item x; fits[s]: the options of size at
    # least s, a prefix, since sizes are nonincreasing
    meets = [0] * n_items
    for i, mask in enumerate(masks):
        for x in _bits(mask):
            meets[x] |= 1 << i
    fits = [(1 << sum(z >= s for z in sizes)) - 1 for s in range(m * n_items + 1)]
    n_opts, steps = len(masks), range(1, m + 1)
    picked: list[int] = []
    reach: dict[int, int] = {}  # items made full -> the options meeting them

    def refuse():
        nodes.spent = nodes.budget + 1
        raise BudgetError(f"{nodes.what} exceeded {nodes.budget} nodes")

    def rec(level, mass, live, dead, last_item, last_pick):
        # level[j]: the items covered at least j times (level[0] = -1, all);
        # dead: the options meeting level[m], blocked; masks[live] is the
        # first option neither dead nor before picked[0].  The caller has
        # made the cut: mass > 0 and mass fits the free slots
        slots = k_max - len(picked) - 1  # free after this pick
        if picked:
            top = level[m]
            x = (~top & (top + 1)).bit_length() - 1  # the least item short of m
            start = last_pick if x == last_item else picked[0]
            row = meets[x] >> start << start
            # no child's first live option is larger than masks[live], so the
            # options smaller than least, the row's tail, are always cut
            least = mass - slots * sizes[live]
            go = row & ~dead & fits[least if least > 0 else 0]
        else:
            x, row = -1, fits[-(-mass // k_max)]
            go = row
        while go:
            low = go & -go
            go ^= low
            i = low.bit_length() - 1
            tried = row & (low << 1) - 1  # the skipped options before i, and i
            row ^= tried
            nodes.spent += tried.bit_count()
            if nodes.spent > nodes.budget:
                refuse()
            mask = masks[i]
            rest = mass - sizes[i]
            if not rest:
                yield tuple(sorted(picked + [i]))
                continue
            # the child's dead options and first live one, from i on at the root
            full = level[m - 1] & mask
            if full not in reach:
                reach[full] = reduce(or_, (meets[y] for y in _bits(full)), 0)
            kid, base = dead | reach[full], live if picked else i
            free = ~kid >> base
            nxt = base + (free & -free).bit_length() - 1
            if slots > 1 and nxt < n_opts and rest <= slots * sizes[nxt]:
                picked.append(i)
                new = [-1] + [level[j] | level[j - 1] & mask for j in steps]
                yield from rec(new, rest, nxt, kid, x, i)
                picked.pop()
            elif slots == 1 and nxt < n_opts and rest <= sizes[nxt]:  # the last pick, made here
                top = level[m] | full
                y = (~top & (top + 1)).bit_length() - 1
                start = i if y == x or not picked else picked[0]
                last = meets[y] >> start << start
                ends, done = last & ~kid & fits[rest], picked + [i]
                while ends:  # the child's live options: each has size rest, ends a cover
                    bit = ends & -ends
                    ends ^= bit
                    nodes.spent += (last & (bit << 1) - 1).bit_count()
                    last &= -(bit << 1)
                    if nodes.spent > nodes.budget:
                        refuse()
                    yield tuple(sorted(done + [bit.bit_length() - 1]))
                nodes.spent += last.bit_count()
                if nodes.spent > nodes.budget:
                    refuse()
        nodes.spent += row.bit_count()
        if nodes.spent > nodes.budget:
            refuse()

    if masks and m * n_items <= k_max * sizes[0]:  # the root's cut
        yield from rec([-1] + [0] * m, m * n_items, 0, 0, -1, 0)


# ------------------------------------------------------------ enumeration


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

    Entries come in the canonical order (index, subgroup mask, least
    coset member), covers in lexicographic order of their canonical
    positions, each multiset once (see _exact_covers).  The whole-group
    entry is allowed as long as some entry is a proper coset.  Covers are
    sorted one least position at a time; past the budget, truncated is
    set, after the covers found so far.  Each cover is built without the
    entry checks, by itemgetter from per-position tables of the cosets,
    and handed the masks the search holds, the weight profile it has
    proved, every element covered m times, so no check sums it again, and
    one SequenceFacts per subgroup sequence, shared by its covers for the
    life of the stream.
    """
    if G.order > ENUM_ORDER_MAX:
        raise InputError(f"enumeration capped at order {ENUM_ORDER_MAX}")
    if not 1 <= k_max <= ENUM_K_MAX:
        raise InputError(f"k_max must be in 1..{ENUM_K_MAX}")
    if m < 1:
        raise InputError("m must be positive")
    index, sub_mask, least, masks, subs = zip(*_cosets(G, all_subgroups(G)))
    entry = tuple(zip(least, subs))
    stream = CoverStream()
    counter = _Nodes(node_budget, f"cover enumeration on {G.name}")
    n = G.order
    profile = WeightProfile((m,) * n, m, m, n, m, True, m == 1, False)

    def covers():
        try:
            yield from _exact_covers(n, masks, m, k_max, counter)
        except BudgetError:
            stream.truncated = True

    def gen():
        shared: dict[tuple[int, ...], SequenceFacts] = {}  # subgroup masks -> facts
        # position 0, the whole group, must not stand alone, so itemgetter gives tuples
        for _, group in groupby(covers(), key=itemgetter(0)):
            for picks in sorted(p for p in group if p[-1]):
                get = itemgetter(*picks)
                key = get(sub_mask)
                if key not in shared:
                    shared[key] = SequenceFacts(get(index))
                yield CosetSystem._trusted(G, get(entry), get(masks), profile, shared[key])
        stream.nodes = counter.spent

    stream._gen = gen()
    return stream


# ---------------------------------------------------------------- searches


class HsSearchResult(NamedTuple):
    """Outcome of the distinct-index partition hunt on one group."""

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


def _partition_with_indices(
    G: FiniteGroup, subs: Sequence[Subgroup], S: Sequence[int], counter: _Nodes
) -> Optional[CosetSystem]:
    """A partition of G into cosets of subs with the multiset of indices
    S, in canonical form, or None.  The items are the elements plus one
    label per position of S; a coset of index d is offered once for each
    position j with S[j] == d, carrying label j."""
    n = G.order
    cosets = _cosets(G, [sub for sub in subs if sub.index in S])
    offers = [(c, 1 << (n + j)) for c in cosets for j, d in enumerate(S) if c[0] == d]
    masks = [c[3] | label for c, label in offers]
    for picks in _exact_covers(n + len(S), masks, 1, len(S), counter):
        entries = tuple((offers[i][0][2], offers[i][0][4]) for i in picks)
        return CosetSystem._trusted(G, entries, tuple(offers[i][0][3] for i in picks)).canonical()
    return None


def search_distinct_index_partition(
    G: FiniteGroup, node_budget: int = DEFAULT_NODE_BUDGET
) -> HsSearchResult:
    """Exhaustive hunt for a partition of G into more than one coset with
    pairwise distinct indices.

    Feasible index sets come first (reciprocals summing to 1 over
    distinct divisors); a set with an index no subgroup has is skipped,
    each other set S is one exact cover (_partition_with_indices), and
    nodes_explored adds up the nodes of all of them.  found stays None
    on every group anyone has ever looked at.
    """
    if G.order > SEARCH_ORDER_MAX:
        raise InputError(f"search capped at order {SEARCH_ORDER_MAX}")
    subs = all_subgroups(G)
    indices = {sub.index for sub in subs}
    counter = _Nodes(node_budget, f"partition search on {G.name}")
    tried: list[tuple[int, ...]] = []
    for S in feasible_distinct_index_sets(G.order):
        tried.append(S)
        if not indices.issuperset(S):
            continue
        system = _partition_with_indices(G, subs, S, counter)
        if system is not None:
            if not weight_profile(system).is_partition:
                raise RuntimeError("search produced a non-partition, logic error")
            return HsSearchResult(system, counter.spent, tuple(tried))
    return HsSearchResult(None, counter.spent, tuple(tried))
