"""Finite groups as explicit Cayley tables, subgroups as bitmasks.

Element ids are 0..n-1 with 0 the identity.  Groups built from
permutation generators number elements by breadth-first discovery from
the identity, so the numbering is a function of the generator list
alone, and their tables are filled along the generator graph rather than
by composing permutations.  Subgroups are immutable bitmasks over element
ids.

Every fact derived from a group -- closures with their generating sets
(one fact), element orders, the center, left-coset partitions, cores,
quotients, normality, subnormality, normal Sylow subgroups,
prime-quotient series, solvability, pyramidality and the subgroup
lattice -- lives in one memo on the group, keyed by (fact, mask) and
read through FiniteGroup.memo.  A fact about the whole group is keyed by
its full mask.  The quotient by the trivial subgroup is the group itself, so its
lattice is never enumerated twice.  A fact of one subgroup takes only the
subgroup and reads its group as H.parent; subnormality is a bool, found
by descending through normal closures from the group.
Pyramidal chains and prime-quotient series are one walk up the lattice
through normal steps of prime index, and a subgroup's pyramidality is a
fact at its mask.  Only facts that read a subgroup list enumerate the
lattice: a normal Sylow subgroup is found by counting element orders,
and solvability by the derived series.

A lookup by catalog name realizes and checks only the named records:
declared order, generators, degree, closure order and table.  The full
load also checks counts per order and distinct fingerprints within an
order, counting subgroups only inside a tie on every other part.

Closures use Dimino's coset extension over a reduced generating set: each
element of the mask that is not yet in the subgroup grows it by whole
right cosets.  The lattice is built by cyclic extension: each join
extends a known subgroup H by the generator g of a cyclic subgroup, once
per double coset HgH.  A core intersects one conjugate per left coset,
read from the same left-coset partition as the quotient.

Every group has at most ORDER_CAP elements: a record is refused at its
declared order, a closure as it outgrows the cap, a larger table before
it is checked, and a cyclic group before its table is built.  A
permutation group has degree at most DEGREE_CAP, refused before any
permutation is built.
The structural suite refuses an index-intersection sweep of more than
INDEX_INTERSECTION_CAP instances before it checks any.

Construction verifies the identity row and column, the Latin square
property and associativity, the last by Light's test over a generating
set: (a*b)*g = a*(b*g) for all a, b and each generator g.  The elements
passing that test are closed under products, so it is exact for every
table and costs O(n^2 log n).
"""

from __future__ import annotations

import math
import os
import re
from collections import Counter
from functools import cached_property, lru_cache
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .arith import divisor_list, factorize, is_prime
from .errors import BudgetError, InputError

ORDER_CAP = 200
DEGREE_CAP = 10_000
INDEX_INTERSECTION_CAP = 10**6


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _right_reach(table, gens: Sequence[int]) -> int:
    """Bitmask of the elements reached from the identity by right
    multiplication with gens."""
    reached, seen = [0], 1
    i = 0
    while i < len(reached):
        row = table[reached[i]]
        for g in gens:
            y = row[g]
            if not seen >> y & 1:
                seen |= 1 << y
                reached.append(y)
        i += 1
    return seen


def _check_associative(table) -> None:
    """Light's test over a greedy generating set: (a*b)*g == a*(b*g) for
    all a, b and each generator g.  The g that pass are closed under
    products and the generators reach every element, so the table is
    associative.  Raises InputError at the first failing triple."""
    n = len(table)
    gens: list[int] = []
    seen = 1
    for g in range(n):
        if seen >> g & 1:
            continue
        col = [row[g] for row in table]  # b -> b*g
        for a, ra in enumerate(table):
            if [col[v] for v in ra] != [ra[v] for v in col]:
                b = next(b for b in range(n) if col[ra[b]] != ra[col[b]])
                raise InputError(f"associativity fails at a={a}, b={b}, c={g}")
        gens.append(g)
        seen = _right_reach(table, gens)


def _extend(table, elems: list[int], mask: int, gens: tuple[int, ...], g: int):
    """Dimino's coset extension.  elems/mask is a subgroup H generated by
    gens and g lies outside it; returns (elements, mask) of <H, g>.

    The join is grown as a union of right cosets H*x: for each coset
    representative r and each generator s, a product r*s outside the
    union so far adds its whole coset.  A union of right cosets of H that
    is closed under right multiplication by every generator is the
    subgroup they generate.
    """
    out = list(elems)
    gens = gens + (g,)
    reps = [0]
    i = 0
    while i < len(reps):
        row = table[reps[i]]
        for s in gens:
            x = row[s]
            if not mask >> x & 1:
                reps.append(x)
                for h in elems:
                    y = table[h][x]
                    out.append(y)
                    mask |= 1 << y
        i += 1
    return out, mask


def _generate(table, mask: int) -> tuple[tuple[int, ...], int]:
    """(reduced generators, closure mask) of the elements set in mask:
    only elements outside the subgroup built so far extend it."""
    elems, sub, gens = [0], 1, ()
    for g in _bits(mask):
        if not sub >> g & 1:
            elems, sub = _extend(table, elems, sub, gens, g)
            gens += (g,)
    return gens, sub


def _check_order_cap(n: int) -> None:
    if n > ORDER_CAP:
        raise BudgetError(f"table of order {n} is above the order cap {ORDER_CAP}")


class FiniteGroup:
    """Immutable finite group on element ids 0..order-1 given by its table."""

    __slots__ = ("order", "table", "inv", "name", "perms", "_memo")

    def __init__(self, table, name=None, perms=None):
        table = tuple(tuple(row) for row in table)
        n = len(table)
        if n == 0:
            raise InputError("empty table")
        _check_order_cap(n)
        rng = range(n)
        for row in table:
            if len(row) != n or any(not 0 <= v < n for v in row):
                raise InputError("table is not square over element ids")
        if any(table[0][j] != j for j in rng) or any(table[i][0] != i for i in rng):
            raise InputError("element 0 does not act as identity")
        full = set(rng)
        for i in rng:
            if set(table[i]) != full or {table[j][i] for j in rng} != full:
                raise InputError(f"table is not a Latin square at line {i}")
        _check_associative(table)
        inv = [None] * n
        for i in rng:
            inv[i] = table[i].index(0)
        self.order = n
        self.table = table
        self.inv = tuple(inv)
        self.name = name or f"group{n}"
        self.perms = tuple(perms) if perms else None
        self._memo = {}

    def memo(self, fact: str, mask: int | tuple[int, ...], compute: Callable, *args):
        """The value of fact at the subgroup mask, computed once as
        compute(*args).

        The one cache of derived facts: keys are (fact, mask), facts about
        the whole group use the full mask, a fact about a set of subgroups
        is keyed by the sorted tuple of their masks, and a fact that takes
        a further parameter, such as a prime, carries it in its name.
        """
        key = (fact, mask)
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute(*args)
            return value

    def conj(self, g: int, h: int) -> int:
        """g h g**-1."""
        return self.table[self.table[g][h]][self.inv[g]]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    def element_orders(self) -> tuple[int, ...]:
        """The order of each element, by id (a memo fact)."""
        return self.memo(
            "element_orders",
            self.full_mask(),
            lambda: tuple(map(self.element_order, range(self.order))),
        )

    def is_abelian(self) -> bool:
        return center_mask(self) == self.full_mask()

    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def closure_mask(self, mask: int) -> int:
        """Bitmask of the subgroup generated by the elements set in mask."""
        return self.memo("generated", mask, _generate, self.table, mask)[1]

    def generators(self, mask: int) -> tuple[int, ...]:
        """A reduced generating set of the subgroup mask (one fact with its closure)."""
        return self.memo("generated", mask, _generate, self.table, mask)[0]

    def conj_mask(self, g: int, mask: int) -> int:
        out = 0
        for h in _bits(mask):
            out |= 1 << self.conj(g, h)
        return out

    def is_subgroup_mask(self, mask: int) -> bool:
        return mask & 1 == 1 and self.closure_mask(mask) == mask

    def normal_in(self, sub_mask: int, over_mask: int) -> bool:
        """Is the subgroup sub_mask normal inside the subgroup over_mask.

        Conjugating generators of sub_mask by generators of over_mask
        settles it: a finite subgroup mapped into itself by each
        generator's conjugation is normalized by the group they generate.
        """
        subs = self.generators(sub_mask)
        return all(
            sub_mask >> self.conj(g, h) & 1
            for g in self.generators(over_mask)
            for h in subs
        )

    def normal_closure_in(self, over_mask: int, seed_mask: int) -> int:
        """Smallest subgroup containing seed_mask that is normal in over_mask."""
        over = self.generators(over_mask)
        cur = self.closure_mask(seed_mask)
        while True:
            grown = cur
            for h in self.generators(cur):
                for g in over:
                    grown |= 1 << self.conj(g, h)
            if grown == cur:
                return cur
            cur = self.closure_mask(grown)

    def derived_mask(self, mask: int) -> int:
        """Commutator subgroup of the subgroup mask."""
        table, inv = self.table, self.inv
        elems = list(_bits(mask))
        comms = 0
        for a in elems:
            ia = inv[a]
            for b in elems:
                comms |= 1 << table[table[inv[b]][ia]][table[b][a]]
        return self.closure_mask(comms)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


class Subgroup:
    """A subgroup of a fixed parent group, stored as a member bitmask."""

    __slots__ = ("parent", "mask")

    def __init__(self, parent: FiniteGroup, mask: int):
        if not parent.is_subgroup_mask(mask):
            raise InputError("mask is not closed under the group operation")
        self.parent, self.mask = parent, mask

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((id(self.parent), self.mask))

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def index(self) -> int:
        return self.parent.order // self.size

    def members(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def __repr__(self):
        return f"Subgroup<{','.join(map(str, self.members()))}>"


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, 1)


def subgroup_closure(G: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    mask = 1
    for x in elements:
        if not 0 <= x < G.order:
            raise InputError(f"element id {x} out of range for {G.name}")
        mask |= 1 << x
    return Subgroup(G, G.closure_mask(mask))


def left_coset_mask(rep: int, H: Subgroup) -> int:
    row = H.parent.table[rep]
    out = 0
    for h in _bits(H.mask):
        out |= 1 << row[h]
    return out


def left_cosets(G: FiniteGroup, mask: int) -> tuple[int, ...]:
    """The left cosets of the subgroup mask by least member, so the first
    is the subgroup itself (a memo fact)."""
    return G.memo("left_cosets", mask, _coset_walk, G, mask)


def _coset_walk(G: FiniteGroup, mask: int) -> tuple[int, ...]:
    sub = Subgroup(G, mask)
    out = []
    rest = G.full_mask()
    while rest:
        out.append(left_coset_mask((rest & -rest).bit_length() - 1, sub))
        rest &= ~out[-1]
    return tuple(out)


# ---------------------------------------------------------------- permutations

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_int(text: str) -> int:
    """int(text), refused with InputError where int() refuses it."""
    try:
        return int(text)
    except ValueError as e:  # not an integer, or more digits than int() converts
        raise InputError(str(e))


def parse_cycles(degree: int, text: str) -> tuple[int, ...]:
    """Cycle notation on points 1..degree to a 0-based image tuple.

    Products of cycles are applied left to right.  "()" and "e" denote
    the identity.
    """
    text = text.strip()
    perm = list(range(degree))
    if text in ("", "()", "e"):
        return tuple(perm)
    consumed = _CYCLE_RE.sub("", text).strip()
    if consumed:
        raise InputError(f"unparsed cycle text {text!r}")
    for body in _CYCLE_RE.findall(text):
        pts = [parse_int(t) for t in body.replace(",", " ").split()]
        if not pts:
            continue
        if len(set(pts)) != len(pts):
            raise InputError(f"repeated point in cycle ({body})")
        if any(not 1 <= p <= degree for p in pts):
            raise InputError(f"point out of range 1..{degree} in ({body})")
        cyc = list(range(degree))
        for a, b in zip(pts, pts[1:] + pts[:1]):
            cyc[a - 1] = b - 1
        perm = [cyc[perm[i]] for i in range(degree)]
    return tuple(perm)


def cycles_str(perm: Sequence[int]) -> str:
    """Canonical cycle string, 1-based, fixed points omitted."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = perm[x]
        parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) if parts else "()"


def group_from_generators(
    degree: int, generators: Sequence[str], name: Optional[str] = None
) -> FiniteGroup:
    """Close permutation generators into a group, numbering elements by BFS.

    Generators are cycle-notation strings on points 1..degree.  Element 0
    is the identity; products explored in generator order fix the rest of
    the numbering.  The closure stops with BudgetError as soon as it
    outgrows ORDER_CAP; a degree above DEGREE_CAP is refused before any
    permutation is built.
    """
    if degree > DEGREE_CAP:
        raise BudgetError(
            f"group {name or 'from generators'}: degree {degree} is above "
            f"the degree cap {DEGREE_CAP}"
        )
    gens = [parse_cycles(degree, g) for g in generators]
    identity = tuple(range(degree))
    elems = [identity]
    index = {identity: 0}
    # right[j][x] = x*gens[j]; element y > 0 was first reached as
    # parent[y]*gens[via[y]]
    right = [[] for _ in gens]
    parent, via = [0], [0]
    pos = 0
    while pos < len(elems):
        x = elems[pos]
        for j, g in enumerate(gens):
            y = tuple(x[g[i]] for i in range(degree))
            if y not in index:
                if len(elems) == ORDER_CAP:
                    raise BudgetError(
                        f"group {name or 'from generators'}: closure passed "
                        f"{ORDER_CAP} elements, above the order cap {ORDER_CAP}"
                    )
                index[y] = len(elems)
                elems.append(y)
                parent.append(pos)
                via.append(j)
            right[j].append(index[y])
        pos += 1
    n = len(elems)
    # a*(x*g) = (a*x)*g, so each row follows the BFS tree in O(n) lookups
    steps = [(y, parent[y], right[via[y]]) for y in range(1, n)]
    table = []
    for a in range(n):
        row = [a] * n
        for y, x, r in steps:
            row[y] = r[row[x]]
        table.append(row)
    return FiniteGroup(table, name=name, perms=elems)


def cyclic_group(n: int, name: Optional[str] = None) -> FiniteGroup:
    """Z/n with element i the residue i."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    _check_order_cap(n)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=name or f"Z{n}")


# ------------------------------------------------------------ lattice and core

def all_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every subgroup, sorted by (size, mask).  Memoized on the group.

    Seeds are the cyclic subgroups; the set is closed under joins with
    the seeds, which reaches every subgroup since each is generated by
    finitely many of its cyclic subgroups.  A join extends the known
    subgroup by the seed's generator (cyclic extension), and lands in
    the memo, with generators, under the mask of the union it generates;
    so does every subgroup found.  A seed whose generator lies in a
    double coset HgH already joined to H is skipped: its join <H, g> is
    the one already found.
    """
    return G.memo("lattice", G.full_mask(), _lattice, G)


def _lattice(G: FiniteGroup) -> tuple[Subgroup, ...]:
    table = G.table
    cyclics: dict[int, int] = {}  # cyclic subgroup mask -> its least generator
    found = 1  # generators of the cyclic subgroups found so far
    for g in range(1, G.order):
        if found >> g & 1:
            continue
        powers = [g]  # g**1, g**2, ... up to the identity
        while powers[-1]:
            powers.append(table[powers[-1]][g])
        m = len(powers)
        mask = 1
        for k, x in enumerate(powers, 1):
            mask |= 1 << x
            if math.gcd(k, m) == 1:
                found |= 1 << x
        cyclics[mask] = g
    # subgroup mask -> its generated fact (generators, mask), one value
    # shared by every join that lands on the subgroup
    facts = {c: ((g,), c) for c, g in cyclics.items()}
    facts[1] = ((), 1)
    frontier = list(facts)
    while frontier:
        new = []
        for h in frontier:
            elems, hgens = list(_bits(h)), facts[h][0]
            joined = h  # H and the double cosets HgH joined so far
            for c, g in cyclics.items():
                if joined >> g & 1:
                    continue
                fact = G.memo("generated", h | c, _join, table, facts, elems, h, g)
                if fact[1] not in facts:
                    facts[fact[1]] = fact
                    new.append(fact[1])
                # HgH is disjoint from joined: grow it from Hg by right
                # multiplication with the generators of H
                coset = [table[a][g] for a in elems]
                for y in coset:
                    joined |= 1 << y
                for y in coset:
                    row = table[y]
                    for s in hgens:
                        z = row[s]
                        if not joined >> z & 1:
                            joined |= 1 << z
                            coset.append(z)
        frontier = new
    for m, fact in facts.items():  # each mask found is its own closure
        G.memo("generated", m, lambda: fact)
    return tuple(
        Subgroup(G, m) for m in sorted(facts, key=lambda m: (m.bit_count(), m))
    )


def _join(table, facts: dict, elems: list[int], h: int, g: int) -> tuple:
    """The generated fact of <H, g>, for H = facts[h] with elements elems
    and g outside it: the lattice's own value when that join is known."""
    j = _extend(table, elems, h, facts[h][0], g)[1]
    return facts[j] if j in facts else (facts[h][0] + (g,), j)


def is_normal(H: Subgroup) -> bool:
    G = H.parent
    return G.memo("normal", H.mask, G.normal_in, H.mask, G.full_mask())


def core_of(H: Subgroup) -> Subgroup:
    """Largest normal subgroup of G = H.parent inside H: intersection of
    conjugates."""
    return H.parent.memo("core", H.mask, _core, H)


def _core(H: Subgroup) -> Subgroup:
    """Conjugates by one element of each left coset but H itself:
    (gh)H(gh)**-1 = gHg**-1."""
    G, mask = H.parent, H.mask
    for c in left_cosets(G, H.mask)[1:]:
        mask &= G.conj_mask((c & -c).bit_length() - 1, H.mask)
        if mask == 1:
            break
    return Subgroup(G, mask)


def is_subnormal(H: Subgroup) -> bool:
    """Is H subnormal in G = H.parent: does the descending chain from G,
    each step the normal closure of H in the one before, end at H."""
    return H.parent.memo("subnormal", H.mask, _subnormality, H)


def _subnormality(H: Subgroup) -> bool:
    G = H.parent
    over = G.full_mask()
    while True:
        nxt = G.normal_closure_in(over, H.mask)
        if nxt == over:
            return over == H.mask
        if not G.normal_in(nxt, over):
            raise RuntimeError("normal-closure chain failed its own recheck")
        over = nxt


def has_normal_sylow(G: FiniteGroup, p: int) -> bool:
    """Is a Sylow p-subgroup of G normal.  A normal one is the only one, so
    it holds every element of p-power order; and if the elements of p-power
    order number |G|_p, one Sylow subgroup holds them all and is the only
    one.  So counting them settles it."""
    return G.memo(f"normal-sylow-{p}", G.full_mask(), _normal_sylow, G, p)


def _normal_sylow(G: FiniteGroup, p: int) -> bool:
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    # |G|_p: p**bit_length exceeds |G|, so its gcd with |G| is the p-part;
    # an element order divides |G|, and it is a power of p iff it divides |G|_p
    part = math.gcd(G.order, p ** G.order.bit_length())
    return sum(1 for o in G.element_orders() if part % o == 0) == part


def is_solvable(G: FiniteGroup) -> bool:
    """Does the derived series of G end at the trivial subgroup."""
    return G.memo("solvable", G.full_mask(), _solvability, G)


def _solvability(G: FiniteGroup) -> bool:
    mask, nxt = 0, G.full_mask()
    while nxt != mask:
        mask, nxt = nxt, G.derived_mask(nxt)
    return mask == 1


def _prime_chain(G: FiniteGroup, bottom: int, top: int, step: Callable, state):
    """The first chain bottom = F_0 < ... < F_m = top in canonical lattice
    order, each F_j normal in F_{j+1} with prime index, or None.

    step(state, q) admits a step of index q by returning the next state,
    or rejects it by returning None.  A (mask, state) pair that led to no
    chain is not walked again."""
    subs = all_subgroups(G)
    dead: set = set()

    def walk(mask: int, state):
        if mask == top:
            return [mask]
        if (mask, state) in dead:
            return None
        size = mask.bit_count()
        for s in subs:
            q, rem = divmod(s.size, size)
            if rem or q <= 1 or not is_prime(q) or mask & ~s.mask or s.mask & ~top:
                continue
            nxt = step(state, q)
            if nxt is None or not G.normal_in(mask, s.mask):
                continue
            rest = walk(s.mask, nxt)
            if rest is not None:
                return [mask] + rest
        dead.add((mask, state))
        return None

    chain = walk(bottom, state)
    return None if chain is None else tuple(Subgroup(G, m) for m in chain)


def _non_increasing(last: int, q: int) -> Optional[int]:
    return q if q <= last else None


def pyramidal_chain(G: FiniteGroup) -> Optional[tuple[Subgroup, ...]]:
    """A chain trivial = H_0 < ... < H_n = G with prime indices that never
    increase going up, or None.  Each step is automatically normal since
    its index is the least prime divisor of the bigger subgroup's order."""
    return _prime_chain(G, 1, G.full_mask(), _non_increasing, G.order)


def _is_pyramidal_at(G: FiniteGroup, mask: int) -> bool:
    """Has the subgroup mask a pyramidal chain, walked in G's lattice."""
    return G.memo(
        "pyramidal",
        mask,
        lambda: _prime_chain(G, 1, mask, _non_increasing, mask.bit_count()) is not None,
    )


def is_pyramidal(G: FiniteGroup) -> bool:
    return _is_pyramidal_at(G, G.full_mask())


def prime_quotient_series(
    H: Subgroup, p_first: Optional[int] = None
) -> Optional[tuple[Subgroup, ...]]:
    """A chain H = F_0 < F_1 < ... < F_m = G = H.parent, each F_j normal
    in F_{j+1} with prime index, or None.  With p_first set, every step
    of index p_first must come before every step of any other index
    (reading the chain upward from H).  H = G gives the one-node chain."""
    G = H.parent

    def step(non_p_seen: bool, q: int) -> Optional[bool]:
        # the state: a step of index other than p_first has been taken
        if q == p_first:
            return None if non_p_seen else False
        return p_first is not None

    return G.memo(
        f"series-{p_first}", H.mask, _prime_chain, G, H.mask, G.full_mask(), step, False
    )


def quotient_group(N: Subgroup) -> FiniteGroup:
    """G/N for G = N.parent as a coset table, memoized on G.  Cosets are
    numbered by their least element, ascending, so the identity coset is
    element 0.  The quotient by the trivial subgroup is G itself."""
    return N.parent.memo("quotient", N.mask, _quotient, N)


def _quotient(N: Subgroup) -> FiniteGroup:
    G = N.parent
    if not is_normal(N):
        raise InputError("quotient by a non-normal subgroup")
    if N.mask == 1:
        return G
    coset_of = [0] * G.order
    reps = []
    for idx, c in enumerate(left_cosets(G, N.mask)):
        reps.append((c & -c).bit_length() - 1)
        for y in _bits(c):
            coset_of[y] = idx
    table = [
        tuple(coset_of[G.table[a][b]] for b in reps) for a in reps
    ]
    return FiniteGroup(table, name=f"{G.name}/N{N.size}")


# ------------------------------------------------------------------- catalog

class GroupRecord(NamedTuple):
    """One parsed group file record; gen_lines are the generators' line
    numbers, which a refused generator's message names."""

    name: str
    degree: int
    generators: tuple[str, ...]
    expected_order: int
    gen_lines: tuple[int, ...]


def _positive_field(lineno: int, key: str, rest: str) -> int:
    if rest.isdecimal() and parse_int(rest) > 0:
        return int(rest)
    raise InputError(f"line {lineno}: {key} must be a positive integer, got {rest!r}")


def clean_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped text) of every line of text that holds more
    than a comment; `#` starts a comment.  Every input reader reads these."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def read_group_records(lines: Sequence[tuple[int, str]]) -> list[GroupRecord]:
    """The concatenated group records in clean (line number, text) pairs,
    as clean_lines gives them; errors name the line numbers the pairs carry.

    Record syntax, one block per group::

        group <name>
        degree <d>
        gen <cycles>     # zero or more lines
        order <expected>
        end
    """
    records = []
    name = degree = order = start = None  # start: the record's group line
    gens: list[tuple[int, str]] = []
    in_block = False
    for lineno, line in lines:
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "group":
            if in_block:
                raise InputError(f"line {lineno}: nested group block")
            if not rest:
                raise InputError(f"line {lineno}: group needs a name")
            in_block, start, name, degree, order, gens = True, lineno, rest, None, None, []
        elif not in_block:
            raise InputError(f"line {lineno}: {key!r} outside a group block")
        elif key == "degree":
            degree = _positive_field(lineno, key, rest)
        elif key == "order":
            order = _positive_field(lineno, key, rest)
        elif key == "gen":
            gens.append((lineno, rest))
        elif key == "end":
            if degree is None or order is None:
                raise InputError(f"line {start}: record {name!r} is missing degree or order")
            gen_lines, texts = zip(*gens) if gens else ((), ())
            records.append(GroupRecord(name, degree, texts, order, gen_lines))
            in_block = False
        else:
            raise InputError(f"line {lineno}: unknown key {key!r}")
    if in_block:
        raise InputError(f"line {start}: record {name!r} not closed with end")
    return records


def realize_record(rec: GroupRecord) -> FiniteGroup:
    """Build the group and fail loudly if the closure size disagrees.  A
    declared order above ORDER_CAP is refused before the closure starts."""
    if rec.expected_order > ORDER_CAP:
        raise BudgetError(
            f"group {rec.name}: record says order {rec.expected_order}, "
            f"above the order cap {ORDER_CAP}"
        )
    try:
        G = group_from_generators(rec.degree, rec.generators, name=rec.name)
    except InputError:
        # group_from_generators refuses only a cycle text with InputError,
        # parsing each generator once with no line number; the refused one
        # is parsed again here to name its line
        for lineno, text in zip(rec.gen_lines, rec.generators):
            try:
                parse_cycles(rec.degree, text)
            except InputError as e:
                raise InputError(f"line {lineno}: {e}") from None
        raise
    if G.order != rec.expected_order:
        raise InputError(
            f"group {rec.name}: generators close to order {G.order}, "
            f"record says {rec.expected_order}"
        )
    return G


def center_mask(G: FiniteGroup) -> int:
    """The center of G (a memo fact)."""
    return G.memo("center", G.full_mask(), _center, G)


def _center(G: FiniteGroup) -> int:
    t = G.table
    out = 0
    for x in range(G.order):
        if all(t[x][y] == t[y][x] for y in range(G.order)):
            out |= 1 << x
    return out


def _cheap_fingerprint(G: FiniteGroup) -> tuple:
    """fingerprint(G) without its subgroup count: every part that needs
    no lattice."""
    orders = G.element_orders()
    profile = Counter(orders)
    centre = Counter(orders[x] for x in _bits(center_mask(G)))
    return (
        G.order,
        tuple(sorted(profile.items())),
        G.is_abelian(),
        tuple(sorted(centre.items())),
    )


def fingerprint(G: FiniteGroup) -> tuple:
    """(order, element-order profile, abelian?, subgroup count, center profile).

    Used to tell catalog entries of equal order apart; equality of
    fingerprints is treated as an isomorphism red flag at load time.
    The center profile is needed at order 16, where two non-isomorphic
    groups agree on the first four components.  Two fingerprints can
    only be equal if their parts other than the subgroup count are, so
    the catalog check enumerates a lattice only inside such a tie.
    """
    order, profile, abelian, centre = _cheap_fingerprint(G)
    return (order, profile, abelian, len(all_subgroups(G)), centre)


# number of isomorphism classes of groups of order 1..16; the catalog is
# complete per the standard classification, which we assume rather than
# re-derive, but the full load counts the file against this table
_GROUPS_OF_ORDER = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14)


class _Catalog:
    """A catalog file's records by name, each realized at most once: one object per name."""

    def __init__(self, text: str):
        self.records: dict[str, GroupRecord] = {}
        for rec in read_group_records(clean_lines(text)):
            if self.records.setdefault(rec.name, rec) is not rec:
                raise ValueError(f"catalog names {rec.name!r} twice")
        self.groups: dict[str, FiniteGroup] = {}

    def realize(self, names: Sequence[str]) -> tuple[FiniteGroup, ...]:
        """The named groups; an unknown name is refused before any build."""
        for name in names:
            if name not in self.records:
                raise KeyError(f"no catalog group named {name!r}")
        for name in names:
            if name not in self.groups:
                self.groups[name] = realize_record(self.records[name])
        return tuple(self.groups[name] for name in names)

    @cached_property
    def whole(self) -> tuple[FiniteGroup, ...]:
        """Every group, once checked across records (see the module docstring)."""
        groups = self.realize(tuple(self.records))
        counts = Counter(g.order for g in groups)
        for order, expected in enumerate(_GROUPS_OF_ORDER, 1):
            if counts.get(order, 0) != expected:
                raise ValueError(
                    f"catalog has {counts.get(order, 0)} groups of order {order}, "
                    f"classification says {expected}"
                )
        ties: dict[tuple, list] = {}  # keyed by the cheap parts, order first
        for g in groups:
            ties.setdefault(_cheap_fingerprint(g), []).append(g)
        for tie in ties.values():
            if len(tie) > 1 and len({fingerprint(g) for g in tie}) < len(tie):
                raise ValueError(f"catalog fingerprint collision at order {tie[0].order}")
        return groups


_catalog_cache: Optional[_Catalog] = None  # the bundled file, parsed on first read


def _catalog() -> _Catalog:
    global _catalog_cache
    if _catalog_cache is None:
        path = os.path.join(os.path.dirname(__file__), "data", "groups_le16.txt")
        with open(path, encoding="utf-8") as f:
            _catalog_cache = _Catalog(f.read())
    return _catalog_cache


def load_catalog(*names: str) -> tuple[FiniteGroup, ...]:
    """The named groups of the bundled catalog, or all 42 of order <= 16
    with no names.  Only the full load checks across records; on the
    bundled file it enumerates 2 lattices (C4:C4 and Q8xC2)."""
    return _catalog().realize(names) if names else _catalog().whole


def catalog_group(name: str) -> FiniteGroup:
    return load_catalog(name)[0]


# ---------------------------------------------------------------------------
# structural identity suite
#
# Cross-checks between the subgroup lattice, cores, Sylow subgroups and
# the series machinery above.  Each check_* function tests one identity
# on one instance and returns a bare bool (raising when its hypothesis
# is not met, so a False return always means a genuine violation);
# structural_suite sweeps a whole group and aggregates one line per
# identity.


@lru_cache(maxsize=None)
def _prime_support(n: int) -> frozenset:
    return frozenset(p for p, _ in factorize(n).pairs)


def check_index_intersection(subs: Sequence[Subgroup]) -> bool:
    """Subnormal subgroups of one group: the index of their intersection
    divides the product of their indices, and both have the same prime
    divisors."""
    if not subs:
        raise InputError("need at least one subgroup")
    G = subs[0].parent
    if any(H.parent is not G for H in subs):
        raise ValueError("subgroups belong to different group objects")
    if not all(is_subnormal(H) for H in subs):
        raise InputError("requires subnormal subgroups")
    mask = G.full_mask()
    prod = 1
    for H in subs:
        mask &= H.mask
        prod *= H.index
    joint = G.order // mask.bit_count()
    return prod % joint == 0 and _prime_support(joint) == _prime_support(prod)


def _index_intersection_sweep(order: int, subs: Sequence[tuple[int, int]]) -> bool:
    """check_index_intersection on every combination with replacement of
    one to three of subs, the (mask, index) pairs of subnormal subgroups
    of a group of this order, in one pass over flat rows: each pair gains
    the primes of its index as bits, and a leading row for the group
    stands for an empty slot, so the triples a <= b <= c of rows are the
    combinations and the empty one, which holds.  The loops carry the
    partial intersection, the product of indices and the OR of their
    prime bits; the order over an intersection, and its prime bits, are
    read from a table by the intersection's size, a divisor of the order."""
    primes = sorted(_prime_support(order))

    def prime_bits(d: int) -> int:
        return sum(1 << i for i, p in enumerate(primes) if d % p == 0)

    over = [None] * (order + 1)
    for s in divisor_list(order):
        over[s] = (order // s, prime_bits(order // s))
    rows = [((1 << order) - 1, 1, 0)] + [(m, n, prime_bits(n)) for m, n in subs]
    for a, (ma, na, pa) in enumerate(rows):
        for b in range(a, len(rows)):
            mb, nb, pb = rows[b]
            mab, nab, pab = ma & mb, na * nb, pa | pb
            for mc, nc, pc in rows[b:]:
                joint, bits = over[(mab & mc).bit_count()]
                if nab * nc % joint or bits != pab | pc:
                    return False
    return True


def check_core_primes(H: Subgroup) -> bool:
    """Subnormal H: the order of G modulo the core of H has the same
    prime divisors as the index of H."""
    if not is_subnormal(H):
        raise InputError("requires a subnormal subgroup")
    return _prime_support(core_of(H).index) == _prime_support(H.index)


def check_hall_normality(H: Subgroup) -> bool:
    """A subnormal subgroup whose order and index are coprime is normal."""
    if math.gcd(H.size, H.index) != 1:
        raise InputError("requires a Hall subgroup")
    if not is_subnormal(H):
        raise InputError("requires a subnormal subgroup")
    return is_normal(H)


def core_excluded_primes(H: Subgroup) -> tuple[int, ...]:
    """Primes dividing |G / core(H)| but not the index of H."""
    joint = _prime_support(core_of(H).index) - _prime_support(H.index)
    return tuple(sorted(joint))


def check_core_sylow_exclusion(H: Subgroup) -> bool:
    """For each prime dividing |G / core(H)| but not [G:H], the quotient
    by the core has no normal Sylow subgroup at that prime.  Vacuously
    true when no such prime exists (always, when H is subnormal)."""
    primes = core_excluded_primes(H)
    if not primes:
        return True
    Q = quotient_group(core_of(H))
    return not any(has_normal_sylow(Q, p) for p in primes)


def check_pyramidal_sylow(G: FiniteGroup) -> bool:
    """A group with a pyramidal chain has a normal Sylow subgroup at the
    largest prime dividing its order.  Vacuous for the trivial group and
    for groups with no pyramidal chain."""
    if G.order == 1 or not is_pyramidal(G):
        return True
    return has_normal_sylow(G, max(_prime_support(G.order)))


def check_solvable_tower(G: FiniteGroup, p: int) -> bool:
    """Equivalence: G is solvable with a normal Sylow p-subgroup iff a
    prime-quotient series from the trivial subgroup exists with every
    index-p step before any other step."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    direct = is_solvable(G) and has_normal_sylow(G, p)
    series = prime_quotient_series(trivial_subgroup(G), p_first=p)
    return direct == (series is not None)


class SuiteLine(NamedTuple):
    name: str
    holds: bool
    checked: int
    note: str = ""


def structural_suite(G: FiniteGroup) -> tuple[SuiteLine, ...]:
    """Every structural identity the lattice of G supports, one line
    each.  `checked` counts non-vacuous instances; a line with checked 0
    holds by default and says why in its note.  The index-intersection
    line gives check_index_intersection's verdict on every combination of
    one to three subnormal subgroups, swept in one pass over their flat
    rows (_index_intersection_sweep), built once per group."""
    subs = all_subgroups(G)
    subnormal = [H for H in subs if is_subnormal(H)]
    lines = []

    n = sum(math.comb(len(subnormal) + r - 1, r) for r in (1, 2, 3))
    if n > INDEX_INTERSECTION_CAP:
        raise BudgetError(
            f"group {G.name}: index-intersection sweep has {n} instances, "
            f"above the cap {INDEX_INTERSECTION_CAP}"
        )
    ok = _index_intersection_sweep(G.order, [(H.mask, H.index) for H in subnormal])
    lines.append(SuiteLine("index-intersection", ok, n))

    ok = all(check_core_primes(H) for H in subnormal)
    lines.append(SuiteLine("core-primes", ok, len(subnormal)))

    halls = [H for H in subnormal if math.gcd(H.size, H.index) == 1]
    ok = all(check_hall_normality(H) for H in halls)
    lines.append(SuiteLine("hall-normality", ok, len(halls)))

    ok, n = True, 0
    for H in subs:
        if core_excluded_primes(H):
            ok = check_core_sylow_exclusion(H) and ok
            n += 1
    note = "" if n else "no subgroup excludes a prime"
    lines.append(SuiteLine("core-sylow-exclusion", ok, n, note))

    if G.order > 1 and is_pyramidal(G):
        lines.append(SuiteLine("pyramidal-sylow", check_pyramidal_sylow(G), 1))
    else:
        lines.append(SuiteLine("pyramidal-sylow", True, 0, "no pyramidal chain"))

    primes = sorted(_prime_support(G.order))
    ok = all(check_solvable_tower(G, p) for p in primes)
    lines.append(SuiteLine("solvable-tower", ok, len(primes)))

    # observed regularity, not a proved identity: subgroups of pyramidal
    # groups come out pyramidal on every group we can enumerate
    if G.order > 1 and is_pyramidal(G):
        proper = [H for H in subs if 1 < H.size < G.order]
        ok = all(_is_pyramidal_at(G, H.mask) for H in proper)
        lines.append(SuiteLine("pyramidal-heredity", ok, len(proper), "empirical"))
    else:
        lines.append(
            SuiteLine("pyramidal-heredity", True, 0, "no pyramidal chain")
        )

    return tuple(lines)
