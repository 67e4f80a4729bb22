"""A small permutation-group toolkit of the benchmark's own.

The benchmark builds its group records and coset covers, and checks
coverlab's group answers, with this code alone.  Neither coverlab's element
numbering nor a defect in coverlab can then change what a command is fed or
what its output is compared with.

Permutations are 0-based image tuples.  Products compose as in coverlab's
records, (a*b)[i] = a[b[i]], so the left coset a*K is {a*k : k in K}.  Cycle
texts are 1-based with fixed points omitted, and "()" is the identity.
Subgroups are bitmasks over this module's own element numbering.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import cached_property

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def compose(a: tuple, b: tuple) -> tuple:
    return tuple(a[i] for i in b)


def parse_cycles(degree: int, text: str) -> tuple:
    """Cycle text to an image tuple; cycles are applied left to right."""
    perm = list(range(degree))
    for body in _CYCLE_RE.findall(text):
        pts = [int(t) - 1 for t in body.replace(",", " ").split()]
        cyc = list(range(degree))
        for a, b in zip(pts, pts[1:] + pts[:1]):
            cyc[a] = b
        perm = [cyc[x] for x in perm]
    return tuple(perm)


def cycles_str(perm: tuple) -> str:
    seen = set()
    parts = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        x = perm[start]
        while x != start:
            seen.add(x)
            cyc.append(x)
            x = perm[x]
        parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) or "()"


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class PermGroup:
    """The group generated by permutations, elements numbered by BFS."""

    def __init__(self, degree: int, generators):
        self.degree = degree
        gens = [parse_cycles(degree, g) if isinstance(g, str) else tuple(g) for g in generators]
        identity = tuple(range(degree))
        self.elems = [identity]
        self.index = {identity: 0}
        pos = 0
        while pos < len(self.elems):
            x = self.elems[pos]
            for g in gens:
                y = compose(x, g)
                if y not in self.index:
                    self.index[y] = len(self.elems)
                    self.elems.append(y)
            pos += 1
        self.order = len(self.elems)

    @cached_property
    def table(self) -> list[list[int]]:
        idx = self.index
        return [[idx[compose(a, b)] for b in self.elems] for a in self.elems]

    def cycles(self, x: int) -> str:
        return cycles_str(self.elems[x])

    def closure(self, gens) -> int:
        """Bitmask of the subgroup generated by the element ids in gens."""
        table = self.table
        members = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            row = table[x]
            for g in gens:
                y = row[g]
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        return sum(1 << x for x in members)

    @cached_property
    def lattice(self) -> dict[int, tuple[int, ...]]:
        """Every subgroup mask mapped to a small generating set.

        Joins of known subgroups with cyclic ones reach every subgroup,
        since each is generated by finitely many cyclic subgroups.
        """
        cyclic: dict[int, tuple[int, ...]] = {}
        for x in range(self.order):
            cyclic.setdefault(self.closure((x,)), (x,))
        subs = {1: ()}
        subs.update(cyclic)
        frontier = dict(subs)
        while frontier:
            new = {}
            for h, hg in frontier.items():
                for c, cg in cyclic.items():
                    if c & ~h:
                        gens = hg + cg
                        j = self.closure(gens)
                        if j not in subs and j not in new:
                            new[j] = gens
            subs.update(new)
            frontier = new
        return subs

    def subgroups(self) -> list[int]:
        return sorted(self.lattice, key=lambda m: (m.bit_count(), m))

    def generators(self, mask: int) -> tuple[int, ...]:
        return self.lattice[mask]

    def left_coset(self, a: int, mask: int) -> int:
        row = self.table[a]
        return sum(1 << row[h] for h in bits(mask))

    def transversal(self, over: int, sub: int) -> list[int]:
        """Left transversal of the subgroup sub inside the subgroup over."""
        reps = []
        seen = 0
        for x in bits(over):
            if not seen >> x & 1:
                reps.append(x)
                seen |= self.left_coset(x, sub)
        return reps

    def element_order(self, x: int) -> int:
        row_x = self.elems[x]
        k, y = 1, row_x
        identity = self.elems[0]
        while y != identity:
            y = compose(y, row_x)
            k += 1
        return k

    def center_order(self) -> int:
        t = self.table
        n = self.order
        return sum(1 for x in range(n) if all(t[x][y] == t[y][x] for y in range(n)))

    def is_abelian(self) -> bool:
        return self.center_order() == self.order

    def facts(self) -> dict:
        """The group-info values coverlab must reproduce for this group."""
        profile = Counter(self.element_order(x) for x in range(self.order))
        return {
            "order": self.order,
            "abelian": self.is_abelian(),
            "subgroups": len(self.lattice),
            "center-order": self.center_order(),
            "element-orders": [f"{o}^{profile[o]}" for o in sorted(profile)],
        }


def relabel(degree: int, gens: list[str], sigma: tuple) -> list[str]:
    """Generators conjugated by the point permutation sigma, as cycle texts.

    The result generates an isomorphic group on the same points, so every
    fact of the group is unchanged while coverlab numbers its elements anew.
    """
    inv = [0] * degree
    for i, s in enumerate(sigma):
        inv[s] = i
    out = []
    for g in gens:
        p = parse_cycles(degree, g)
        out.append(cycles_str(tuple(sigma[p[inv[i]]] for i in range(degree))))
    return out


def record_text(name: str, degree: int, gens: list[str], order: int) -> str:
    lines = [f"group {name}", f"degree {degree}"]
    lines += [f"gen {g}" for g in gens]
    lines += [f"order {order}", "end"]
    return "\n".join(lines) + "\n"


def index_of(G: PermGroup, mask: int) -> int:
    return G.order // mask.bit_count()


def least_prime(n: int) -> int:
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return p
    return n
