"""Regenerate src/coverlab/data/groups_le16.txt.

Every group of order <= 16 is built here from an explicit element model
(cyclic, direct product, dihedral, dicyclic, semidirect, and the two
order-16 one-offs), checked for the group axioms, and emitted as
permutation generators: natural small-degree representations where a
standard one exists, the left regular representation otherwise.

Run from the repo root:  python scripts/make_catalog.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coverlab.group import (  # noqa: E402
    all_subgroups,
    catalog_group,
    cycles_str,
    load_catalog,
)

OUT = Path(__file__).resolve().parent.parent / "src" / "coverlab" / "data" / "groups_le16.txt"


class Model:
    def __init__(self, name, elems, mult, gens):
        self.name = name
        self.elems = sorted(elems)
        self.mult = mult
        self.gens = gens
        self._check()

    def _check(self):
        es = self.elems
        assert len(set(es)) == len(es)
        mult = self.mult
        for a in es:
            for b in es:
                assert mult(a, b) in set(es), (self.name, a, b)
        ident = [e for e in es if all(mult(e, x) == x and mult(x, e) == x for x in es)]
        assert len(ident) == 1, self.name
        self.identity = ident[0]
        for a in es:
            assert any(mult(a, b) == self.identity for b in es), (self.name, a)
        for a in es:
            for b in es:
                for c in es:
                    assert mult(mult(a, b), c) == mult(a, mult(b, c)), (self.name, a, b, c)

    def regular_gens(self):
        pos = {e: i for i, e in enumerate(self.elems)}
        out = []
        for g in self.gens:
            perm = tuple(pos[self.mult(g, x)] for x in self.elems)
            out.append(cycles_str(perm))
        return len(self.elems), out


def cyclic(n):
    return Model(
        f"C{n}",
        [(i,) for i in range(n)],
        lambda a, b: ((a[0] + b[0]) % n,),
        [(1,)] if n > 1 else [],
    )


def direct(name, m1, m2):
    e1, e2 = m1.identity, m2.identity
    return Model(
        name,
        [(a, b) for a in m1.elems for b in m2.elems],
        lambda x, y: (m1.mult(x[0], y[0]), m2.mult(x[1], y[1])),
        [(g, e2) for g in m1.gens] + [(e1, h) for h in m2.gens],
    )


def dihedral(n):
    def mult(a, b):
        r1, s1 = a
        r2, s2 = b
        return ((r1 + (r2 if s1 == 0 else -r2)) % n, (s1 + s2) % 2)

    return Model(f"D{n}", [(r, s) for r in range(n) for s in (0, 1)], mult, [(1, 0), (0, 1)])


def dicyclic(n):
    # order 4n: a of order 2n, b**2 = a**n, b a b**-1 = a**-1
    def mult(x, y):
        j1, i1 = x
        j2, i2 = y
        if i1 == 0:
            return ((j1 + j2) % (2 * n), i2)
        if i2 == 0:
            return ((j1 - j2) % (2 * n), 1)
        return ((j1 - j2 + n) % (2 * n), 0)

    return Model(
        f"Dic{n}", [(j, i) for j in range(2 * n) for i in (0, 1)], mult, [(1, 0), (0, 1)]
    )


def semidirect(name, m, n, t):
    # C_m : C_n with the generator of C_n acting as x -> t*x
    assert pow(t, n, m) == 1 % m

    def mult(a, b):
        x1, y1 = a
        x2, y2 = b
        return ((x1 + pow(t, y1, m) * x2) % m, (y1 + y2) % n)

    return Model(name, [(x, y) for x in range(m) for y in range(n)], mult, [(1, 0), (0, 1)])


def c22_semi_c4():
    # (C2 x C2) : C4, the C4 swapping the two factors
    def mult(a, b):
        (x1, x2), y1 = a
        (u1, u2), y2 = b
        if y1 % 2:
            u1, u2 = u2, u1
        return (((x1 + u1) % 2, (x2 + u2) % 2), (y1 + y2) % 4)

    return Model(
        "(C2xC2):C4",
        [((x1, x2), y) for x1 in (0, 1) for x2 in (0, 1) for y in range(4)],
        mult,
        [((1, 0), 0), ((0, 0), 1)],
    )


def pauli16():
    # central product C4 o D4: elements i**a X**b Z**c with XZ = -ZX
    def mult(p, q):
        a1, b1, c1 = p
        a2, b2, c2 = q
        return ((a1 + a2 + 2 * c1 * b2) % 4, (b1 + b2) % 2, (c1 + c2) % 2)

    return Model(
        "C4oD4",
        [(a, b, c) for a in range(4) for b in (0, 1) for c in (0, 1)],
        mult,
        [(0, 1, 0), (0, 0, 1), (1, 0, 0)],
    )


def seg_cycle(lo, n):
    return "(" + " ".join(str(lo + i) for i in range(n)) + ")"


def refl(n, lo=1):
    # reflection of the n-gon on points lo..lo+n-1 fixing the first vertex
    pairs = [(lo + i, lo + n - i) for i in range(1, (n + 1) // 2) if lo + i < lo + n - i]
    return "".join(f"({a} {b})" for a, b in pairs)


HANDMADE = [
    ("C1", 1, [], 1),
    ("C2", 2, [seg_cycle(1, 2)], 2),
    ("C3", 3, [seg_cycle(1, 3)], 3),
    ("C4", 4, [seg_cycle(1, 4)], 4),
    ("C2xC2", 4, ["(1 2)", "(3 4)"], 4),
    ("C5", 5, [seg_cycle(1, 5)], 5),
    ("C6", 6, [seg_cycle(1, 6)], 6),
    ("S3", 3, ["(1 2)", "(1 2 3)"], 6),
    ("C7", 7, [seg_cycle(1, 7)], 7),
    ("C8", 8, [seg_cycle(1, 8)], 8),
    ("C4xC2", 6, [seg_cycle(1, 4), "(5 6)"], 8),
    ("C2xC2xC2", 6, ["(1 2)", "(3 4)", "(5 6)"], 8),
    ("D4", 4, [seg_cycle(1, 4), refl(4)], 8),
    ("C9", 9, [seg_cycle(1, 9)], 9),
    ("C3xC3", 6, [seg_cycle(1, 3), seg_cycle(4, 3)], 9),
    ("C10", 10, [seg_cycle(1, 10)], 10),
    ("D5", 5, [seg_cycle(1, 5), refl(5)], 10),
    ("C11", 11, [seg_cycle(1, 11)], 11),
    ("C12", 12, [seg_cycle(1, 12)], 12),
    ("C6xC2", 8, [seg_cycle(1, 6), "(7 8)"], 12),
    ("D6", 6, [seg_cycle(1, 6), refl(6)], 12),
    ("A4", 4, ["(1 2 3)", "(1 2)(3 4)"], 12),
    ("C13", 13, [seg_cycle(1, 13)], 13),
    ("C14", 14, [seg_cycle(1, 14)], 14),
    ("D7", 7, [seg_cycle(1, 7), refl(7)], 14),
    ("C15", 15, [seg_cycle(1, 15)], 15),
    ("C16", 16, [seg_cycle(1, 16)], 16),
    ("C8xC2", 10, [seg_cycle(1, 8), "(9 10)"], 16),
    ("C4xC4", 8, [seg_cycle(1, 4), seg_cycle(5, 4)], 16),
    ("C4xC2xC2", 8, [seg_cycle(1, 4), "(5 6)", "(7 8)"], 16),
    ("C2xC2xC2xC2", 8, ["(1 2)", "(3 4)", "(5 6)", "(7 8)"], 16),
    ("D8", 8, [seg_cycle(1, 8), refl(8)], 16),
    ("D4xC2", 6, [seg_cycle(1, 4), refl(4), "(5 6)"], 16),
]

MODELED = [
    (dicyclic(2), "Q8", 8),
    (dicyclic(3), "Dic3", 12),
    (dicyclic(4), "Q16", 16),
    (semidirect("SD16", 8, 2, 3), "SD16", 16),
    (semidirect("M16", 8, 2, 5), "M16", 16),
    (semidirect("C4:C4", 4, 4, 3), "C4:C4", 16),
    (c22_semi_c4(), "(C2xC2):C4", 16),
    (pauli16(), "C4oD4", 16),
    (direct("Q8xC2", dicyclic(2), cyclic(2)), "Q8xC2", 16),
]


def catalog_text() -> str:
    """The catalog file's content: one record per group, by (order, name)."""
    entries = list(HANDMADE)
    for model, name, order in MODELED:
        assert len(model.elems) == order, name
        degree, gens = model.regular_gens()
        entries.append((name, degree, gens, order))

    entries.sort(key=lambda e: (e[3], e[0]))
    lines = ["# groups of order <= 16 as permutation generators", ""]
    for name, degree, gens, order in entries:
        lines.append(f"group {name}")
        lines.append(f"degree {degree}")
        for g in gens:
            lines.append(f"gen {g}")
        lines.append(f"order {order}")
        lines.append("end")
        lines.append("")
    return "\n".join(lines)


def main():
    OUT.write_text(catalog_text())
    # the package loader parses and realizes every record, counts groups
    # per order and refuses fingerprint collisions, counting subgroups
    # only where two groups tie on every other fingerprint part; add a
    # few known counts
    groups = load_catalog()
    print(f"wrote {OUT} with {len(groups)} records")
    for name, subgroups in (("C4", 3), ("S3", 6), ("Q8", 6), ("A4", 10)):
        assert len(all_subgroups(catalog_group(name))) == subgroups, name
    print("validation ok")


if __name__ == "__main__":
    main()
