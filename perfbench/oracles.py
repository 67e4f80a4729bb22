"""Exact checks of every op's output, run outside the timed region.

Each check re-derives the expected answer with the benchmark's own code
(ntheory, permgroups) or from facts the input carries by construction:
generated covers are exact, a cover with one class removed has density
sum 1/n_i < 1, two merged exact covers form a uniform 2-cover, c(M) is
certified by cross multiplication, group orders and subgroup counts come
from the records.  A check returns a list of problems; empty means the op
passed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import ntheory
from permgroups import PermGroup, compose, index_of, least_prime
from workloads import catalog_perm_group, threshold_primes

ZETA2 = math.pi**2 / 6


def _frac(value) -> Fraction:
    if isinstance(value, dict):
        return Fraction(int(value["num"]), int(value["den"]))
    return Fraction(value)


class _Report:
    """A parsed structured report with a list of mismatches."""

    def __init__(self, out: dict, rc: int):
        self.problems: list[str] = []
        self.verdicts: dict = {}
        if out["rc"] != rc:
            self.problems.append(f"exit {out['rc']}, want {rc}: {out['stderr'][-300:]}")
            return
        try:
            tree = json.loads(out["stdout"])
        except ValueError:
            self.problems.append("output is not a structured report")
            return
        self.verdicts = {v["name"]: v for v in tree["verdicts"]}

    def value(self, name):
        return self.verdicts[name]["value"]

    def witness(self, name, key):
        return self.verdicts[name]["witness"][key]

    def want(self, name, got, expected):
        if got != expected:
            self.problems.append(f"{name} = {got!r}, want {expected!r}")

    def expect(self, name, expected, rational=False):
        if name not in self.verdicts:
            self.problems.append(f"missing verdict {name}")
            return
        got = self.value(name)
        self.want(name, _frac(got) if rational else got, expected)


# ------------------------------------------------------------------ integers

_MULTIPLICITY = {"exact": (1, 1), "removed": (0, 1), "merged": (2, 2)}


def _residue(op, out) -> list[str]:
    classes = op.expect["classes"]
    variant = op.expect["variant"]
    moduli = [n for _, n in classes]
    period = math.lcm(*moduli)
    cmd = op.command
    lo, hi = _MULTIPLICITY.get(variant, (None, None))
    density = min(Fraction(1), sum(Fraction(1, n) for n in moduli))
    if cmd == "verify-cover":
        r = _Report(out, 0 if lo >= 1 else 1)
        if r.problems:
            return r.problems
        r.expect("classes", len(classes))
        r.expect("period", period)
        r.expect("min-multiplicity", lo)
        r.expect("max-multiplicity", hi)
        r.expect("is-cover", lo >= 1)
        r.expect("is-exact-cover", lo == hi == 1)
        r.expect("uniform-m", lo if lo == hi else None)
        r.expect("is-trivial", False)
        r.expect("density", density, rational=True)
        n_max = max(moduli)
        mult = moduli.count(n_max)
        r.expect("largest-modulus-repeats", mult >= 2)
        r.want("n-max", r.witness("largest-modulus-repeats", "n-max"), n_max)
        r.want("multiplicity", r.witness("largest-modulus-repeats", "multiplicity"), mult)
        r.want("least-prime", r.witness("largest-modulus-repeats", "least-prime"), least_prime(n_max))
        return r.problems
    r = _Report(out, 0)
    if r.problems:
        return r.problems
    if cmd == "density":
        r.expect("period", period)
        r.expect("covered", density * period)
        r.expect("density", density, rational=True)
        r.expect("min-multiplicity", lo)
        r.expect("max-multiplicity", hi)
        r.expect("multiplicity-sum", sum(period // n for n in moduli))
    elif cmd == "rogers":
        r.expect("covered", density * period)
        r.expect("zeroed-covered", ntheory.covered_by_multiples(moduli, period))
        r.expect("covers-at-least-zeroed", True)
    elif cmd == "simpson":
        pairs = ntheory.factor(period)
        m = max(Counter(moduli).values())
        r.expect("largest-prime", pairs[-1][0])
        r.expect("max-multiplicity", m)
        r.expect("bound", m * ntheory.euler_factor(p for p, _ in pairs), rational=True)
        r.expect("largest-prime-bounded", True)
    elif cmd == "level-gap":
        p, top = ntheory.factor(period)[-1]
        r.expect("prime", p)
        r.expect("alpha-top", top)
        orders = sorted({dict(ntheory.factor(n)).get(p, 0) for n in moduli} - {0})
        for alpha in orders:
            name = f"index-bound[alpha={alpha}]"
            beta = max([o for o in orders if o < alpha] + [0])
            r.expect(name, True)
            if name in r.verdicts:
                r.want(name + ".lhs", _frac(r.witness(name, "lhs")), Fraction(p ** (alpha - beta)))
        r.expect("top-multiplicity-floor", True)
    elif cmd == "mu":
        r.expect("mu-divisor-closure", ntheory.mu_divisor_closure(sorted(set(moduli))))
    elif cmd == "density-check":
        covered = ntheory.covered_by_multiples(moduli, period)
        r.expect("scan-density", Fraction(covered, period), rational=True)
        r.expect("inclusion-exclusion", Fraction(covered, period), rational=True)
        r.expect("identity", True)
    return r.problems


def _bounds(op, out) -> list[str]:
    r = _Report(out, 0)
    if r.problems:
        return r.problems
    c = op.expect["c"]
    if op.command == "bounds":
        r.expect("c", c)
        r.expect("pi-c", threshold_primes().count_upto(c))
        v = math.log2(ZETA2 * c)
        if abs(v - round(v)) > 1e-6:  # clear of the 1e-9 escalation guard
            r.expect("alpha", 2 + math.floor(v))
    else:
        q, M = op.expect["q"], op.expect["M"]
        r.expect("premise", ntheory.premise(q, M, threshold_primes()))
        r.expect("conclusion", q < c)
        r.expect("implication", True)
    return r.problems


# -------------------------------------------------------------------- groups

@lru_cache(maxsize=None)
def _facts(degree: int, gens: tuple[str, ...]) -> dict:
    return PermGroup(degree, gens).facts()


def _group_info(op, out) -> list[str]:
    if op.kind == "group-info/refused":
        problems = []
        if out["rc"] != 2 or "budget" not in out["stderr"]:
            problems.append(f"exit {out['rc']} ({out['stderr'][-200:]!r}), want a budget refusal")
        return problems
    r = _Report(out, 0)
    if r.problems:
        return r.problems
    if op.kind in ("group-info/catalog", "group-info/inline"):
        # relabelling points gives an isomorphic group: the same facts
        facts = catalog_perm_group(op.expect["group"]).facts()
        solvable = True  # every group of order <= 16 is solvable
    else:
        rec = op.expect["record"]
        facts = dict(_facts(rec.degree, tuple(op.expect["gens"])))
        r.want("record order", facts["order"], rec.order)
        r.want("record subgroups", facts["subgroups"], rec.subgroups)
        solvable = rec.solvable
    for name, value in facts.items():
        r.expect(name, value)
    r.expect("solvable", solvable)
    return r.problems


def _group_suite(op, out) -> list[str]:
    r = _Report(out, 0)
    if r.problems:
        return r.problems
    r.want("suite lines", len(r.verdicts), 7)
    for name, v in r.verdicts.items():
        if not (v["asserted"] and v["value"] is True):
            r.problems.append(f"suite line {name} does not hold")
    return r.problems


def _coset(op, out) -> list[str]:
    r = _Report(out, 0)
    if r.problems:
        return r.problems
    G = catalog_perm_group(op.expect["group"])
    entries = op.expect["entries"]
    ns = [index_of(G, K) for _, K in entries]
    cmd = op.command
    if cmd == "uniform-cover":
        r.expect("m", op.expect["m"])
        r.expect("indices", sorted(ns))
        if sum(Fraction(1, n) for n in ns) != op.expect["m"]:
            r.problems.append("generated cover has reciprocal index sum != m")
    elif cmd == "max-index":
        n_max = max(ns)
        r.expect("n-max", n_max)
        r.expect("multiplicity", ns.count(n_max))
        r.expect("least-prime", least_prime(n_max))
    else:
        H = op.expect["H"]
        h = index_of(G, H)
        r.expect("index-h", h)
        r.expect("indices", ns)
        if cmd == "union-bound":
            union = 0
            for rep, K in entries:
                union |= G.left_coset(rep, K)
            met = {G.left_coset(x, H) for x in range(G.order) if union >> x & 1}
            rhs = sum(1 for n in range(h) if any(n % d == 0 for d in ns))
            r.want("cosets-met", r.witness("coset-lower-bound", "cosets-met"), len(met))
            r.want("index-multiple-count", r.witness("coset-lower-bound", "index-multiple-count"), rhs)
        else:
            g_all = math.gcd(*ns)
            lhs = Fraction(g_all, math.gcd(h, g_all))
            mult = max(Counter(ns).values())
            ratio = math.lcm(*ns) // g_all
            rhs = mult * sum(Fraction(1, d) for d in ntheory.divisors(ratio))
            r.want("gcd-bound.lhs", _frac(r.witness("gcd-bound", "lhs")), lhs)
            r.want("gcd-bound.rhs", _frac(r.witness("gcd-bound", "rhs")), rhs)
    return r.problems


def _enumerate_covers(op, out) -> list[str]:
    r = _Report(out, 0)
    if r.problems:
        return r.problems
    m = op.expect["m"]
    r.expect("covers", op.expect["covers"])
    total = 0
    for name, v in r.verdicts.items():
        if name.startswith("shape "):
            ns = [int(n) for n in name[6:].split("x")]
            total += v["value"]
            if sum(Fraction(1, n) for n in ns) != m:
                r.problems.append(f"{name}: reciprocal index sum != {m}")
    r.want("sum of shape counts", total, op.expect["covers"])
    return r.problems


def check_cold(op, out: dict) -> list[str]:
    """Problems with the output of one cold command; empty when it passed."""
    cmd = op.command
    if cmd in ("bounds", "qbound"):
        return _bounds(op, out)
    if cmd == "group-info":
        return _group_info(op, out)
    if cmd == "group-suite":
        return _group_suite(op, out)
    if cmd == "enumerate-covers":
        return _enumerate_covers(op, out)
    if cmd in ("uniform-cover", "max-index", "union-bound", "aligned-union"):
        return _coset(op, out)
    return _residue(op, out)


# --------------------------------------------------------------------- sweep


def _is_uniform_cover(G: PermGroup, entries, m: int) -> bool:
    """entries: (rep perm, subgroup member perms) in coverlab's realization,
    checked here as permutations with this module's own products."""
    counts: Counter = Counter()
    for rep, members in entries:
        mset = set(members)
        if any(compose(a, b) not in mset for a in members for b in members):
            return False
        counts.update(compose(rep, h) for h in members)
    return set(counts) == set(G.elems) and set(counts.values()) == {m}


def check_sweep(op, result: dict) -> list[str]:
    problems = []
    if op.kind == "suite":
        if len(result["lines"]) != 7 or not all(holds for _, holds, _, _ in result["lines"]):
            problems.append(f"suite lines fail: {result['lines']}")
    elif op.kind == "search":
        if result["found"]:
            problems.append("distinct-index partition reported")
    else:
        m = op.expect["m"]
        rows = result["rows"]
        if len(rows) != op.expect["covers"]:
            problems.append(f"{len(rows)} covers, want {op.expect['covers']}")
        for indices, m_got, *_ in rows:
            if m_got != m or sum(Fraction(1, n) for n in indices) != m:
                problems.append(f"cover {indices} is not a uniform {m}-cover")
                break
        G = catalog_perm_group(op.expect["group"])
        for entries in result["samples"]:
            if not _is_uniform_cover(G, entries, m):
                problems.append("sampled cover fails the permutation check")
                break
    return problems
