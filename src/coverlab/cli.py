"""Command-line front end.

Parses cover and group files, dispatches to the check modules, and
prints one report per invocation, as fixed-layout text or as JSON.
Exit status: 0 when every asserted check holds, 1 when one fails, 2 on
an InputError (refused input, a `--budget` or `--max-order` below 1
included) or a BudgetError, 3 on any other exception (an internal fault,
with its traceback), and 141 (128 + SIGPIPE, as a shell reports a pipe
writer killed by its closed reader) when standard output is closed
before the report is written, with no traceback.
Informational values never affect the status.  Identical inputs, seed
and version give byte-identical output; rationals are printed exactly,
as num/den in text and as string pairs in JSON.

A command is declared once, in the `_commands` table: name, handler,
help and own arguments.  `main` builds the subparser of the one command
it runs, and all of them for no command, -h, --version, an unknown
command or a stray argument, so a usage message lists every command.
`main` makes the report; the handler fills its inputs and adds its
verdicts.  Only a command with a period or node budget declares
`--budget`, which lowers that budget and never raises it; to any other
command it is a usage error.  A bound the paper asserts only under a
hypothesis goes through `Report.claim`: when the hypothesis fails, the
bound is printed unmarked, with a warning where the report gives one,
and does not affect the status.

Cover files hold one residue class per line (or several per line) as
`a/n` tokens with 0 <= a < n; `#` starts a comment.  Group files hold
either a catalog name or one record in the catalog format.  Coset-cover
files start with a `group` line (catalog name, or a full inline record
through `end`), then an optional `H : <elements>` line, which only
`union-bound` and `aligned-union` accept, then one
`representative : <subgroup elements>` line per coset; elements are ids
or cycle texts, and subgroups are closed over whatever is listed.
Every positional file argument also accepts the content itself inline.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
# unused here; perfbench/test_perfbench.py warms the sieve through cli.factorize
from .arith import factorize  # noqa: F401
from .bounds import bound_report, check_q_bound
from .errors import BudgetError, InputError
from .gcover import (
    DEFAULT_NODE_BUDGET,
    CosetSystem,
    check_aligned_union_bound,
    check_uniform_cover,
    check_union_lower_bound,
    enumerate_uniform_covers,
    probe_max_index_multiplicity,
    search_distinct_index_partition,
)
from .group import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    catalog_group,
    center_mask,
    clean_lines,
    is_pyramidal,
    is_solvable,
    is_subnormal,
    load_catalog,
    parse_cycles,
    parse_int,
    read_group_records,
    realize_record,
    structural_suite,
    subgroup_closure,
    trivial_subgroup,
)
from .zcover import (
    DEFAULT_PERIOD_BUDGET,
    ResidueSystem,
    check_density_identity,
    check_level_gaps,
    check_rogers,
    check_simpson,
    classify,
    largest_modulus_multiplicity,
    multiplicity_profile,
    mu_of_divisor_closure,
)


# ------------------------------------------------------------------ parsing


def _load(path_or_text: str) -> str:
    """The file content when the argument names a file, else the text."""
    try:
        p = Path(path_or_text)
        if p.is_file():
            return p.read_text()
    except OSError:
        pass
    return path_or_text


_CLASS_RE = re.compile(r"(\d+)/(\d+)")


def parse_cover_file(path_or_text: str) -> ResidueSystem:
    pairs = []
    for lineno, line in clean_lines(_load(path_or_text)):
        for tok in line.split():
            m = _CLASS_RE.fullmatch(tok)
            if m is None:
                raise InputError(f"line {lineno}: bad class {tok!r}, want a/n")
            a, n = parse_int(m.group(1)), parse_int(m.group(2))
            if n < 1:
                raise InputError(f"line {lineno}: modulus must be >= 1 in {tok!r}")
            if not 0 <= a < n:
                raise InputError(f"line {lineno}: residue {a} out of range for modulus {n}")
            pairs.append((a, n))
    if not pairs:
        raise InputError("no residue classes found")
    return ResidueSystem.from_pairs(pairs)


def _parse_group_header(lines: list[tuple[int, str]]) -> tuple[FiniteGroup, int]:
    """(group, clean lines used) for the top of a group or coset-cover file:
    every clean line before the first later one holding a ':' (a cover
    entry).  One line names a catalog group, bare or after `group`; more
    lines are one record, read from those lines with the file's numbers."""
    span = next((i for i in range(1, len(lines)) if ":" in lines[i][1]), len(lines))
    if span == 1:
        lineno, first = lines[0]
        key, _, rest = first.partition(" ")
        name = rest.strip() if key == "group" else first
        if not name:
            raise InputError(f"line {lineno}: group needs a name")
        try:
            return catalog_group(name), 1
        except KeyError:
            raise InputError(f"line {lineno}: no catalog group named {name!r}")
    records = read_group_records(lines[:span])
    if len(records) != 1:
        raise InputError(f"expected exactly one group record, got {len(records)}")
    return realize_record(records[0]), span


def parse_group_file(path_or_text: str) -> FiniteGroup:
    """A catalog name (bare or after `group`), or one full record."""
    lines = clean_lines(_load(path_or_text))
    if not lines:
        raise InputError("empty group file")
    G, span = _parse_group_header(lines)
    if span < len(lines):
        raise InputError(f"line {lines[span][0]}: a group file holds one group only")
    return G


# cycle texts contain spaces; a token is a run of parenthesized cycles
# or a bare word
_TOKEN_RE = re.compile(r"(?:\([^()]*\))+|[^\s()]+")


def _element(G: FiniteGroup, tok: str, lineno: int) -> int:
    if tok == "e":
        return 0
    if tok.isdecimal():
        x = parse_int(tok)
        if x >= G.order:
            raise InputError(f"line {lineno}: element id {x} out of range")
        return x
    if tok.startswith("("):
        try:
            perm = parse_cycles(len(G.perms[0]), tok)
        except InputError as e:
            raise InputError(f"line {lineno}: {e}")
        try:
            return G.perms.index(perm)
        except ValueError:
            raise InputError(f"line {lineno}: permutation {tok} not in the group")
    raise InputError(f"line {lineno}: bad element token {tok!r}")


def parse_group_cover_file(
    path_or_text: str, takes_h: bool = True
) -> tuple[FiniteGroup, Subgroup, list[tuple[int, Subgroup]]]:
    """(group, H, entries) of a coset-cover file, the one reader of every
    coset command; H defaults to the trivial subgroup.  With takes_h
    False, for a command that has no use for H, an H line is refused once
    the whole file has parsed and has entries."""
    lines = clean_lines(_load(path_or_text))
    if not lines:
        raise InputError("empty cover file")
    lineno, first = lines[0]
    if first.split()[0] != "group":
        raise InputError(f"line {lineno}: cover must start with a group line")
    G, pos = _parse_group_header(lines)
    H = trivial_subgroup(G)
    entries: list[tuple[int, Subgroup]] = []
    h_line = None
    for lineno, line in lines[pos:]:
        left, sep, right = line.partition(":")
        if not sep:
            raise InputError(f"line {lineno}: want 'rep : elements' or 'H : elements'")
        left = left.strip()
        toks = _TOKEN_RE.findall(right)
        if left == "H":
            if h_line is not None:
                raise InputError(f"line {lineno}: duplicate H line")
            if entries:
                raise InputError(f"line {lineno}: H line must precede entries")
            h_line = lineno
            H = subgroup_closure(G, [_element(G, t, lineno) for t in toks])
        else:
            rep = _element(G, left, lineno)
            sub = subgroup_closure(G, [_element(G, t, lineno) for t in toks])
            entries.append((rep, sub))
    if not entries:
        raise InputError("no cover entries found")
    if h_line is not None and not takes_h:
        raise InputError(f"line {h_line}: this command takes no H line")
    return G, H, entries


def _coset_system(path_or_text: str) -> CosetSystem:
    G, _, entries = parse_group_cover_file(path_or_text, takes_h=False)
    return CosetSystem(G, entries)


# ---------------------------------------------------------------- reporting


class Verdict:
    __slots__ = ("name", "value", "witness", "asserted")

    def __init__(self, name: str, value: object, witness: Optional[dict], asserted: bool):
        self.name, self.value, self.witness, self.asserted = name, value, witness, asserted


class Report:
    __slots__ = ("command", "inputs", "seed", "verdicts", "warnings", "truncated")

    def __init__(self, command: str, seed: Optional[int]):
        self.command, self.inputs, self.seed = command, {}, seed
        self.verdicts: list[Verdict] = []
        self.warnings: list[str] = []
        self.truncated = False

    def info(self, name, value, witness=None):
        self.verdicts.append(Verdict(name, value, witness, asserted=False))

    def check(self, name, value, witness=None):
        self.verdicts.append(Verdict(name, bool(value), witness, asserted=True))

    def claim(self, name, value, witness, asserted, note=None):
        """A bound the paper asserts only under a hypothesis: a check when
        `asserted` (the hypothesis holds), else an unmarked line plus
        `note`, when given, as the warning saying why."""
        if asserted:
            self.check(name, value, witness)
        else:
            self.info(name, value, witness)
            if note is not None:
                self.warnings.append(note)

    @property
    def passed(self) -> bool:
        return all(v.value is True for v in self.verdicts if v.asserted)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return "none"
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def render_text(report: Report) -> str:
    lines = [f"coverlab {__version__}", f"command: {report.command}"]
    lines.append(f"seed: {_fmt(report.seed)}")
    if report.inputs:
        lines.append("inputs:")
        for key in report.inputs:
            lines.append(f"  {key}: {_fmt(report.inputs[key])}")
    lines.append("verdicts:")
    for v in report.verdicts:
        mark = "*" if v.asserted else " "
        tail = ""
        if v.witness:
            inner = ", ".join(f"{k}={_fmt(w)}" for k, w in v.witness.items())
            tail = f"  ({inner})"
        lines.append(f"{mark} {v.name} = {_fmt(v.value)}{tail}")
    if report.warnings:
        lines.append("warnings:")
        for w in report.warnings:
            lines.append(f"  - {w}")
    if report.truncated:
        lines.append("truncated: true")
    lines.append(f"status: {'pass' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def _jsonable(value):
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def render_json(report: Report) -> str:
    tree = {
        "command": report.command,
        "inputs": _jsonable(report.inputs),
        "seed": report.seed,
        "verdicts": [
            {
                "name": v.name,
                "value": _jsonable(v.value),
                "witness": _jsonable(v.witness),
                "asserted": v.asserted,
            }
            for v in report.verdicts
        ],
        "warnings": list(report.warnings),
        "truncated": report.truncated,
        "status": "pass" if report.passed else "fail",
        "version": __version__,
    }
    return json.dumps(tree, sort_keys=True, indent=2)


# ------------------------------------------------------------------ budgets


def _budget(args, cap: int) -> int:
    """cap, lowered by --budget, never raised."""
    if args.budget is None:
        return cap
    if args.budget < 1:
        raise InputError(f"--budget must be at least 1, got {args.budget}")
    return min(args.budget, cap)


# ----------------------------------------------------------------- commands


def _cmd_verify_cover(args, rep: Report) -> None:
    system = parse_cover_file(args.cover)
    rep.inputs["cover"] = str(system)
    cls = classify(system, _budget(args, DEFAULT_PERIOD_BUDGET))
    rep.info("classes", cls.k)
    rep.info("period", cls.period)
    rep.info("min-multiplicity", cls.min_w)
    rep.info("max-multiplicity", cls.max_w)
    rep.check("is-cover", cls.is_cover)
    rep.info("is-exact-cover", cls.is_exact)
    rep.info("uniform-m", cls.uniform_m)
    rep.info("is-trivial", cls.is_trivial)
    rep.info("density", Fraction(cls.covered, cls.period))
    if max(system.moduli()) >= 2:
        n_max, mult, lp = largest_modulus_multiplicity(system)
        rep.info(
            "largest-modulus-repeats",
            mult >= 2,
            {"n-max": n_max, "multiplicity": mult, "least-prime": lp},
        )


def _cmd_density(args, rep: Report) -> None:
    system = parse_cover_file(args.cover)
    rep.inputs["cover"] = str(system)
    prof = multiplicity_profile(system, _budget(args, DEFAULT_PERIOD_BUDGET))
    rep.info("period", prof.period)
    rep.info("covered", prof.covered)
    rep.info("density", Fraction(prof.covered, prof.period))
    rep.info("min-multiplicity", prof.min_w)
    rep.info("max-multiplicity", prof.max_w)
    rep.info("multiplicity-sum", prof.sum_w)


def _cmd_mu(args, rep: Report) -> None:
    values = sorted(set(parse_cover_file(args.cover).moduli()))
    rep.inputs["moduli"] = values
    rep.info("mu-divisor-closure", mu_of_divisor_closure(values))


def _cmd_density_check(args, rep: Report) -> None:
    system = parse_cover_file(args.cover)
    rep.inputs["cover"] = str(system)
    dual = check_density_identity(system.moduli(), _budget(args, DEFAULT_PERIOD_BUDGET))
    rep.info("scan-density", dual.lhs)
    rep.info("inclusion-exclusion", dual.rhs)
    rep.check("identity", dual.holds)


def _cmd_rogers(args, rep: Report) -> None:
    system = parse_cover_file(args.cover)
    rep.inputs["cover"] = str(system)
    rr = check_rogers(system, _budget(args, DEFAULT_PERIOD_BUDGET))
    rep.info("covered", rr.shifted_covered)
    rep.info("zeroed-covered", rr.zeroed_covered)
    rep.check("covers-at-least-zeroed", rr.holds, {"period": rr.period})


def _cmd_level_gap(args, rep: Report) -> None:
    system = parse_cover_file(args.cover)
    rep.inputs.update(cover=str(system), prime=args.prime, alpha=args.alpha)
    alphas = None if args.alpha is None else (args.alpha,)
    reports = check_level_gaps(system, args.prime, alphas, _budget(args, DEFAULT_PERIOD_BUDGET))
    for r in reports:
        rep.check(
            f"index-bound[alpha={r.alpha}]",
            r.holds,
            {
                "lhs": r.lhs,
                "rhs": r.rhs,
                "beta": r.beta,
                "epsilon": r.epsilon,
                "m-value": r.m_value,
            },
        )
    last = reports[-1]
    rep.info("prime", last.prime)
    rep.info("alpha-top", last.alpha_top)
    rep.check(
        "top-multiplicity-floor",
        last.mult_holds,
        {
            "top-multiplicity": last.top_multiplicity,
            "bound": last.mult_bound,
            "weak-bound": last.mult_bound_weak,
        },
    )


def _cmd_simpson(args, rep: Report) -> None:
    system = parse_cover_file(args.cover)
    rep.inputs["cover"] = str(system)
    sr = check_simpson(system, _budget(args, DEFAULT_PERIOD_BUDGET))
    rep.info("largest-prime", sr.largest_prime)
    rep.info("max-multiplicity", sr.max_multiplicity)
    rep.info("bound", sr.rhs)
    rep.check("largest-prime-bounded", sr.holds)


def _cmd_bounds(args, rep: Report) -> None:
    rep.inputs["M"] = args.M
    br = bound_report(args.M)
    rep.info("c", br.c)
    rep.info("pi-c", br.pi_c)
    rep.info("theta-c", br.theta_c)
    rep.info("alpha", br.alpha)
    rep.info("alpha-escalated", br.alpha_escalated)
    rep.info("l-value", br.l_value)
    rep.info("egamma-scale", br.egamma_scale)
    rep.warnings.extend(br.notes)


def _cmd_qbound(args, rep: Report) -> None:
    rep.inputs.update(q=args.q, M=args.M)
    qr = check_q_bound(args.q, args.M)
    rep.info("premise", qr.premise)
    rep.info("conclusion", qr.conclusion)
    rep.check("implication", qr.holds)


def _cmd_group_info(args, rep: Report) -> None:
    G = parse_group_file(args.group)
    rep.inputs["group"] = G.name
    subs = all_subgroups(G)
    profile = Counter(G.element_orders())
    rep.info("order", G.order)
    rep.info("abelian", G.is_abelian())
    rep.info("solvable", is_solvable(G))
    rep.info("pyramidal", is_pyramidal(G))
    rep.info("subgroups", len(subs))
    rep.info("subnormal-subgroups", sum(1 for H in subs if is_subnormal(H)))
    rep.info("center-order", center_mask(G).bit_count())
    rep.info("element-orders", [f"{o}^{profile[o]}" for o in sorted(profile)])


def _cmd_group_suite(args, rep: Report) -> None:
    G = parse_group_file(args.group)
    rep.inputs["group"] = G.name
    for line in structural_suite(G):
        witness = {"checked": line.checked}
        if line.note:
            witness["note"] = line.note
        rep.check(line.name, line.holds, witness)


def _cmd_union_bound(args, rep: Report) -> None:
    G, H, entries = parse_group_cover_file(args.cover)
    ub = check_union_lower_bound(H, entries)
    rep.inputs.update({"group": G.name, "H-order": H.size, "entries": len(entries)})
    rep.info("index-h", ub.index_h)
    rep.info("indices", ub.indices)
    rep.info("hypothesis", ub.hypothesis)
    rep.claim(
        "coset-lower-bound",
        ub.holds,
        {"cosets-met": ub.lhs, "index-multiple-count": ub.rhs},
        ub.hypothesis != "none",
        "no subnormality or series hypothesis; bound reported, not asserted",
    )


def _cmd_aligned_union(args, rep: Report) -> None:
    G, H, entries = parse_group_cover_file(args.cover)
    ar = check_aligned_union_bound(H, entries)
    rep.inputs.update({"group": G.name, "H-order": H.size, "entries": len(entries)})
    rep.info("case", ar.case)
    if ar.d_both_branches:
        rep.info("d-both-branches", True)
    rep.info("index-h", ar.index_h)
    rep.info("indices", ar.indices)
    rep.claim(
        "gcd-bound",
        ar.holds,
        {"lhs": ar.lhs, "rhs": ar.rhs},
        ar.case != "none",
        "no applicable case; bound reported, not asserted",
    )


def _cmd_uniform_cover(args, rep: Report) -> None:
    cover = _coset_system(args.cover)
    uc = check_uniform_cover(cover)
    rep.inputs.update(group=cover.parent.name, entries=len(cover))
    rep.info("m", uc.m)
    rep.info("indices", uc.indices)
    rep.info("prime", uc.prime)
    rep.info("alpha", uc.alpha)
    rep.info("beta", uc.beta)
    rep.info("epsilon", uc.epsilon)
    rep.info("conditions", f"a={uc.cond_a} b={uc.cond_b} c={uc.cond_c}")
    if uc.cond_a_vacuous:
        rep.warnings.append("condition a holds vacuously: both index sets empty")
    rep.claim(
        "index-bound",
        uc.holds,
        {"lhs": uc.lhs, "rhs": uc.rhs},
        uc.applicable,
        "no applicable condition; bound reported, not asserted",
    )
    if uc.squarefree is not None:
        rep.check(
            "squarefree-multiplicity",
            uc.squarefree.holds,
            {
                "multiplicity": uc.squarefree.multiplicity,
                "bound": uc.squarefree.product_bound,
                "weak-bound": uc.squarefree.weak_bound,
            },
        )
    rep.claim(
        "equal-index-pair",
        uc.equal_pair.holds,
        {"prime": uc.equal_pair.prime, "pair": uc.equal_pair.pair},
        uc.equal_pair.applicable,
    )
    rep.claim(
        "top-multiplicity-floor",
        uc.floor_ok,
        {"top-multiplicity": uc.top_multiplicity, "floor": uc.multiplicity_floor},
        uc.multiplicity_applicable,
    )
    rep.claim(
        "max-multiplicity-floor",
        uc.max_mult_ok,
        {"max-multiplicity": uc.max_multiplicity, "min-prime": uc.min_prime},
        uc.multiplicity_applicable,
    )


def _cmd_max_index(args, rep: Report) -> None:
    cover = _coset_system(args.cover)
    mi = probe_max_index_multiplicity(cover)
    rep.inputs.update(group=cover.parent.name, entries=len(cover))
    rep.info("n-max", mi.n_max)
    rep.info("multiplicity", mi.multiplicity)
    rep.info("least-prime", mi.least_prime)
    rep.info("all-subnormal", mi.all_subnormal)
    rep.claim(
        "multiplicity-at-least-least-prime",
        mi.holds,
        None,
        mi.all_subnormal,
        "not every subgroup is subnormal; probe reported, not asserted",
    )


def _cmd_hs_search(args, rep: Report) -> None:
    if args.max_order < 1:
        raise InputError(f"--max-order must be at least 1, got {args.max_order}")
    if args.group is not None:
        groups = [parse_group_file(args.group)]
        scope = groups[0].name
    else:
        groups = [g for g in load_catalog() if g.order <= args.max_order]
        scope = f"catalog order <= {args.max_order}"
    rep.inputs["scope"] = scope
    budget = _budget(args, DEFAULT_NODE_BUDGET)
    for G in groups:
        try:
            result = search_distinct_index_partition(G, node_budget=budget)
        except BudgetError as e:
            rep.truncated = True
            rep.warnings.append(f"{G.name}: {e}")
            continue
        witness = {
            "nodes": result.nodes_explored,
            "index-multisets": len(result.index_multisets_tried),
        }
        if result.found is not None:
            witness["counterexample"] = [
                f"{rep_}:{sub.index}" for rep_, sub in result.found.entries
            ]
        rep.check(f"no-counterexample[{G.name}]", result.found is None, witness)


def _cmd_enumerate_covers(args, rep: Report) -> None:
    G = parse_group_file(args.group)
    rep.inputs.update(group=G.name, m=args.m, k=args.k)
    stream = enumerate_uniform_covers(G, args.k, args.m, _budget(args, DEFAULT_NODE_BUDGET))
    shapes: Counter = Counter()
    total = 0
    for cover in stream:
        shapes[cover.indices()] += 1
        total += 1
    rep.info("covers", total)
    rep.info("nodes", stream.nodes)
    for shape in sorted(shapes):
        rep.info("shape " + "x".join(str(n) for n in shape), shapes[shape])
    if stream.truncated:
        rep.truncated = True
        rep.warnings.append("node budget exhausted before the search space")


_COMMON = {
    "--seed": dict(type=int, default=None, help="echoed in the report"),
    "--format": dict(choices=("text", "structured"), default="text", help="output format"),
}
_BUDGET = {
    "--budget": dict(type=int, default=None,
                     help="lower the period/node budget (never raises the compiled cap)"),
}
_COVER = {"cover": dict(help="cover file path or inline a/n text")}
_GROUP = {"group": dict(help="group file path, catalog name, or record text")}
_GROUP_COVER = {"cover": dict(help="coset-cover file path or inline text")}


def _commands() -> dict:
    """Every command, declared once: name -> (handler, help, own arguments).
    Made per call, so a handler patched after import is the one run."""
    return {
        "verify-cover": (_cmd_verify_cover, "classify a residue system", _COVER | _BUDGET),
        "density": (_cmd_density, "exact density of the union over one period", _COVER | _BUDGET),
        "mu": (_cmd_mu, "count the divisor closure of the moduli", _COVER),
        "density-check": (_cmd_density_check, "scan density against inclusion-exclusion",
                          _COVER | _BUDGET),
        "rogers": (_cmd_rogers, "shifted union covers at least the zeroed union", _COVER | _BUDGET),
        "level-gap": (_cmd_level_gap, "index bound for uniform covers at one prime level",
                      _COVER | _BUDGET | {
            "--prime": dict(type=int, default=None, help="designated prime (default largest)"),
            "--alpha": dict(type=int, default=None, help="level (default: every level)"),
        }),
        "simpson": (_cmd_simpson, "largest period prime bound for exact covers", _COVER | _BUDGET),
        "bounds": (_cmd_bounds, "threshold quantities at one multiplicity bound", {
            "--M": dict(type=int, required=True),
        }),
        "qbound": (_cmd_qbound, "prime-size implication at (q, M)", {
            "--q": dict(type=int, required=True),
            "--M": dict(type=int, required=True),
        }),
        "group-info": (_cmd_group_info, "order, lattice and series facts for one group", _GROUP),
        "group-suite": (_cmd_group_suite, "all structural identities on one group", _GROUP),
        "union-bound": (_cmd_union_bound, "count of H-cosets met by a union of cosets", _GROUP_COVER),
        "aligned-union": (_cmd_aligned_union, "index-gcd bound for H-aligned unions", _GROUP_COVER),
        "uniform-cover": (_cmd_uniform_cover, "exact index bound for a uniform cover", _GROUP_COVER),
        "max-index": (_cmd_max_index, "multiplicity of the largest index", _GROUP_COVER),
        "hs-search": (_cmd_hs_search, "hunt for a distinct-index partition", _BUDGET | {
            "group": dict(nargs="?", default=None, help="single group (default: catalog sweep)"),
            "--max-order": dict(type=int, default=12, help="catalog sweep order cap"),
        }),
        "enumerate-covers": (_cmd_enumerate_covers, "enumerate nontrivial uniform covers",
                             _GROUP | _BUDGET | {
            "--m": dict(type=int, default=1, help="exact multiplicity of every element"),
            "--k": dict(type=int, default=4, help="maximum number of cosets"),
        }),
    }


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The top parser, with only the subparser argv[0] names, if any, else all."""
    commands = _commands()
    parser = argparse.ArgumentParser(
        prog="coverlab",
        description="Exact checks for covering systems of Z and coset covers of finite groups.",
    )
    parser.add_argument("--version", action="version", version=f"coverlab {__version__}")
    sub = parser.add_subparsers(dest="command")
    for name in [argv[0]] if argv and argv[0] in commands else commands:
        handler, help_text, arguments = commands[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in (_COMMON | arguments).items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    args, extra = parser.parse_known_args(argv)
    if extra:
        # refused by the full parser, whose usage lists every command
        args = _build_parser().parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    report = Report(args.command, args.seed)
    try:
        args.handler(args, report)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        traceback.print_exc()
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    try:
        print(render_text(report) if args.format == "text" else render_json(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit
        # cannot raise again (as the Python signal docs show)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    if report.truncated:
        return 2
    return 0 if report.passed else 1

if __name__ == "__main__":
    sys.exit(main())
