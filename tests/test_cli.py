"""Tests for file formats, report rendering and command exit codes."""

import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import coverlab.group as group_module
from coverlab import cli, gcover, zcover
from coverlab.arith import factorize
from coverlab.bounds import bound_report
from coverlab.cli import (
    main,
    parse_cover_file,
    parse_group_cover_file,
    parse_group_file,
)
from coverlab.errors import InputError
from coverlab.gcover import CosetSystem, enumerate_uniform_covers, weight_profile
from coverlab.group import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    catalog_group,
    center_mask,
    cyclic_group,
    cycles_str,
    group_from_generators,
    left_coset_mask,
    load_catalog,
    parse_cycles,
    quotient_group,
    subgroup_closure,
    trivial_subgroup,
)
from coverlab.zcover import ResidueSystem, check_simpson

SRC = Path(__file__).resolve().parents[1] / "src"


# ------------------------------------------------------------ serializers
# the inverses of the file readers, used only to write test inputs


def serialize_cover(system: ResidueSystem) -> str:
    return "\n".join(f"{a}/{n}" for a, n in system) + "\n"


def serialize_group(G: FiniteGroup) -> str:
    """A record that reconstructs G with the same element numbering.

    Every non-identity element is listed as a generator; breadth-first
    numbering from the identity then reproduces ids in listed order.
    """
    if G.perms is None:
        raise InputError("group has no permutation realization")
    lines = [f"group {G.name}", f"degree {len(G.perms[0])}"]
    lines += [f"gen {cycles_str(G.perms[x])}" for x in range(1, G.order)]
    return "\n".join(lines + [f"order {G.order}", "end"]) + "\n"


def serialize_group_cover(cover: CosetSystem, H: Subgroup | None = None) -> str:
    out = [serialize_group(cover.parent).rstrip("\n")]
    if H is not None:
        out.append("H : " + " ".join(str(x) for x in H.members()))
    for rep, sub in cover.entries:
        out.append(f"{rep} : " + " ".join(str(x) for x in sub.members()))
    return "\n".join(out) + "\n"


# ------------------------------------------------------------ cover files


def test_cover_parse_inline():
    s = parse_cover_file("0/2 1/4 3/4")
    assert s == ((0, 2), (1, 4), (3, 4)) and str(s) == "0/2 1/4 3/4"


def test_cover_parse_comments_and_lines():
    text = "# an exact cover\n0/2\n1/4  3/4   # two quarters\n"
    assert parse_cover_file(text) == ((0, 2), (1, 4), (3, 4))


def test_cover_parse_from_file(tmp_path):
    p = tmp_path / "cover.txt"
    p.write_text("0/2 1/2\n")
    assert parse_cover_file(str(p)) == ((0, 2), (1, 2))


def test_cover_round_trip_random():
    rng = random.Random(5)
    for _ in range(50):
        pairs = []
        for _ in range(rng.randint(1, 8)):
            n = rng.randint(1, 60)
            pairs.append((rng.randrange(n), n))
        system = ResidueSystem(pairs)
        parsed = parse_cover_file(serialize_cover(system))
        assert parsed == system and hash(parsed) == hash(system)


def test_cover_parse_errors():
    with pytest.raises(InputError, match="out of range"):
        parse_cover_file("5/4")
    with pytest.raises(InputError, match="line 2"):
        parse_cover_file("0/2\n1/4 junk\n")
    with pytest.raises(InputError):
        parse_cover_file("")


# ------------------------------------------------------------ group files


def test_group_parse_catalog_name():
    G = parse_group_file("S3")
    assert G.order == 6 and G.name == "S3"
    assert parse_group_file("group D4").order == 8


def test_group_parse_inline_record():
    G = parse_group_file("group K\ndegree 4\ngen (1 2)\ngen (3 4)\norder 4\nend\n")
    assert G.order == 4 and G.is_abelian()


def test_group_round_trip_tables():
    for G in load_catalog():
        assert parse_group_file(serialize_group(G)).table == G.table, G.name
    # a quotient is a table with no permutations to write
    D4 = catalog_group("D4")
    with pytest.raises(InputError, match="^group has no permutation realization$"):
        serialize_group(quotient_group(Subgroup(D4, center_mask(D4))))


def test_group_parse_errors():
    with pytest.raises(InputError, match="catalog"):
        parse_group_file("NoSuchGroup")
    with pytest.raises(InputError):
        parse_group_file("group X\ndegree 3\ngen (1 2 3)\norder 3\n")  # no end


def test_group_record_errors_keep_file_line_numbers():
    # a comment line inside the record must not shift the reported line
    record = "group V\ndegree 4\n# a comment\ngen (1 2)\ncolour red\norder 4\nend\n"
    message = r"^line 5: unknown key 'colour'$"
    with pytest.raises(InputError, match=message):
        parse_group_file(record)
    with pytest.raises(InputError, match=message):
        parse_group_cover_file(record + "0 : 1\n2 : 1\n")


BAD_RECORDS = [
    ("group X\ndegree x\norder 1\nend\n", "line 2: degree must be a positive integer, got 'x'"),
    ("group X\ndegree -3\norder 1\nend\n", "line 2: degree must be a positive integer, got '-3'"),
    ("group X\ndegree 3\n\norder 0\nend\n", "line 4: order must be a positive integer, got '0'"),
    ("# C3\ngroup X\ngen (1 2 3)\norder 3\nend\n", "line 2: record 'X' is missing degree or order"),
    ("\ngroup X\ndegree 3\norder 3\n", "line 2: record 'X' not closed with end"),
] + [
    # a refused generator is named by its own line, here the second one's
    (f"group X\ndegree 3\ngen (1 2)\ngen {gen}\norder 6\nend\n", f"line 4: {message}")
    for gen, message in [
        ("(1 a)", "invalid literal for int() with base 10: 'a'"),
        ("(1 2) x", "unparsed cycle text '(1 2) x'"),
        ("(1 2 1)", "repeated point in cycle (1 2 1)"),
        ("(1 4)", "point out of range 1..3 in (1 4)"),
    ]
]


@pytest.mark.parametrize(
    "text, message",
    BAD_RECORDS,
    ids=[
        "degree-not-a-number", "degree-negative", "order-zero", "no-degree", "no-end",
        "gen-bad-integer", "gen-unparsed-text", "gen-repeated-point", "gen-point-out-of-range",
    ],
)
def test_group_record_field_errors_name_their_line(text, message, capsys):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        parse_group_file(text)
    assert main(["group-info", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# ------------------------------------------------------ group-cover files


def s3_cover_text():
    return "group S3\nH : \n0 : (1 2 3)\n1 : (1 2 3)\n"


def test_group_cover_parse_catalog():
    G, H, entries = parse_group_cover_file(s3_cover_text())
    assert G.name == "S3" and H.size == 1
    assert len(entries) == 2
    assert all(sub.size == 3 for _, sub in entries)


def test_group_cover_parse_h_line():
    text = "group C12\nH : 6\n0 : 2\n3 : 2\n"
    G, H, entries = parse_group_cover_file(text)
    assert H.size == G.order // subgroup_closure(G, [6]).index
    assert H.mask == subgroup_closure(G, [6]).mask
    assert [rep for rep, _ in entries] == [0, 3]


def test_group_cover_inline_record():
    text = (
        "group V\ndegree 4\ngen (1 2)\ngen (3 4)\norder 4\nend\n"
        "0 : 1\n2 : 1\n"
    )
    G, H, entries = parse_group_cover_file(text)
    assert G.order == 4 and H.size == 1
    assert [sub.size for _, sub in entries] == [2, 2]


def test_group_cover_round_trip():
    # random covers of six groups, each with and without an H line
    rng = random.Random(23)
    for name in ("S3", "D4", "Q8", "A4", "D6", "SD16"):
        G = catalog_group(name)
        subs = all_subgroups(G)
        covers = list(enumerate_uniform_covers(G, 4, 1))
        for cover in rng.sample(covers, 4):
            # any member of a coset stands for it
            entries = [
                (rng.choice([x for x in range(G.order) if mask >> x & 1]), sub)
                for (_, sub), mask in zip(cover.entries, cover.masks)
            ]
            for H in (None, rng.choice(subs)):
                text = serialize_group_cover(CosetSystem(G, entries), H)
                G2, H2, got = parse_group_cover_file(text)
                assert G2.table == G.table
                assert H2.mask == (1 if H is None else H.mask)
                assert [(r, sub.mask) for r, sub in got] == [(r, sub.mask) for r, sub in entries]
                assert weight_profile(CosetSystem(G2, got)).uniform_m == 1


def test_group_cover_parse_errors():
    with pytest.raises(InputError, match="group line"):
        parse_group_cover_file("0 : 1\n")
    with pytest.raises(InputError, match="duplicate H"):
        parse_group_cover_file("group C4\nH : 2\nH : 2\n0 : 2\n")
    with pytest.raises(InputError, match="precede"):
        parse_group_cover_file("group C4\n0 : 2\nH : 2\n")
    with pytest.raises(InputError, match="no cover entries"):
        parse_group_cover_file("group C4\n")
    with pytest.raises(InputError, match="element id"):
        parse_group_cover_file("group C4\n9 : 2\n")


# -------------------------------------------------------------- exit codes


def test_exit_exact_cover(capsys):
    assert main(["verify-cover", "0/2 1/4 3/4"]) == 0
    out = capsys.readouterr().out
    assert "status: pass" in out
    assert "* is-cover = true" in out


def test_exit_non_cover(capsys):
    assert main(["verify-cover", "1/3"]) == 1
    assert "status: FAIL" in capsys.readouterr().out


def test_exit_parse_error(capsys):
    assert main(["verify-cover", "9/4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_budget(capsys):
    assert main(["verify-cover", "0/2 1/999983", "--budget", "100"]) == 2
    assert "budget exceeded" in capsys.readouterr().err


def test_budget_flag_never_raises_the_cap(capsys):
    assert main(["density", "--budget", "20000000", "0/2 1/9999991"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "budget exceeded: period 19999982 exceeds budget 10000000\n"


@pytest.mark.parametrize(
    "cover, period",
    [("0/9999991 1/9999973", 99999640000243), ("0/1000000007 1/1000000009", 1000000016000000063)],
)
def test_level_gap_refuses_an_over_budget_period_before_factoring(cover, period, monkeypatch, capsys):
    # the default prime is the period's largest: the period must be within
    # the budget before it is factored, as verify-cover refuses it
    def no_factoring(n):
        raise AssertionError(f"factorize({n}) ran before the budget refusal")

    monkeypatch.setattr(zcover, "factorize", no_factoring)
    assert main(["level-gap", cover]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"budget exceeded: period {period} exceeds budget 10000000\n"


@pytest.mark.parametrize("budget", [None, "5"])
def test_level_gap_refuses_an_over_budget_period_before_testing_the_prime(budget, capsys):
    # a designated prime past the sieve's square that divides the period:
    # the period is over budget, and that is refused before is_prime sieves
    p = 100000000000000003
    argv = ["level-gap", f"0/{p}", "--prime", str(p)] + (["--budget", budget] if budget else [])
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"budget exceeded: period {p} exceeds budget {budget or 10000000}\n"


@pytest.mark.parametrize("argv", [["bounds"], ["qbound", "--q", "5"]], ids=["bounds", "qbound"])
def test_m_past_the_float_range_is_refused_by_capacity(argv, capsys):
    # c(M) >= 2M, so any M above half the sieve capacity is refused before
    # it is turned into a float, which 10**400 cannot become
    M = str(10**400)
    assert main([*argv, "--M", M]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"budget exceeded: c(M) >= 2M lies above the sieve capacity 10000000 for M = {M}\n"
    )


def test_exit_no_command(capsys):
    assert main([]) == 2
    assert capsys.readouterr().out == cli._build_parser().format_help()


def test_exit_unknown_command(capsys):
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2
    usage = capsys.readouterr().err.split("\ncoverlab: error:")[0]
    assert usage.startswith("usage: coverlab ")
    assert "enumerate-covers" in usage


# every command, in the order `coverlab -h` lists them
COMMANDS = (
    "verify-cover", "density", "mu", "density-check", "rogers", "level-gap",
    "simpson", "bounds", "qbound", "group-info", "group-suite", "union-bound",
    "aligned-union", "uniform-cover", "max-index", "hs-search", "enumerate-covers",
)
# arguments each command parses, where one positional "x" does not do
PARSES = {"bounds": ["--M", "2"], "qbound": ["--q", "8", "--M", "2"]}
# each command's own int option, where it has one
INT_OPTION = {"level-gap": "--prime", "bounds": "--M", "qbound": "--M", "enumerate-covers": "--k"}


def _usage_argv():
    cases = [["-h"], ["--version"], ["nope"], ["--seed", "1"], ["simpson", "0/2", "1/2"]]
    for name in COMMANDS:
        ok = [name] + PARSES.get(name, ["x"])
        cases += [[name, "-h"], [name, "--bogus"], [name, "--seed", "x"]]
        cases += [ok + ["--format", "xml"], ok + ["extra"], ok + ["--vers"]]
        if name != "hs-search":  # its group is optional: bare, it sweeps the catalog
            cases.append([name])
        if name in INT_OPTION:
            cases.append([name, INT_OPTION[name], "x"])
    return cases


def _exit_outcome(call):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            call()
            code = None
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _usage_argv(), ids=" ".join)
def test_usage_matches_the_full_parser(argv, monkeypatch):
    # main's help pages and usage errors must be the full parser's,
    # compared in this interpreter because help headings differ between
    # Python versions
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        expected = _exit_outcome(lambda: cli._build_parser().parse_args(argv))
        assert expected[0] is not None  # every case exits in the parser
        assert _exit_outcome(lambda: main(argv)) == expected


def _count_parsers(monkeypatch) -> list:
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_a_command_builds_only_its_own_parser(capsys, monkeypatch):
    built = _count_parsers(monkeypatch)
    assert main(["mu", "0/2 1/4 3/4"]) == 0
    assert built == []  # a well-formed command line is read from _commands
    # an abbreviated flag goes to argparse: the top parser and all 17
    # command parsers
    assert main(["mu", "--form", "structured", "0/2 1/4 3/4"]) == 0
    assert len(built) == 1 + len(COMMANDS) == 18


def test_help_builds_every_command_parser(capsys, monkeypatch):
    built = _count_parsers(monkeypatch)
    with pytest.raises(SystemExit) as e:
        main(["-h"])
    assert e.value.code == 0
    assert [prog for prog in built if prog and prog.startswith("coverlab ")] == [
        f"coverlab {name}" for name in COMMANDS
    ]
    out = capsys.readouterr().out
    assert all(name in out for name in COMMANDS)


# every declared flag, and values that argparse reads in ways a plain
# reader could get wrong: int() strips spaces and reads any Unicode digit,
# and a '-'-leading value is an option or a negative number by its shape
_FLAGS = sorted({f for _, _, arguments in cli._commands().values()
                 for f in cli._COMMON | arguments if f.startswith("-")})
_VALUES = [
    "0/2 1/4 3/4", "S3", "C6", "x", "3", "12", " 7", "\u0665", "1_0", "+2", "", "text",
    "structured", "xml", "-1/2 0/2", "-5", "-1_0", "-", "--", "--seed=3", "--form", "-h",
    "--help", "--version", "mu", "hs-search",
]


@st.composite
def _command_lines(draw):
    """A command name, then some of its own flags with values (one of them
    repeated at times) and most often as many positionals as it declares,
    in any order, with one other token at times."""
    name = draw(st.sampled_from(COMMANDS))
    declared = cli._COMMON | cli._commands()[name][2]
    flags = draw(st.lists(st.sampled_from([f for f in declared if f[0] == "-"]), unique=True))
    if flags and draw(st.integers(0, 3)) == 0:
        flags.append(draw(st.sampled_from(flags)))
    chunks = []
    for flag in flags:
        usual = list(declared[flag].get("choices", ["3", "12", " 7", "\u0665"]))
        chunks.append([flag, draw(st.sampled_from(usual) | st.sampled_from(usual + _VALUES))])
    wanted = sum(1 for f in declared if f[0] != "-")
    for _ in range(draw(st.sampled_from([wanted] * 3 + [abs(wanted - 1), wanted + 1]))):
        chunks.append([draw(st.sampled_from(["0/2 1/4 3/4", "S3", ""]))])
    argv = [name] + [tok for chunk in draw(st.permutations(chunks)) for tok in chunk]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_VALUES + _FLAGS)))
    return argv


@example(["hs-search", "--max-order", "8", "C6"])
@example(["level-gap", "--prime", " 7", "0/2", "--alpha", "\u0665"])
@settings(max_examples=500, deadline=None)
@given(_command_lines())
def test_read_args_agrees_with_argparse(argv):
    # whatever the table reader accepts, argparse accepts and reads the same
    args = cli._read_args(argv)
    if args is not None:
        assert vars(args) == vars(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv, read",
    [
        (["hs-search", "--max-order", "8", "C6"], True),
        (["hs-search"], True),
        (["level-gap", "--prime", " 7", "0/2", "--alpha", "\u0665"], True),
        (["mu", "--seed", "3", "--seed", "4", "0/2"], False),  # repeated flag
        (["mu", "--seed=3", "0/2"], False),
        (["mu", "--form", "text", "0/2"], False),  # abbreviation
        (["mu", "0/2", "--seed", "-3"], False),
        (["mu", "--seed", "-1_0", "0/2"], False),  # an option to argparse, not -10
        (["mu", "--", "0/2"], False),
        (["mu", "0/2", "-h"], False),
        (["bounds", "--M", ""], False),  # int('') fails
        (["bounds"], False),  # --M is required
        (["mu"], False),  # so is the cover
        (["mu", "0/2", "0/3"], False),
        (["mu", "0/2", "--budget", "3"], False),  # undeclared on mu
        (["mu", "0/2", "--format", "xml"], False),
        ([], False),
        (["--version"], False),
    ],
)
def test_read_args_leaves_all_but_well_formed_lines_to_argparse(argv, read):
    assert (cli._read_args(argv) is not None) == read


A4_IN_A5 = ["(1 2 3)", "(1 2)(3 4)"]
D5_IN_A5 = ["(1 2 3 4 5)", "(2 5)(3 4)"]


def a5_cosets_text(*subgroups):
    """Every left coset of each subgroup (given by generators) of A5, as an
    inline record."""
    gens = ["(1 2 3 4 5)", "(1 2 3)"]
    G = group_from_generators(5, gens, name="A5")
    lines = ["group A5", "degree 5"] + [f"gen {g}" for g in gens] + ["order 60", "end"]
    for sub in subgroups:
        H = subgroup_closure(G, [G.perms.index(parse_cycles(5, c)) for c in sub])
        seen = 0
        for x in range(G.order):
            if not seen >> x & 1:
                seen |= left_coset_mask(x, H)
                lines.append(f"{cycles_str(G.perms[x]) if x else 'e'} : {' '.join(sub)}")
    return "\n".join(lines) + "\n"


# the cosets of A4 (index 5) and of D5 (index 6): a uniform 2-cover under no
# hypothesis of the index bound
A5_TWO_COVER = a5_cosets_text(A4_IN_A5, D5_IN_A5)
# the five cosets of A4 alone: condition a holds only vacuously
A5_A4_COSETS = a5_cosets_text(A4_IN_A5)


EXIT_ZERO_ARGV = [
    ["density", "0/2 1/3"],
    ["mu", "0/2 1/4 3/4"],
    ["density-check", "0/2 1/4 3/4"],
    ["rogers", "0/2 1/4 3/4"],
    ["level-gap", "0/2 1/4 3/4", "--prime", "2"],
    ["level-gap", "0/2 1/4 3/4", "--prime", "2", "--alpha", "2"],
    ["simpson", "0/2 1/4 3/4"],
    ["bounds", "--M", "2"],
    ["qbound", "--q", "8", "--M", "2"],
    ["group-info", "S3"],
    ["group-suite", "D6"],
    ["hs-search", "C6"],
    ["hs-search", "--max-order", "8"],
    ["enumerate-covers", "S3", "--k", "4"],
    ["max-index", "group C4\n0 : 2\n1 : \n3 : \n"],
    ["uniform-cover", "group C4\n0 : 2\n1 : \n3 : \n"],
    ["union-bound", "group C12\n0 : 2\n1 : 3\n"],
    ["aligned-union", "group C12\nH : 6\n0 : 3\n1 : 3\n5 : 3\n"],
    # report branches no other input reaches: the squarefree multiplicity
    # line, case d with both branches, and condition a held vacuously
    ["uniform-cover", "group S3\n0 : 2 5\n1 : 2 5\n"],
    ["aligned-union", "group S3\n0 : 1\n2 : 1\n3 : 1\n"],
    ["uniform-cover", A5_A4_COSETS],
]


@pytest.mark.parametrize("argv", EXIT_ZERO_ARGV)
def test_exit_zero_commands(argv, capsys):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    # a handler registered under the wrong name would print another name
    assert lines[1] == f"command: {argv[0]}"
    assert lines[-1] == "status: pass"


def test_exit_truncated_enumeration(capsys):
    assert main(["enumerate-covers", "D4", "--k", "6", "--m", "2", "--budget", "50"]) == 2
    out = capsys.readouterr().out
    assert "truncated: true" in out


def test_truncated_enumeration_report(capsys):
    # the cut falls among the 248 covers holding the whole group (least
    # position 0): the 5 found by then are reported, which are the full
    # run's covers 0, 1, 2, 4 and 5, not a prefix of it
    main(["enumerate-covers", "D4", "--k", "6", "--m", "2", "--budget", "50"])
    out = capsys.readouterr().out
    verdicts = out.split("verdicts:\n")[1].split("warnings:")[0]
    assert verdicts.splitlines() == [
        "  covers = 5",
        "  nodes = 51",
        "  shape 1x2x2 = 1",
        "  shape 1x2x4x4 = 2",
        "  shape 1x2x4x8x8 = 2",
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["0/1"], "trivial period, no primes to designate"),
        (["0/2 1/4 3/4", "--prime", "3"], "3 does not divide the period 4"),
        (["0/2 1/4 3/4", "--prime", "3", "--alpha", "1"], "3 does not divide the period 4"),
        (["0/2 1/4"], "system is not a uniform cover"),
        (["0/2 1/4", "--alpha", "2"], "system is not a uniform cover"),
        (["0/2 1/4 3/4", "--alpha", "3"], "alpha must be a positive member of (1, 2), got 3"),
        (["0/2 1/4 3/4", "--alpha", "0"], "alpha must be a positive member of (1, 2), got 0"),
        (["0/2 1/4 3/4", "--prime", "4"], "4 is not prime"),
        (["0/2 1/4 3/4", "--prime", "1"], "1 is not prime"),
        (["0/2 1/4 3/4", "--prime", "-2"], "-2 is not prime"),
        (["0/2 1/4 3/4", "--prime", "0"], "0 is not prime"),
        # divisibility before primality: a prime past the sieve's square
        # is refused for what it is, not by the sieve's capacity
        (["0/2 1/2", "--prime", "100000000000000003"],
         "100000000000000003 does not divide the period 2"),
    ],
)
def test_level_gap_refusals(argv, message, capsys):
    # one fault per input; each is refused with exit 2 and nothing on stdout
    assert main(["level-gap", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _cycle(lo: int, hi: int) -> str:
    return "(" + " ".join(str(i) for i in range(lo, hi + 1)) + ")"


# order 2000 as declared; order 3000 = lcm(8, 3, 125) against a declared 6
C2000 = f"group C2000\ndegree 2000\ngen {_cycle(1, 2000)}\norder 2000\nend\n"
MISSTATED = (
    f"group M\ndegree 136\ngen {_cycle(1, 8)}{_cycle(9, 11)}{_cycle(12, 136)}\n"
    "order 6\nend\n"
)
C2000_REFUSAL = "group C2000: record says order 2000, above the order cap 200"
HUGE_DEGREE = "group X\ndegree 100000000\ngen (1 2)\norder 2\nend\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["group-info", C2000], C2000_REFUSAL),
        (["group-info", MISSTATED], "group M: closure passed 200 elements, above the order cap 200"),
        (["uniform-cover", C2000 + "0 : 1\n"], C2000_REFUSAL),
    ],
    ids=["declared-order", "misstated-order", "cover-header"],
)
def test_group_over_order_cap_refused_before_its_table(argv, message, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"budget exceeded: {message}\n"


def test_degree_over_cap_refused_before_any_permutation(capsys, monkeypatch):
    def no_cycles(*args):
        raise AssertionError("parse_cycles called")

    monkeypatch.setattr(group_module, "parse_cycles", no_cycles)
    start = time.perf_counter()
    assert main(["group-info", HUGE_DEGREE]) == 2
    assert time.perf_counter() - start < 0.1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget exceeded: group X: degree 100000000 is above the degree cap 10000\n"
    )


def test_density_check_takes_more_than_twenty_moduli(capsys):
    # 24 zeroed moduli dividing 720720: the grouped inclusion-exclusion
    # costs k * tau(L), so no cap on k remains
    divisors = [d for d in range(2, 720721) if 720720 % d == 0]
    moduli = random.Random(24).sample(divisors, 24)
    assert main(["density-check", " ".join(f"0/{n}" for n in moduli)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "* identity = true" in lines and lines[-1] == "status: pass"


# "flag" names the one source of a budget in the test ids
@pytest.mark.parametrize("source", ["flag"])
@pytest.mark.parametrize("value", ["-5", "0"])
@pytest.mark.parametrize(
    "argv",
    [["verify-cover", "0/2 1/4 3/4"], ["enumerate-covers", "S3"], ["hs-search", "C6"]]
    # the other commands that have a budget
    + [["density", "0/2"], ["density-check", "0/2"], ["rogers", "0/2"],
       ["level-gap", "0/2 1/4 3/4"], ["simpson", "0/2 1/4 3/4"]],
)
def test_non_positive_budget_is_a_usage_error(argv, value, source, capsys):
    assert main([*argv, "--budget", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --budget must be at least 1, got {value}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["mu", "0/2 1/4 3/4"],
        ["bounds", "--M", "2"],
        ["qbound", "--q", "8", "--M", "2"],
        ["group-info", "S3"],
        ["group-suite", "S3"],
        ["union-bound", "group C12\n0 : 2\n1 : 3\n"],
        ["aligned-union", "group C12\nH : 6\n0 : 3\n1 : 3\n5 : 3\n"],
        ["uniform-cover", "group C4\n0 : 2\n1 : \n3 : \n"],
        ["max-index", "group C4\n0 : 2\n1 : \n3 : \n"],
    ],
    ids=lambda argv: argv[0],
)
def test_budget_is_refused_where_no_budget_exists(argv, capsys):
    # a command with no scan or search budget does not take --budget
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--budget", "3"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --budget 3" in captured.err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_order_below_one_is_a_usage_error(value, capsys):
    assert main(["hs-search", "--max-order", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --max-order must be at least 1, got {value}\n"


def _run_cli(code: str, **kwargs) -> subprocess.CompletedProcess:
    """Run python -c code in a fresh interpreter that imports this checkout."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], env=env, **kwargs)


def test_closed_stdout_exits_quietly():
    # the reader is gone before the report is written: no traceback, 141
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli(
            "import sys; from coverlab.cli import main; sys.exit(main(['max-index', "
            "'group C4\\n0 : 2\\n1 : \\n3 : \\n']))",
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141


def test_import_builds_no_parser():
    # parser construction belongs to main, not to the import every run pays
    proc = _run_cli(
        "import argparse; built = []; init = argparse.ArgumentParser.__init__; "
        "argparse.ArgumentParser.__init__ = "
        "lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]; "
        "import coverlab.cli; assert built == [], len(built)",
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_commands_leave_numpy_unimported():
    proc = _run_cli(
        "import sys; from coverlab.cli import main; "
        "codes = [main(['group-info', 'S3']), main(['verify-cover', '0/2 1/4 3/4'])]; "
        "assert codes == [0, 0], codes; "
        "assert 'numpy' not in sys.modules",
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_well_formed_commands_load_no_argument_parser():
    # argparse's first parser imports gettext's locale and compiles regexes,
    # more time than a small check takes; an internal fault still imports
    # traceback to print one (test_internal_fault_exits_3)
    proc = _run_cli(
        "import sys; from coverlab.cli import main; "
        "codes = [main(['group-info', 'S3']), main(['verify-cover', '0/2 1/4 3/4'])]; "
        "assert codes == [0, 0], codes; "
        "loaded = {'argparse', 'gettext', 'locale', 'traceback'} & set(sys.modules); "
        "assert not loaded, loaded",
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # decorating classes with dataclasses, and the inspect import it pulls
    # in, was a third of a cold start; records are NamedTuples and plain
    # classes, so a command loads neither
    proc = _run_cli(
        "import sys, coverlab.cli; unwanted = {'dataclasses', 'inspect'}; "
        "assert not unwanted & set(sys.modules), unwanted & set(sys.modules); "
        "assert coverlab.cli.main(['verify-cover', '0/2 1/2']) == 0; "
        "assert not unwanted & set(sys.modules), unwanted & set(sys.modules)",
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_catalog_read_leaves_importlib_resources_unloaded():
    # the catalog file is opened by its path next to group.py; -S keeps
    # site's own imports out of sys.modules
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "from coverlab.group import catalog_group; "
        "assert catalog_group('Q8').order == 8; "
        "assert 'importlib.resources' not in sys.modules"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_uniform_m_above_k_allocates_nothing():
    # every element lies in exactly m cosets, so a uniform m-cover has at
    # least m of them: with m above k there is none, and the answer comes
    # before anything is sized by m; the child caps its own address space
    argv = ["coverlab", "enumerate-covers", "C6", "--k", "3", "--m", "1000000000"]
    code = (
        "import resource, runpy, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        f"sys.argv = {argv!r}; "
        "runpy.run_module('coverlab.cli', run_name='__main__', alter_sys=True)"
    )
    start = time.perf_counter()
    proc = _run_cli(code, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert "  covers = 0" in proc.stdout.splitlines()
    assert elapsed < 1.0


def test_a_layer_loads_only_what_it_imports():
    def loaded(module):
        proc = _run_cli(
            f"import sys, {module}; "
            "print(*sorted(m for m in sys.modules if m.startswith('coverlab')))",
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    assert loaded("coverlab.arith") == ["coverlab", "coverlab.arith", "coverlab.errors"]
    assert {"coverlab.bounds", "coverlab.gcover", "coverlab.group"}.isdisjoint(
        loaded("coverlab.zcover")
    )


def test_bounds_loads_no_mpmath():
    # alpha is floored in integers, near an integer of log2 too
    proc = _run_cli(
        "import sys; from coverlab.bounds import alpha_floor; "
        "from coverlab.cli import main; "
        "assert alpha_floor(342232533672277) == (48, True); "
        "assert main(['bounds', '--M', '100']) == 0; "
        "assert 'mpmath' not in sys.modules",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "alpha-escalated" in proc.stdout


def test_internal_fault_exits_3(capsys, monkeypatch):
    def fault(args, rep):
        raise RuntimeError("chain walk logic error")

    # the parser is built per call, so it registers the patched handler
    monkeypatch.setattr(cli, "_cmd_group_info", fault)
    assert main(["group-info", "S3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback")
    assert captured.err.endswith("\ninternal error: chain walk logic error\n")


def test_bare_value_error_is_an_internal_fault(capsys, monkeypatch):
    # only an InputError is a refused input; a ValueError from a broken
    # invariant or the standard library is a fault of the program
    def fault(args, rep):
        raise ValueError("mask count drifted")

    monkeypatch.setattr(cli, "_cmd_group_info", fault)
    assert main(["group-info", "S3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback")
    assert captured.err.endswith("\ninternal error: mask count drifted\n")


def test_input_error_is_a_refusal(capsys, monkeypatch):
    def refuse(args, rep):
        raise InputError("line 3: no such subgroup")

    monkeypatch.setattr(cli, "_cmd_group_info", refuse)
    assert main(["group-info", "S3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: no such subgroup\n"


@pytest.mark.parametrize(
    "refuse",
    [
        lambda: factorize(0),
        lambda: bound_report(1),
        lambda: ResidueSystem(()),
        lambda: check_simpson(ResidueSystem([(0, 2), (1, 3)])),
        lambda: cyclic_group(0),
        lambda: parse_cycles(3, "(1 a)"),
        lambda: enumerate_uniform_covers(catalog_group("S3"), 9, 1),
    ],
    ids=["arith", "bounds", "zcover-type", "zcover-check", "group", "group-parser", "gcover"],
)
def test_library_refusals_are_input_errors(refuse):
    with pytest.raises(InputError):
        refuse()


def test_foreign_subgroup_is_an_invariant_fault():
    # a subgroup of another group object is the program's own mix-up
    S3, other = catalog_group("S3"), group_from_generators(3, ["(1 2 3)", "(1 2)"])
    with pytest.raises(ValueError) as caught:
        CosetSystem(S3, ((0, trivial_subgroup(other)),))
    assert not isinstance(caught.value, InputError)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-cover", "1/" + "7" * 5000],
        ["uniform-cover", "group C4\n0 : " + "1" * 5000 + "\n"],
        ["group-info", "group X\ndegree " + "3" * 5000 + "\norder 1\nend\n"],
        ["group-info", "group X\ndegree 3\ngen (1 " + "2" * 5000 + ")\norder 2\nend\n"],
    ],
    ids=["cover-token", "element-id", "record-field", "cycle-point"],
)
def test_integer_beyond_int_digit_limit_is_refused(argv, capsys):
    # int() refuses more than sys.get_int_max_str_digits() digits (4300 by
    # default); the parsers turn that into a refusal, not an internal fault
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit < 5000:
        pytest.skip("this interpreter converts 5000-digit integers")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, scans",
    [
        (["verify-cover", "0/2 1/4 3/4"], 1),
        (["density", "0/2 1/4 3/4"], 1),
        (["simpson", "0/2 1/4 3/4"], 1),
        (["density-check", "0/2 1/4 3/4"], 1),
        (["rogers", "0/2 1/4 3/4"], 1),
        (["level-gap", "0/2 1/4 3/4", "--prime", "2"], 1),
        (["mu", "0/2 1/4 3/4"], 0),
    ],
)
def test_residue_commands_scan_each_system_once(argv, scans, capsys, monkeypatch):
    original = zcover.multiplicity_profile
    scanned = []

    def counted(system, *args, **kwargs):
        scanned.append(system)
        return original(system, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "coverlab" or name.startswith("coverlab."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(scanned) == scans
    assert len(set(scanned)) == scans
    if argv[0] == "level-gap":
        assert out.count("index-bound[alpha=") == 2


@pytest.mark.parametrize("command", ["uniform-cover", "max-index"])
def test_group_cover_check_refusal(command, capsys):
    assert main([command, "group C6\n0 : 2\n1 : 3\n"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: system is not a uniform cover\n"


@pytest.mark.parametrize("command", ["uniform-cover", "max-index"])
def test_h_line_refused_where_unused(command, capsys):
    # only union-bound and aligned-union read H; the others refuse the line
    assert main([command, "group C4\nH : 2\n0 : 2\n1 : \n3 : \n"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: this command takes no H line\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["union-bound", "group C4\nH : 2\n0 : 2\n1 : 2\n"],
        ["aligned-union", "group C4\nH : 2\n0 : 2\n1 : 2\n"],
        ["uniform-cover", "group C4\n0 : 2\n1 : 2\n"],
        ["max-index", "group C4\n0 : 2\n1 : 2\n"],
    ],
    ids=lambda argv: argv[0],
)
def test_coset_commands_share_one_reader(argv, capsys, monkeypatch):
    original = cli.parse_group_cover_file
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_group_cover_file", counted)
    assert main(argv) == 0
    assert [args[0] for args in calls] == [argv[1]]


def _count_realized(monkeypatch) -> list:
    """Names of the catalog records realized from a fresh catalog read."""
    realized = []
    realize = group_module.realize_record

    def counted(rec):
        realized.append(rec.name)
        return realize(rec)

    monkeypatch.setattr(group_module, "_catalog_cache", None)
    monkeypatch.setattr(group_module, "realize_record", counted)
    return realized


SD16_TRIVIAL_COVER = "group SD16\n" + "".join(f"{x} : \n" for x in range(16))


@pytest.mark.parametrize(
    "argv, name",
    [(["group-info", "Q8"], "Q8"), (["uniform-cover", SD16_TRIVIAL_COVER], "SD16")],
    ids=["group-info", "uniform-cover"],
)
def test_a_catalog_name_realizes_only_its_record(argv, name, capsys, monkeypatch):
    realized = _count_realized(monkeypatch)
    assert main(argv) == 0
    assert realized == [name]


def test_an_unknown_catalog_name_is_refused_before_any_build(capsys, monkeypatch):
    realized = _count_realized(monkeypatch)
    assert main(["group-info", "NoSuch"]) == 2
    assert capsys.readouterr().err == "error: line 1: no catalog group named 'NoSuch'\n"
    assert realized == []


def test_a_catalog_sweep_realizes_and_checks_every_record(capsys, monkeypatch):
    realized = _count_realized(monkeypatch)
    cheap = []
    fingerprint = group_module._cheap_fingerprint
    monkeypatch.setattr(
        group_module, "_cheap_fingerprint", lambda G: cheap.append(G) or fingerprint(G)
    )
    assert main(["hs-search", "--max-order", "1"]) == 0
    assert len(realized) == len(set(realized)) == 42
    assert {G.name for G in cheap} == set(realized)


def test_a_duplicate_catalog_name_is_a_fault(capsys, monkeypatch):
    read = group_module.read_group_records
    monkeypatch.setattr(group_module, "_catalog_cache", None)
    monkeypatch.setattr(group_module, "read_group_records", lambda lines: read(lines) + read(lines))
    assert main(["group-info", "Q8"]) == 3
    assert capsys.readouterr().err.endswith("\ninternal error: catalog names 'C1' twice\n")


def test_catalog_lookups_share_one_object_per_name():
    # a named lookup before the full load and one after it, fresh process
    proc = _run_cli(
        "from coverlab.group import _catalog_cache, catalog_group, load_catalog; "
        "assert _catalog_cache is None; q8 = catalog_group('Q8'); "
        "full = {g.name: g for g in load_catalog()}; "
        "assert full['Q8'] is q8 and catalog_group('S3') is full['S3']; "
        "d4, again = load_catalog('D4', 'Q8'); assert d4 is full['D4'] and again is q8; "
        "assert load_catalog() is load_catalog()",
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()


# ---------------------------------------------------------------- output


def test_text_output_deterministic(capsys):
    main(["verify-cover", "0/2 1/4 3/4"])
    first = capsys.readouterr().out
    main(["verify-cover", "0/2 1/4 3/4"])
    assert capsys.readouterr().out == first


def test_structured_output_shape(capsys):
    assert main(["density", "--format", "structured", "0/2 1/3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "density"
    assert doc["status"] == "pass"
    assert doc["truncated"] is False
    names = {v["name"]: v for v in doc["verdicts"]}
    assert names["density"]["value"] == {"num": "2", "den": "3"}
    assert names["period"]["value"] == 6


def test_render_json_writes_fractions_as_pairs_and_other_values_as_str():
    # a Fraction nested in a witness's tuple is a {"num", "den"} pair of
    # strings; a value JSON has no type for, a Subgroup here, is its str()
    G = catalog_group("C4")
    rep = cli.Report("render", None)
    rep.info("subgroup", Subgroup(G, G.full_mask()))
    rep.check("bound", True, {"pair": (2, Fraction(-1, 3))})
    assert cli.render_json(rep) == "\n".join([
        '{',
        '  "command": "render",',
        '  "inputs": {},',
        '  "seed": null,',
        '  "status": "pass",',
        '  "truncated": false,',
        '  "verdicts": [',
        '    {',
        '      "asserted": false,',
        '      "name": "subgroup",',
        '      "value": "Subgroup<0,1,2,3>",',
        '      "witness": null',
        '    },',
        '    {',
        '      "asserted": true,',
        '      "name": "bound",',
        '      "value": true,',
        '      "witness": {',
        '        "pair": [',
        '          2,',
        '          {',
        '            "den": "3",',
        '            "num": "-1"',
        '          }',
        '        ]',
        '      }',
        '    }',
        '  ],',
        f'  "version": "{cli.__version__}",',
        '  "warnings": []',
        '}',
    ])  # fmt: skip


def test_structured_output_deterministic(capsys):
    main(["group-suite", "--format", "structured", "S3"])
    first = capsys.readouterr().out
    main(["group-suite", "--format", "structured", "S3"])
    assert capsys.readouterr().out == first


def test_seed_echoed(capsys):
    main(["density", "--seed", "11", "0/2"])
    assert "seed: 11" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("coverlab ")


def test_group_suite_lines(capsys):
    assert main(["group-suite", "A4"]) == 0
    out = capsys.readouterr().out
    assert "* pyramidal-sylow = true" in out
    assert "* pyramidal-heredity = true" in out  # vacuous for A4, note says so


def test_uniform_cover_witnesses(capsys):
    assert main(["uniform-cover", "group C4\n0 : 2\n1 : \n3 : \n"]) == 0
    out = capsys.readouterr().out
    assert "* index-bound = true" in out
    assert "* equal-index-pair = true" in out


def test_uniform_cover_non_solvable_inline_record(capsys):
    assert main(["uniform-cover", A5_TWO_COVER]) == 0
    out = capsys.readouterr().out
    assert "entries: 11" in out and "m = 2" in out
    assert "conditions = a=False b=False c=False" in out
    assert "  index-bound = true  (lhs=5, rhs=10)" in out
    assert "no applicable condition; bound reported, not asserted" in out


# every bound asserted only under a hypothesis, run with the hypothesis
# false: (argv, the unmarked line, the warning or None)
FLAG_FALSE = [
    (
        # H of order 2 is not normal in S3, so no series starts at it
        ["union-bound", "group S3\nH : 1\n0 : 1\n"],
        "  coset-lower-bound = true  (cosets-met=1, index-multiple-count=1)",
        "no subnormality or series hypothesis; bound reported, not asserted",
    ),
    (
        # a non-normal entry and a non-normal H
        ["aligned-union", "group S3\nH : 1\n0 : \n0 : 1\n"],
        "  gcd-bound = true  (lhs=1, rhs=3/2)",
        "no applicable case; bound reported, not asserted",
    ),
    (
        # the three cosets of a non-subnormal subgroup of order 2
        ["max-index", "group S3\n0 : 1\n2 : 1\n5 : 1\n"],
        "  multiplicity-at-least-least-prime = true",
        "not every subgroup is subnormal; probe reported, not asserted",
    ),
    (
        ["uniform-cover", A5_TWO_COVER],
        "  equal-index-pair = true  (prime=5, pair=[0, 1])",
        None,
    ),
    (
        ["uniform-cover", A5_TWO_COVER],
        "  top-multiplicity-floor = true  (top-multiplicity=5, floor=2)",
        None,
    ),
    (
        ["uniform-cover", A5_TWO_COVER],
        "  max-multiplicity-floor = true  (max-multiplicity=6, min-prime=2)",
        None,
    ),
]


@pytest.mark.parametrize(
    "argv, line, warning",
    FLAG_FALSE,
    ids=[
        "union-bound",
        "aligned-union",
        "max-index",
        "equal-index-pair",
        "top-multiplicity-floor",
        "max-multiplicity-floor",
    ],
)
def test_unasserted_bound_is_printed_unmarked(argv, line, warning, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert line in out.splitlines()
    if warning is not None:
        assert f"warnings:\n  - {warning}\n" in out


def test_hs_search_reports_multisets(capsys):
    assert main(["hs-search", "D6"]) == 0
    out = capsys.readouterr().out
    assert "* no-counterexample[D6] = true" in out
    assert "nodes=151" in out


def test_hs_search_reports_a_counterexample(monkeypatch, capsys):
    # no group has a distinct-index partition, so the found path runs only
    # when S3 is offered the index multiset (2, 2): its two cosets of A3,
    # found through the engine's last pick, made at the root's child
    monkeypatch.setattr(gcover, "feasible_distinct_index_sets", lambda order: [(2, 2)])
    assert main(["hs-search", "S3"]) == 1
    out = capsys.readouterr().out
    assert (
        "* no-counterexample[S3] = false"
        "  (nodes=3, index-multisets=1, counterexample=[0:2, 1:2])"
    ) in out.splitlines()


# ------------------------------------------------------------ golden reports

GOLDEN_PATH = Path(__file__).with_name("golden_reports.json")
# every exit-zero input but bounds (its binary64 diagnostics depend on the
# platform's libm), verify-cover, and the unasserted-bound inputs, in both
# formats; --help is left out, its headings differ across Python versions
GOLDEN_REPORTS = [
    [*argv, "--format", fmt]
    for argv in {
        json.dumps(argv): argv
        for argv in [a for a in EXIT_ZERO_ARGV if a[0] != "bounds"]
        + [["verify-cover", "0/2 1/4 3/4"]]
        + [argv for argv, _, _ in FLAG_FALSE]
    }.values()
    for fmt in ("text", "structured")
]
S3_CYCLES = "group X\ndegree 3\ngen (1 2 3)\ngen (1 2)\n"
# comment and blank lines before and inside the header, then an unknown key
COMMENTED_RECORD = (
    "# lead\n\ngroup V # four points\n# inside\n\ndegree 4\ngen (1 2)\n"
    "colour red\norder 4\nend\n"
)
C25 = f"group C25\ndegree 25\ngen {_cycle(1, 25)}\norder 25\nend\n"
# one refused input per handler-level refusal (argparse's own errors exit
# through SystemExit and are not recorded): exit 2, a one-line stderr
GOLDEN_REFUSALS = {
    "verify-cover-residue": ["verify-cover", "9/4"],
    "verify-cover-token": ["verify-cover", "x/4"],
    "verify-cover-comments-only": ["verify-cover", "# no classes\n"],
    "verify-cover-period-budget": ["verify-cover", "0/2 1/9999991"],
    "density-budget-zero": ["density", "--budget", "0", "0/2"],
    "level-gap-prime": ["level-gap", "0/2 1/4 3/4", "--prime", "3"],
    "level-gap-alpha": ["level-gap", "0/2 1/4 3/4", "--alpha", "5"],
    "simpson-not-exact": ["simpson", "0/2 1/3"],
    "simpson-one-class": ["simpson", "0/1"],
    "qbound-q": ["qbound", "--q", "0", "--M", "5"],
    "qbound-M": ["qbound", "--q", "3", "--M", "1"],
    "bounds-M": ["bounds", "--M", "1"],
    "group-info-unknown-name": ["group-info", "NoSuchGroup"],
    "group-info-nameless": ["group-info", "group"],
    "group-info-cycle-letter": ["group-info", "group X\ndegree 3\ngen (1 a)\norder 2\nend\n"],
    "group-info-cycle-text": ["group-info", "group X\ndegree 3\ngen (1 2) x\norder 2\nend\n"],
    "group-info-cycle-repeat": ["group-info", "group X\ndegree 3\ngen (1 2 1)\norder 2\nend\n"],
    "group-info-cycle-point": ["group-info", "group X\ndegree 3\ngen (1 4)\norder 2\nend\n"],
    "group-info-unknown-key": ["group-info", "group X\ndegree 3\ncolour red\norder 1\nend\n"],
    "group-info-outside-block": ["group-info", "degree 3\ngroup X\norder 1\nend\n"],
    "group-info-nested": ["group-info", "group X\ngroup Y\nend\n"],
    "group-info-no-end": ["group-info", "group X\ndegree 3\norder 1\n"],
    "group-info-two-records": ["group-info", "group X\ndegree 1\norder 1\nend\ngroup Y\ndegree 1\norder 1\nend\n"],
    "group-info-order-mismatch": ["group-info", S3_CYCLES + "order 3\nend\n"],
    "group-info-order-cap": ["group-info", "group X\ndegree 3\ngen (1 2 3)\norder 201\nend\n"],
    "group-info-two-groups": ["group-info", "S3\nC4"],
    "group-info-empty": ["group-info", "# nothing\n"],
    "group-info-commented-record-key": ["group-info", COMMENTED_RECORD],
    "group-info-degree-cap": ["group-info", HUGE_DEGREE],
    "uniform-cover-not-uniform": ["uniform-cover", "group C6\n0 : 2\n1 : 3\n"],
    "uniform-cover-trivial": ["uniform-cover", "group C4\n0 : 1\n"],
    "uniform-cover-h-line": ["uniform-cover", "group C4\nH : 2\n0 : 2\n1 : \n3 : \n"],
    "uniform-cover-no-group-line": ["uniform-cover", "C4\n0 : 1\n"],
    "uniform-cover-no-entries": ["uniform-cover", "group C4\n"],
    "uniform-cover-entry-syntax": ["uniform-cover", "group C4\n0 : 1\n2 3\n"],
    "uniform-cover-element-token": ["uniform-cover", "group C4\n0 : x\n"],
    "uniform-cover-cycle": ["uniform-cover", S3_CYCLES + "order 6\nend\n0 : (1 5)\n"],
    "uniform-cover-perm": ["uniform-cover", "group C4\n0 : (1 2)\n"],
    # several faults in one input: the reported one pins the readers' order
    "uniform-cover-h-line-no-entries": ["uniform-cover", "group C4\nH : 2\n"],
    "uniform-cover-h-line-bad-h": ["uniform-cover", "group C4\nH : x\n0 : 1\n"],
    "uniform-cover-h-line-duplicate": ["uniform-cover", "group C4\nH : 2\nH : 2\n0 : 2\n"],
    "uniform-cover-commented-record-key": ["uniform-cover", COMMENTED_RECORD + "0 : 1\n2 : 1\n"],
    "max-index-h-line-bad-token": ["max-index", "group C4\nH : 2\n0 : x\n"],
    "max-index-h-line-not-uniform": ["max-index", "group C6\nH : 2\n0 : 2\n1 : 3\n"],
    "max-index-not-uniform": ["max-index", "group C6\n0 : 2\n1 : 3\n"],
    "union-bound-element-id": ["union-bound", "group C4\n0 : 9\n"],
    "union-bound-duplicate-h": ["union-bound", "group C4\nH : 2\nH : 2\n0 : 1\n"],
    "union-bound-late-h": ["union-bound", "group C4\n0 : 1\nH : 2\n"],
    "union-bound-h-outside": ["union-bound", "group C4\nH : 1\n0 : 2\n"],
    "aligned-union-not-h-union": ["aligned-union", "group C4\nH : 2\n0 : \n"],
    "hs-search-max-order": ["hs-search", "--max-order", "0"],
    "hs-search-order": ["hs-search", C25],
    "enumerate-covers-order": ["enumerate-covers", C25],
    "enumerate-covers-k": ["enumerate-covers", "S3", "--k", "9"],
    "enumerate-covers-m": ["enumerate-covers", "S3", "--m", "0"],
}
# branches no other test reaches, in both formats: a search cut by its
# budget (a truncated report, exit 2) and four reader refusals
GOLDEN_BRANCHES = {
    "hs-search-budget": ["hs-search", "S3", "--budget", "1"],
    "verify-cover-modulus-zero": ["verify-cover", "0/0"],
    "group-info-cover-lines": ["group-info", "S3\n0 : 1"],
    "uniform-cover-empty": ["uniform-cover", "# nothing"],
    "group-info-nameless-record": ["group-info", "group\ndegree 2\ngen (1 2)\norder 2\nend"],
}
GOLDEN_ARGV = (
    GOLDEN_REPORTS
    + list(GOLDEN_REFUSALS.values())
    + [[*argv, "--format", fmt] for argv in GOLDEN_BRANCHES.values() for fmt in ("text", "structured")]
)
GOLDEN_IDS = (
    [f"{a[0]}-{a[-1]}" for a in GOLDEN_REPORTS]
    + list(GOLDEN_REFUSALS)
    + [f"{name}-{fmt}" for name in GOLDEN_BRANCHES for fmt in ("text", "structured")]
)


def golden_record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_reports_cover_every_input():
    assert [r["argv"] for r in json.loads(GOLDEN_PATH.read_text())] == GOLDEN_ARGV


@pytest.mark.parametrize("index", range(len(GOLDEN_ARGV)), ids=GOLDEN_IDS)
def test_golden_report(index):
    # exit code, stdout and stderr byte for byte as recorded
    record = json.loads(GOLDEN_PATH.read_text())[index]
    assert golden_record(record["argv"]) == record


# ------------------------------------------------------------------- fuzz

FUZZ_NUMBERS = (-1, 0, 1, 2, 3, 5, 8, 24, 1000)
FUZZ_CHARS = "0123456789 /:()#-eHx\n"


@st.composite
def fuzz_argv(draw):
    """One edit of a golden input: a flag's number replaced, a text
    argument spliced (up to 2 characters cut, up to 3 put in), or a
    --budget added.  The numbers stay small enough that no case sieves to
    the capacity or searches for long."""
    seeds = st.sampled_from(EXIT_ZERO_ARGV) | st.sampled_from(list(GOLDEN_REFUSALS.values()))
    argv = list(draw(seeds))
    i = draw(st.integers(1, len(argv)))
    if i == len(argv):
        argv += ["--budget", str(draw(st.sampled_from(FUZZ_NUMBERS)))]
    elif argv[i - 1].startswith("--"):
        argv[i] = str(draw(st.sampled_from(FUZZ_NUMBERS)))
    elif not argv[i].startswith("--"):
        text, at, cut = argv[i], draw(st.integers(0, len(argv[i]))), draw(st.integers(0, 2))
        argv[i] = text[:at] + draw(st.text(FUZZ_CHARS, max_size=3)) + text[at + cut :]
    return argv


def _as_text(value):
    """A structured report's value as the text report prints it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, list):
        return "[" + ", ".join(_as_text(v) for v in value) + "]"
    if isinstance(value, dict):
        return str(Fraction(int(value["num"]), int(value["den"])))
    return repr(value) if isinstance(value, float) else str(value)


def assert_formats_agree(text, structured):
    tree = json.loads(structured)
    lines = text.splitlines()
    assert lines[:3] == [f"coverlab {tree['version']}", f"command: {tree['command']}",
                         f"seed: {_as_text(tree['seed'])}"]
    inputs = lines[4 : lines.index("verdicts:")] if tree["inputs"] else []
    assert sorted(inputs) == sorted(f"  {k}: {_as_text(v)}" for k, v in tree["inputs"].items())
    rest = lines[lines.index("verdicts:") + 1 :]
    for v in tree["verdicts"]:
        line, head = rest.pop(0), f"{'*' if v['asserted'] else ' '} {v['name']} = {_as_text(v['value'])}"
        assert line.startswith(head) and (line == head) == (not v["witness"]), (line, head)
        for key, w in (v["witness"] or {}).items():
            assert f"{key}={_as_text(w)}" in line, (line, key)
    warnings = [f"  - {w}" for w in tree["warnings"]]
    assert rest == (["warnings:"] + warnings if warnings else []) + (
        ["truncated: true"] if tree["truncated"] else []
    ) + [f"status: {'pass' if tree['status'] == 'pass' else 'FAIL'}"]


@seed(20030)
@settings(max_examples=500, deadline=None, database=None)
@given(fuzz_argv())
def test_fuzzed_inputs_are_answered_or_refused(argv):
    # every command, built from the golden inputs: no fault exit, and the
    # two formats give one report
    text = golden_record(argv)
    assert text["exit"] in (0, 1, 2) and "internal error:" not in text["stderr"], text
    structured = golden_record(argv + ["--format", "structured"])
    assert structured["exit"] == text["exit"], argv
    assert bool(text["stdout"]) == bool(structured["stdout"]), argv
    if text["stdout"]:
        assert_formats_agree(text["stdout"], structured["stdout"])


if __name__ == "__main__":
    # rewrite the golden file from the current code:
    #   PYTHONPATH=src python tests/test_cli.py
    records = [golden_record(argv) for argv in GOLDEN_ARGV]
    GOLDEN_PATH.write_text(json.dumps(records, indent=1) + "\n")
