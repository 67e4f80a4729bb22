"""Tests for file formats, report rendering and command exit codes."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import coverlab.group as group_module
from coverlab import cli, zcover
from coverlab.arith import factorize
from coverlab.bounds import bound_report
from coverlab.cli import (
    main,
    parse_cover_file,
    parse_group_cover_file,
    parse_group_file,
    serialize_cover,
    serialize_group,
    serialize_group_cover,
)
from coverlab.errors import InputError
from coverlab.gcover import CosetSystem, enumerate_uniform_covers
from coverlab.group import (
    all_subgroups,
    catalog_group,
    cyclic_group,
    cycles_str,
    group_from_generators,
    left_coset_mask,
    load_catalog,
    parse_cycles,
    subgroup_closure,
    trivial_subgroup,
)
from coverlab.zcover import ResidueSystem, check_simpson

SRC = Path(__file__).resolve().parents[1] / "src"


# ------------------------------------------------------------ cover files


def pairs(system):
    return tuple((c.residue, c.modulus) for c in system.classes)


def test_cover_parse_inline():
    s = parse_cover_file("0/2 1/4 3/4")
    assert pairs(s) == ((0, 2), (1, 4), (3, 4))


def test_cover_parse_comments_and_lines():
    text = "# an exact cover\n0/2\n1/4  3/4   # two quarters\n"
    assert pairs(parse_cover_file(text)) == ((0, 2), (1, 4), (3, 4))


def test_cover_parse_from_file(tmp_path):
    p = tmp_path / "cover.txt"
    p.write_text("0/2 1/2\n")
    assert pairs(parse_cover_file(str(p))) == ((0, 2), (1, 2))


def test_cover_round_trip_random():
    rng = random.Random(5)
    for _ in range(50):
        pairs = []
        for _ in range(rng.randint(1, 8)):
            n = rng.randint(1, 60)
            pairs.append((rng.randrange(n), n))
        system = ResidueSystem.from_pairs(pairs)
        assert parse_cover_file(serialize_cover(system)) == system


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
    for name in ("S3", "D4", "C12", "Q8", "SD16"):
        G = catalog_group(name)
        H = parse_group_file(serialize_group(G))
        assert H.order == G.order
        assert H.table == G.table


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
]


@pytest.mark.parametrize(
    "text, message",
    BAD_RECORDS,
    ids=["degree-not-a-number", "degree-negative", "order-zero", "no-degree", "no-end"],
)
def test_group_record_field_errors_name_their_line(text, message, capsys):
    with pytest.raises(InputError, match=f"^{message}$"):
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
    G = catalog_group("S3")
    three = [S for S in all_subgroups(G) if S.size == 3][0]
    cover = CosetSystem.from_pairs(G, [(0, three), (1, three)])
    text = serialize_group_cover(cover, trivial_subgroup(G))
    G2, H2, entries = parse_group_cover_file(text)
    assert G2.table == G.table
    assert H2.size == 1
    assert [(rep, sub.members()) for rep, sub in entries] == [
        (rep, sub.members()) for rep, sub in cover.entries
    ]


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


def test_exit_budget(capsys, monkeypatch):
    monkeypatch.setenv("COVERLAB_BUDGET", "100")
    assert main(["verify-cover", "0/2 1/999983"]) == 2
    assert "budget exceeded" in capsys.readouterr().err


def test_budget_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("COVERLAB_BUDGET", "100")
    # the flag requests more than the env but stays under the cap
    assert main(["density", "--budget", "5000000", "0/2 1/999983"]) == 0
    capsys.readouterr()


def test_budget_flag_never_raises_the_cap(capsys):
    assert main(["density", "--budget", "20000000", "0/2 1/9999991"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "budget exceeded: period 19999982 exceeds budget 10000000\n"


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
    # main builds only the parser argv names; its help pages and usage
    # errors must be the full parser's, compared in this interpreter
    # because help headings differ between Python versions
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
    assert len(built) == 2  # the top parser and mu's


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


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("value", ["-5", "0"])
@pytest.mark.parametrize(
    "argv",
    [["verify-cover", "0/2 1/4 3/4"], ["enumerate-covers", "S3"], ["hs-search", "C6"]],
)
def test_non_positive_budget_is_a_usage_error(argv, value, source, capsys, monkeypatch):
    if source == "flag":
        argv, name = [*argv, "--budget", value], "--budget"
    else:
        monkeypatch.setenv("COVERLAB_BUDGET", value)
        name = "COVERLAB_BUDGET"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} must be at least 1, got {value}\n"


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
        lambda: check_simpson(ResidueSystem.from_pairs([(0, 2), (1, 3)])),
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
    parse = group_module.parse_group_records
    monkeypatch.setattr(group_module, "_catalog_cache", None)
    monkeypatch.setattr(group_module, "parse_group_records", lambda text: parse(text) + parse(text))
    assert main(["group-info", "Q8"]) == 3
    assert capsys.readouterr().err.endswith("\ninternal error: catalog names 'C1' twice\n")


def test_catalog_lookups_share_one_object_per_name():
    # a named lookup before the full load and one after it, fresh process
    proc = _run_cli(
        "from coverlab.group import _catalog_cache, catalog_group, catalog_names, load_catalog; "
        "assert _catalog_cache is None; q8 = catalog_group('Q8'); "
        "full = dict(zip(catalog_names(), load_catalog())); "
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


def a5_two_cover_text():
    """The cosets of A4 (index 5) and of D5 (index 6) in A5, as an inline
    record: a uniform 2-cover under no hypothesis of the index bound."""
    gens = ["(1 2 3 4 5)", "(1 2 3)"]
    G = group_from_generators(5, gens, name="A5")
    lines = ["group A5", "degree 5"] + [f"gen {g}" for g in gens] + ["order 60", "end"]
    for sub in (["(1 2 3)", "(1 2)(3 4)"], ["(1 2 3 4 5)", "(2 5)(3 4)"]):
        H = subgroup_closure(G, [G.perms.index(parse_cycles(5, c)) for c in sub])
        seen = 0
        for x in range(G.order):
            if not seen >> x & 1:
                seen |= left_coset_mask(G, x, H)
                lines.append(f"{cycles_str(G.perms[x]) if x else 'e'} : {' '.join(sub)}")
    return "\n".join(lines) + "\n"


A5_TWO_COVER = a5_two_cover_text()


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
GOLDEN_ARGV = GOLDEN_REPORTS + list(GOLDEN_REFUSALS.values())
GOLDEN_IDS = [f"{a[0]}-{a[-1]}" for a in GOLDEN_REPORTS] + list(GOLDEN_REFUSALS)


def golden_record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_reports_cover_every_input():
    assert [r["argv"] for r in json.loads(GOLDEN_PATH.read_text())] == GOLDEN_ARGV


@pytest.mark.parametrize("index", range(len(GOLDEN_ARGV)), ids=GOLDEN_IDS)
def test_golden_report(index):
    # exit code, stdout and stderr byte for byte as recorded
    record = json.loads(GOLDEN_PATH.read_text())[index]
    assert golden_record(record["argv"]) == record


if __name__ == "__main__":
    # rewrite the golden file from the current code:
    #   PYTHONPATH=src python tests/test_cli.py
    records = [golden_record(argv) for argv in GOLDEN_ARGV]
    GOLDEN_PATH.write_text(json.dumps(records, indent=1) + "\n")
