"""Tests for file formats, report rendering and command exit codes."""

import json
import random
import sys
import time

import pytest

from coverlab import zcover
from coverlab.cli import (
    FormatError,
    main,
    parse_cover_file,
    parse_group_cover_file,
    parse_group_file,
    serialize_cover,
    serialize_group,
    serialize_group_cover,
)
from coverlab.gcover import CosetSystem
from coverlab.group import (
    all_subgroups,
    catalog_group,
    cycles_str,
    group_from_generators,
    left_coset_mask,
    load_catalog,
    parse_cycles,
    subgroup_closure,
    trivial_subgroup,
)
from coverlab.zcover import ResidueSystem


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
    with pytest.raises(FormatError, match="out of range"):
        parse_cover_file("5/4")
    with pytest.raises(FormatError, match="line 2"):
        parse_cover_file("0/2\n1/4 junk\n")
    with pytest.raises(FormatError):
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
    with pytest.raises(FormatError, match="catalog"):
        parse_group_file("NoSuchGroup")
    with pytest.raises(FormatError):
        parse_group_file("group X\ndegree 3\ngen (1 2 3)\norder 3\n")  # no end


def test_group_record_errors_keep_file_line_numbers():
    # a comment line inside the record must not shift the reported line
    record = "group V\ndegree 4\n# a comment\ngen (1 2)\ncolour red\norder 4\nend\n"
    message = r"^line 5: unknown key 'colour'$"
    with pytest.raises(FormatError, match=message):
        parse_group_file(record)
    with pytest.raises(FormatError, match=message):
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
    with pytest.raises(FormatError, match=f"^{message}$"):
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
    with pytest.raises(FormatError, match="group line"):
        parse_group_cover_file("0 : 1\n")
    with pytest.raises(FormatError, match="duplicate H"):
        parse_group_cover_file("group C4\nH : 2\nH : 2\n0 : 2\n")
    with pytest.raises(FormatError, match="precede"):
        parse_group_cover_file("group C4\n0 : 2\nH : 2\n")
    with pytest.raises(FormatError, match="no cover entries"):
        parse_group_cover_file("group C4\n")
    with pytest.raises(FormatError, match="element id"):
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


def test_exit_no_command(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_exit_unknown_command():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


@pytest.mark.parametrize(
    "argv",
    [
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
    ],
)
def test_exit_zero_commands(argv, capsys):
    assert main(argv) == 0
    assert "status: pass" in capsys.readouterr().out


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


@pytest.mark.parametrize(
    "argv, scans",
    [
        (["verify-cover", "0/2 1/4 3/4"], 1),
        (["density", "0/2 1/4 3/4"], 1),
        (["simpson", "0/2 1/4 3/4"], 1),
        (["density-check", "0/2 1/4 3/4"], 1),
        (["rogers", "0/2 1/4 3/4"], 2),
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


def test_uniform_cover_non_solvable_inline_record(capsys):
    # the cosets of A4 (index 5) and of D5 (index 6) in A5: a uniform
    # 2-cover under no hypothesis of the index bound
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
    assert main(["uniform-cover", "\n".join(lines) + "\n"]) == 0
    out = capsys.readouterr().out
    assert "entries: 11" in out and "m = 2" in out
    assert "conditions = a=False b=False c=False" in out
    assert "  index-bound = true  (lhs=5, rhs=10)" in out
    assert "no applicable condition; bound reported, not asserted" in out


def test_hs_search_reports_multisets(capsys):
    assert main(["hs-search", "D6"]) == 0
    out = capsys.readouterr().out
    assert "* no-counterexample[D6] = true" in out
    assert "nodes=151" in out
