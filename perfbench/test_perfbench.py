"""Tests of the benchmark itself: its inputs, oracles, isolation and tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import ntheory  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from permgroups import PermGroup  # noqa: E402

cli = harness.import_coverlab(HERE.parent)


def _deadline():
    return perf_counter() + harness.RUN_BUDGET_S


# ------------------------------------------------------------------- inputs


def test_catalog_copy_generates_the_catalog_groups():
    from coverlab.group import load_catalog

    names = list(workloads.catalog_records())
    assert len(names) == 42
    # a fork keeps the catalog out of this process, which later tests fork from
    same, _ = harness._fork(
        lambda: {
            G.name: set(G.perms) == set(workloads.catalog_perm_group(G.name).elems)
            for G in load_catalog()
        },
        _deadline(),
    )
    assert same == {name: True for name in names}


def test_records_carry_their_known_subgroup_counts():
    for rec in workloads.RECORDS:
        G = PermGroup(rec.degree, rec.gens)
        assert (G.order, len(G.lattice)) == (rec.order, rec.subgroups), rec.name
    by_name = {rec.name: rec.subgroups for rec in workloads.RECORDS}
    assert by_name["S4"] == 30 and by_name["A5"] == 59


def test_relabelled_records_keep_their_facts():
    rec = workloads.RECORDS[0]
    facts = PermGroup(rec.degree, rec.gens).facts()
    for seed in range(3):
        op = next(o for o in workloads.groups_ops(seed) if o.id == "group-info/S4")
        assert PermGroup(rec.degree, op.expect["gens"]).facts() == facts


def _brute_force_covers(G: PermGroup, k: int, m: int) -> int:
    cosets = set()
    for H in G.subgroups():
        cosets.update(G.left_coset(x, H) for x in range(G.order))
    cosets = sorted(cosets)
    full = (1 << G.order) - 1
    count = 0
    for size in range(1, k + 1):
        for combo in combinations_with_replacement(cosets, size):
            if sum(c.bit_count() for c in combo) != m * G.order or all(c == full for c in combo):
                continue
            w = Counter(x for c in combo for x in range(G.order) if c >> x & 1)
            count += set(w.values()) == {m}
    return count


@pytest.mark.parametrize("name,k,m", [("S3", 5, 2), ("Q8", 6, 1)])
def test_recorded_cover_counts_match_brute_force(name, k, m):
    G = workloads.catalog_perm_group(name)
    assert _brute_force_covers(G, k, m) == workloads.ENUMERATE_OPS[(name, k, m)]


def test_threshold_matches_known_values():
    primes = ntheory.Primes(1000)
    assert ntheory.threshold(2, primes) == 9
    assert ntheory.threshold(3, primes) == 16


@pytest.mark.parametrize("workload", ["integers", "groups", "sweep"])
def test_inputs_depend_only_on_the_seed(workload):
    def shape(ops):
        return [(o.id, o.argv, repr(o.expect)) for o in ops]

    assert shape(workloads.build(workload, 5)) == shape(workloads.build(workload, 5))
    assert shape(workloads.build(workload, 5)) != shape(workloads.build(workload, 6))
    kinds = Counter(o.kind for o in workloads.build(workload, 5))
    assert kinds == Counter(o.kind for o in workloads.build(workload, 6))
    assert sum(kinds.values()) >= 100


# ---------------------------------------------------------- isolation, oracles


def test_every_cold_op_starts_from_an_import_only_process():
    ops = {o.id: o for o in workloads.groups_ops(1)}
    first, _ = harness.run_cold(cli, ops["group-info/D4"], _deadline())
    second, _ = harness.run_cold(cli, ops["group-info/Q8"], _deadline())
    assert first.ok and second.ok, first.problems + second.problems
    assert harness.cold_state() == []
    # the probe itself notices a warmed process
    warm, _ = harness._fork(
        lambda: (cli.load_catalog(), cli.factorize(91), harness.cold_state())[2], _deadline()
    )
    assert "coverlab.group._catalog_cache" in warm
    assert "coverlab.arith._sieved_to" in warm


def test_oracle_rejects_a_wrong_answer():
    op = next(o for o in workloads.integers_ops(1) if o.kind == "verify-cover/exact")
    res, _ = harness._fork(lambda: harness._cold_child(cli, op, None), _deadline())
    assert oracles.check_cold(op, res) == []
    tree = json.loads(res["stdout"])
    for v in tree["verdicts"]:
        if v["name"] == "period":
            v["value"] += 1
    bad = dict(res, stdout=json.dumps(tree))
    assert any("period" in p for p in oracles.check_cold(op, bad))
    assert oracles.check_cold(op, dict(res, rc=1)) != []


def test_sweep_oracle_checks_covers_as_permutations():
    G = workloads.catalog_perm_group("S3")
    e, t = G.elems[0], G.elems[1]
    assert oracles._is_uniform_cover(G, [(e, list(G.elems))], 1)
    assert not oracles._is_uniform_cover(G, [(e, [e, t])], 1)


# ------------------------------------------------------------------ tracing

# the workload each per-layer metric must be nonzero on, as predicted in
# README.md; bounds.alpha_escalations stays 0 because no c(M) in range comes
# within coverlab's 1e-9 guard of an integer log
NONZERO = {
    "integers": ["arith.", "bounds.", "zcover.", "cli."],
    "groups": [
        "cli.",
        "group.",
        "gcover.enum",
        "gcover.check",
        "gcover.probe_s",
        "gcover.union_s",
    ],
    "sweep": ["group.catalog_s", "gcover.enum", "gcover.check", "gcover.kernel_s", "gcover.probe_s", "gcover.search"],
}
ZERO = {
    "integers": ["group.", "gcover."],
    "groups": ["bounds.", "zcover."],
    "sweep": ["bounds.", "zcover.", "cli."],
}
EXEMPT = {"bounds.alpha_escalations"}


def _smallest_per_kind(ops):
    best = {}
    for op in ops:
        if op.kind not in best or op.size < best[op.kind].size:
            best[op.kind] = op
    return list(best.values())


def _traced_layers(workload, tmp_path):
    if workload == "sweep":
        ops = workloads.sweep_ops(1, names=["S3", "D4", "A4"])
    else:
        ops = _smallest_per_kind(workloads.build(workload, 1))
    plain = harness.run_pass(cli, workload, ops, _deadline())
    traced = harness.run_pass(cli, workload, ops, _deadline(), tmp_path / "spans.pkl")
    results = plain.results + traced.results
    assert all(r.ok for r in results), [r.problems for r in results if not r.ok]
    assert [r.output for r in plain.results] == [r.output for r in traced.results]
    residue = sum(op.command in workloads.RESIDUE_COMMANDS for op in ops)
    return {k: v for k, (v, _) in tracer.per_layer(traced.layers, residue).items()}


@pytest.mark.parametrize("workload", ["integers", "groups", "sweep"])
def test_each_layer_metric_moves_only_on_its_predicted_workloads(workload, tmp_path):
    metrics = _traced_layers(workload, tmp_path)
    assert set(metrics) == {name for name, *_ in tracer.PER_LAYER}
    for name, value in metrics.items():
        if name in EXEMPT:
            continue
        if any(name.startswith(p) for p in NONZERO[workload]):
            assert value > 0, f"{name} is zero on {workload}"
        if any(name.startswith(p) for p in ZERO[workload]):
            assert value == 0, f"{name} = {value} on {workload}"
    assert (tmp_path / "spans.pkl").stat().st_size > 0


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    assert per_layer == {(n, u) for n, u, *_ in tracer.PER_LAYER} | set(tracer.OVERHEAD)
    names = [m["name"] for m in spec["end_to_end"]]
    assert names == ["setup_s", "wall_s", "op_p50_s", "op_p90_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_self_time_excludes_children():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: sum(range(20000)))
    outer = t.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    raw = t.reduce()
    assert raw["calls:inner"] == 3 and raw["calls:outer"] == 1
    assert raw["total:outer"] >= raw["total:inner"]
    assert raw["self:outer"] == pytest.approx(raw["total:outer"] - raw["total:inner"])
