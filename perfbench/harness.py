"""Closed-loop execution: one client, one op in flight, one child at a time.

The benchmark's own process imports coverlab and then never calls it.
Every cold op runs in a child forked from that import-only process, so no
catalog, sieve, lru_cache or per-group cache state from an earlier op can
reach a later one; each child checks that before it starts (cold_state).
A sweep pass runs in one forked child that loads the catalog and then runs
every sweep op warm.  Latency is taken inside the child around the op
alone.  Memory is how far the child's peak resident size (ru_maxrss, from
wait4) rose above its size at the fork, so that what the benchmark process
itself holds does not count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import pickle
import resource
import signal
import sys
import threading
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import oracles
import tracer
from workloads import Op

# a run must end within 180 s: no child outlives this share of it, and ops
# not started by then count as failed
RUN_BUDGET_S = 160


def import_coverlab(root):
    """Import coverlab.cli from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "coverlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no coverlab sources under {src}")
    sys.path.insert(0, str(src))
    import coverlab.cli

    if not os.path.abspath(coverlab.cli.__file__).startswith(str(src)):
        raise SystemExit(f"error: imported coverlab from {coverlab.cli.__file__}, not {src}")
    return coverlab.cli


# module-level caches of coverlab and how each reads when nothing has run
_COLD_GLOBALS = (
    ("coverlab.group", "_catalog_cache", lambda v: v is None),
    ("coverlab.arith", "_sieved_to", lambda v: v <= 1),
)


def cold_state() -> list[str]:
    """Caches of coverlab that hold state in this process; empty when cold.

    Every lru_cache in a coverlab module must be empty, and so must the
    module-level caches above (a name that no longer exists is skipped).
    """
    warm = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("coverlab") or module is None:
            continue
        for attr, value in vars(module).items():
            info = getattr(value, "cache_info", None)
            if callable(info) and info().currsize:
                warm.append(f"{name}.{attr}")
    for name, attr, is_cold in _COLD_GLOBALS:
        module = sys.modules.get(name)
        if module is not None and hasattr(module, attr) and not is_cold(getattr(module, attr)):
            warm.append(f"{name}.{attr}")
    return warm


@dataclass
class OpResult:
    op: Op
    latency: float
    growth_mb: float
    problems: list[str]
    output: bytes

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Pass:
    """One pass over the op list; layers holds raw tracer sums when traced."""

    results: list[OpResult]
    layers: Counter = field(default_factory=Counter)

    @property
    def op_time(self) -> float:
        return sum(r.latency for r in self.results)


def _fork(work, deadline: float) -> tuple[object, float]:
    """Run work() in a forked child; return its result and its memory growth
    in MB.  A child's ru_maxrss starts at its resident size at the fork."""
    if threading.active_count() != 1:
        raise RuntimeError("fork needs a single-threaded parent")
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 0
        try:
            signal.alarm(max(1, math.ceil(deadline - perf_counter())))
            start_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            data = pickle.dumps((start_kb, work()))
            with os.fdopen(w, "wb") as f:
                f.write(data)
        except BaseException:  # the child must never return into the parent's code
            traceback.print_exc()
            code = 1
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as f:
        data = f.read()
    _, status, usage = os.wait4(pid, 0)
    if not os.WIFEXITED(status) or os.WEXITSTATUS(status) != 0 or not data:
        return None, 0.0
    start_kb, result = pickle.loads(data)
    return result, (usage.ru_maxrss - start_kb) / 1024


def _cold_child(cli, op: Op, span_file):
    warm = cold_state()
    spans = None
    if span_file:
        spans = tracer.Tracer()
        spans.install()
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:
        rc = "raised"
        err.write(traceback.format_exc())
    latency = perf_counter() - t0
    result = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "latency": latency}
    result["warm"] = warm
    if spans:
        result["layers"] = spans.reduce()
        spans.dump(span_file, op.id)
    return result


def run_cold(cli, op: Op, deadline: float, span_file=None) -> tuple[OpResult, Counter]:
    """One cold command in its own child; the result and its raw layer sums."""
    if perf_counter() >= deadline:
        return OpResult(op, float("inf"), 0.0, ["not run: the run's time budget is spent"], b""), Counter()
    res, growth = _fork(lambda: _cold_child(cli, op, span_file), deadline)
    if res is None:
        return OpResult(op, float("inf"), growth, ["child process failed"], b""), Counter()
    problems = [f"not cold: {w}" for w in res["warm"]]
    problems += oracles.check_cold(op, res)
    output = f"{op.id}\0{res['rc']}\0{res['stdout']}\0".encode()
    latency = float("inf") if problems else res["latency"]
    return OpResult(op, latency, growth, problems, output), res.get("layers", Counter())


# --------------------------------------------------------------------- sweep

_SAMPLE_STRIDE = 97


def _sweep_op(group, gc, G, op: Op):
    """Run one sweep op; the returned summary is what the oracle checks.

    Functions are looked up on the modules at call time, so that a tracer
    installed in this process sees the calls.
    """
    if op.kind == "suite":
        lines = group.structural_suite(G)
        return {"lines": [(l.name, l.holds, l.checked, l.note) for l in lines]}
    if op.kind == "search":
        res = gc.search_distinct_index_partition(G)
        return {"found": res.found is not None, "nodes": res.nodes_explored}
    k, m = op.expect["k"], op.expect["m"]
    stride, offset = op.expect["kernel_stride"], op.expect["offset"]
    rows, kept = [], []
    for i, cover in enumerate(gc.enumerate_uniform_covers(G, k, m)):
        uc = gc.check_uniform_cover(cover)
        mi = gc.probe_max_index_multiplicity(cover)
        kr = gc.kernel_of(cover) if i % stride == offset % stride else None
        rows.append(
            (
                cover.indices(),
                uc.m,
                uc.applicable,
                uc.holds,
                mi.multiplicity,
                mi.holds,
                kr.kernel.size if kr else 0,
            )
        )
        if i % _SAMPLE_STRIDE == offset:
            kept.append(cover)
    return {"rows": rows, "kept": kept}


def _sweep_child(ops: list[Op], span_file):
    from coverlab import gcover, group

    warm = cold_state()
    spans = None
    if span_file:
        spans = tracer.Tracer()
        spans.install()
    catalog = {G.name: G for G in group.load_catalog()}
    results = []
    for op in ops:
        G = catalog[op.expect["group"]]
        t = perf_counter()
        summary = _sweep_op(group, gcover, G, op)
        latency = perf_counter() - t
        kept = summary.pop("kept", [])
        summary["samples"] = [
            [(G.perms[rep], [G.perms[x] for x in sub.members()]) for rep, sub in c.entries]
            for c in kept
        ]
        results.append((latency, summary))
    out = {"warm": warm, "results": results}
    if spans:
        out["layers"] = spans.reduce()
        spans.dump(span_file, "sweep")
    return out


def run_sweep(ops: list[Op], deadline: float, span_file=None) -> Pass:
    res, growth = _fork(lambda: _sweep_child(ops, span_file), deadline)
    if res is None:
        return Pass([OpResult(op, float("inf"), growth, ["sweep process failed"], b"") for op in ops])
    results = []
    for op, (latency, summary) in zip(ops, res["results"]):
        problems = [f"not cold at start: {w}" for w in res["warm"]]
        problems += oracles.check_sweep(op, summary)
        digest_part = {k: v for k, v in summary.items() if k != "samples"}
        output = f"{op.id}\0{digest_part!r}\0".encode()
        results.append(OpResult(op, float("inf") if problems else latency, growth, problems, output))
    return Pass(results, res.get("layers", Counter()))


def run_pass(cli, workload: str, ops: list[Op], deadline: float, span_file=None) -> Pass:
    if workload == "sweep":
        return run_sweep(ops, deadline, span_file)
    done = Pass([])
    for op in ops:
        result, layers = run_cold(cli, op, deadline, span_file)
        done.results.append(result)
        tracer.merge(done.layers, layers)
    return done


def digest(results: list[OpResult]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(r.output)
    return h.hexdigest()

