"""coverlab benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload integers --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; coverlab is imported from its src/.
--trace 0 repeats passes of the seeded op list until --seconds have been
used (always finishing the pass in progress, at least one pass) and reports
the end-to-end metrics.  --trace 1 runs one plain pass and one pass with
spans, and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is the result object; README.md lists the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# before numpy is imported through coverlab: no BLAS thread pools, so the
# process stays single-threaded and safe to fork
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# set-up is sampled this many times before the passes and again after them,
# so that the median spans the run rather than one stretch of it
SETUP_SAMPLES = 6
# what a workload pays before its first op, timed inside a fresh interpreter
# that also reports its peak resident size (KB) right after the import.  The
# peak is VmHWM, which starts afresh at exec, not ru_maxrss, which carries
# over the peak of the process that spawned the interpreter.
SETUP_CODE = """\
import time
t = time.perf_counter()
import coverlab.cli
with open("/proc/self/status") as f:
    rss = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
if {catalog}:
    coverlab.cli.load_catalog()
print(time.perf_counter() - t, rss)
"""
# a failed op counts as +inf; JSON has no infinity, so it is written as this
INF_SENTINEL = 1e9


def measure_setup(workload: str, warm_up: bool) -> tuple[list[float], list[int]]:
    """Set-up seconds and post-import resident KB of fresh interpreters.

    With warm_up, a first interpreter writes the bytecode cache untimed.
    """
    code = SETUP_CODE.format(catalog=workload == "sweep")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    samples, rss = [], []
    for i in range(SETUP_SAMPLES + warm_up):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if i or not warm_up:
            seconds, kb = proc.stdout.split()
            samples.append(float(seconds))
            rss.append(int(kb))
    return samples, rss


def percentile(values: list[float], q: float) -> float:
    """Nearest rank: at least (1 - q) * n samples lie at or beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _finite(x: float) -> float:
    return x if math.isfinite(x) else INF_SENTINEL


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg_before": os.getloadavg(),
    }


def mark_nondeterministic(passes) -> None:
    """Every pass runs the same inputs, so outputs must match byte for byte."""
    first = {r.op.id: r.output for r in passes[0].results}
    for done in passes[1:]:
        for r in done.results:
            if r.ok and r.output != first[r.op.id]:
                r.problems.append("output differs from the first pass")
                r.latency = float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = perf_counter() + harness.RUN_BUDGET_S
    cli = harness.import_coverlab(ROOT)
    env = environment()
    ops = workloads.build(args.workload, args.seed)
    # set-up and memory are end-to-end metrics, which only plain runs report
    setup, import_kb = ([], []) if args.trace else measure_setup(args.workload, warm_up=True)
    OUT.mkdir(exist_ok=True)

    passes = []
    span_file = None
    if args.trace:
        passes.append(harness.run_pass(cli, args.workload, ops, deadline))
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.pkl"
        span_file.unlink(missing_ok=True)
        passes.append(harness.run_pass(cli, args.workload, ops, deadline, span_file))
    else:
        start = perf_counter()
        durations = []
        while True:
            t = perf_counter()
            passes.append(harness.run_pass(cli, args.workload, ops, deadline))
            durations.append(perf_counter() - t)
            if perf_counter() - start + statistics.median(durations) > args.seconds:
                break
    mark_nondeterministic(passes)
    if not args.trace:
        more_setup, more_kb = measure_setup(args.workload, warm_up=False)
        setup += more_setup
        import_kb += more_kb
    env["loadavg_after"] = os.getloadavg()

    results = [r for p in passes for r in p.results]
    walls = [p.op_time for p in passes]
    if args.trace:
        residue_ops = sum(op.command in workloads.RESIDUE_COMMANDS for op in ops)
        metrics = tracer.per_layer(passes[1].layers, residue_ops)
        plain, traced = walls
        overhead = (plain, traced, traced - plain, (traced - plain) / plain)
        for (name, unit), value in zip(tracer.OVERHEAD, overhead):
            metrics[name] = (value, unit)
    else:
        latencies = [r.latency for r in results]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_s": (percentile(latencies, 0.5), "s"),
            "op_p90_s": (percentile(latencies, 0.9), "s"),
            "peak_rss_mb": (
                statistics.median(import_kb) / 1024 + max(r.growth_mb for r in results),
                "MB",
            ),
        }

    failed = [r for r in results if not r.ok]
    digest = harness.digest(passes[0].results)
    print(f"coverlab benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + json.dumps(env))
    print(f"passes: {len(passes)}, ops per pass: {len(ops)}, pass op time (s): {[round(w, 3) for w in walls]}")
    print(f"setup samples (s): {[round(s, 4) for s in setup]}")
    by_kind: dict[str, list[float]] = {}
    for r in passes[0].results:
        by_kind.setdefault(r.op.kind, []).append(r.latency)
    for kind, lats in sorted(by_kind.items()):
        print(f"  {kind:28s} ops {len(lats):3d}  median {statistics.median(lats):9.4f} s  max {max(lats):9.4f} s")
    print(f"output digest (first pass): {digest}")
    if span_file:
        print(f"spans: {span_file.relative_to(ROOT)}")
    for r in failed[:20]:
        print(f"FAILED {r.op.id}: {'; '.join(r.problems)[:500]}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "digest": digest,
        "setup_samples_s": setup,
        "pass_op_time_s": walls,
        "ops": [
            {"pass": i, "id": r.op.id, "latency_s": _finite(r.latency), "growth_mb": r.growth_mb, "problems": r.problems}
            for i, p in enumerate(passes)
            for r in p.results
        ],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    side = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    side.write_text(json.dumps(report, indent=1) + "\n")

    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": {k: {"value": _finite(v), "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
