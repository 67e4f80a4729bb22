"""Spans around coverlab's public functions, installed from outside.

Installing replaces each target function in every coverlab.* namespace that
bound it at import (the defining module, coverlab/__init__'s re-exports,
and the `from .x import y` names in cli and gcover), so calls from the CLI
and calls inside the package are both seen.  Methods are replaced on their
class.  A CoverStream is timed while it is consumed: each step of its
iterator is a span, and the stream's creation is another.

A span is (name, start, end, parent).  Spans stay in memory in flat arrays
and are written out once, when the traced process has finished its work.
Self time is a span's duration minus the durations of its child spans.

The tracer is installed only in a process forked for traced work, never in
the benchmark's own process, so nothing it changes outlives that process.
"""

from __future__ import annotations

import pickle
import sys
from array import array
from collections import Counter
from time import perf_counter

# (span name, module, attribute path); the span name is the layer key that
# the per-layer metrics below sum over
TARGETS = (
    ("arith.primes", "coverlab.arith", "primes_upto"),
    ("arith.mertens", "coverlab.arith", "mertens_product"),
    ("arith.factorize", "coverlab.arith", "factorize"),
    ("bounds.c_scan", "coverlab.bounds", "c_range"),
    ("bounds.report", "coverlab.bounds", "bound_report"),
    ("bounds.q_bound", "coverlab.bounds", "check_q_bound"),
    ("bounds.alpha", "coverlab.bounds", "alpha_floor"),
    ("zcover.scan", "coverlab.zcover", "multiplicity_profile"),
    ("zcover.density_check", "coverlab.zcover", "check_density_identity"),
    ("zcover.checks", "coverlab.zcover", "classify"),
    ("zcover.checks", "coverlab.zcover", "density_union"),
    ("zcover.checks", "coverlab.zcover", "check_rogers"),
    ("zcover.checks", "coverlab.zcover", "check_level_gap"),
    ("zcover.checks", "coverlab.zcover", "check_simpson"),
    ("zcover.checks", "coverlab.zcover", "mu_of_divisor_closure"),
    ("zcover.checks", "coverlab.zcover", "largest_modulus_multiplicity"),
    ("cli.parse", "coverlab.cli", "parse_cover_file"),
    ("cli.parse", "coverlab.cli", "parse_group_file"),
    ("cli.parse", "coverlab.cli", "parse_group_cover_file"),
    ("cli.render", "coverlab.cli", "render_text"),
    ("cli.render", "coverlab.cli", "render_json"),
    ("cli.main", "coverlab.cli", "main"),
    ("group.catalog", "coverlab.group", "load_catalog"),
    ("group.build", "coverlab.group", "group_from_generators"),
    ("group.build", "coverlab.group", "FiniteGroup.__init__"),
    ("group.lattice", "coverlab.group", "all_subgroups"),
    ("group.closure", "coverlab.group", "FiniteGroup.closure_mask"),
    ("group.closure", "coverlab.group", "subgroup_closure"),
    ("group.quotient", "coverlab.group", "quotient_group"),
    ("group.subnormal", "coverlab.group", "is_subnormal"),
    ("group.suite", "coverlab.group", "structural_suite"),
    ("group.suite", "coverlab.group", "check_index_intersection"),
    ("group.suite", "coverlab.group", "check_core_primes"),
    ("group.suite", "coverlab.group", "check_hall_normality"),
    ("group.suite", "coverlab.group", "check_core_sylow_exclusion"),
    ("group.suite", "coverlab.group", "check_pyramidal_sylow"),
    ("group.suite", "coverlab.group", "check_solvable_tower"),
    ("gcover.enum", "coverlab.gcover", "enumerate_uniform_covers"),
    ("gcover.check", "coverlab.gcover", "check_uniform_cover"),
    ("gcover.kernel", "coverlab.gcover", "kernel_of"),
    ("gcover.probe", "coverlab.gcover", "probe_max_index_multiplicity"),
    ("gcover.union", "coverlab.gcover", "check_union_lower_bound"),
    ("gcover.union", "coverlab.gcover", "check_aligned_union_bound"),
    ("gcover.search", "coverlab.gcover", "search_distinct_index_partition"),
)

# Per-layer metrics: (name, unit, how).  "self" sums self time, "total"
# sums whole spans, "calls" counts spans, "count" reads a counter filled from
# return values.  group.catalog_s is the whole load, builds and lattices
# included, because that is the cost a catalog lookup adds to a command.
PER_LAYER = (
    ("arith.primes_s", "s", "self", "arith.primes"),
    ("arith.primes.max_x", "count", "count", "arith.primes.max_x"),
    ("arith.mertens_s", "s", "self", "arith.mertens"),
    ("arith.mertens.calls", "count", "calls", "arith.mertens"),
    ("arith.factorize_s", "s", "self", "arith.factorize"),
    ("arith.factorize.calls", "count", "calls", "arith.factorize"),
    ("bounds.c_scan_s", "s", "self", "bounds.c_scan"),
    ("bounds.c_scan.calls", "count", "calls", "bounds.c_scan"),
    ("bounds.report_s", "s", "self", "bounds.report"),
    ("bounds.q_bound_s", "s", "self", "bounds.q_bound"),
    ("bounds.alpha_escalations", "count", "count", "bounds.alpha_escalations"),
    ("zcover.scan_s", "s", "self", "zcover.scan"),
    ("zcover.scan.calls", "count", "calls", "zcover.scan"),
    ("zcover.scan.residues", "count", "count", "zcover.scan.residues"),
    ("zcover.scans_per_command", "ratio", "ratio", ("calls:zcover.scan", "residue_ops")),
    ("zcover.density_check_s", "s", "self", "zcover.density_check"),
    ("zcover.checks_s", "s", "self", "zcover.checks"),
    ("cli.parse_s", "s", "self", "cli.parse"),
    ("cli.render_s", "s", "self", "cli.render"),
    ("cli.main_self_s", "s", "self", "cli.main"),
    ("group.catalog_s", "s", "total", "group.catalog"),
    ("group.build_s", "s", "self", "group.build"),
    ("group.build.elements", "count", "count", "group.build.elements"),
    ("group.lattice_s", "s", "self", "group.lattice"),
    ("group.lattice.calls", "count", "calls", "group.lattice"),
    ("group.lattice.subgroups", "count", "count", "group.lattice.subgroups"),
    ("group.closure_s", "s", "self", "group.closure"),
    ("group.closure.calls", "count", "calls", "group.closure"),
    ("group.quotient.calls", "count", "calls", "group.quotient"),
    ("group.subnormal_s", "s", "self", "group.subnormal"),
    ("group.suite_s", "s", "self", "group.suite"),
    ("gcover.enum_s", "s", "self", "gcover.enum"),
    ("gcover.enum.nodes", "count", "count", "gcover.enum.nodes"),
    ("gcover.enum.covers", "count", "count", "gcover.enum.covers"),
    ("gcover.enum.yield", "ratio", "ratio", ("count:gcover.enum.covers", "count:gcover.enum.nodes")),
    ("gcover.check_s", "s", "self", "gcover.check"),
    ("gcover.check.calls", "count", "calls", "gcover.check"),
    ("gcover.kernel_s", "s", "self", "gcover.kernel"),
    ("gcover.probe_s", "s", "self", "gcover.probe"),
    ("gcover.union_s", "s", "self", "gcover.union"),
    ("gcover.search_s", "s", "self", "gcover.search"),
    ("gcover.search.nodes", "count", "count", "gcover.search.nodes"),
)

# the tracing overhead, reported by the traced run next to the layers
OVERHEAD = (
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._lattices: set[int] = set()

    # -------------------------------------------------------------- spans

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None):
        nid = self._nid(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if on_return is not None:
                on_return(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def consume(self, iterator, stream):
        """Iterate a CoverStream with one span per step."""
        nid = self._nid("gcover.enum")
        while True:
            sid = self._open(nid)
            try:
                item = next(iterator)
            except StopIteration:
                self._close(sid)
                self.counters["gcover.enum.nodes"] += stream.nodes
                return
            except BaseException:
                self._close(sid)
                raise
            self._close(sid)
            self.counters["gcover.enum.covers"] += 1
            yield item

    # ----------------------------------------------------------- counters

    def _hooks(self) -> dict:
        c = self.counters

        def primes(args, out):
            c["arith.primes.max_x"] = max(c["arith.primes.max_x"], args[0])

        def alpha(args, out):
            c["bounds.alpha_escalations"] += bool(out[1])

        def scan(args, out):
            c["zcover.scan.residues"] += out.period

        def build(args, out):
            c["group.build.elements"] += args[0].order

        def lattice(args, out):
            if id(out) not in self._lattices:
                self._lattices.add(id(out))
                c["group.lattice.subgroups"] += len(out)

        def search(args, out):
            c["gcover.search.nodes"] += out.nodes_explored

        return {
            "primes_upto": primes,
            "alpha_floor": alpha,
            "multiplicity_profile": scan,
            "FiniteGroup.__init__": build,
            "all_subgroups": lattice,
            "search_distinct_index_partition": search,
        }

    def install(self) -> None:
        """Wrap every target in every coverlab namespace that bound it."""
        hooks = self._hooks()
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "coverlab" or n.startswith("coverlab."))
        ]  # fmt: skip
        for name, module, path in TARGETS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            traced = self.wrap(name, original, hooks.get(path))
            if owner is sys.modules[module]:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, traced)
            else:
                setattr(owner, attr, traced)
        from coverlab.gcover import CoverStream

        plain_iter = CoverStream.__iter__
        tracer = self
        CoverStream.__iter__ = lambda stream: tracer.consume(plain_iter(stream), stream)

    # ------------------------------------------------------------- output

    def reduce(self) -> Counter:
        """Raw sums: self:<name>, total:<name>, calls:<name>, count:<key>."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        raw: Counter = Counter()
        for i in range(n):
            key = self.names[self.name[i]]
            raw["self:" + key] += dur[i] - child[i]
            raw["total:" + key] += dur[i]
            raw["calls:" + key] += 1
        for key, value in self.counters.items():
            raw["count:" + key] = value
        return raw

    def dump(self, path, label: str) -> None:
        """Append this process's spans to the run's span file."""
        with open(path, "ab") as f:
            pickle.dump(
                {
                    "label": label,
                    "names": self.names,
                    "name": self.name,
                    "parent": self.parent,
                    "start": self.start,
                    "end": self.end,
                },
                f,
            )


def merge(total: Counter, raw: Counter) -> None:
    """Add one process's raw sums into the run's; maxima stay maxima."""
    for key, value in raw.items():
        if key == "count:arith.primes.max_x":
            total[key] = max(total[key], value)
        else:
            total[key] += value


def per_layer(raw: Counter, residue_ops: int) -> dict[str, tuple[float, str]]:
    raw = Counter(raw)
    raw["residue_ops"] = residue_ops
    out = {}
    for name, unit, how, key in PER_LAYER:
        if how == "ratio":
            num, den = raw[key[0]], raw[key[1]]
            value = num / den if den else 0.0
        else:
            value = raw[f"{how}:{key}"]
        out[name] = (value, unit)
    return out
