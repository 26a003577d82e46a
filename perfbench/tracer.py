"""In-memory span tracer that wraps cobforge's public functions from outside.

``Tracer.install`` replaces each traced name at every place a caller looks it
up: the module attribute, the class methods ``TruncatedPoly.__mul__`` /
``__rmul__`` and ``SimplePolytope.__init__``, and the ``from .arith import``
bindings in other modules.  A span records (name, parent, start, end) in
flat arrays; self time is a span's duration minus its children's.  A few
work counters are taken at the same boundaries.  ``uninstall`` restores the
original objects, so untraced passes run the program unchanged.
"""

from __future__ import annotations

import gzip
import inspect
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("arith", "chern", "milnor", "frobenius", "planner", "polytope", "cli")

# cli's command handlers are its own argparse, JSON and printing work, so only
# the entry point opens a span there.
CLI_ENTRY_POINTS = ("main",)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self.traced_names: set[str] = set()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                before(self.counters, *args)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self.counters, result, *args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        self.traced_names.add(name)
        setattr(owner, attr, self._wrap(name, original, **hooks))

    def install(self, package) -> None:
        """Wrap every traced name of ``package``'s layer modules."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        by_module = {mod.__name__: layer for layer, mod in modules.items()}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = by_module.get(obj.__module__)
                if home is None or (home == "cli" and attr not in CLI_ENTRY_POINTS):
                    continue
                self._patch(mod, attr, f"{home}.{attr}", **_HOOKS.get(f"{home}.{attr}", {}))
        poly = package.chern.TruncatedPoly
        self._patch(poly, "__mul__", "chern.TruncatedPoly.mul", before=_count_term_pairs)
        self._patch(poly, "__rmul__", "chern.TruncatedPoly.mul", before=_count_term_pairs)
        self._patch(
            package.polytope.SimplePolytope, "__init__", "polytope.SimplePolytope.init",
            after=_count_vertices,
        )

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, to delimit the spans of one pass."""
        return len(self.start)

    def self_times(self, lo: int, hi: int) -> tuple[Counter, Counter]:
        """Calls and self seconds per span name for spans lo..hi-1."""
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(lo, hi):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += (self.end[i] - self.start[i] - child[i - lo]) / 1e9
        return calls, self_s

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV: id, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{self.start[i]}\t{self.end[i]}\n"
                )


# -- work counters taken at the span boundaries ------------------------------

COUNTERS = (
    "chern.TruncatedPoly.mul.term_pairs", "planner.plan_modifications", "planner.plan_a",
    "polytope.vertices_validated", "polytope.vertices_max",
)


def _count_term_pairs(counters, a, b=None) -> None:
    other = len(b.coeffs) if hasattr(b, "coeffs") else int(bool(b))
    counters["chern.TruncatedPoly.mul.term_pairs"] += len(a.coeffs) * other


def _count_vertices(counters, _result, poly, *_args) -> None:
    v = len(poly.vertices)
    counters["polytope.vertices_validated"] += v
    counters["polytope.vertices_max"] = max(counters["polytope.vertices_max"], v)


def _count_represent(counters, _result, *_args) -> None:
    counters["frobenius.represent.returns"] += 1


def _count_plan(counters, _result, plan, *_args) -> None:
    counters["planner.plan_modifications"] += sum(plan.counts)
    counters["planner.plan_a"] += plan.a


_HOOKS = {
    "frobenius.represent": {"after": _count_represent},
    "planner.verify_plan": {"after": _count_plan},
}
