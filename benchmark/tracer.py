"""Span tracer that measures `voa`'s layers from outside the package.

It wraps public names and class methods at each layer boundary. A
function name is rebound in every `voa` module that holds a reference to
it, because modules import each other's functions with `from ... import`
and rebinding only the defining module would miss those calls.

Spans stay in memory as four parallel arrays (name id, parent index,
start, end) until the run ends. A span's self time is its duration minus
the durations of its direct children; spans of one thread nest, so the
children's intervals are disjoint and lie inside the parent's.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (span name, module, attribute); "Class.method" attributes are wrapped on
# the class, plain attributes are rebound wherever `voa` modules hold them.
TARGETS = (
    ("scalars.mul", "voa.scalars", "Scalar.__mul__"),
    ("scalars.mul", "voa.scalars", "Scalar.__rmul__"),
    ("scalars.add", "voa.scalars", "Scalar.__add__"),
    ("scalars.add", "voa.scalars", "Scalar.__radd__"),
    ("scalars.inverse", "voa.scalars", "Scalar.inverse"),
    ("state_space.vector_add", "voa.state_space", "Vector.__add__"),
    ("state_space.vector_scale", "voa.state_space", "Vector.scale"),
    ("vertex_engine.kernel", "voa.vertex_engine", "_mono_products"),
    ("vertex_engine.vertex_mode", "voa.vertex_engine", "vertex_mode"),
    ("vertex_engine.vertex_window", "voa.vertex_engine", "vertex_window"),
    ("vertex_engine.virasoro_apply", "voa.vertex_engine", "virasoro_apply"),
    ("vertex_engine.heis_apply", "voa.vertex_engine", "heis_apply"),
    ("linalg.echelon_insert", "voa.linalg", "EchelonSpan.insert"),
    ("linalg.operator_kernel", "voa.linalg", "operator_kernel"),
    ("structure_analysis.close_subalgebra", "voa.structure_analysis", "close_subalgebra"),
    ("structure_analysis.certify_virasoro_vector", "voa.structure_analysis", "certify_virasoro_vector"),
    ("structure_analysis.verify_w_tensor_split", "voa.structure_analysis", "verify_w_tensor_split"),
    ("structure_analysis.fixed_point_subspace", "voa.structure_analysis", "fixed_point_subspace"),
    ("cli.run_suite", "voa.cli", "run_suite"),
    ("cli.axiom_report", "voa.cli", "axiom_report"),
    ("cli.emit", "voa.cli", "emit"),
)

# spans whose result says whether the call did useful work: an echelon
# insert is useful when it stores a row (returns something other than None)
USEFUL = {"linalg.echelon_insert": lambda result: result is not None}

KERNEL = ("voa.vertex_engine", "_mono_products")


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.useful: dict = {}
        self.missing: list = []
        self._stack: list = []
        self._undo: list = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = owner and owner.__dict__.get(method)
                if original is None:
                    self.missing.append(name)
                    continue
                self._rebind(owner, method, self._wrap(name, original))
            else:
                original = getattr(module, attr, None)
                if original is None:
                    # a later engine may drop the name; omit its metrics
                    self.missing.append(name)
                    continue
                wrapped = self._wrap(name, original)
                for holder in list(sys.modules.values()):
                    holder_name = getattr(holder, "__name__", "")
                    if holder_name.split(".")[0] != "voa":
                        continue
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._rebind(holder, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _rebind(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        useful_of = USEFUL.get(name)
        if useful_of is not None:
            self.useful.setdefault(name, 0)

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if useful_of is not None and useful_of(result):
                self.useful[name] += 1
            return result

        return traced

    # -- reading ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total_s (outermost spans only) and self_s."""
        count = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        duration = [self.span_end[i] - self.span_start[i] for i in range(count)]
        covered = [0.0] * count
        for i in range(count):
            p = parents[i]
            if p >= 0:
                covered[p] += duration[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            entry = stats[self.names[names[i]]]
            entry["calls"] += 1
            entry["self_s"] += duration[i] - covered[i]
            p = parents[i]
            while p >= 0 and names[p] != names[i]:
                p = parents[p]
            if p < 0:  # not nested in a span of the same name
                entry["total_s"] += duration[i]
        for name, hits in self.useful.items():
            stats[name]["useful"] = hits
        return stats

    def dump(self, path) -> None:
        """Write the span arrays: a header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": [
                ["name", self.span_name.typecode],
                ["parent", self.span_parent.typecode],
                ["start", self.span_start.typecode],
                ["end", self.span_end.typecode],
            ],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(handle)


def kernel_cache():
    """The kernel's lru_cache (read after Tracer.uninstall), or None once
    the engine no longer has it."""
    fn = getattr(importlib.import_module(KERNEL[0]), KERNEL[1], None)
    return fn if hasattr(fn, "cache_info") else None
