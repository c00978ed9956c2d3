"""Per-layer tracing of goodcones, kept in the benchmark's own files.

``Tracer.install`` wraps the listed public functions and methods of every
layer module in every ``goodcones.*`` namespace that binds them (so that
``from .cone import validate`` copies are traced too, and internal calls such
as ``require_valid -> validate`` are seen).  ``uninstall`` restores the
original bindings.  Nothing in ``src/`` knows about it.

Spans ``{name, start, end, parent, op_id}`` are kept in memory in columnar
arrays and written out at the end.  ``exactnum`` is the leaf layer: its
calls are far too many to keep one span each, so per (parent span, function)
they are folded into one span whose duration is the summed time of the
outermost exactnum calls and which carries the call count.  Nested exactnum
calls are counted but not timed again.  A layer's self time is the duration
of its spans minus the time covered by their child spans; the benchmark's
own ``bench.op`` root span per op makes the self times of all layers add up
to the traced op wall time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import types
from array import array
from time import perf_counter

LAYERS = {
    "goodcones.exactnum": "exactnum",
    "goodcones.cone": "cone",
    "goodcones.reeb": "reeb",
    "goodcones.euler": "euler",
    "goodcones.graph": "graph",
    "goodcones.surgery": "surgery",
    "goodcones.construct": "construct",
    "goodcones.construct_support": "construct",
    "goodcones.serial": "serial",
    "goodcones.cli": "cli",
}
LEAF_LAYER = "exactnum"
# Trivial accessors left untraced: their cost stays in the caller's self time.
SKIP_METHODS = {("GoodCone", "normal")}
# QuadNumber arithmetic is the exactnum work the read path does.
QUAD_METHODS = (
    "__init__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__eq__", "__hash__",
    "__lt__", "__le__", "__gt__", "__ge__", "__float__",
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.layer_of: list = []
        self._ids: dict = {}
        # one row per span
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised = set()  # span rows that ended in an exception
        self.returned_none = set()  # span rows whose result was None
        # folded exactnum spans: (parent row, name id) -> [calls, seconds, first start, errors]
        self.folded: dict = {}
        self.top = -1
        self.op_id = -1
        self.leaf_depth = 0
        self._patches: list = []

    # -- names ------------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    # -- spans ------------------------------------------------------------

    def open(self, nid: int) -> int:
        row = len(self.start)
        self.name.append(nid)
        self.parent.append(self.top)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self.top = row
        return row

    def close(self, row: int, parent: int) -> None:
        self.end[row] = perf_counter()
        self.top = parent

    def span_wrapper(self, fn, nid):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.top
            row = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.raised.add(row)
                raise
            finally:
                tracer.close(row, parent)
            if result is None:
                tracer.returned_none.add(row)
            return result

        return traced

    def leaf_wrapper(self, fn, nid):
        tracer = self
        folded = self.folded

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = (tracer.top, nid)
            entry = folded.get(key)
            if entry is None:
                entry = folded[key] = [0, 0.0, perf_counter(), 0]
            entry[0] += 1
            if tracer.leaf_depth:
                tracer.leaf_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.leaf_depth -= 1
            tracer.leaf_depth = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                entry[3] += 1
                raise
            finally:
                entry[1] += perf_counter() - t0
                tracer.leaf_depth = 0

        return traced

    # -- install ----------------------------------------------------------

    def _targets(self, modules):
        """(qualified name, layer, owner, attribute, original) for every
        traced function and method."""
        found = {}
        for mod in modules:
            layer = LAYERS.get(mod.__name__)
            if layer is None:
                continue
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    if not attr.startswith("_"):
                        found[id(obj)] = (f"{layer}.{attr}", layer, obj)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if not isinstance(meth, types.FunctionType):
                            continue
                        public = not mname.startswith("_")
                        quad = obj.__name__ == "QuadNumber" and mname in QUAD_METHODS
                        if (public or quad) and (obj.__name__, mname) not in SKIP_METHODS:
                            yield f"{layer}.{obj.__name__}.{mname}", layer, obj, mname, meth
        for qual, layer, fn in found.values():
            yield qual, layer, None, None, fn

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "goodcones" or n.startswith("goodcones.")]
        wrappers = {}
        for qual, layer, owner, attr, fn in self._targets(modules):
            nid = self.name_id(qual, layer)
            make = self.leaf_wrapper if layer == LEAF_LAYER else self.span_wrapper
            wrapped = make(fn, nid)
            if owner is not None:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
            else:
                wrappers[id(fn)] = (fn, wrapped)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- ops --------------------------------------------------------------

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        return self.open(self.name_id("bench.op", "bench"))

    def end_op(self, row: int) -> None:
        self.close(row, -1)
        self.op_id = -1

    # -- results ----------------------------------------------------------

    def rows(self):
        """Every span as (name id, start, end, parent, op id, calls, raised,
        returned None); folded exactnum spans come after the ordinary ones."""
        for row in range(len(self.start)):
            yield (
                self.name[row], self.start[row], self.end[row], self.parent[row],
                self.op[row], 1, row in self.raised, row in self.returned_none,
            )
        for (parent, nid), (calls, seconds, first, errors) in self.folded.items():
            op = self.op[parent] if parent >= 0 else -1
            yield nid, first, first + seconds, parent, op, calls, errors, False

    def summarize(self, skip_ops=frozenset()):
        """Per traced name (calls, self seconds, errors, None results) and
        per layer (calls, self seconds, errors), over the spans of ops not
        in ``skip_ops``; also the summed wall time of those ops."""
        child = {}
        for row, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + self.end[row] - self.start[row]
        for (parent, _), (_, seconds, _, _) in self.folded.items():
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + seconds
        per_name = {}

        def add(nid, calls, own, errors, nones):
            stats = per_name.setdefault(nid, [0, 0.0, 0, 0])
            stats[0] += calls
            stats[1] += own
            stats[2] += errors
            stats[3] += nones

        op_wall = 0.0
        for row, op in enumerate(self.op):
            if op < 0 or op in skip_ops:
                continue
            duration = self.end[row] - self.start[row]
            add(self.name[row], 1, duration - child.get(row, 0.0),
                int(row in self.raised), int(row in self.returned_none))
            if self.parent[row] < 0:
                op_wall += duration
        for (parent, nid), (calls, seconds, _, errors) in self.folded.items():
            op = self.op[parent] if parent >= 0 else -1
            if op >= 0 and op not in skip_ops:
                add(nid, calls, seconds, errors, 0)
        by_name = {self.names[n]: tuple(v) for n, v in per_name.items()}
        by_layer = {}
        for n, (calls, own, errors, _) in per_name.items():
            acc = by_layer.setdefault(self.layer_of[n], [0, 0.0, 0])
            acc[0] += calls
            acc[1] += own
            acc[2] += errors
        return by_name, by_layer, op_wall

    def write(self, path: str) -> int:
        """Write every span as one JSON object per line (gzip); returns the
        number of spans written."""
        count = 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for nid, start, end, parent, op, calls, raised, none in self.rows():
                fh.write(json.dumps({
                    "name": self.names[nid], "start": round(start, 9), "end": round(end, 9),
                    "parent": parent, "op_id": op, "calls": calls, "errors": int(raised),
                }, separators=(",", ":")))
                fh.write("\n")
                count += 1
        return count
