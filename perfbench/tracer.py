"""Spans around the public functions of every spiralbox module, for the traced run.

`Tracer.install` replaces each function named in a module's `__all__` by a
wrapper set as the module attribute, so calls made through module globals are
seen too (`bessel_j_zero` -> `bessel_j`, `fit_sigma` -> `lambda_model`,
`richardson_refine` -> `eigenvalues_lowest`, `cli` -> every module).  Spans
stay in memory; the worker writes them out when the round ends.  The timed
run never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from array import array
from pathlib import Path

MODULES = ("specfun", "quantum", "polyene", "fdsolver", "geometry", "svgplot", "cli")

# name -> f(args, result) giving the span's info field
_INFO = {
    "specfun.bessel_j": lambda args, result: int(args[0] >= 100.0),  # order >= 100
    "polyene.fit_sigma": lambda args, result: result.iterations,
}


class Tracer:
    """Records name, start, end, parent span, operation id and info per call.

    Spans are kept in parallel typed arrays (36 bytes a span), since a traced
    round of `tables` records about 2.7 million of them.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")  # index of the enclosing span, -1 at the top
        self.op_id = array("i")
        self.info = array("q")  # -1 when the function has no info
        self.stack = [-1]  # indices of the open spans
        self.op = -1

    def install(self) -> None:
        for mod_name in MODULES:
            module = importlib.import_module(f"spiralbox.{mod_name}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    setattr(module, attr, self._wrap(f"{mod_name}.{attr}", fn))

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        info_of = _INFO.get(name)
        names, start, end, parent, op_id, info = (
            self.name, self.start, self.end, self.parent, self.op_id, self.info)
        stack, clock, tracer = self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parent.append(stack[-1])
            op_id.append(tracer.op)
            info.append(-1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if info_of is not None:
                info[idx] = info_of(args, result)
            return result

        return traced

    def write(self, header: Path) -> None:
        """Write the spans: a JSON header and the raw columns beside it (.bin).

        The columns follow each other in the order of `columns`, each `count`
        native-endian values of its type code (read them back with
        `array.fromfile` or `numpy.fromfile`).  Times are perf_counter seconds.
        """
        columns = [("name", self.name), ("start_s", self.start), ("end_s", self.end),
                   ("parent", self.parent), ("op", self.op_id), ("info", self.info)]
        with open(header.with_suffix(".bin"), "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        header.write_text(json.dumps({
            "names": self.names,
            "count": len(self.name),
            "columns": [[key, col.typecode, col.itemsize] for key, col in columns],
        }), encoding="utf-8")

    def layer_metrics(self) -> dict[str, float]:
        """Per function: calls, inclusive ms (outermost spans only), self ms; plus extras."""
        dur = array("d", (b - a for a, b in zip(self.start, self.end)))
        child = array("d", bytes(8 * len(dur)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, n in enumerate(self.name):
            calls[n] += 1
            own[n] += dur[i] - child[i]
            if not self._has_ancestor(self.parent[i], n):
                incl[n] += dur[i]
        out: dict[str, float] = {}
        for n, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[n]
            out[f"{name}.ms"] = incl[n] * 1e3
            out[f"{name}.self_ms"] = own[n] * 1e3
        out["specfun.bessel_j.order_ge_100.calls"] = sum(
            self.info[i] for i in self._spans_of("specfun.bessel_j"))
        fits = self._spans_of("polyene.fit_sigma")
        out["polyene.fit_sigma.iterations"] = sum(max(self.info[i], 0) for i in fits)
        out["polyene.fit_sigma.first_row_s"] = dur[fits[0]] if fits else 0.0
        later = [dur[i] for i in fits[1:]]
        out["polyene.fit_sigma.later_row_s"] = statistics.median(later) if later else 0.0
        return out

    def _spans_of(self, name: str) -> list[int]:
        if name not in self.names:
            return []
        n = self.names.index(name)
        return [i for i, m in enumerate(self.name) if m == n]

    def _has_ancestor(self, parent: int, name_id: int) -> bool:
        while parent >= 0:
            if self.name[parent] == name_id:
                return True
            parent = self.parent[parent]
        return False
