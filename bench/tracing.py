"""Per-layer spans and counts, taken from outside the library.

The tracer patches the public functions of each layer in the modules that
call them (``from .priced import mincost`` binds ``explorer.mincost``, so
that is the name replaced), records one span per call and counts at the same
boundaries, and restores every original on exit.  Spans are kept in memory
as flat arrays and written out when the benchmark ends.

Span times use ``time.perf_counter_ns``: the program is single-threaded and
CPU-bound, so a span's wall time is its CPU time up to preemption, at a
fifth of the cost of reading the process CPU clock.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

from zonecost import dbm, explorer, inclusion, priced
from zonecost.dbm import NEG_INF, POS_INF

_clock = time.perf_counter_ns

# Span name -> (module or class, attribute) for every patched call boundary.
SPANNED = {
    "explorer.post": [(explorer, "symbolic_post")],
    "priced.delay": [(explorer, "delay_successors")],
    "priced.reset": [(explorer, "reset_successors")],
    "priced.mincost": [(explorer, "mincost"), (priced, "mincost")],
    "inclusion.abstract": [(explorer, "includes")],
    "inclusion.simple": [(explorer, "simple_includes")],
    "inclusion.unpriced": [(inclusion, "unpriced_m_inclusion")],
    "inclusion.facet_reduce": [(inclusion, "facet_reduce")],
    "inclusion.s_value": [(inclusion, "s_value")],
    "dbm.lp": [(priced, "sup_affine"), (priced, "inf_affine"),
               (inclusion, "sup_affine"), (inclusion, "inf_affine"),
               (explorer, "inf_affine")],
    "dbm.intersect": [(dbm.Zone, "intersect"), (dbm.Zone, "intersect_zone")],
}

# Boundaries that are only counted: they are called too often, or are too
# small, for a span to say more than its own overhead.
COUNTED = {
    "inclusion.cells": [(inclusion, "restrict_y")],
    "inclusion.preorder_calls": [(inclusion, "clock_preorder")],
    "inclusion.lower_bound_calls": [(inclusion, "is_lower_bounded")],
    "dbm.facets_calls": [(dbm.Zone, "facets")],
    "dbm.closures": [(dbm, "_close")],
}


class Tracer:
    """Spans (name, start, end, parent) plus named counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` updates counts."""
        nid = self._id(name)
        stack, span_name, start, end, parent = (
            self._stack, self.span_name, self.start, self.end, self.parent)

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            start[idx] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = _clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn, after=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run one call from the benchmark's own code inside a span."""
        return self.span(name, fn)(*args, **kwargs)

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        c = self.counts

        def post(args, result):
            c["explorer.edges_scanned"] += len(args[0].edges)
            c["explorer.successors"] += len(result)

        def pieces(args, result):
            c["priced.pieces"] += len(result)

        def lp(args, result):
            if result[0] in (POS_INF, NEG_INF):
                c["dbm.lp_unbounded"] += 1

        def unpriced(args, result):
            if not result:
                c["inclusion.unpriced_rejects"] += 1

        after = {"explorer.post": post, "priced.delay": pieces, "priced.reset": pieces,
                 "dbm.lp": lp, "inclusion.unpriced": unpriced}
        for name, sites in SPANNED.items():
            for owner, attr in sites:
                self._patch(owner, attr, self.span(name, owner.__dict__[attr], after.get(name)))
        for name, sites in COUNTED.items():
            for owner, attr in sites:
                self._patch(owner, attr, self.counted(name, owner.__dict__[attr]))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reduction -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its direct
        children; spans nest properly because the program is single-threaded.
        """
        n = len(self.span_name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            d = self.end[i] - self.start[i]
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += d / 1e9
            t["self_s"] += (d - child[i]) / 1e9
        return out

    def write(self, path: Path) -> None:
        """All spans as parallel arrays: name index, start/end ns, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            json.dump({
                "names": self.names,
                "name": self.span_name.tolist(),
                "start_ns": self.start.tolist(),
                "end_ns": self.end.tolist(),
                "parent": self.parent.tolist(),
                "counts": dict(self.counts),
            }, f, separators=(",", ":"))
