"""Spans around the public functions of each hyperid module.

The program has no tracing of its own: `installed(tracer)` rebinds each
function below, in every hyperid module namespace that holds it, to a
wrapper that records a span (name, trace id, parent, start, end). Catalog
entries get their `lhs`/`rhs` wrapped through `dataclasses.replace`. Leaving
the context restores every binding.

`to_mp` and the term generators are not wrapped: they run thousands of
times per sample and their spans would swamp the numbers.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    trace_id: str
    parent: int | None  # index of the parent span in Tracer.spans
    start: float
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory; one thread, so one stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.trace_id = ""
        self._open: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """`name` is a span name or a function of the call's arguments;
        `attrs` maps the call's result to span attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            span = Span(label, self.trace_id, self._open[-1] if self._open else None,
                        self.clock())
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._open.pop()
            if attrs is not None:
                span.attrs = attrs(result)
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dataclasses.asdict(s)}) + "\n")


def _q_pochhammer_name(x, qc, n):
    from hyperid.precision import INF

    return "qseries.q_pochhammer_inf" if n is INF else "qseries.q_pochhammer"


def _series_attrs(result):
    return {"terms": result.terms_used, "route": result.method}


# (module, function, span name, attributes of the result)
LAYERS = (
    ("hyperid.accel", "levin_core", "accel.levin_core", lambda r: {"terms": r[2]}),
    ("hyperid.series", "sum_unilateral", "series.sum_unilateral", _series_attrs),
    ("hyperid.series", "sum_bilateral", "series.sum_bilateral", None),
    ("hyperid.qseries", "sum_q_series", "qseries.sum_q_series", _series_attrs),
    ("hyperid.qseries", "q_pochhammer", _q_pochhammer_name, None),
    ("hyperid.qseries", "q_bracket", "qseries.q_bracket", None),
    ("hyperid.exact", "saalschuetz_sides", "exact.saalschuetz_sides", None),
    ("hyperid.exact", "phi_symmetric_terminating_sides",
     "exact.phi_symmetric_terminating_sides", None),
    ("hyperid.exact", "jackson_8phi7_sides", "exact.jackson_8phi7_sides", None),
    ("hyperid.gammafn", "gamma_ratio", "gammafn.gamma_ratio", None),
    ("hyperid.gammafn", "pochhammer", "gammafn.pochhammer", None),
    ("hyperid.catalog", "tolerance_rule", "catalog.tolerance_rule", None),
    ("hyperid.harness", "sample_parameters", "harness.sample_parameters", None),
    ("hyperid.precision", "format_value", "precision.format_value", None),
)


@contextmanager
def installed(tracer: Tracer):
    """Bind the traced wrappers everywhere hyperid refers to the originals."""
    from hyperid import catalog

    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "hyperid" or k.startswith("hyperid."))]
    undo = []
    try:
        for mod_name, fn_name, span_name, attrs in LAYERS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = tracer.wrap(span_name, original, attrs)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        cases = dict(catalog.CATALOG)
        undo.append((catalog.CATALOG, None, cases))
        for ident, case in cases.items():
            catalog.CATALOG[ident] = dataclasses.replace(
                case,
                lhs=tracer.wrap("catalog.lhs", case.lhs),
                rhs=tracer.wrap("catalog.rhs", case.rhs),
            )
        yield tracer
    finally:
        for target, attr, original in reversed(undo):
            if attr is None:
                target.update(original)
            else:
                setattr(target, attr, original)


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        reach = s.start
        for k in sorted(kids, key=lambda c: c.start):
            lo, hi = max(k.start, reach), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def layer_totals(spans):
    """Per span name: calls, failed calls, busy time, self time, terms, routes.

    Busy time and terms count only outermost spans of a name, so a recursive
    layer (psi sums call `sum_q_series` on both halves) is not counted twice.
    """
    selfs = self_times(spans)
    totals = {}
    for i, s in enumerate(spans):
        t = totals.setdefault(s.name, {"calls": 0, "failed": 0, "busy_s": 0.0,
                                       "self_s": 0.0, "terms": 0, "routes": {}})
        t["calls"] += 1
        t["failed"] += s.error is not None
        t["self_s"] += selfs[i]
        route = s.attrs.get("route")
        if route is not None:
            t["routes"][route] = t["routes"].get(route, 0) + 1
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            t["busy_s"] += s.end - s.start
            t["terms"] += s.attrs.get("terms", 0)
    return totals


def layer_metrics(totals, names):
    """Values of the per-layer metrics in `names` that `layer_totals` gives."""
    empty = {"calls": 0, "failed": 0, "busy_s": 0.0, "self_s": 0.0, "terms": 0,
             "routes": {}}
    out = {}
    for name in names:
        if name.startswith("series.route."):
            routes = totals.get("series.sum_unilateral", empty)["routes"]
            out[name] = routes.get(name.rsplit(".", 1)[1].replace("_", "+"), 0)
            continue
        layer, _, field_name = name.rpartition(".")
        if field_name not in ("calls", "busy_s", "self_s", "terms", "fail_ratio"):
            continue
        t = totals.get(layer, empty)
        if field_name == "fail_ratio":
            out[name] = t["failed"] / t["calls"] if t["calls"] else 0.0
        else:
            out[name] = t[field_name]
    return out
