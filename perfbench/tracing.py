"""In-memory span tracing of the qprolate layers, from outside the package.

Each traced function is replaced, in every module that binds it, by a
wrapper that records a span (name, start, end, parent span, op).  The
package imports several functions by name (``qfourier``, ``pswf`` and
``sampling`` all bind ``jv_at_exponent``), so patching only the defining
module would miss most calls.  Spans are kept in a list while the run
lasts and aggregated (or written out) when it ends.  Standard library only.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (defining module, attribute, span name); the attribute is rebound in
# every ``qprolate`` module that holds the same function object.
TRACED = [
    ("qprolate.qbessel", "jv_at_exponent", "qbessel.jv_at_exponent"),
    ("qprolate.qbessel", "jv_array", "qbessel.jv_array"),
    ("qprolate.qfourier", "make_plan", "qfourier.make_plan"),
    ("qprolate.qfourier", "fqv_transform", "qfourier.fqv_transform"),
    ("qprolate.qfourier", "translate", "qfourier.translate"),
    ("qprolate.qfourier", "convolve", "qfourier.convolve"),
    ("qprolate.pswf", "compute_basis", "pswf.compute_basis"),
    ("qprolate.pswf", "build_operator_matrix", "pswf.build_operator_matrix"),
    ("qprolate.pswf", "eigendecompose", "pswf.eigendecompose"),
    ("qprolate.sampling", "project", "sampling.project"),
    ("qprolate.sampling", "reconstruct", "sampling.reconstruct"),
    ("mpmath", "eigsy", "mpmath.eigsy"),
]

# Per-op figures reported from the spans: (span name, statistic).
LAYER_FIGURES = [
    ("pswf.compute_basis", "total_s"),
    ("pswf.build_operator_matrix", "total_s"),
    ("pswf.eigendecompose", "self_s"),
    ("mpmath.eigsy", "total_s"),
    ("mpmath.eigsy", "calls"),
    ("qfourier.make_plan", "total_s"),
    ("qfourier.fqv_transform", "calls"),
    ("qfourier.fqv_transform", "self_s"),
    ("qfourier.translate", "self_s"),
    ("qfourier.convolve", "self_s"),
    ("sampling.project", "self_s"),
    ("sampling.reconstruct", "calls"),
    ("sampling.reconstruct", "self_s"),
    ("qbessel.jv_at_exponent", "calls"),
    ("qbessel.jv_at_exponent", "self_s"),
    ("qbessel.jv_array", "calls"),
    ("qbessel.jv_array", "self_s"),
    ("cli.main", "total_s"),
]


class Tracer:
    """Span recorder; records only while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, op]
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        self.names.append(name)
        nid = len(self.names) - 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = [nid, 0.0, 0.0, parent, self.op]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED at each of its bindings."""
        for modname, attr, name in TRACED:
            mod = sys.modules.get(modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            traced = self.wrap(orig, name)
            holders = [sys.modules[modname]] + [
                m
                for key, m in list(sys.modules.items())
                if m is not None and (key == "qprolate" or key.startswith("qprolate."))
            ]
            for m in holders:
                if getattr(m, attr, None) is orig:
                    setattr(m, attr, traced)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


def aggregate(dump: dict) -> dict[str, dict[str, float]]:
    """Total time, self time (span minus its child spans) and call count
    per span name."""
    names, spans = dump["names"], dump["spans"]
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, dict[str, float]] = {}
    for i, (nid, t0, t1, _, _) in enumerate(spans):
        acc = out.setdefault(names[nid], {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        acc["total_s"] += t1 - t0
        acc["self_s"] += t1 - t0 - child[i]
        acc["calls"] += 1
    return out


def merge(aggs) -> dict[str, dict[str, float]]:
    """Sum of several ``aggregate`` results."""
    out: dict[str, dict[str, float]] = {}
    for agg in aggs:
        for name, stats in agg.items():
            acc = out.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                acc[key] += value
    return out


def cache_stats() -> tuple[int, int] | None:
    """(hits, misses) of the lattice-exponent cache, if the program exposes them."""
    cached = getattr(sys.modules.get("qprolate.qbessel"), "_jv_exp_cached", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


def layer_metrics(agg: dict, ops: int, cache: tuple[int, int] | None,
                  import_s: float) -> dict[str, dict]:
    """Per-op layer figures in the benchmark's result format; the cache hit
    ratio is left out when the program does not expose its statistics."""
    metrics = {}
    for name, stat in LAYER_FIGURES:
        value = agg.get(name, {}).get(stat, 0) / ops
        unit = "count" if stat == "calls" else "s"
        metrics[f"{name}.{stat}"] = {"value": value, "unit": unit}
    if cache is not None:
        hits, misses = cache
        ratio = hits / (hits + misses) if hits + misses else 0.0
        metrics["qbessel.cache_hit_ratio"] = {"value": ratio, "unit": "ratio"}
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    return metrics


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)
