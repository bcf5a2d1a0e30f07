"""In-process span tracer for the traced benchmark run.

The tracer patches ``tiebound`` from the outside; the package itself carries
no tracing code.  While :meth:`Tracer.installed` is active:

* every public function of a ``tiebound`` module (its ``__all__``) is
  replaced, in every ``tiebound`` namespace that binds it, by a wrapper that
  records a span: name, start, end, parent span, command id and the
  parameter point (law kind or ``p``, ``n``, ``ell``, ``a``, ``tol``, ...);
* ``EmpiricalPMF.from_samples`` is wrapped the same way;
* the laws returned by ``law_from_descriptor`` get counting ``pmf``/``cdf``/
  ``pdf``/``quantile`` callables (calls, and points as ``np.size`` of the
  argument) instead of spans, since they run up to 1e5 times per command.

Per-point helpers are neither spanned nor counted: ``order_stat_density``
and ``gap_ratio`` (quadrature integrands) and the scalar target pmfs used by
truncation.  Wrapping them would swamp the timing they are part of.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

MODULES = ("distributions", "maxima", "bounds_discrete", "bounds_continuous",
           "approximants", "montecarlo", "stein", "cli")
PER_POINT = {"order_stat_density", "gap_ratio", "log_pmf", "poisson_pmf", "negbin_pmf"}
LAW_FUNCTIONS = ("pmf", "cdf", "pdf", "quantile")
# scalar arguments recorded as the span's parameter point
POINT_FIELDS = ("n", "ell", "a", "tol", "p", "alpha", "lam", "beta", "j", "k", "size")


def _spec_point(spec) -> dict:
    law = spec.law
    desc = getattr(law, "descriptor", None) or {}
    point = {"law": desc.get("kind", "derived")}
    if "p" in desc:
        point["p"] = desc["p"]
    for name in ("n", "ell", "a"):
        if hasattr(spec, name):
            point[name] = getattr(spec, name)
    return point


def call_point(sig: inspect.Signature, args, kwargs) -> dict:
    """Parameter point of one call: spec fields plus the scalar arguments."""
    point = {}
    try:
        bound = sig.bind_partial(*args, **kwargs).arguments
    except TypeError:
        return point
    for name, value in bound.items():
        if hasattr(value, "law") and hasattr(value, "n"):
            point.update(_spec_point(value))
        elif name == "descriptor" and isinstance(value, dict):
            point["law"] = value.get("kind")
        elif name in POINT_FIELDS and isinstance(value, (int, float)):
            point[name] = value
    return point


class Tracer:
    """Collects spans and law counters; spans stay in memory until written."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.command = None
        self.law_calls = Counter()
        self.law_points = Counter()

    def reset(self):
        self.spans, self._open = [], []
        self.law_calls.clear()
        self.law_points.clear()

    @contextlib.contextmanager
    def span(self, name: str, point: dict):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1]["id"] if self._open else None,
                  "cmd": self.command, "point": point}
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _traced(self, name: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, call_point(sig, args, kwargs)) as record:
                result = fn(*args, **kwargs)
                probs = getattr(result, "probs", None)
                if probs is not None:
                    record["outcomes"] = int(np.size(probs))
            return result

        return traced

    def _counted(self, kind: str, fn):
        calls, points = self.law_calls, self.law_points

        def counted(x):
            calls[kind] += 1
            points[kind] += x.size if isinstance(x, np.ndarray) else np.size(x)
            return fn(x)

        return counted

    def _counting_laws(self, law_from_descriptor):
        def counting_law_from_descriptor(descriptor):
            law = law_from_descriptor(descriptor)
            fields = {f: self._counted(f, getattr(law, f)) for f in LAW_FUNCTIONS
                      if getattr(law, f, None) is not None}
            return dataclasses.replace(law, **fields)

        return counting_law_from_descriptor

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the package's public functions; undo on exit."""
        modules = [sys.modules["tiebound"]] + [sys.modules[f"tiebound.{m}"] for m in MODULES]
        targets = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name)
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or name in PER_POINT):
                    continue
                inner = self._counting_laws(fn) if name == "law_from_descriptor" else fn
                targets[id(fn)] = (fn, self._traced(f"{short}.{name}", inner))
        patched = []
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    patched.append((mod, name, value))
                    setattr(mod, name, targets[id(value)][1])
        empirical = sys.modules["tiebound.montecarlo"].EmpiricalPMF
        from_samples = empirical.__dict__["from_samples"]
        empirical.from_samples = classmethod(
            self._traced("montecarlo.EmpiricalPMF.from_samples", from_samples.__func__))
        try:
            yield
        finally:
            empirical.from_samples = from_samples
            for mod, name, value in patched:
                setattr(mod, name, value)


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]
