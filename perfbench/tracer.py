"""Spans recorded by the benchmark around the package's public functions.

Nothing inside the package is edited: ``instrument`` replaces, in every
loaded ``arithfractal`` module, each reference to a chosen public function
with a wrapper that records a span, so calls made by the CLI and calls
made between modules are both seen.  Spans stay in memory as
``[name, start, end, parent, attrs]`` lists and are written out at the end.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from typing import Callable, Optional


def peak_rss_mib() -> float:
    """Peak resident set size of this process image so far, in MiB.

    VmHWM starts afresh at exec; ru_maxrss (the fallback) also holds the
    resident size of the parent at fork, so it would depend on the launcher.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span_open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def span_close(self, index: int, attrs: Optional[dict] = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = attrs
        self._stack.pop()

    def wrap(self, name, fn: Callable, describe: Optional[Callable] = None) -> Callable:
        """``name`` is a string or ``name(args, kwargs)``; ``describe(args,
        kwargs, result)`` returns the span's attributes."""
        naming = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.span_open(naming(args, kwargs))
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs = describe(args, kwargs, result)
                return result
            finally:
                self.span_close(index, attrs)

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def _arg(args, kwargs, position: int, keyword: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(keyword, default)


def _rss(args, kwargs, result) -> dict:
    return {"rss_mib": peak_rss_mib()}


def _bag(args, kwargs, result) -> dict:
    return {"points": len(result), "rss_mib": peak_rss_mib()}


def _audit(args, kwargs, result) -> dict:
    return {
        "window_points": result.total_points,
        "covered": result.covered_count,
        "overlaps": result.overlap_count,
        "uncovered": result.uncovered_count,
        "rss_mib": peak_rss_mib(),
    }


def _membership(args, kwargs, result) -> dict:
    return {"fallback": result.via_fallback}


def _height(args, kwargs, result) -> dict:
    return {"value": result.value, "doublings": result.doublings}


def _census(args, kwargs, result) -> dict:
    return {"count": result}


# (module, function, span name or naming function, describe)
TARGETS = (
    ("spaces", "load_system", "spaces.load_system", None),
    ("spaces", "validate_system", "spaces.validate_system", None),
    ("enumeration", "enumerate_system", "enumeration.enumerate_system", _bag),
    (
        "enumeration",
        "audit_exactness",
        lambda a, k: "enumeration.audit_exactness." + _arg(a, k, 2, "window", "orbit"),
        _audit,
    ),
    (
        "enumeration",
        "is_member",
        lambda a, k: "enumeration.is_member." + a[0].space,
        _membership,
    ),
    ("enumeration", "replay_certificate", "enumeration.replay_certificate", None),
    ("enumeration", "curve_intersection_probe", "enumeration.curve_intersection_probe", None),
    ("growth", "counting_function", "growth.counting_function", None),
    ("growth", "fit_growth_exponent", "growth.fit_growth_exponent", None),
    ("growth", "lemma_bound_check", "growth.lemma_bound_check", None),
    ("dimension", "solve_dimension", "dimension.solve_dimension", None),
    (
        "heights",
        "projective_census",
        lambda a, k: f"heights.projective_census.n{_arg(a, k, 0, 'n')}",
        _census,
    ),
    ("elliptic", "canonical_height", "elliptic.canonical_height", _height),
    ("elliptic", "neron_count", "elliptic.neron_count", None),
    ("approximation", "approximants", "approximation.approximants", None),
    (
        "approximation",
        "approximation_exponent_profile",
        "approximation.approximation_exponent_profile",
        None,
    ),
    ("polynomials", "parse_polynomial", "polynomials.parse_polynomial", None),
)


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target in every loaded arithfractal module; returns undo."""
    import arithfractal.cli  # noqa: F401  (loads every module that holds references)
    from arithfractal.enumeration import PointBag

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "arithfractal"]
    undo = []
    for module_name, func_name, span_name, describe in TARGETS:
        original = getattr(sys.modules[f"arithfractal.{module_name}"], func_name)
        wrapper = tracer.wrap(span_name, original, describe)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    entries = vars(PointBag)["entries"]
    PointBag.entries = property(
        tracer.wrap("enumeration.PointBag.entries", entries.fget, _rss)
    )
    undo.append((PointBag, "entries", entries))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
