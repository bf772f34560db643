"""In-memory span tracing of qchar's layers, installed from outside the package.

Tracer.install() wraps each traced qchar function and rebinds the wrapper in
every qchar namespace that holds the original, because affine, identities,
cli and the package root import qseries and quadform names directly.
uninstall() puts the originals back.  Nothing under src/ is edited.

A span is [name, start, end, parent, case], with the parent as an index into
the span list (-1 at top level) and case the index of the verify that caused
it.  Some spans carry exact work counts.  Computing those counts runs on a
paused clock, so span times exclude them.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import defaultdict

import qchar.affine
import qchar.cli
import qchar.identities
import qchar.qseries
import qchar.quadform

VERIFY_SPANS = ("identities.verify_identity", "affine.verify_proposition")
BUILD_SPAN = "qseries.driver.build"
# Lattice dimensions the three workloads reach: the sweep's character
# numerators span 0..6, the classical identities 1, the families 3, 7, 11.
LATTICE_DIMS = (0, 1, 2, 3, 4, 5, 6, 7, 11)


def _bits(coeffs) -> int:
    return max(abs(c).bit_length() for c in coeffs)


def _mul_work(args, result):
    a, b = args
    return {
        "pairs": len(a.coeffs) * len(b.coeffs),
        "bits": max(_bits(a.coeffs), _bits(b.coeffs)),
    }


def _inv_work(args, result):
    return {"len_sq": len(args[0].coeffs) ** 2}


def _phi_work(args, result):
    return {"slots": len(result.coeffs)}


# Captured at import, before any Tracer rebinds it, so counting stays untraced.
_lattice_sum_series = qchar.quadform.lattice_sum_series


def _points_work(args, result):
    """Lattice points reached: the coefficient sum of the unweighted expansion."""
    s, bound = args
    if s.weight is not None:
        result = _lattice_sum_series(dataclasses.replace(s, weight=None), bound)
    return {"points": sum(result.coeffs), "dim": s.l}


# (module, attribute, span name, work counter or None)
_TARGETS = (
    (qchar.qseries, "phi_series", "qseries.phi_series", _phi_work),
    (qchar.qseries, "series_mul", "qseries.series_mul", _mul_work),
    (qchar.qseries, "series_inv", "qseries.series_inv", _inv_work),
    (qchar.qseries, "series_pow", "qseries.series_pow", None),
    (qchar.qseries, "product_series", "qseries.product_series", None),
    (qchar.qseries, "series_compare", "qseries.series_compare", None),
    (qchar.quadform, "lattice_sum_series", "quadform.lattice_sum_series", _points_work),
    (qchar.affine, "specialized_character_series", "affine.specialized_character_series", None),
    (qchar.affine, "trace_series", "affine.trace_series", None),
    (qchar.affine, "verify_proposition", "affine.verify_proposition", None),
    (qchar.identities, "verify_identity", "identities.verify_identity", None),
    (qchar.cli, "main", "cli.main", None),
)


class Tracer:
    """Spans and work counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.work: dict[int, dict] = {}
        self.rebuilds: set[int] = set()
        self.case = -1
        self._stack: list[int] = []
        self._paused = 0.0
        self._undo: list[tuple[object, str, object]] = []

    def _now(self) -> float:
        return time.perf_counter() - self._paused

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._now(), 0.0, parent, self.case])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self._now()
        self._stack.pop()

    def _wrap(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if work is not None:
                start = time.perf_counter()
                tracer.work[idx] = work(args, result)
                tracer._paused += time.perf_counter() - start
            return result

        return traced

    def _wrap_driver(self, fn):
        """Wrap _compare_builders so every side build it makes is a span.

        The first build of each side is the initial one; every later build
        of the same side is a rebuild of the driver's settling loop.
        """
        tracer = self

        def side(make):
            calls = 0

            def build(order):
                nonlocal calls
                idx = tracer._open(BUILD_SPAN)
                if calls:
                    tracer.rebuilds.add(idx)
                calls += 1
                try:
                    return make(order)
                finally:
                    tracer._close(idx)

            return build

        @functools.wraps(fn)
        def traced(make_lhs, make_rhs, order):
            return fn(side(make_lhs), side(make_rhs), order)

        return traced

    def install(self) -> None:
        wrappers = {}
        for module, attr, name, work in _TARGETS:
            original = getattr(module, attr)
            wrappers[id(original)] = self._wrap(name, original, work)
        driver = qchar.qseries._compare_builders
        wrappers[id(driver)] = self._wrap_driver(driver)
        for modname, module in list(sys.modules.items()):
            if modname != "qchar" and not modname.startswith("qchar."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Derive the per-layer metrics of one traced pass as {name: (value, unit)}.

    Every metric whose unit is not "s" is an exact count that must repeat on
    every pass.  A layer's `.s` is the summed duration of its outermost spans
    (a recursive call is not counted twice); `.self_s` is the duration minus
    the time its child spans cover.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def outermost(i: int) -> bool:
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return False
            p = spans[p][3]
        return True

    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_time[name] += end - start - child_time[i]
        if outermost(i):
            total[name] += end - start

    sums = defaultdict(int)
    bits = 0
    dim_time = defaultdict(float)
    for i, w in tracer.work.items():
        bits = max(bits, w.get("bits", 0))
        for key in ("pairs", "len_sq", "slots", "points"):
            sums[key] += w.get(key, 0)
        if "dim" in w:
            dim_time[w["dim"]] += spans[i][2] - spans[i][1]
            sums[f"dim{w['dim']}.points"] += w["points"]

    verify_spans = {i for i, s in enumerate(spans) if s[0] in VERIFY_SPANS}
    builds = sum(1 for s in spans if s[0] == BUILD_SPAN and s[3] in verify_spans)

    out: dict[str, tuple[float, str]] = {
        "phi_series.s": (total["qseries.phi_series"], "s"),
        "phi_series.slots": (sums["slots"], "count"),
        "series_mul.s": (total["qseries.series_mul"], "s"),
        "series_mul.calls": (calls["qseries.series_mul"], "count"),
        "series_mul.pairs": (sums["pairs"], "count"),
        "series_mul.max_bits": (bits, "bits"),
        "series_inv.s": (total["qseries.series_inv"], "s"),
        "series_inv.calls": (calls["qseries.series_inv"], "count"),
        "series_inv.len_sq": (sums["len_sq"], "count"),
        "series_pow.calls": (calls["qseries.series_pow"], "count"),
        "product_series.s": (total["qseries.product_series"], "s"),
        "series_compare.s": (total["qseries.series_compare"], "s"),
        "lattice_sum_series.s": (total["quadform.lattice_sum_series"], "s"),
        "lattice_sum_series.points": (sums["points"], "count"),
    }
    for dim in LATTICE_DIMS:
        out[f"lattice_sum_series.dim{dim}.s"] = (dim_time[dim], "s")
        out[f"lattice_sum_series.dim{dim}.points"] = (sums[f"dim{dim}.points"], "count")
    for name in ("trace_series", "specialized_character_series"):
        out[f"{name}.self_s"] = (self_time[f"affine.{name}"], "s")
        out[f"{name}.calls"] = (calls[f"affine.{name}"], "count")
    out["qseries.driver.builds_per_verify"] = (
        builds / max(len(verify_spans), 1),
        "builds/verify",
    )
    out["qseries.driver.rebuild_s"] = (
        sum((spans[i][2] - spans[i][1] for i in tracer.rebuilds), 0.0),
        "s",
    )
    for name in ("identities.verify_identity", "affine.verify_proposition", "cli.main"):
        out[f"{name}.self_s"] = (self_time[name], "s")
    return out
