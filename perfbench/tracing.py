"""Span tracer for the traced benchmark run.

Wrappers are installed around the package's public layer functions only
while one traced request runs, and removed right after it.  ``from .x
import f`` copies bindings, so a wrapper replaces the function on every
``darboux3`` module that binds it, not only on the module defining it;
otherwise internal calls would escape the trace.

Each call records a span: name, start, end, parent span and request id,
plus a small per-function detail (point counts, cache keys, profile
statistics).  Spans stay in memory; the runner writes them out when the
run ends.  Self time is a span's duration minus the time its child spans
cover (calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np


def _size(value) -> int:
    return int(np.size(value))


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _profile_detail(args, kwargs, prof):
    params, n = args[0], args[1]
    key = (params.omega, params.lam, n, _arg(args, kwargs, 2, "refine", 1))
    norm = 2.0 * float(prof.weights @ prof.gamma)
    return {"key": key, "p_nodes": len(prof.p), "half_width": prof.grid.half_width,
            "norm_dev": abs(norm - 1.0)}


def _table_margin(args, kwargs, report):
    margins = [abs(c.computed - c.reference) / c.tolerance for c in report.cells if c.gating]
    return {"margin": max(margins, default=0.0)}


# (defining module, function, detail(args, kwargs, result) -> dict | None)
TRACED = (
    ("cli", "main", None),
    ("tables", "verify_table", _table_margin),
    ("uncertainty", "xi_renyi", lambda a, k, r: {"analytic": r.position_method == "analytic"}),
    ("uncertainty", "xi_tsallis", lambda a, k, r: {"analytic": r.position_method == "analytic"}),
    ("quadrature", "momentum_profile", _profile_detail),
    ("quadrature", "entropic_moment_numeric",
     lambda a, k, r: {"space": _arg(a, k, 3, "space", "position")}),
    ("quadrature", "shannon_numeric", None),
    ("quadrature", "fourier_transform", lambda a, k, r: {"points": _size(a[3])}),
    ("position_entropy", "expansion_coefficients",
     lambda a, k, r: {"key": (a[0], a[1], a[2], k.get("budget"))}),
    ("position_entropy", "log_entropic_moment", None),
    ("model", "wavefunction", lambda a, k, r: {"points": _size(a[2])}),
    ("model", "density_position", lambda a, k, r: {"points": _size(a[2])}),
    ("specfun", "hermite_sign_logabs", lambda a, k, r: {"points": _size(a[1])}),
    ("specfun", "hermite", None),
    ("specfun", "dawson_vec", lambda a, k, r: {"points": _size(a[0])}),
    ("strong_nonlinear", "density_critical_points", None),
    ("strong_nonlinear", "g_series_transform", None),
    ("strong_nonlinear", "bifurcation_threshold", None),
    ("strong_nonlinear", "approx_momentum_closed", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "child_s", "detail")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.child_s = 0.0
        self.detail = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_record(self, index: int) -> dict:
        detail = self.detail
        if detail and "key" in detail:
            detail = {**detail, "key": list(detail["key"])}
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "request": self.request, "detail": detail}


class Tracer:
    """Collects spans for traced requests of one benchmark run."""

    def __init__(self, modules: dict):
        # modules: short name -> module, for every darboux3 module
        self.modules = modules
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = None
        self._installed: list[tuple] = []

    def _wrap(self, name, fn, detail):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = Span(name, time.perf_counter(), parent, self._request)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.end - span.start
            if detail is not None:
                span.detail = detail(args, kwargs, result)
            return result

        return traced

    def install(self, request_id: int) -> None:
        self._request = request_id
        for owner, fname, detail in TRACED:
            original = getattr(self.modules[owner], fname)
            wrapper = self._wrap(f"{owner}.{fname}", original, detail)
            for module in self.modules.values():
                if getattr(module, fname, None) is original:
                    setattr(module, fname, wrapper)
                    self._installed.append((module, fname, original))

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._installed):
            setattr(module, fname, original)
        self._installed.clear()
        self._request = None

    def records(self) -> list[dict]:
        return [s.as_record(i) for i, s in enumerate(self.spans)]


def _reuse_share(spans: list[Span]) -> float:
    if not spans:
        return 0.0
    seen = set()
    reused = 0
    for s in spans:
        key = (s.request, s.detail["key"])
        reused += key in seen
        seen.add(key)
    return reused / len(spans)


def layer_metrics(tracer: Tracer, traced_s: list[float], untraced_s: list[float],
                  cli_rows: int) -> dict[str, float]:
    """Per-layer metrics of one traced round (totals over the round)."""
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def detailed(name):  # a call that raised records no detail
        return [s for s in spans(name) if s.detail is not None]

    def calls(name):
        return float(len(spans(name)))

    def self_s(name):
        return sum(s.self_s for s in spans(name))

    def points(name):
        return float(sum(s.detail["points"] for s in detailed(name)))

    def ns_per_point(name):
        pts = points(name)
        return 1e9 * self_s(name) / pts if pts else 0.0

    m: dict[str, float] = {}
    prof = detailed("quadrature.momentum_profile")
    nodes = [s.detail["p_nodes"] for s in prof]
    m["quadrature.momentum_profile.calls"] = calls("quadrature.momentum_profile")
    m["quadrature.momentum_profile.self_s"] = self_s("quadrature.momentum_profile")
    m["quadrature.momentum_profile.reuse_share"] = _reuse_share(prof)
    m["quadrature.momentum_profile.p_nodes_p50"] = float(statistics.median(nodes)) if nodes else 0.0
    m["quadrature.momentum_profile.p_nodes_max"] = float(max(nodes, default=0))
    m["quadrature.momentum_profile.half_width_max"] = max(
        (s.detail["half_width"] for s in prof), default=0.0)
    m["quadrature.momentum_profile.norm_dev_max"] = max(
        (s.detail["norm_dev"] for s in prof), default=0.0)
    total = sum(traced_s)
    m["quadrature.momentum_profile.time_share"] = (
        sum(s.duration for s in spans("quadrature.momentum_profile")) / total if total else 0.0)

    emn = detailed("quadrature.entropic_moment_numeric")
    m["quadrature.entropic_moment_numeric.calls"] = calls("quadrature.entropic_moment_numeric")
    m["quadrature.entropic_moment_numeric.position_s"] = sum(
        s.duration for s in emn if s.detail["space"] == "position")
    m["quadrature.entropic_moment_numeric.momentum_s"] = sum(
        s.duration for s in emn if s.detail["space"] == "momentum")
    m["quadrature.shannon_numeric.self_s"] = self_s("quadrature.shannon_numeric")
    m["quadrature.fourier_transform.calls"] = calls("quadrature.fourier_transform")
    m["quadrature.fourier_transform.points"] = points("quadrature.fourier_transform")
    m["quadrature.fourier_transform.self_s"] = self_s("quadrature.fourier_transform")

    coeff = detailed("position_entropy.expansion_coefficients")
    m["position_entropy.expansion_coefficients.calls"] = calls(
        "position_entropy.expansion_coefficients")
    m["position_entropy.expansion_coefficients.self_s"] = self_s(
        "position_entropy.expansion_coefficients")
    m["position_entropy.expansion_coefficients.reuse_share"] = _reuse_share(coeff)
    m["position_entropy.log_entropic_moment.calls"] = calls("position_entropy.log_entropic_moment")
    m["position_entropy.log_entropic_moment.self_s"] = self_s("position_entropy.log_entropic_moment")

    for name in ("model.wavefunction", "model.density_position"):
        m[f"{name}.points"] = points(name)
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.ns_per_point"] = ns_per_point(name)
    for name in ("specfun.hermite_sign_logabs", "specfun.dawson_vec"):
        m[f"{name}.points"] = points(name)
        m[f"{name}.self_s"] = self_s(name)
    m["specfun.hermite.calls"] = calls("specfun.hermite")
    m["specfun.hermite.self_s"] = self_s("specfun.hermite")

    for fname in ("density_critical_points", "g_series_transform",
                  "bifurcation_threshold", "approx_momentum_closed"):
        name = f"strong_nonlinear.{fname}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)

    xi = detailed("uncertainty.xi_renyi") + detailed("uncertainty.xi_tsallis")
    for name in ("uncertainty.xi_renyi", "uncertainty.xi_tsallis"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["uncertainty.analytic_share"] = (
        sum(s.detail["analytic"] for s in xi) / len(xi) if xi else 0.0)

    tables = detailed("tables.verify_table")
    m["tables.verify_table.calls"] = calls("tables.verify_table")
    m["tables.verify_table.self_s"] = self_s("tables.verify_table")
    m["tables.verify_table.margin_max"] = max((s.detail["margin"] for s in tables), default=0.0)

    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.main.rows"] = float(cli_rows)
    m["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    return {name: float(value) for name, value in m.items()}
