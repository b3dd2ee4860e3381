"""Span tracing of lclab from outside the library.

Timing wrappers are installed over the public functions of every lclab
module, in every namespace that binds them (``transform.adaptive_quad``,
``shape.k_ratio_values``, the package's re-exports, ...), so a call is
timed whichever name the caller used.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``info`` an optional work count
taken at the same boundary (points, cells, panels, triples, draws).  Spans
stay in memory until the pass ends.  Self time is a span's duration minus
the time its direct children cover; the process is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import json
import math
import time
import types

import numpy as np

LAYERS = ("specfun", "quadrature", "dist", "transform", "shape", "mc", "verify", "cli")

#: Fraction of the peak under which ``transform`` recomputes correlation
#: entries by direct summation (``transform._TAIL_REFINE_FRACTION``).  The
#: benchmark counts output entries under it as a derived tail-polish count.
TAIL_FRACTION = 1e-8

_MARK = "__bench_span__"


class Tracer:
    """Open-span stack plus the finished spans of one pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, fn, info, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, 0.0, 0.0, parent, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if info is not None:
            span[4] = info(args, kwargs, out)
        return out

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"], "spans": self.spans}, fh)


def stride_triples(n: int) -> int:
    """Midpoint triples the shape ladder visits on n nodes (strides 1, 2, 4, ...)."""
    total, j = 0, 1
    while j <= (n - 1) // 2:
        total += n - 2 * j
        j *= 2
    return total


def _size(args, kwargs, out):
    return int(np.size(args[0]))


def _selfdiff(args, kwargs, out):
    v = out.values
    return [args[0].n_cells, int(np.count_nonzero(v < TAIL_FRACTION * v.max()))]


def _one(args, kwargs, out):
    return 1


#: Work count recorded with each span, from its arguments or result.
_INFO = {
    "specfun.k0_values": _size,
    "specfun.k1_values": _size,
    "specfun.log_k0_values": _size,
    "specfun.k_ratio_values": _size,
    "specfun.bessel_k0": _one,
    "specfun.bessel_k1": _one,
    "specfun.log_bessel_k0": _one,
    "specfun.k_ratio": _one,
    "specfun.bessel_k0_quadrature_oracle": _one,
    "specfun.bessel_k1_quadrature_oracle": _one,
    "quadrature.adaptive_quad": lambda a, k, out: out.n_panels,
    "quadrature.integrand": _size,
    "transform.mgf_via_density": lambda a, k, out: out.t,
    "transform.mgf_via_conditioning": lambda a, k, out: out.t,
    "transform.self_difference": _selfdiff,
    "dist.discretize": lambda a, k, out: out.n_cells,
    "shape.check_log_concavity_grid": lambda a, k, out: stride_triples(a[0].n_cells),
    "shape.check_log_convexity_interval": lambda a, k, out: stride_triples(a[3]),
    "shape.check_ratio_monotonicity": lambda a, k, out: a[2] - 1,
    "mc.sample": lambda a, k, out: out.n,
    "mc.ks_statistic": lambda a, k, out: out.n,
    "verify.run_verification": lambda a, k, out: [len(out.steps), sum(not s.passed for s in out.steps)],
}


def _make_wrapper(tracer: Tracer, name: str, fn):
    info = _INFO.get(name)
    call = tracer.call

    if name == "quadrature.adaptive_quad":
        # count and time every integrand evaluation the quadrature makes
        def wrapper(f, *args, **kwargs):
            def integrand(x):
                return call("quadrature.integrand", f, _size, (x,), {})

            return call(name, fn, info, (integrand, *args), kwargs)

    else:

        def wrapper(*args, **kwargs):
            return call(name, fn, info, args, kwargs)

    wrapper.__wrapped__ = fn
    setattr(wrapper, _MARK, name)
    return wrapper


def _namespaces(lclab):
    return [lclab] + [getattr(lclab, layer) for layer in LAYERS]


def _public_functions(ns):
    for attr, obj in list(vars(ns).items()):
        if (
            not attr.startswith("_")
            and isinstance(obj, types.FunctionType)
            and obj.__module__.startswith("lclab.")
        ):
            yield attr, obj


def install(lclab) -> Tracer:
    """Wrap every public lclab function in every namespace that binds it."""
    tracer = Tracer()
    wrappers: dict[int, object] = {}
    for ns in _namespaces(lclab):
        for attr, fn in _public_functions(ns):
            if getattr(fn, _MARK, None) is not None:
                raise RuntimeError(f"{ns.__name__}.{attr} is already wrapped")
            if id(fn) not in wrappers:
                layer = fn.__module__.split(".", 1)[1]
                wrappers[id(fn)] = _make_wrapper(tracer, f"{layer}.{fn.__name__}", fn)
            setattr(ns, attr, wrappers[id(fn)])
    return tracer


def installed_wrappers(lclab) -> list[str]:
    """Names of lclab attributes that currently hold a benchmark wrapper."""
    return [
        f"{ns.__name__}.{attr}"
        for ns in _namespaces(lclab)
        for attr, fn in _public_functions(ns)
        if getattr(fn, _MARK, None) is not None
    ]


def _fit_exponent(points: list[tuple[str, int, float]]) -> float:
    """Shared log-log slope of time against n, one intercept per law."""
    by_law: dict[str, list[tuple[float, float]]] = {}
    for law, n, seconds in points:
        by_law.setdefault(law, []).append((math.log(n), math.log(seconds)))
    sxy = sxx = 0.0
    for pts in by_law.values():
        if len(pts) < 2:
            continue
        mx = sum(p[0] for p in pts) / len(pts)
        my = sum(p[1] for p in pts) / len(pts)
        sxy += sum((p[0] - mx) * (p[1] - my) for p in pts)
        sxx += sum((p[0] - mx) ** 2 for p in pts)
    return sxy / sxx if sxx > 0.0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass.

    ``calls`` count a layer's outermost spans (a specfun span inside
    another specfun span is part of the same call); self times add up over
    every span of the layer.
    """
    spans = tracer.spans
    own = tracer.self_times()
    names = [s[0] for s in spans]
    layer = [n.split(".", 1)[0] for n in names]

    def outer(i):
        p = spans[i][3]
        return p < 0 or layer[p] != layer[i]

    def select(pred):
        return [i for i, n in enumerate(names) if pred(n)]

    def self_s(idx):
        return sum(own[i] for i in idx)

    def info_sum(idx, k=None):
        return sum((spans[i][4] if k is None else spans[i][4][k]) or 0 for i in idx)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m: dict[str, float] = {}

    spec = select(lambda n: n.startswith("specfun."))
    spec_outer = [i for i in spec if outer(i)]
    m["specfun.calls"] = len(spec_outer)
    m["specfun.points"] = info_sum(spec_outer)
    m["specfun.self_s"] = self_s(spec)
    m["specfun.ns_per_point"] = per(m["specfun.self_s"], m["specfun.points"], 1e9)
    m["specfun.oracle_calls"] = len(select(lambda n: n.endswith("_quadrature_oracle")))

    quad = select(lambda n: n == "quadrature.adaptive_quad")
    integ = select(lambda n: n == "quadrature.integrand")
    m["quadrature.calls"] = len(quad)
    m["quadrature.panels"] = info_sum(quad)
    m["quadrature.integrand_evals"] = info_sum(integ)
    m["quadrature.integrand_s"] = sum(spans[i][2] - spans[i][1] for i in integ)
    m["quadrature.self_s"] = self_s(select(lambda n: n.startswith("quadrature.") and n != "quadrature.integrand"))
    # one integrand call per Kronrod panel evaluated
    m["quadrature.us_per_panel"] = per(m["quadrature.self_s"], len(integ), 1e6)

    mgf = select(lambda n: n in ("transform.mgf_via_density", "transform.mgf_via_conditioning"))
    m["transform.mgf.calls"] = len(mgf)
    m["transform.mgf.distinct"] = len({(names[i], spans[i][4]) for i in mgf})
    m["transform.mgf.useful_ratio"] = per(m["transform.mgf.distinct"], m["transform.mgf.calls"])
    m["transform.mgf.self_s"] = self_s(mgf)

    sd = select(lambda n: n == "transform.self_difference")
    m["transform.selfdiff.calls"] = len(sd)
    m["transform.selfdiff.cells"] = info_sum(sd, 0)
    m["transform.selfdiff.self_s"] = self_s(sd)
    # derived: output entries under TAIL_FRACTION of the peak, counted outside lclab
    m["transform.selfdiff.tail_entries"] = info_sum(sd, 1)

    disc = select(lambda n: n == "dist.discretize")
    m["dist.discretize.calls"] = len(disc)
    m["dist.discretize.cells"] = info_sum(disc)
    m["dist.discretize.self_s"] = self_s(disc)

    shp = select(lambda n: n.startswith("shape."))
    m["shape.calls"] = sum(1 for i in shp if outer(i))
    m["shape.triples"] = info_sum(shp)
    m["shape.self_s"] = self_s(shp)
    m["shape.ns_per_triple"] = per(m["shape.self_s"], m["shape.triples"], 1e9)

    draw = select(lambda n: n == "mc.sample")
    ks = select(lambda n: n == "mc.ks_statistic")
    m["mc.sample.calls"] = len(draw)
    m["mc.draws"] = info_sum(draw)
    m["mc.sample.self_s"] = self_s(select(lambda n: n in ("mc.sample", "mc.uniform_stream")))
    m["mc.draws_per_s"] = per(m["mc.draws"], sum(spans[i][2] - spans[i][1] for i in draw))
    m["mc.ks.calls"] = len(ks)
    m["mc.ks.values"] = info_sum(ks)
    m["mc.ks.self_s"] = self_s(select(lambda n: n in ("mc.ks_statistic", "mc.kolmogorov_threshold")))

    ver = select(lambda n: n.startswith("verify."))
    run = select(lambda n: n == "verify.run_verification")
    m["verify.self_s"] = self_s(ver)
    m["verify.steps"] = info_sum(run, 0)
    m["verify.steps_failed"] = info_sum(run, 1)
    cli = select(lambda n: n.startswith("cli."))
    m["cli.calls"] = sum(1 for i in cli if outer(i))
    m["cli.self_s"] = self_s(cli)
    return {k: float(v) for k, v in m.items()}


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Self time per layer, the integrand counted apart from quadrature."""
    out = {layer: 0.0 for layer in LAYERS}
    out["quadrature.integrand"] = 0.0
    for span, own in zip(tracer.spans, tracer.self_times()):
        key = "quadrature.integrand" if span[0] == "quadrature.integrand" else span[0].split(".", 1)[0]
        out[key] += own
    return out


def size_curve_metrics(points) -> dict[str, float]:
    """Self time of ``self_difference`` per ladder point, plus its exponent.

    ``points`` holds (law, cells, nominal half-width, proportional, self
    seconds or None when the point was not run); the exponent is fitted
    over the measured points whose half-width grows with n.
    """
    m = {
        f"transform.selfdiff_s.{law}.n{n}.L{hw:g}": s or 0.0
        for law, n, hw, _, s in points
    }
    m["transform.selfdiff.exponent"] = _fit_exponent(
        [(law, n, s) for law, n, _, prop, s in points if prop and s]
    )
    return m
