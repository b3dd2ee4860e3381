"""Adaptive Gauss-Kronrod quadrature (7/15 pair).

Each panel is evaluated with the 15-point Kronrod extension of 7-point
Gauss; the G7/K15 discrepancy drives a QUADPACK-style error estimate and
the worst panel is bisected until the global estimate meets the requested
tolerance.  Integrands must accept a float ndarray and return one of the
same shape.  Kronrod nodes are strictly interior, so integrable endpoint
singularities are never sampled directly; pass interior singular points
via ``points`` so panels are split exactly there.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import NonConvergenceError

# 15-point Kronrod abscissae (positive half) and weights, with the embedded
# 7-point Gauss weights on the odd-indexed abscissae.  Classic QUADPACK
# dqk15 constants.
_XGK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_NODES = np.array([-x for x in _XGK_HALF[:-1]] + [0.0] + [x for x in reversed(_XGK_HALF[:-1])])
_WGK = np.array(list(_WGK_HALF[:-1]) + [_WGK_HALF[-1]] + list(reversed(_WGK_HALF[:-1])))
_WG = np.zeros(15)
_WG[1:14:2] = list(_WG_HALF[:-1]) + [_WG_HALF[-1]] + list(reversed(_WG_HALF[:-1]))

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    n_panels: int


def kronrod_panel(f: Callable, a: float, b: float) -> tuple[float, float]:
    """Integrate one panel; return (K15 estimate, error estimate)."""
    center = 0.5 * (a + b)
    halfwidth = 0.5 * (b - a)
    x = center + halfwidth * _NODES
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError("integrand must return an array matching its input shape")
    if not np.all(np.isfinite(y)):
        raise ValueError(f"integrand not finite inside panel [{a!r}, {b!r}]")
    resk = halfwidth * float(_WGK @ y)
    resg = halfwidth * float(_WG @ y)
    resabs = halfwidth * float(_WGK @ np.abs(y))
    mean = resk / (b - a)
    resasc = halfwidth * float(_WGK @ np.abs(y - mean))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    # rounding floor: a few ulp of the absolute-value integral (QUADPACK
    # uses 50 eps, too pessimistic for the smooth positive integrands here)
    err = max(err, 4.0 * _EPS * resabs)
    return resk, err


def adaptive_quad(
    f: Callable,
    a: float,
    b: float,
    *,
    tol_abs: float = 0.0,
    tol_rel: float = 1e-10,
    max_panels: int = 4096,
    points: Iterable[float] = (),
) -> QuadResult:
    """Adaptively integrate ``f`` over [a, b].

    Bisects the panel with the largest error estimate until
    ``total_error <= max(tol_abs, tol_rel * |total_value|)``.  Raises
    :class:`NonConvergenceError` once ``max_panels`` panels exist and the
    tolerance is still unmet.

    The totals tested and returned are sums over the panel heap in heap
    order.  Running totals, kept in O(1) per bisection, skip that O(n)
    re-sum on the iterations where they show the tolerance clearly unmet.
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a!r}, {b!r}]")
    breaks = sorted({float(a), float(b), *(float(p) for p in points if a < p < b)})

    heap: list[tuple[float, int, float, float, float, float]] = []
    seq = 0
    frozen_val = 0.0
    frozen_err = 0.0
    n_frozen = 0
    # running sums over all panels, frozen ones included, of the values, the
    # errors and the |values|; n_adds counts the additions made to each.
    # Python floats: inf - inf makes a silent NaN, which never skips a re-sum
    run_val = run_err = run_abs = 0.0
    for lo, hi in zip(breaks, breaks[1:]):
        val, err = kronrod_panel(f, lo, hi)
        heapq.heappush(heap, (-err, seq, lo, hi, val, err))
        seq += 1
        run_val += val
        run_err += float(err)
        run_abs += abs(val)
    n_adds = len(heap)
    peak_err, peak_abs = run_err, run_abs

    while True:
        n_panels = len(heap) + n_frozen
        # k additions leave a running sum within k*u*S of the exact one, S
        # the largest partial sum of magnitudes; the n-term re-sum is within
        # n*u*S of it too.  Bounds in eps = 2u cover those in u twice over.
        slack = float((n_adds + n_panels + 2) * _EPS)
        clearly_unmet = run_err - slack * peak_err > max(
            tol_abs, tol_rel * (abs(run_val) + slack * peak_abs)
        )
        if not clearly_unmet or n_panels >= max_panels or not heap:
            total_val = frozen_val + sum(item[4] for item in heap)
            total_err = frozen_err + sum(item[5] for item in heap)
            if total_err <= max(tol_abs, tol_rel * abs(total_val)):
                return QuadResult(total_val, total_err, n_panels)
            if n_panels >= max_panels:
                raise NonConvergenceError(
                    f"quadrature budget of {max_panels} panels exhausted on "
                    f"[{a!r}, {b!r}]: error estimate {total_err:.3e}"
                )
            if not heap:
                raise NonConvergenceError(
                    f"no splittable panels left on [{a!r}, {b!r}]: "
                    f"error estimate {total_err:.3e}"
                )
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # panel at floating-point resolution; keep its contribution as is
            frozen_val += val
            frozen_err += err
            n_frozen += 1
            continue
        run_val -= val
        run_err -= float(err)
        run_abs -= abs(val)
        for plo, phi in ((lo, mid), (mid, hi)):
            pval, perr = kronrod_panel(f, plo, phi)
            heapq.heappush(heap, (-perr, seq, plo, phi, pval, perr))
            seq += 1
            run_val += pval
            run_err += float(perr)
            run_abs += abs(pval)
        n_adds += 3
        peak_err = max(peak_err, run_err)
        peak_abs = max(peak_abs, run_abs)
