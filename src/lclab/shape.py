"""Numerical log-concavity and log-convexity checks with explicit witnesses.

"Log-concave" is operationalized as midpoint concavity of ln f over node
triples (x_{k-j}, x_k, x_{k+j}) at stride ladder j = 1, 2, 4, 8, ...; the
multi-scale strides catch violations wider than one cell, and the midpoint
form avoids the h^-2 noise amplification of raw second differences.  A
failed check carries a :class:`Witness` that reproduces the violated
inequality on re-evaluation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import transform
from .dist import GridDensity
from .errors import PreconditionError
from .specfun import k_ratio_values

#: Grid values below this fraction of the peak are treated as numeric
#: round-off (FFT tails) rather than density values, and skipped.
TAIL_NOISE_FLOOR = 1e-13

#: Nodes within this many grid steps of a declared singular-point image
#: are skipped by log-level checks: such entries are built from
#: cell-averaged spike values whose placement error is O(h) on the log
#: scale (mass-faithful, not point-faithful).
SINGULAR_SKIP_STEPS = 2.0


class ShapeProperty(enum.Enum):
    LOG_CONCAVE = "log-concave"
    LOG_CONVEX_ON_INTERVAL = "log-convex-on-interval"
    RATIO_INCREASING = "ratio-increasing"


class Outcome(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"


@dataclass(frozen=True)
class Witness:
    """A triple x < y with midpoint m violating the checked inequality.

    ``violation`` is oriented so that positive means "inequality broken":
    rhs - lhs for concavity (lhs = ln f(m)), lhs - rhs for convexity, and
    the non-increase amount for ratio monotonicity.
    """

    x: float
    y: float
    midpoint: float
    lhs: float
    rhs: float
    violation: float

    def as_dict(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "m": self.midpoint,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "violation": self.violation,
        }


@dataclass(frozen=True)
class ShapeVerdict:
    """Outcome of a shape check; ``witness`` is present iff it fails."""

    property: ShapeProperty
    outcome: Outcome
    witness: Witness | None
    tolerance: float
    domain_checked: tuple[float, float]

    def __post_init__(self):
        if (self.outcome is Outcome.FAILS) != (self.witness is not None):
            raise ValueError("witness must be present exactly when the check fails")

    @property
    def holds(self) -> bool:
        return self.outcome is Outcome.HOLDS

    def as_dict(self) -> dict:
        out = {
            "property": self.property.value,
            "outcome": self.outcome.value,
            "tolerance": self.tolerance,
            "domain": [self.domain_checked[0], self.domain_checked[1]],
        }
        if self.witness is not None:
            out["witness"] = self.witness.as_dict()
        return out


def _better(a: tuple, b: tuple | None) -> bool:
    """Deterministic witness preference: larger violation, then smaller |m|,
    then smaller m."""
    if b is None:
        return True
    return (-a[0], a[1], a[2]) < (-b[0], b[1], b[2])


def _strides(limit: int):
    j = 1
    while j <= limit:
        yield j
        j *= 2


def _certified_nodes(g: GridDensity) -> np.ndarray:
    """Nodes whose values certify the density on the log scale.

    Excludes values at the tail-noise floor, nodes outside a declared
    trusted window (correlation outputs are pure tail-window products
    beyond the input half-width), and the immediate vicinity of declared
    singular-point images (cell-averaged spike entries).
    """
    v = g.values
    floor = TAIL_NOISE_FLOOR * float(v.max(initial=0.0))
    usable = v > floor
    nodes = g.nodes
    if g.trusted_half_width is not None:
        usable &= np.abs(nodes) <= g.trusted_half_width
        radius = SINGULAR_SKIP_STEPS * g.step
        for s in g.singular_points:
            usable &= np.abs(nodes - s) >= radius
    return usable


def check_log_concavity_grid(g: GridDensity, tol: float) -> ShapeVerdict:
    """Midpoint concavity of ln v over all stride triples of a grid density.

    Triples containing a non-certified node (below the tail-noise floor,
    outside the grid's trusted window, or adjacent to a singular-point
    image) are skipped.  Fails with the maximal-violation witness (ties:
    smallest |midpoint|, then smallest midpoint).  Invariant under positive
    scaling of the values.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    v = g.values
    n = v.size
    usable = _certified_nodes(g)
    if int(usable.sum()) < 3:
        raise ValueError("fewer than 3 certified nodes")
    logv = np.full(n, -np.inf)
    logv[usable] = np.log(v[usable])
    nodes = g.nodes

    best: tuple | None = None
    for j in _strides((n - 1) // 2):
        ok = usable[j:-j] & usable[: -2 * j] & usable[2 * j :]
        if not ok.any():
            continue
        lhs = logv[j:-j]
        rhs = 0.5 * (logv[: -2 * j] + logv[2 * j :])
        with np.errstate(invalid="ignore"):
            viol = np.where(ok, rhs - lhs, -np.inf)
        vmax = float(viol.max())
        if vmax <= tol:
            continue
        for idx in np.flatnonzero(viol == vmax):
            k = int(idx) + j
            x, y = float(nodes[k - j]), float(nodes[k + j])
            m = 0.5 * (x + y)
            cand = (vmax, abs(m), m, k, j)
            if _better(cand, best):
                best = cand
    if g.trusted_half_width is not None:
        lo, hi = -g.trusted_half_width, g.trusted_half_width
    else:
        lo, hi = float(nodes[0]), float(nodes[-1])
    if best is None:
        return ShapeVerdict(ShapeProperty.LOG_CONCAVE, Outcome.HOLDS, None, tol, (lo, hi))
    vmax, _, m, k, j = best
    witness = Witness(
        x=float(nodes[k - j]),
        y=float(nodes[k + j]),
        midpoint=m,
        lhs=float(logv[k]),
        rhs=float(0.5 * (logv[k - j] + logv[k + j])),
        violation=vmax,
    )
    return ShapeVerdict(ShapeProperty.LOG_CONCAVE, Outcome.FAILS, witness, tol, (lo, hi))


def _eval_positive(f: Callable, x: np.ndarray, what: str) -> np.ndarray:
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError("function must be vectorised over ndarray probes")
    if not np.all(np.isfinite(y)) or np.any(y <= 0.0):
        raise ValueError(f"function must be finite and strictly positive at {what}")
    return y


def check_log_convexity_interval(
    f: Callable, a: float, b: float, n_probes: int, tol: float
) -> ShapeVerdict:
    """Midpoint convexity of ln f on a geometric probe ladder in [a, b].

    For every stride pair (p_{k-j}, p_{k+j}) the arithmetic midpoint is
    evaluated fresh: ln f(m) <= (ln f(x) + ln f(y))/2 + tol.
    """
    if not (0.0 < a < b):
        raise ValueError("need 0 < a < b")
    if n_probes < 3:
        raise ValueError("need at least 3 probes")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    probes = np.geomspace(a, b, n_probes)
    logf = np.log(_eval_positive(f, probes, "ladder probes"))

    best: tuple | None = None
    for j in _strides((n_probes - 1) // 2):
        x = probes[: -2 * j]
        y = probes[2 * j :]
        mid = 0.5 * (x + y)
        logm = np.log(_eval_positive(f, mid, "pair midpoints"))
        viol = logm - 0.5 * (logf[: -2 * j] + logf[2 * j :])
        vmax = float(viol.max())
        if vmax <= tol:
            continue
        for idx in np.flatnonzero(viol == vmax):
            i = int(idx)
            m = float(mid[i])
            cand = (vmax, abs(m), m, i, j)
            if _better(cand, best):
                best = cand
    if best is None:
        return ShapeVerdict(
            ShapeProperty.LOG_CONVEX_ON_INTERVAL, Outcome.HOLDS, None, tol, (a, b)
        )
    vmax, _, m, i, j = best
    witness = Witness(
        x=float(probes[i]),
        y=float(probes[i + 2 * j]),
        midpoint=m,
        lhs=float(np.log(_eval_positive(f, np.array([m]), "witness midpoint"))[0]),
        rhs=float(0.5 * (logf[i] + logf[i + 2 * j])),
        violation=vmax,
    )
    return ShapeVerdict(
        ShapeProperty.LOG_CONVEX_ON_INTERVAL, Outcome.FAILS, witness, tol, (a, b)
    )


def check_ratio_monotonicity(a: float, b: float, n_probes: int) -> ShapeVerdict:
    """Strict increase of K0'/K0 on a geometric ladder in [a, b].

    An equivalent reading of log-convexity of K0, used as an independent
    second route (ratio evaluations, no midpoint logs).
    """
    if not (0.0 < a < b):
        raise ValueError("need 0 < a < b")
    if n_probes < 3:
        raise ValueError("need at least 3 probes")
    probes = np.geomspace(a, b, n_probes)
    r = k_ratio_values(probes)
    diff = np.diff(r)
    bad = np.flatnonzero(diff <= 0.0)
    if bad.size == 0:
        return ShapeVerdict(ShapeProperty.RATIO_INCREASING, Outcome.HOLDS, None, 0.0, (a, b))
    best: tuple | None = None
    for i in bad:
        i = int(i)
        m = 0.5 * float(probes[i] + probes[i + 1])
        cand = (float(-diff[i]), abs(m), m, i)
        if _better(cand, best):
            best = cand
    vmax, _, m, i = best
    witness = Witness(
        x=float(probes[i]),
        y=float(probes[i + 1]),
        midpoint=m,
        lhs=float(r[i + 1]),
        rhs=float(r[i]),
        violation=vmax,
    )
    return ShapeVerdict(ShapeProperty.RATIO_INCREASING, Outcome.FAILS, witness, 0.0, (a, b))


def check_preservation_under_difference(g: GridDensity, tol: float) -> ShapeVerdict:
    """Log-concavity of the self-difference of a log-concave grid density.

    Precondition: ``g`` itself passes the log-concavity check at ``tol``.
    The derived grid is checked at the relaxed tolerance ``10 * tol``
    (it carries FFT and resampling error on top of discretization error).
    """
    base = check_log_concavity_grid(g, tol)
    if not base.holds:
        raise PreconditionError(
            "input density is not log-concave at the requested tolerance"
        )
    return check_log_concavity_grid(transform.self_difference(g), 10.0 * tol)
