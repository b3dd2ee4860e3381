"""Numerical log-concavity and log-convexity checks with explicit witnesses.

"Log-concave" is operationalized as midpoint concavity of ln f over node
triples (x_{k-j}, x_k, x_{k+j}) at stride ladder j = 1, 2, 4, 8, ...; the
multi-scale strides catch violations wider than one cell, and the midpoint
form avoids the h^-2 noise amplification of raw second differences.  The
grid check stores NaN as the log value of every uncertified node, so any
triple touching one has a NaN violation and is skipped.  It scans only the
certified span, first to last certified node, and on a span that reads the
same reversed it visits each mirror pair of triples once.  A failed check
carries a :class:`Witness` that reproduces the violated inequality on
re-evaluation; every check picks it by one rule: the largest violation,
ties to the smallest |midpoint|, then the smallest midpoint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dist import GridDensity
from .specfun import k_ratio_values

#: Grid values below this fraction of the peak are skipped.  It is not a
#: round-off screen: every self-difference entry is relatively accurate to
#: ~1e-13, down to the smallest normal double.  It only bounds the certified
#: domain; ROADMAP item 4 is to derive an absolute floor from that guarantee.
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
    """Verdict of a shape check: it holds iff there is no witness."""

    property: ShapeProperty
    witness: Witness | None
    tolerance: float
    domain_checked: tuple[float, float]

    @property
    def holds(self) -> bool:
        return self.witness is None

    def as_dict(self) -> dict:
        out = {
            "property": self.property.value,
            "outcome": "holds" if self.holds else "fails",
            "tolerance": self.tolerance,
            "domain": [self.domain_checked[0], self.domain_checked[1]],
        }
        if self.witness is not None:
            out["witness"] = self.witness.as_dict()
        return out


def _strides(limit: int) -> list[int]:
    return [1 << p for p in range(limit.bit_length())]


def _witness_key(viol, left, right, tol: float, stride: int, shift: int = 0):
    """Key ``(-violation, |m|, m, index, stride)`` of one stride's witness.

    ``viol[i]`` (NaN: skipped) belongs to the pair (left[i], right[i]) and
    is keyed as index ``i + shift``; None unless a violation exceeds
    ``tol``.  A ``viol`` shorter than ``left`` is the first half of a
    palindrome over the pairs, so each maximum recurs at its mirror index.
    ``_verdict`` takes the smallest key over all strides as the witness.
    """
    vmax = float(np.fmax.reduce(viol))
    if not vmax > tol:
        return None
    idx = np.flatnonzero(viol == vmax)
    if viol.size < left.size:
        idx = np.union1d(idx, left.size - 1 - idx)
    m = 0.5 * (left[idx] + right[idx])
    best = np.lexsort((m, np.abs(m)))[0]
    return (-vmax, abs(float(m[best])), float(m[best]), int(idx[best]) + shift, stride)


def _verdict(prop: ShapeProperty, keys, tol: float, domain, triple: Callable) -> ShapeVerdict:
    """The verdict whose witness, if any, is the smallest of ``keys``.

    ``keys`` are ``_witness_key`` results (None: no violation);
    ``triple(index, stride)`` gives the winning pair's (x, y, lhs, rhs).
    """
    best = min(filter(None, keys), default=None)
    if best is None:
        return ShapeVerdict(prop, None, tol, domain)
    neg_v, _, m, i, j = best
    x, y, lhs, rhs = map(float, triple(i, j))
    return ShapeVerdict(prop, Witness(x, y, m, lhs, rhs, -neg_v), tol, domain)


def _certified_nodes(g: GridDensity, nodes: np.ndarray) -> np.ndarray:
    """Nodes whose values certify the density on the log scale.

    Excludes values at the tail-noise floor, nodes outside a declared
    trusted window (correlation outputs are pure tail-window products
    beyond the input half-width), and the immediate vicinity of declared
    singular-point images (cell-averaged spike entries).  ``nodes`` is
    ``g.nodes``.
    """
    v = g.values
    floor = TAIL_NOISE_FLOOR * float(v.max(initial=0.0))
    usable = v > floor
    hw = g.trusted_half_width
    if hw is not None:
        # the nodes ascend, so |x| <= hw is the index range [a, b)
        a = int(np.searchsorted(nodes, -hw, side="left"))
        b = int(np.searchsorted(nodes, hw, side="right"))
        usable[:a] = usable[b:] = False
        radius = SINGULAR_SKIP_STEPS * g.step
        for s in g.singular_points:
            off = np.subtract(nodes[a:b], s)
            usable[a:b] &= np.abs(off, out=off) >= radius
    return usable


def check_log_concavity_grid(g: GridDensity, tol: float) -> ShapeVerdict:
    """Midpoint concavity of ln v over all stride triples of a grid density.

    Triples containing a non-certified node (below the tail-noise floor,
    outside the grid's trusted window, or adjacent to a singular-point
    image) are skipped.  Fails with the maximal-violation witness (ties:
    smallest |midpoint|, then smallest midpoint).  Invariant under positive
    scaling of the values.

    Only the certified span, first to last certified node, is scanned.
    When its values and certified nodes read the same reversed, every
    stride's violations form a palindrome (IEEE addition commutes), so
    each mirror pair is scanned once and its maxima keyed on both sides.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    nodes = g.nodes
    usable = _certified_nodes(g, nodes)
    if np.count_nonzero(usable) < 3:
        raise ValueError("fewer than 3 certified nodes")
    hw = g.trusted_half_width
    domain = (-hw, hw) if hw is not None else (float(nodes[0]), float(nodes[-1]))
    lo = int(usable.argmax())
    hi = usable.size - int(usable[::-1].argmax())
    nodes, usable, values = nodes[lo:hi], usable[lo:hi], g.values[lo:hi]
    size = values.size
    logv = np.log(values, out=np.full(size, np.nan), where=usable)
    mirrored = np.array_equal(usable, usable[::-1]) and np.array_equal(values, values[::-1])
    buf = np.empty((size - 1) // 2 if mirrored else size - 2)
    keys = []
    for j in _strides((size - 1) // 2):
        pairs = size - 2 * j
        viol = buf[: (pairs + 1) // 2 if mirrored else pairs]
        count = viol.size
        np.add(logv[:count], logv[2 * j : 2 * j + count], out=viol)
        np.multiply(viol, 0.5, out=viol)
        np.subtract(viol, logv[j : j + count], out=viol)
        keys.append(_witness_key(viol, nodes[:pairs], nodes[2 * j :], tol, j, shift=j))

    def triple(k: int, j: int):
        return nodes[k - j], nodes[k + j], logv[k], 0.5 * (logv[k - j] + logv[k + j])

    return _verdict(ShapeProperty.LOG_CONCAVE, keys, tol, domain, triple)


def _probes(a: float, b: float, n_probes: int) -> np.ndarray:
    if not (0.0 < a < b):
        raise ValueError("need 0 < a < b")
    if n_probes < 3:
        raise ValueError("need at least 3 probes")
    return np.geomspace(a, b, n_probes)


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
    probes = _probes(a, b, n_probes)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    logf = np.log(_eval_positive(f, probes, "ladder probes"))
    keys = []
    for j in _strides((n_probes - 1) // 2):
        x, y = probes[: -2 * j], probes[2 * j :]
        logm = np.log(_eval_positive(f, 0.5 * (x + y), "pair midpoints"))
        viol = logm - 0.5 * (logf[: -2 * j] + logf[2 * j :])
        keys.append(_witness_key(viol, x, y, tol, j))

    def triple(i: int, j: int):
        x, y = probes[i], probes[i + 2 * j]
        logm = np.log(_eval_positive(f, np.array([0.5 * (x + y)]), "witness midpoint"))[0]
        return x, y, logm, 0.5 * (logf[i] + logf[i + 2 * j])

    return _verdict(ShapeProperty.LOG_CONVEX_ON_INTERVAL, keys, tol, (a, b), triple)


def check_ratio_monotonicity(a: float, b: float, n_probes: int) -> ShapeVerdict:
    """Strict increase of K0'/K0 on a geometric ladder in [a, b].

    An equivalent reading of log-convexity of K0, used as an independent
    second route (ratio evaluations, no midpoint logs).  Raises ValueError
    where the ratio is not finite (K1 overflows below about 1e-308), since
    the drops next to such a probe could not be checked.
    """
    probes = _probes(a, b, n_probes)
    r = k_ratio_values(probes)
    if not np.all(np.isfinite(r)):
        raise ValueError("K0'/K0 is not finite at every probe (K1 overflows near 0)")
    # a drop of exactly 0 fails too: no double lies between -0 and this tol
    keys = [_witness_key(r[:-1] - r[1:], probes[:-1], probes[1:], -5e-324, 1)]

    def triple(i: int, _):
        return probes[i], probes[i + 1], r[i + 1], r[i]

    return _verdict(ShapeProperty.RATIO_INCREASING, keys, 0.0, (a, b), triple)
