"""Densities and grid discretizations of the three laws, and the Laplace CDF.

The laws are the standard normal, the product of two independent standard
normals (density ``K0(|x|)/pi``, logarithmically singular at 0), and
Laplace(0,1).  ``GridDensity`` is the shared numeric carrier: a density
sampled on a uniform midpoint grid, which never places a node at the
origin and therefore tolerates the product law's singularity.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import specfun
from .quadrature import adaptive_quad

_LN_SQRT_2PI = 0.918938533204672741780329736406  # ln sqrt(2 pi)
_LN_PI = math.log(math.pi)


@dataclass(frozen=True)
class AnalyticDensity:
    """A probability density known in closed form.

    ``pdf`` and ``log_pdf`` must accept float ndarrays.  ``tail_rate`` is
    the exponential decay rate of the tails (``inf`` for Gaussian-type
    decay); it bounds the arguments for which exp-tilted integrals of the
    density converge.  ``even`` states that the density is symmetric about
    0, f(-x) = f(x), with its singular points in +- pairs; ``discretize``
    then evaluates it on the left half of the grid only and mirrors it.
    """

    name: str
    pdf: Callable[[np.ndarray], np.ndarray]
    log_pdf: Callable[[np.ndarray], np.ndarray]
    singular_points: tuple[float, ...] = ()
    tail_rate: float = math.inf
    even: bool = False


def _normal_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(_normal_log_pdf(x))


def _normal_log_pdf(x: np.ndarray) -> np.ndarray:
    # x * x overflows to inf beyond |x| ~ 1.3e154, where the log-density is -inf
    with np.errstate(over="ignore"):
        return -0.5 * x * x - _LN_SQRT_2PI


def _laplace_pdf(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.exp(-np.abs(x))


def _laplace_log_pdf(x: np.ndarray) -> np.ndarray:
    return -np.abs(x) - math.log(2.0)


def _product_pdf(x: np.ndarray) -> np.ndarray:
    return specfun.k0_values(np.abs(x)) / math.pi


def _product_log_pdf(x: np.ndarray) -> np.ndarray:
    return specfun.log_k0_values(np.abs(x)) - _LN_PI


def standard_normal() -> AnalyticDensity:
    """The standard normal law N(0, 1)."""
    return AnalyticDensity("normal", _normal_pdf, _normal_log_pdf, even=True)


def laplace() -> AnalyticDensity:
    """Laplace(0, 1): density exp(-|x|)/2, variance 2."""
    return AnalyticDensity("laplace", _laplace_pdf, _laplace_log_pdf, tail_rate=1.0, even=True)


def normal_product() -> AnalyticDensity:
    """The law of X1*X2 for independent standard normals: K0(|x|)/pi."""
    return AnalyticDensity(
        "normal-product",
        _product_pdf,
        _product_log_pdf,
        singular_points=(0.0,),
        tail_rate=1.0,
        even=True,
    )


_BUILTIN = {
    "normal": standard_normal,
    "laplace": laplace,
    "normal-product": normal_product,
}


def builtin_density(name: str) -> AnalyticDensity:
    """Look up one of the built-in laws by name."""
    try:
        return _BUILTIN[name]()
    except KeyError:
        raise ValueError(
            f"unknown density {name!r}; available: {', '.join(sorted(_BUILTIN))}"
        ) from None


def builtin_density_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN))


def laplace_cdf(x):
    """Laplace(0,1) CDF: exp(x)/2 for x <= 0, 1 - exp(-x)/2 otherwise."""
    arr = np.asarray(x, dtype=float)
    # one exponential serves both branches, in place: beyond its result a call
    # holds only the branch mask (``mc.ks_statistic`` passes 2^16-entry blocks)
    half = np.abs(arr, out=np.empty_like(arr))
    np.negative(half, out=half)
    np.exp(half, out=half)
    half *= 0.5
    np.subtract(1.0, half, out=half, where=arr > 0.0)
    return half if arr.ndim else float(half)


def _check_half_width(half_width: float) -> None:
    if not half_width > 0.0:
        raise ValueError("half_width must be positive")
    if not math.isfinite(2.0 * half_width):
        raise ValueError("half_width is too large: the grid width 2 * half_width overflows")


@dataclass(frozen=True)
class GridDensity:
    """A density sampled on a uniform midpoint grid of even size.

    Nodes are ``x_k = -L + (k + 1/2) h`` with ``h = 2L/n``; for even ``n``
    no node is 0.  ``raw_mass`` records the mass a normalizing step saw
    before rescaling, when applicable.

    Two metadata fields describe where values are pointwise-faithful
    samples of the underlying density (all values are always
    mass-faithful):

    * ``singular_points``: positions where the source density is
      singular; cells touching them hold cell averages rather than point
      values, and correlation images of those cells inherit an O(h)
      log-level bias.
    * ``trusted_half_width``: set on correlation outputs: beyond the
      input window the correlation is a pure tail-window product,
      qualitatively unlike the underlying law.

    Shape checks skip nodes outside these regions; plain integrals (mass,
    moments, CDF distances) use every node.
    """

    half_width: float
    values: np.ndarray
    raw_mass: float | None = field(default=None, compare=False)
    singular_points: tuple[float, ...] = ()
    trusted_half_width: float | None = None

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "singular_points", tuple(float(s) for s in self.singular_points))
        object.__setattr__(self, "half_width", float(self.half_width))
        if self.trusted_half_width is not None:
            object.__setattr__(self, "trusted_half_width", float(self.trusted_half_width))
        if values.ndim != 1 or values.size < 2 or values.size % 2:
            raise ValueError("values must be a 1-D array of even length >= 2")
        _check_half_width(self.half_width)
        if self.trusted_half_width is not None and not 0.0 < self.trusted_half_width <= self.half_width:
            raise ValueError("trusted_half_width must lie in (0, half_width]")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ValueError("grid values must be finite and nonnegative")

    @property
    def n_cells(self) -> int:
        return self.values.size

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / self.n_cells

    @property
    def nodes(self) -> np.ndarray:
        """Cell midpoints -L + (i + 1/2) h, built in place in one array."""
        x = np.arange(self.n_cells, dtype=float)
        x += 0.5
        x *= self.step
        x += -self.half_width
        return x

    @property
    def mass(self) -> float:
        """h * sum v; inf, without a warning, if the sum leaves the double range."""
        with np.errstate(over="ignore"):
            return self.step * float(np.sum(self.values))

    def normalized(self) -> "GridDensity":
        """Rescale to unit mass, recording the mass seen beforehand.

        Unit-mass values sum to 1/step, so on grids narrower than about
        n_cells * 2.8e-309 they leave the double range: a ValueError then.
        """
        m = self.mass
        if m <= 0.0:
            raise ValueError("cannot normalize a zero-mass grid")
        with np.errstate(over="ignore"):
            values = self.values / m
            total = float(np.sum(values))
        if not math.isfinite(m) or not math.isfinite(total):
            raise ValueError(
                f"grid of half-width {self.half_width:g} with {self.n_cells} cells "
                "cannot be normalized: its mass or unit-mass values overflow"
            )
        return replace(self, values=values, raw_mass=m)

    def to_csv(self) -> str:
        """Serialize as ``x,density`` rows with 17 significant digits.

        Metadata travels in ``#``-prefixed comment lines ahead of the
        header so the file stays a plain two-column CSV for other tools.
        """
        buf = io.StringIO()
        if self.trusted_half_width is not None:
            buf.write(f"# trusted-half-width: {self.trusted_half_width:.17g}\n")
        if self.singular_points:
            pts = " ".join(f"{s:.17g}" for s in self.singular_points)
            buf.write(f"# singular-points: {pts}\n")
        buf.write("x,density\n")
        for x, v in zip(self.nodes, self.values):
            buf.write(f"{x:.17g},{v:.17g}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "GridDensity":
        """Parse the ``to_csv`` format back into a grid."""
        trusted: float | None = None
        singular: tuple[float, ...] = ()
        lines = []
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln:
                continue
            if ln.startswith("#"):
                body = ln.lstrip("#").strip()
                if body.lower().startswith("trusted-half-width:"):
                    (trusted,) = _csv_floats([body.split(":", 1)[1]])
                elif body.lower().startswith("singular-points:"):
                    singular = _csv_floats(body.split(":", 1)[1].split())
                continue
            lines.append(ln)
        if not lines or lines[0].lower() != "x,density":
            raise ValueError("expected header 'x,density'")
        rows = [_csv_floats(ln.split(",")) for ln in lines[1:]]
        if any(len(r) != 2 for r in rows) or len(rows) < 2:
            raise ValueError("grid CSV needs >= 2 rows of 'x,density'")
        x = np.array([r[0] for r in rows])
        v = np.array([r[1] for r in rows])
        # a grid of finite width 2L has its nodes inside (-L, L), and no
        # difference of such nodes overflows
        if not np.all(np.abs(x) < 0.5 * sys.float_info.max):
            raise ValueError("grid CSV nodes must be finite and below half the largest double")
        h = x[1] - x[0]
        if h <= 0 or not np.allclose(np.diff(x), h, rtol=1e-9, atol=1e-12 * abs(h)):
            raise ValueError("grid CSV nodes must be uniformly increasing")
        half_width = 0.5 * (x[-1] - x[0]) + 0.5 * h
        n = len(rows)
        if n % 2:
            raise ValueError("grid CSV must have an even number of rows")
        expected_first = -half_width + 0.5 * h
        if abs(x[0] - expected_first) > 1e-9 * max(1.0, half_width):
            raise ValueError("grid CSV nodes are not a midpoint grid")
        if trusted is not None and half_width < trusted <= half_width * (1.0 + 1e-9):
            # a window over the whole grid: the nodes give its half-width to
            # rounding only, the comment line gives it exactly
            half_width = trusted
        return cls(half_width, v, singular_points=singular, trusted_half_width=trusted)


def _csv_floats(tokens) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in tokens)
    except ValueError as exc:
        raise ValueError(f"malformed grid CSV: {exc}") from None


def _cell_average(density: AnalyticDensity, lo: float, hi: float) -> float:
    inner = [s for s in density.singular_points if lo < s < hi]
    res = adaptive_quad(
        density.pdf, lo, hi, tol_abs=1e-15, tol_rel=1e-11, max_panels=4096, points=inner
    )
    return res.value / (hi - lo)


def discretize(density: AnalyticDensity, half_width: float, n_cells: int) -> GridDensity:
    """Sample a density on the midpoint grid and normalize to unit mass.

    Cells whose closure contains a singular point get the cell average
    (by adaptive quadrature) instead of the midpoint value.  An even law
    is evaluated on the left half of the grid and mirrored, so its grid is
    exactly even although the computed nodes are not exactly antisymmetric.
    """
    _check_half_width(half_width)
    if n_cells < 64 or n_cells % 2:
        raise ValueError("n_cells must be even and >= 64")
    if not math.isfinite(n_cells / (2.0 * half_width)):
        # unit-mass values sum to 1/h: checked before the law is evaluated
        # at nodes that subnormal steps no longer keep apart
        raise ValueError(
            f"half_width {half_width:g} is too small for {n_cells} cells: "
            "the unit-mass grid values would overflow"
        )
    h = 2.0 * half_width / n_cells
    half = n_cells // 2 if density.even else n_cells
    nodes = -half_width + (np.arange(half) + 0.5) * h

    # a right-half singular cell of an even law is averaged as its left mirror,
    # so each side of 0 gets an averaged cell even when the central edge
    # rounds off 0 and only one of the two central cells contains it
    singular_cells: set[int] = set()
    for s in density.singular_points:
        if not -half_width <= s <= half_width:
            continue
        k0 = int(np.floor((s + half_width) / h))
        for k in (k0 - 1, k0, k0 + 1):
            if 0 <= k < n_cells and -half_width + h * k <= s <= -half_width + h * (k + 1):
                singular_cells.add(k if k < half else n_cells - 1 - k)

    values = np.empty(n_cells)
    left = values[:half]
    regular = np.ones(half, dtype=bool)
    regular[list(singular_cells)] = False
    left[regular] = density.pdf(nodes[regular])
    for k in sorted(singular_cells):
        lo, hi = -half_width + h * k, -half_width + h * (k + 1)
        left[k] = _cell_average(density, float(lo), float(hi))
    if density.even:
        values[half:] = left[::-1]

    on_grid = tuple(s for s in density.singular_points if -half_width <= s <= half_width)
    return GridDensity(half_width, values, singular_points=on_grid).normalized()
