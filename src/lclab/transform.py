"""Self-difference of grid densities and moment generating functions.

The self-difference of a law with density f is the law of X - X' for X,
X' i.i.d. with density f; its density is the cross-correlation
``int f(x) f(x - y) dx``.  On a midpoint grid the correlation sums live on
integer multiples of the step while output nodes sit on half-integer
multiples, so correlation values are assigned half-and-half to the two
adjacent output cells (exact for the mass, second-order for the density,
and it preserves log-concavity of the correlation sequence).

Correlation and convolution sums of the nonnegative grid values are
computed by exponentially tilted FFTs (Wilson & Keich, "Accurate pairwise
convolutions of non-negative vectors via FFT", Comput. Stat. Data Anal.
2016; Keich, sFFT, J. Comput. Biol. 2005).  A plain FFT has an absolute
round-off error at the scale of the largest entries, which swamps the far
tails that the log-scale shape checks read.  Tilting both factors by
2^(phi i) moves the mass of the products contributing to one output entry
to the top of the tilted vectors, where the FFT is relatively accurate,
and the tilt is undone exactly afterwards.  Every entry gets a relative
error bound from the FFT's absolute bound (see ``_FFT_ERROR_BOUND``); each
keeps the value of its best tilt, and the few end entries that no tilt
brings under ``_REL_TARGET`` -- sums of a handful of products of the
vectors' end blocks -- are summed directly.

MGFs are evaluated by two independent numeric routes so the Bessel-backed
density code is never certified by itself: direct exp-tilted quadrature of
a density, and (for the normal-product law) Gaussian conditioning,
``E exp(t X1 X2) = E_x exp(t^2 x^2 / 2)`` over a standard normal x.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dist import AnalyticDensity, GridDensity
from .errors import DivergenceError, DomainError, NotNormalizedError
from .quadrature import adaptive_quad

#: Relative accuracy every FFT correlation or convolution entry is brought
#: to (entries below the normal double range, 2^-1022, to this fraction of
#: 2^-1022 in absolute terms).
_REL_TARGET = 1e-13

#: The FFT's entrywise absolute error bound is taken as
#: ``_FFT_ERROR_BOUND * eps * log2(m) * ||a||_2 ||b||_2`` for a length-m
#: FFT convolution of a and b: the form of the bound that Wilson & Keich
#: (2016) derive from the round-off analysis of the FFT (Higham, Accuracy
#: and Stability of Numerical Algorithms, 2nd ed., sec. 24.1).  Its constant
#: is set from measurement: over random, power-law and log-normal inputs of
#: 64 to 8192 entries the largest error seen was 0.2 of the bound with
#: constant 1.
_FFT_ERROR_BOUND = 1.0

#: Tilts (in bits per index) are rounded to this grid, so every tilt
#: exponent that can reach the double range, phi * i with |i| < 2^21, is a
#: multiple of 2^-30 below 2^12 in magnitude and is computed exactly.
_TILT_QUANTUM = 2.0**-30

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_MASS_TOL = 1e-6


class MGFMethod(enum.Enum):
    """Which route produced an MGF value."""

    DENSITY_QUADRATURE = "density-quadrature"
    GAUSSIAN_CONDITIONING = "gaussian-conditioning"
    CLOSED_FORM = "closed-form"


@dataclass(frozen=True)
class MGFValue:
    """An MGF evaluation at t with an absolute error estimate."""

    t: float
    value: float
    abs_error_estimate: float
    method: MGFMethod


def _log2(x: np.ndarray) -> np.ndarray:
    """log2 of a nonnegative vector, -inf at zeros."""
    out = np.full(x.size, -np.inf)
    np.log2(x, out=out, where=x > 0.0)
    return out


def _tilt_moments(log2x: np.ndarray, phi: float) -> tuple[float, float]:
    """Mean and variance of the index i under the weights (x_i 2^(phi i))^2."""
    w = np.arange(log2x.size, dtype=float)
    w *= phi
    w += log2x
    w *= 2.0
    w -= w.max()
    np.exp2(w, out=w)
    total = float(w.sum())
    i = np.arange(log2x.size, dtype=float)
    mean = float(w @ i) / total
    i -= mean
    i *= i
    return mean, float(w @ i) / total


def _saddle_tilt(x: np.ndarray, y: np.ndarray | None, k: int, phi: float) -> float:
    """The tilt that centres the products of output entry k.

    For the tilted factors a = x 2^(phi i), b = y 2^(phi i) the relative
    error bound ||a|| ||b|| / (a * b)[k] is smallest where the mean indices
    of a^2 and b^2 add up to k.  Newton's method on that increasing
    function of phi, kept inside a bracket, stops within one standard
    deviation of the tilted spread: the bound is flat that close to its
    minimum.  ``y`` None means y = x.
    """
    log2x = _log2(x)
    log2y = None if y is None else _log2(y)
    lo, hi = -math.inf, math.inf
    for _ in range(64):
        mean, spread = _tilt_moments(log2x, phi)
        if log2y is None:
            mean, spread = 2.0 * mean, 2.0 * spread
        else:
            mean_y, spread_y = _tilt_moments(log2y, phi)
            mean, spread = mean + mean_y, spread + spread_y
        miss = mean - k
        if abs(miss) <= math.sqrt(spread):
            break
        if miss < 0.0:
            lo = phi
        else:
            hi = phi
        phi -= miss / (2.0 * math.log(2.0) * max(spread, 0.25))
        if not lo < phi < hi:
            phi = 0.5 * (lo + hi)
    return round(phi / _TILT_QUANTUM) * _TILT_QUANTUM


def _tilted(x: np.ndarray, phi: float) -> tuple[np.ndarray, int, int]:
    """x_i 2^(phi (i - j) - e) with peak in [1, 2); returns it with j and e.

    j is where the tilted vector peaks and 2^e the peak's binade, so the
    tilt is 2^(phi i) / 2^(phi j + e).  The exponent is applied as 2^f
    times an exact power of two 2^q (f in [0, 1)), so a subnormal peak
    scales up without overflow; q is clipped at +-1100, beyond which
    entries are zeros or underflow anyway.
    """
    t = np.arange(x.size, dtype=float)
    t *= phi
    t += _log2(x)
    j = int(np.argmax(t))
    e = math.floor(math.log2(x[j]))
    t = np.arange(-j, x.size - j, dtype=float)
    t *= phi
    t -= e
    q = np.floor(t)
    t -= q
    np.exp2(t, out=t)
    t *= x
    np.clip(q, -1100.0, 1100.0, out=q)
    return np.ldexp(t, q.astype(np.int32), out=t), j, e


def _tilted_convolution(x: np.ndarray, y: np.ndarray, lo: int) -> np.ndarray:
    """``sum_i x[i] y[k-i]`` for k = lo .. nx+ny-2 of positive-ended x, y.

    The first tilt is 0 (the plain FFT).  Each further tilt is the saddle
    tilt of the first entry not yet at ``_REL_TARGET`` on the side of the
    peak with more such entries, until the entries left on each side form
    an end block whose direct sum costs no more than one tilt's FFT work
    (r^2 <= m log2 m), or the last tilt on that side saved less direct work
    than that; so every further tilt saves more direct work than its FFTs.
    The end blocks are summed directly: entries k >= size - r involve only
    the last r entries of x and of y, entries below lo + r only the first.

    An entry's relative error bound is the FFT bound over the tilted entry;
    an entry whose absolute bound falls below ``_REL_TARGET`` times the
    smallest normal double counts as accurate whatever its value.
    Undoing the tilt is exact for results below about 2^1014.
    """
    same = np.array_equal(x, y)
    size = x.size + y.size - 1
    m = max(1 << (size - 1).bit_length(), 2)
    budget = m * math.log2(m)
    out = np.zeros(size - lo)
    quality = np.zeros(size - lo, dtype=np.float32)  # entry / its error bound
    wanted = 1.0 / _REL_TARGET
    phi, peak, side = 0.0, None, None
    blocks = [0, 0]  # entries left below / from the peak
    growing = [True, True]
    while True:
        a, ja, ea = _tilted(x, phi)
        norm_a = math.sqrt(float(a @ a))
        spec = np.fft.rfft(a, m)
        del a
        if same:
            jb, eb, norm_b = ja, ea, norm_a
            spec *= spec
        else:
            b, jb, eb = _tilted(y, phi)
            norm_b = math.sqrt(float(b @ b))
            spec *= np.fft.rfft(b, m)
            del b
        conv = np.fft.irfft(spec, m)[lo:size]
        del spec
        bound = _FFT_ERROR_BOUND * _EPS * math.log2(m) * norm_a * norm_b
        # undo the tilt: entry k is conv[k] * 2^(phi (ja + jb - k) + ea + eb)
        scale = np.arange(ja + jb - lo, ja + jb - size, -1, dtype=float)
        scale *= phi
        scale += ea + eb
        subnormal = scale <= math.log2(_REL_TARGET * _TINY / bound)
        np.minimum(scale, 1023.0, out=scale)
        np.exp2(scale, out=scale)
        scale *= conv
        conv *= 1.0 / bound
        np.maximum(conv, wanted, out=conv, where=subnormal)
        del subnormal
        better = conv > quality
        np.copyto(out, scale, where=better)
        np.copyto(quality, conv, where=better)
        del scale, conv, better
        if peak is None:
            peak = int(np.argmax(out))
        bad = quality < wanted
        low, high = bad[:peak][::-1], bad[peak:]
        left = [
            peak - int(np.argmax(low)) if low.any() else 0,
            high.size - int(np.argmax(high)) if high.any() else 0,
        ]
        del bad, low, high
        if side is not None:
            growing[side] = blocks[side] ** 2 - left[side] ** 2 > budget
        blocks = left
        todo = [s for s in (0, 1) if growing[s] and blocks[s] ** 2 > budget]
        if not todo:
            break
        side = max(todo, key=lambda s: blocks[s])
        target = lo + (blocks[0] - 1 if side == 0 else out.size - blocks[1])
        phi = _saddle_tilt(x, None if same else y, target, phi)
    if blocks[1]:
        r = blocks[1]
        tail = np.convolve(x[max(size - r - y.size + 1, 0) :], y[max(size - r - x.size + 1, 0) :])
        out[out.size - r :] = tail[tail.size - r :]
    if blocks[0]:
        r = lo + blocks[0]
        out[: blocks[0]] = np.convolve(x[:r], y[:r])[lo:r]
    return out


def _nonneg_convolution(x: np.ndarray, y: np.ndarray, lo: int) -> np.ndarray:
    """``sum_i x[i] y[k-i]`` for k = lo .. nx+ny-2, each entry to ``_REL_TARGET``.

    Leading and trailing zeros are cut first: they contribute only exact
    zeros, and the tilts need both vectors to end in positive values.
    """
    size = x.size + y.size - 1
    nz_x, nz_y = np.flatnonzero(x), np.flatnonzero(y)
    if nz_x.size == 0 or nz_y.size == 0:
        return np.zeros(size - lo)
    x0, x1, y0, y1 = int(nz_x[0]), int(nz_x[-1]) + 1, int(nz_y[0]), int(nz_y[-1]) + 1
    del nz_x, nz_y
    first = max(lo - x0 - y0, 0)
    part = _tilted_convolution(x[x0:x1], y[y0:y1], first)
    if part.size == size - lo:
        return part
    out = np.zeros(size - lo)
    start = first + x0 + y0 - lo
    out[start : start + part.size] = part
    return out


def _correlation_sums(v: np.ndarray, use_fft: bool) -> np.ndarray:
    """S_d = sum_i v[i] v[i+d] for lags d = 0..n-1 (S is even in d)."""
    n = v.size
    if not use_fft:
        return np.correlate(v, v, mode="full")[n - 1 :]
    return _nonneg_convolution(v, v[::-1], n - 1)


def _check_normalized(g: GridDensity) -> None:
    if abs(g.mass - 1.0) > _MASS_TOL:
        raise NotNormalizedError(
            f"grid mass {g.mass!r} differs from 1 by more than {_MASS_TOL}"
        )


def _derived_metadata(g: GridDensity, combine) -> tuple[tuple[float, ...], float]:
    """Singular-point images and trusted window of a correlation output.

    The output is faithful only where the correlation window still covers
    the input's support, i.e. inside the input half-width (its own trusted
    window, if narrower).  Pairwise ``combine``-images of input singular
    points mark where singular-cell products dominate entries.
    """
    trusted = g.trusted_half_width if g.trusted_half_width is not None else g.half_width
    images = sorted({combine(a, b) for a in g.singular_points for b in g.singular_points})
    return tuple(images), trusted


def self_difference(g: GridDensity, *, use_fft: bool = True) -> GridDensity:
    """Density of X - X' for X, X' i.i.d. with gridded density ``g``.

    Output covers [-2L, 2L] with twice the cells (same step), normalized to
    unit mass; even by construction.  ``use_fft=False`` switches to the
    direct O(n^2) correlation (same discretization, for cross-checks).
    """
    _check_normalized(g)
    n = g.n_cells
    sums = _correlation_sums(g.values, use_fft)
    # the lag-d sum sits on the boundary between cells n-1+d and n+d and is
    # shared equally by both; the left half mirrors the right
    values = np.empty(2 * n)
    right = values[n:]
    np.add(sums[:-1], sums[1:], out=right[:-1])
    right[-1] = sums[-1]
    right *= 0.5 * g.step
    np.maximum(right, 0.0, out=right)
    values[:n] = right[::-1]
    singular, trusted = _derived_metadata(g, lambda a, b: a - b)
    return GridDensity(
        2.0 * g.half_width, values, singular_points=singular, trusted_half_width=trusted
    ).normalized()


def self_sum(g: GridDensity, *, use_fft: bool = True) -> GridDensity:
    """Density of X + X' (self-convolution), on the same output grid."""
    _check_normalized(g)
    v = g.values
    sums = _nonneg_convolution(v, v, 0) if use_fft else np.convolve(v, v, mode="full")
    # each sum sits on the boundary between two output cells, shared equally
    values = np.empty(2 * v.size)
    values[0], values[-1] = sums[0], sums[-1]
    np.add(sums[:-1], sums[1:], out=values[1:-1])
    values *= 0.5 * g.step
    np.maximum(values, 0.0, out=values)
    singular, trusted = _derived_metadata(g, lambda a, b: a + b)
    return GridDensity(
        2.0 * g.half_width, values, singular_points=singular, trusted_half_width=trusted
    ).normalized()


def _tilted_window(density: AnalyticDensity, t: float) -> float:
    """Half-width T with exp(t x) pdf(x) below ~1e-21 outside [-T, T]."""
    rate = density.tail_rate
    if math.isfinite(rate):
        return 48.0 / (rate - abs(t))
    extent = 10.0
    while extent < 1e9:
        tail = max(
            float(density.log_pdf(np.array([extent]))[0]) + t * extent,
            float(density.log_pdf(np.array([-extent]))[0]) - t * extent,
        )
        if tail < -48.0:
            return extent
        extent *= 2.0
    raise DivergenceError("could not find a decaying integration window")


def mgf_via_density(density: AnalyticDensity, t: float, tol: float = 1e-10) -> MGFValue:
    """E exp(tX) by exp-tilted adaptive quadrature of the density.

    Raises :class:`DivergenceError` when |t| reaches the tail decay rate
    (the integral diverges there); quadrature budget exhaustion raises
    :class:`NonConvergenceError`.
    """
    t = float(t)
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if abs(t) >= density.tail_rate:
        raise DivergenceError(
            f"E[exp(tX)] diverges for |t| >= {density.tail_rate} on {density.name!r}"
        )
    extent = _tilted_window(density, t)
    lo = max(density.support[0], -extent)
    hi = min(density.support[1], extent)

    def integrand(x: np.ndarray) -> np.ndarray:
        return np.exp(t * x + density.log_pdf(x))

    pts = [s for s in density.singular_points if lo < s < hi]
    if lo < 0.0 < hi and 0.0 not in pts:
        pts.append(0.0)
    # geometric initial panels: on a very wide window a single panel would
    # hide the O(1)-scale structure from the 15 Kronrod nodes and deceive
    # the error estimate
    scale = 1.0
    while scale < max(hi, -lo):
        if lo < scale < hi:
            pts.append(scale)
        if lo < -scale < hi:
            pts.append(-scale)
        scale *= 2.0
    res = adaptive_quad(
        integrand,
        lo,
        hi,
        tol_abs=0.5 * tol,
        tol_rel=min(1e-12, tol),
        max_panels=8192,
        points=pts,
    )
    boundary = float(integrand(np.array([lo]))[0] + integrand(np.array([hi]))[0])
    return MGFValue(t, res.value, res.error + boundary, MGFMethod.DENSITY_QUADRATURE)


def mgf_via_conditioning(t: float, tol: float = 1e-10) -> MGFValue:
    """E exp(t X1 X2) for the normal-product law via Gaussian conditioning.

    Conditioning on X1 = x gives E exp(t x X2) = exp(t^2 x^2 / 2), so the
    MGF is the Gaussian integral of exp(t^2 x^2 / 2), an independent route
    that never touches the Bessel code.
    """
    t = float(t)
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if abs(t) >= 1.0:
        raise DivergenceError("E[exp(t X1 X2)] diverges for |t| >= 1")
    shrink = 1.0 - t * t
    extent = math.sqrt(96.0 / shrink)

    def integrand(x: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * shrink * x * x) / math.sqrt(2.0 * math.pi)

    res = adaptive_quad(
        integrand, -extent, extent, tol_abs=0.5 * tol, tol_rel=min(1e-12, tol),
        max_panels=8192,
    )
    boundary = 2.0 * float(integrand(np.array([extent]))[0])
    return MGFValue(t, res.value, res.error + boundary, MGFMethod.GAUSSIAN_CONDITIONING)


def mgf_difference_closed_form(t: float) -> MGFValue:
    """MGF of the self-difference of the normal-product law: 1/(1 - t^2).

    This equals M(t) M(-t) for the product-law MGF M and is the Laplace(0,1)
    MGF; defined for |t| < 1 only.
    """
    t = float(t)
    if abs(t) >= 1.0:
        raise DomainError("closed form 1/(1-t^2) requires |t| < 1")
    value = 1.0 / (1.0 - t * t)
    return MGFValue(t, value, 4.0 * np.finfo(float).eps * value, MGFMethod.CLOSED_FORM)
