"""Self-difference of grid densities and moment generating functions.

The self-difference of a law with density f is the law of X - X' for X,
X' i.i.d. with density f; its density is the cross-correlation
``int f(x) f(x - y) dx``.  On a midpoint grid the correlation sums live on
integer multiples of the step while output nodes sit on half-integer
multiples, so correlation values are assigned half-and-half to the two
adjacent output cells (exact for the mass, second-order for the density,
and it preserves log-concavity of the correlation sequence).

The correlation sums of the nonnegative grid values are computed by
exponentially tilted FFTs (Wilson & Keich, "Accurate pairwise
convolutions of non-negative vectors via FFT", Comput. Stat. Data Anal.
2016; Keich, sFFT, J. Comput. Biol. 2005).  A plain FFT has an absolute
round-off error at the scale of the largest sums, which swamps the far
tails that the log-scale shape checks read.  Tilting the values and their
reverse by 2^(phi i) moves the mass of the products contributing to one
lag to the top of the tilted vectors, where the FFT is relatively
accurate, and the tilt is undone exactly afterwards.  Every sum gets a
relative error bound from the FFT's absolute bound (see
``_FFT_ERROR_BOUND``) and keeps the value of its best tilt.

The plain FFT (tilt 0) is accurate up to the first lag d0 whose sum falls
below its absolute bound over ``_REL_TARGET``; a bisection on about
log2 n exact lag sums finds d0.  The first tilt is centred on lag d0, and
for the product law and Laplace it also covers every lag below; the plain
tilt follows only if it leaves a lag below d0 short (as the normal law's
narrower tilts do), or runs alone when the lags from d0 on cost no more
to sum directly than a tilt.  These first tilts cost O(n log n); every
later tilt fixes only the trailing block of R lags from the first one
still short, from the R values at each end, in O(R log R).  Tilts stop
once that block costs no more to sum directly than a tilt of it, or the
last tilt, the plain one included, saved less direct work than that, and
the block is summed directly.  Each tilt's phi comes from a saddle-point
solve on at most 4096 log-sum-exp bins of its block, O(4096) per Newton
step at any size: phi only steers which lags a tilt makes accurate, and
the bound certifies every sum.  Lags with no nonzero product (a comb's),
which never get under the FFT's round-off, are found by one FFT pair and
keep an exact 0.  An exactly even grid, such as ``dist.discretize``
builds for every built-in law, needs one spectrum per tilt, not two.

On the built-in grids the direct block has at most a few dozen lags and
the whole correlation costs O(n log n).  Where every tilt stalls on lags
that are tiny but not zero, as on e^(-50x) on even cells and 1e-26 on
odd ones, the direct block holds n - 1 lags and costs O(n^2) (ROADMAP.md,
item 4).

MGFs are evaluated by two independent numeric routes so the Bessel-backed
density code is never certified by itself: direct exp-tilted quadrature of
a density, and (for the normal-product law) Gaussian conditioning,
``E exp(t X1 X2) = E_x exp(t^2 x^2 / 2)`` over a standard normal x.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .dist import AnalyticDensity, GridDensity
from .errors import DivergenceError, DomainError, NotNormalizedError
from .quadrature import adaptive_quad

#: Relative accuracy every FFT correlation sum is brought to (sums below
#: the normal double range, 2^-1022, to this fraction of 2^-1022 in
#: absolute terms).
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

#: A grid that peaks above this is scaled by a power of two before its
#: correlation sums are taken: below it, the sums of up to 2^21 cells stay
#: under 2^1014, where undoing a tilt is exact.
_PEAK_LIMIT = 2.0**496

#: A saddle solve weighs at most this many bins of a block (``_saddle_tilt``).
_SADDLE_BINS = 4096

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_MASS_TOL = 1e-6


@dataclass(frozen=True)
class MGFValue:
    """An MGF evaluation at t with an absolute error estimate."""

    t: float
    value: float
    abs_error_estimate: float


def _log2(x: np.ndarray) -> np.ndarray:
    """log2 of a nonnegative vector, -inf at zeros."""
    with np.errstate(divide="ignore"):
        return np.log2(x)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a @ b by numpy's own loop: BLAS would split a long dot over its threads."""
    return float(np.einsum("i,i->", a, b))


def _saddle_bins(log2x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centres and log2 root-sum-squares of at most ``_SADDLE_BINS`` runs of x.

    A log-sum-exp from each run's largest entry loses no nonzero entry; runs
    of one entry give the indices and log2 x themselves, bit for bit.
    """
    s = log2x.size
    width = -(-s // _SADDLE_BINS)
    starts = np.arange(0, s, width)
    # a run of zeros gets a finite top, so it sums to 0 instead of inf - inf
    top = np.maximum(np.maximum.reduceat(log2x, starts), -1100.0)
    t = np.repeat(top, width)[:s]
    np.subtract(log2x, t, out=t)
    t *= 2.0
    np.exp2(t, out=t)
    top += 0.5 * _log2(np.add.reduceat(t, starts))
    return 0.5 * (starts + np.minimum(starts + width, s) - 1.0), top


def _tilt_moments(log2x: np.ndarray, phi: float, i: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the index i under the weights (x_i 2^(phi i))^2.

    ``i`` holds the indices (bin centres) as floats: at most
    ``_SADDLE_BINS`` of them, so plain expressions serve.
    """
    w = (i * phi + log2x) * 2.0
    w = np.exp2(w - w.max())
    total = float(w.sum())
    mean = float(w @ i) / total
    d = i - mean
    return mean, float(w @ (d * d)) / total


def _saddle_tilt(log2x: np.ndarray, log2y: np.ndarray | None, k: int, phi: float) -> float:
    """The tilt that centres the products of output entry k.

    For the tilted factors a = x 2^(phi i), b = y 2^(phi i) the relative
    error bound ||a|| ||b|| / (a * b)[k] is smallest where the mean indices
    of a^2 and b^2 add up to k.  Newton's method on that increasing
    function of phi, kept inside a bracket, stops within one standard
    deviation of the tilted spread: the bound is flat that close to its
    minimum.  The moments are taken over at most ``_SADDLE_BINS`` bins at
    their centres (``_saddle_bins``), so a step costs O(4096) at any size
    and phi may be off by a bin width: that only moves the lags a tilt
    makes accurate, as every sum is certified by its own error bound.
    ``log2y`` None means y = x.
    """
    i, bins_x = _saddle_bins(log2x)
    bins_y = None if log2y is None else _saddle_bins(log2y)[1]
    lo, hi = -math.inf, math.inf
    for _ in range(64):
        mx = _tilt_moments(bins_x, phi, i)
        my = mx if bins_y is None else _tilt_moments(bins_y, phi, i)
        mean, spread = mx[0] + my[0], mx[1] + my[1]
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


def _tilted(x: np.ndarray, log2x: np.ndarray, phi: float) -> tuple[np.ndarray, int, int]:
    """x_i 2^(phi (i - j) - e) with peak in [1, 2); returns it with j and e.

    j is where the tilted vector peaks and 2^e the peak's binade, so the
    tilt is 2^(phi i) / 2^(phi j + e).  The exponent is applied as 2^f
    times an exact power of two 2^q (f in [0, 1)), so a subnormal peak
    scales up without overflow; q is clipped at +-1100, beyond which
    entries are zeros or underflow anyway.
    """
    t = np.arange(x.size, dtype=float)
    t *= phi
    q = t + log2x
    j = int(np.argmax(q))
    e = math.floor(math.log2(x[j]))
    # exactly (i - j) phi: i phi and j phi lie on the 2^-30 grid below 2^12
    t -= j * phi
    t -= e
    np.floor(t, out=q)
    t -= q
    np.exp2(t, out=t)
    t *= x
    np.clip(q, -1100.0, 1100.0, out=q)
    return np.ldexp(t, q.astype(np.int32), out=t), j, e


def _first_short_lag(v: np.ndarray, floor: float) -> int:
    """First lag d with ``v[:n-d] @ v[d:]`` below ``floor`` (n if none).

    Bisects on the exact lag sums, so it takes about log2 n + 1 dot
    products and is exact when the sums fall with the lag, as they do for
    log-concave v; otherwise it returns some lag where they cross
    ``floor`` downwards.
    """
    n = v.size
    return bisect.bisect_left(range(n), True, key=lambda d: _dot(v[: n - d], v[d:]) < floor)


def _direct_lags(v: np.ndarray, s: int) -> np.ndarray:
    """``sum_i v[i] v[i+d]`` for lags d = s..n-1, summed directly in O((n - s)^2)."""
    r = v.size - s  # the lags are entries r-1 .. 2r-2 of conv(v[s:], v[:r][::-1])
    return np.convolve(v[s:], v[r - 1 :: -1])[r - 1 :]


def _fft_length(r: int) -> int:
    """Power-of-two length of the FFTs that convolve two r-vectors."""
    return max(1 << (2 * r - 2).bit_length(), 2)


def _tilt_cost(r: int) -> float:
    """Work of one tilt of an r-lag block, m log2 m for FFT length m.

    It is weighed against the r^2 products of summing the block directly.
    """
    m = _fft_length(r)
    return m * math.log2(m)


def _zero_lags(v: np.ndarray, m: int) -> np.ndarray:
    """Mask of the lags of v with no nonzero product, by a length-m FFT pair.

    The pair counts each lag's products of entries of v > 0; rounding the
    counts is exact, as they are integers up to n and their round-off is
    far below 0.5.
    """
    spec = np.fft.rfft(v > 0.0, m)
    spec *= spec.conj()
    return np.fft.irfft(spec, m)[: v.size] < 0.5


def _tilt_pass(
    a: tuple,
    b: tuple | None,
    phi: float,
    out: np.ndarray,
    quality: np.ndarray,
    work: np.ndarray,
) -> int:
    """Fold one tilt of entries R-1 .. 2R-2 of ``conv(a, b)`` into ``out``.

    a and b are (x, log2 x) pairs of R-vectors (``b`` None: b = a, one
    spectrum serves both).  Entry R-1+d replaces ``out[d]`` where its ratio
    to its error bound beats ``quality[d]``; ``work`` holds at least
    ``_fft_length(R)`` entries.  Returns the first d still short of
    ``_REL_TARGET`` (R if none).
    """
    r = a[0].size
    size = 2 * r - 1
    m = _fft_length(r)
    work = work[:m]  # the zero-padded factors, then their convolution
    work[r:] = 0.0
    work[:r], ja, ea = _tilted(*a, phi)
    norm_a = math.sqrt(_dot(work[:r], work[:r]))
    spec = np.fft.rfft(work)
    if b is None:
        jb, eb, norm_b = ja, ea, norm_a
        spec *= spec
    else:
        work[:r], jb, eb = _tilted(*b, phi)
        norm_b = math.sqrt(_dot(work[:r], work[:r]))
        spec *= np.fft.rfft(work)
    conv = np.fft.irfft(spec, m, out=work)[r - 1 : size]
    del spec
    bound = _FFT_ERROR_BOUND * _EPS * math.log2(m) * norm_a * norm_b
    # undo the tilt: entry r-1+d is conv[d] * 2^(phi (ja + jb - r + 1 - d) + ea + eb)
    scale = np.arange(ja + jb - r + 1, ja + jb - size, -1, dtype=float)
    scale *= phi
    scale += ea + eb
    subnormal = scale <= math.log2(_REL_TARGET * _TINY / bound)
    np.minimum(scale, 1023.0, out=scale)
    np.exp2(scale, out=scale)
    scale *= conv
    conv *= 1.0 / bound
    wanted = 1.0 / _REL_TARGET
    np.maximum(conv, wanted, out=conv, where=subnormal)
    del subnormal
    better = conv > quality
    np.copyto(out, scale, where=better)
    np.copyto(quality, conv, where=better)
    del scale, conv, better
    bad = quality < wanted
    return int(np.argmax(bad)) if bad.any() else r


def _tilted_autocorrelation(v: np.ndarray) -> np.ndarray:
    """``sum_i v[i] v[i+d]`` for lags d = 0..n-1 of a positive-ended v.

    Lag d is entry n-1+d of the convolution of v with its reverse w, so
    each tilt transforms both (one spectrum serves both when v is even).
    The lags from s on are entries R-1 .. 2R-2 of ``conv(v[s:], w[s:])``,
    R = n - s.  The loop keeps that block's start s and the lag t its next
    tilt centres on (t = 0: the plain tilt, no saddle solve).  An entry's
    relative error bound is the FFT bound over the tilted entry; one whose
    absolute bound falls below ``_REL_TARGET`` times the smallest normal
    double counts as accurate whatever its value.  Undoing the tilt is
    exact for results below about 2^1014.
    """
    n = v.size
    w = v[::-1]
    even = np.array_equal(v, w)
    log2v = _log2(v)
    log2w = log2v[::-1]
    m = _fft_length(n)
    out = np.zeros(n)
    quality = np.zeros(n, dtype=np.float32)  # entry / its error bound
    work = np.empty(m)  # every tilt's FFT buffer, a prefix for later blocks
    floor = _FFT_ERROR_BOUND * _EPS * math.log2(m) * _dot(v, v) * (1.0 / _REL_TARGET)
    t = _first_short_lag(v, floor)
    if (n - t) ** 2 <= _tilt_cost(n - t):
        t = 0  # the lags from d0 on are summed directly after the plain tilt
    if not v.all():
        zero = _zero_lags(v, m)
        quality[zero] = np.inf  # out is already 0 there
        del zero
    s, phi = 0, 0.0
    while True:
        a, b = (v[s:], log2v[s:]), None if even else (w[s:], log2w[s:])
        phi = _saddle_tilt(a[1], b[1] if b else None, n - 1 - 2 * s + t, phi) if t else 0.0
        short = s + _tilt_pass(a, b, phi, out[s:], quality[s:], work)
        r = n - short
        cost = _tilt_cost(r)
        if short < t:
            # the first tilt left a lag of the plain FFT's range short
            s = t = 0
        # stop on a cheap block, or on a tilt that saved too little
        elif r * r <= cost or (n - t) ** 2 - r * r <= cost:
            break
        else:
            s = t = short
    if r:
        out[short:] = _direct_lags(v, short)
    return out


def _correlation_sums(v: np.ndarray, use_fft: bool) -> tuple[np.ndarray, int]:
    """S_d = sum_i v[i] v[i+d] for lags d = 0..n-1 (S is even in d), and k.

    The sums are those of v 2^-k, i.e. S 2^-2k.  k is 0 unless v peaks
    above ``_PEAK_LIMIT``; then it scales the peak into [0.5, 1), which
    keeps both routes' sums and their pairwise sums inside the double range.
    The FFT route cuts leading and trailing zeros first: they contribute
    only exact zeros, and the tilts need v to end in positive values.
    """
    n = v.size
    k = 0
    peak = float(v.max())
    if peak > _PEAK_LIMIT:
        k = math.frexp(peak)[1]
        v = np.ldexp(v, -k)
    if not use_fft:
        return _direct_lags(v, 0), k
    positive = v > 0.0
    lo, hi = int(np.argmax(positive)), n - int(np.argmax(positive[::-1]))
    del positive
    if hi - lo == n:
        return _tilted_autocorrelation(v), k
    out = np.zeros(n)
    out[: hi - lo] = _tilted_autocorrelation(v[lo:hi])
    return out, k


def self_difference(g: GridDensity, *, use_fft: bool = True) -> GridDensity:
    """Density of X - X' for X, X' i.i.d. with gridded density ``g``.

    Output covers [-2L, 2L] with twice the cells (same step), normalized to
    unit mass; even by construction.  ``use_fft=False`` switches to the
    direct O(n^2) correlation (same discretization, for cross-checks).
    """
    if abs(g.mass - 1.0) > _MASS_TOL:
        raise NotNormalizedError(
            f"grid mass {g.mass!r} differs from 1 by more than {_MASS_TOL}"
        )
    n = g.n_cells
    sums, k = _correlation_sums(g.values, use_fft)
    # the lag-d sum sits on the boundary between cells n-1+d and n+d and is
    # shared equally by both; the left half mirrors the right
    values = np.empty(2 * n)
    right = values[n:]
    np.add(sums[:-1], sums[1:], out=right[:-1])
    right[-1] = sums[-1]
    right *= math.ldexp(0.5 * g.step, 2 * k)
    np.maximum(right, 0.0, out=right)
    values[:n] = right[::-1]
    # faithful only inside the input half-width (or its narrower trusted
    # window); singular-cell products dominate at singular-point differences,
    # of which those that overflow lie off every grid
    trusted = g.trusted_half_width if g.trusted_half_width is not None else g.half_width
    images = {a - b for a in g.singular_points for b in g.singular_points}
    singular = tuple(sorted(s for s in images if math.isfinite(s)))
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


def _window_quad(integrand, extent: float, tol: float, points=()) -> tuple[float, float]:
    """Integral of ``integrand`` over [-extent, extent] and its error estimate.

    The integrand at both ends is added to the estimate for the mass outside
    the window; overflow goes unwarned, as the density route checks for inf.
    """
    with np.errstate(over="ignore"):
        res = adaptive_quad(
            integrand, -extent, extent, tol_abs=0.5 * tol, tol_rel=min(1e-12, tol),
            max_panels=8192, points=points,
        )
        boundary = float(integrand(np.array([-extent]))[0] + integrand(np.array([extent]))[0])
    return res.value, res.error + boundary


def mgf_via_density(density: AnalyticDensity, t: float, tol: float = 1e-10) -> MGFValue:
    """E exp(tX) by exp-tilted adaptive quadrature of the density.

    The estimate adds eps * value times the largest |t*x| + |log_pdf(x)| at a
    node with a positive integrand: the rounding of the exponent, which grows
    with the window 48/(rate - |t|) and dominates near the tail rate.

    Raises :class:`DivergenceError` when |t| reaches the tail decay rate
    (the integral diverges there) or when the integrand, the value or its
    error estimate overflows the double range; quadrature budget exhaustion
    raises :class:`NonConvergenceError`.
    """
    t = float(t)
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if abs(t) >= density.tail_rate:
        raise DivergenceError(
            f"E[exp(tX)] diverges for |t| >= {density.tail_rate} on {density.name!r}"
        )
    extent = _tilted_window(density, t)
    overflow = f"E[exp(tX)] at t = {t} overflows the double range on {density.name!r}"
    exponent_scale = 0.0  # largest |t*x| + |log_pdf(x)| at any node where y > 0

    def integrand(x: np.ndarray) -> np.ndarray:
        nonlocal exponent_scale
        tx = t * x
        log_pdf = density.log_pdf(x)
        y = np.exp(tx + log_pdf)
        if np.isinf(y).any():
            raise DivergenceError(overflow)
        # a node where y underflows to 0 (log_pdf may be -inf) adds no rounding
        terms = np.abs(tx) + np.abs(log_pdf)
        exponent_scale = max(exponent_scale, float(np.max(terms, where=y > 0.0, initial=0.0)))
        return y

    pts = [s for s in density.singular_points if -extent < s < extent]
    if 0.0 not in pts:
        pts.append(0.0)
    # geometric initial panels: on a very wide window a single panel would
    # hide the O(1)-scale structure from the 15 Kronrod nodes and deceive
    # the error estimate
    scale = 1.0
    while scale < extent:
        pts += [scale, -scale]
        scale *= 2.0
    value, error = _window_quad(integrand, extent, tol, pts)
    error += _EPS * exponent_scale * value
    if not (math.isfinite(value) and math.isfinite(error)):
        raise DivergenceError(overflow)
    return MGFValue(t, value, error)


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

    value, error = _window_quad(integrand, extent, tol)
    return MGFValue(t, value, error)

