import heapq
import math

import numpy as np
import pytest

from lclab import dist
from lclab.errors import NonConvergenceError
from lclab.quadrature import QuadResult, adaptive_quad, kronrod_panel


def test_panel_exact_for_degree_22_polynomial():
    # K15 integrates polynomials up to degree 22 exactly
    value, _ = kronrod_panel(lambda x: x**22, 0.0, 1.0)
    assert value == pytest.approx(1.0 / 23.0, rel=1e-14)


def test_panel_error_estimate_bounds_true_error():
    value, err = kronrod_panel(np.sin, 0.0, 1.0)
    assert abs(value - (1.0 - math.cos(1.0))) <= max(err, 1e-15)


@pytest.mark.parametrize("f", [lambda x: 1.0, lambda x: x[:-1], lambda x: x[:, None]])
def test_panel_rejects_an_integrand_of_the_wrong_shape(f):
    with pytest.raises(ValueError, match="matching its input shape"):
        kronrod_panel(f, 0.0, 1.0)


def test_adaptive_sin():
    res = adaptive_quad(np.sin, 0.0, math.pi, tol_rel=1e-13)
    assert res.value == pytest.approx(2.0, rel=1e-13)
    assert abs(res.value - 2.0) <= res.error + 1e-15


def test_adaptive_integrable_endpoint_singularity():
    # 1/sqrt(x) on (0, 1]: Kronrod nodes are interior, bisection handles the edge
    res = adaptive_quad(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol_rel=1e-11)
    assert res.value == pytest.approx(2.0, rel=1e-10)


def test_adaptive_log_singularity():
    res = adaptive_quad(lambda x: -np.log(x), 0.0, 1.0, tol_rel=1e-11)
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_interior_break_points():
    res = adaptive_quad(np.abs, -1.0, 2.0, tol_rel=1e-13, points=(0.0,))
    assert res.value == pytest.approx(2.5, rel=1e-13)


def test_budget_exhaustion_raises():
    with pytest.raises(NonConvergenceError):
        adaptive_quad(lambda x: 1.0 / np.sqrt(np.abs(x)), 0.0, 1.0, tol_rel=1e-15, max_panels=8)


def test_rejects_reversed_interval():
    with pytest.raises(ValueError):
        adaptive_quad(np.sin, 1.0, 0.0)


def test_rejects_non_finite_integrand():
    def integrand(x):
        with np.errstate(divide="ignore"):
            return 1.0 / x

    with pytest.raises(ValueError):
        adaptive_quad(integrand, -1.0, 1.0, points=())


def _reference_adaptive_quad(f, a, b, *, tol_abs=0.0, tol_rel=1e-10, max_panels=4096, points=()):
    """adaptive_quad as it re-summed the whole heap on every bisection."""
    if not b > a:
        raise ValueError(f"need b > a, got [{a!r}, {b!r}]")
    breaks = sorted({float(a), float(b), *(float(p) for p in points if a < p < b)})
    heap = []
    seq = 0
    frozen_val = 0.0
    frozen_err = 0.0
    n_frozen = 0
    for lo, hi in zip(breaks, breaks[1:]):
        val, err = kronrod_panel(f, lo, hi)
        heapq.heappush(heap, (-err, seq, lo, hi, val, err))
        seq += 1
    while True:
        total_val = frozen_val + sum(item[4] for item in heap)
        total_err = frozen_err + sum(item[5] for item in heap)
        if total_err <= max(tol_abs, tol_rel * abs(total_val)):
            return QuadResult(total_val, total_err, len(heap) + n_frozen)
        if len(heap) + n_frozen >= max_panels:
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
            frozen_val += val
            frozen_err += err
            n_frozen += 1
            continue
        for plo, phi in ((lo, mid), (mid, hi)):
            pval, perr = kronrod_panel(f, plo, phi)
            heapq.heappush(heap, (-perr, seq, plo, phi, pval, perr))
            seq += 1


def _outcome(quad, f, a, b, **kwargs):
    try:
        return quad(f, a, b, **kwargs)
    except NonConvergenceError as exc:
        return str(exc)


def _random_cases():
    rng = np.random.default_rng(20)
    for _ in range(40):
        c, w, k = rng.normal(size=4), rng.uniform(0.01, 2.0, size=4), rng.uniform(0, 30)
        a = float(rng.uniform(-5.0, 0.0))
        b = a + float(rng.uniform(0.1, 10.0))

        def f(x, c=c, w=w, k=k):
            bumps = sum(ci * np.exp(-((x - ci) / wi) ** 2) for ci, wi in zip(c, w))
            return bumps + np.sin(k * x)

        tol_rel = float(10.0 ** rng.uniform(-15, -6))
        tol_abs = float(rng.choice([0.0, 1e-12, 1e-6]))
        points = tuple(rng.uniform(a, b, size=int(rng.integers(0, 3))))
        yield f, a, b, dict(tol_abs=tol_abs, tol_rel=tol_rel, max_panels=512, points=points)


def _singular_cases():
    yield lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, dict(tol_rel=1e-15, max_panels=300)
    yield lambda x: -np.log(x), 0.0, 1.0, dict(tol_rel=1e-13)
    yield lambda x: np.abs(x) ** -0.5, -1.0, 1.0, dict(tol_rel=1e-12, points=(0.0,))
    yield lambda x: x**-0.9, 0.0, 1.0, dict(tol_rel=1e-10, max_panels=4096)
    yield lambda x: np.abs(x), -1.0, 2.0, dict(tol_rel=1e-13, points=(0.0,))
    # a near-zero integral: the relative tolerance meets round-off
    yield np.sin, -math.pi, math.pi, dict(tol_abs=0.0, tol_rel=1e-10, max_panels=64)
    # a panel at floating-point resolution is frozen, not bisected
    yield lambda x: np.cos(1e16 * x), 1.0, 1.0 + 2e-15, dict(tol_rel=1e-17)


def _tail_rate_cases():
    # exp(t x) pdf(x) over the window 48/(1 - t), split as mgf_via_density
    # splits it: these exhaust any panel budget
    for law, t in (("laplace", 1.0 - 1e-9), ("normal-product", 1.0 - 1e-9),
                   ("normal-product", 0.9999999999999999)):
        density = dist.builtin_density(law)
        extent = 48.0 / (1.0 - t)
        points = [0.0] + [s * 2.0**k for k in range(int(math.log2(extent)) + 1) for s in (1, -1)]

        def f(x, density=density, t=t):
            with np.errstate(over="ignore"):
                return np.exp(t * x + density.log_pdf(x))

        yield f, -extent, extent, dict(tol_abs=5e-11, tol_rel=1e-12, max_panels=1024, points=points)


@pytest.mark.parametrize(
    "f, a, b, kwargs", [*_random_cases(), *_singular_cases(), *_tail_rate_cases()]
)
def test_running_totals_leave_results_identical(f, a, b, kwargs):
    expected = _outcome(_reference_adaptive_quad, f, a, b, **kwargs)
    assert repr(_outcome(adaptive_quad, f, a, b, **kwargs)) == repr(expected)
