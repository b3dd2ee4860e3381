"""Acceptance suite: one test per criterion, one PASS line each.

Every tolerance is pinned here, not configured; run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from lclab import dist, mc, shape, specfun, transform
from lclab.mc import Generator
from lclab.quadrature import adaptive_quad

from test_mc import GOLDEN_SCALED


def _report(name: str, elapsed: float, budget: float, detail: str):
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.2f}s (< {budget:.0f}s): {detail}")


def test_criterion_1_bessel_oracle_agreement():
    start = time.perf_counter()
    worst = 0.0
    xs = np.geomspace(1e-6, 700.0, 200)
    for x, main in zip(xs, specfun.k0_values(xs)):
        oracle = specfun.bessel_k0_quadrature_oracle(float(x), 1e-14)
        denom = max(abs(oracle.value), 1e-300)
        worst = max(worst, abs(main - oracle.value) / denom)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    _report("1 (Bessel oracle agreement)", elapsed, 5, f"max rel err {worst:.2e} over 200 points")


def test_criterion_2_density_normalization():
    start = time.perf_counter()
    mass = transform.mgf_via_density(dist.normal_product(), 0.0, 1e-10).value
    # equivalently int_0^inf K0 = pi/2; K0 < 1e-26 beyond 60
    k0_integral = adaptive_quad(specfun.k0_values, 0.0, 60.0, tol_rel=1e-13).value
    elapsed = time.perf_counter() - start
    assert mass == pytest.approx(1.0, abs=1e-8)
    assert k0_integral == pytest.approx(math.pi / 2, abs=1e-8)
    assert elapsed < 1.0
    _report("2 (density normalization)", elapsed, 1, f"|mass-1| = {abs(mass-1):.2e}")


def test_criterion_3_mgf_closed_forms():
    start = time.perf_counter()
    product = dist.normal_product()
    worst_route = 0.0
    for t in (0.0, 0.25, -0.25, 0.5, -0.5, 0.9, -0.9):
        closed = 1.0 / math.sqrt(1.0 - t * t)
        worst_route = max(
            worst_route,
            abs(transform.mgf_via_density(product, t, 1e-10).value - closed),
            abs(transform.mgf_via_conditioning(t, 1e-10).value - closed),
        )
    worst_fact = 0.0
    for t in (0.1, 0.3, 0.5, 0.8):
        numeric = (
            transform.mgf_via_density(product, t, 1e-9).value
            * transform.mgf_via_density(product, -t, 1e-9).value
        )
        worst_fact = max(worst_fact, abs(numeric - 1.0 / (1.0 - t * t)))
    elapsed = time.perf_counter() - start
    assert worst_route <= 1e-8
    assert worst_fact <= 1e-7
    assert elapsed < 5.0
    _report(
        "3 (MGF closed forms)", elapsed, 5,
        f"route err {worst_route:.2e} <= 1e-8, factorization err {worst_fact:.2e} <= 1e-7",
    )


def test_criterion_4_laplace_identification(product_grid, product_selfdiff):
    start = time.perf_counter()
    pdf = dist.laplace().pdf
    sup = float(np.max(np.abs(product_selfdiff.values - pdf(product_selfdiff.nodes))))
    sd2 = transform.self_difference(dist.discretize(dist.normal_product(), 12.0, 8192))
    sup2 = float(np.max(np.abs(sd2.values - pdf(sd2.nodes))))
    elapsed = time.perf_counter() - start
    assert sup <= 1e-3
    assert sup2 < sup
    assert elapsed < 2.0
    _report(
        "4 (Laplace identification)", elapsed, 2,
        f"sup-node distance {sup:.2e} <= 1e-3 at n=4096, {sup2:.2e} at n=8192",
    )


def test_criterion_5_shape_triple(product_grid, laplace_grid, product_selfdiff):
    start = time.perf_counter()
    # the triple at the example tolerances
    product_verdict = shape.check_log_concavity_grid(product_grid, 1e-9)
    assert not product_verdict.holds and product_verdict.witness is not None
    assert shape.check_log_concavity_grid(product_selfdiff, 1e-6).holds
    assert shape.check_log_concavity_grid(laplace_grid, 1e-9).holds
    # witness reproducibility
    w = product_verdict.witness
    assert w.violation > 1e-9
    again = shape.check_log_concavity_grid(product_grid, 1e-9).witness
    assert (again.x, again.midpoint, again.y, again.violation) == (
        w.x, w.midpoint, w.y, w.violation,
    )
    # analytic convexity routes
    assert shape.check_log_convexity_interval(
        specfun.k0_values, 0.01, 30.0, 2048, 1e-10
    ).holds
    assert shape.check_ratio_monotonicity(0.01, 30.0, 2048).holds
    # stability: tolerance ladder within [1e-11, 1e-7] for all three verdicts
    for tol in (1e-11, 1e-10, 1e-9, 1e-8, 1e-7):
        assert not shape.check_log_concavity_grid(product_grid, tol).holds
        assert shape.check_log_concavity_grid(laplace_grid, tol).holds
        assert shape.check_log_concavity_grid(product_selfdiff, tol).holds
    # stability: n doubling
    gp8 = dist.discretize(dist.normal_product(), 12.0, 8192)
    gl8 = dist.discretize(dist.laplace(), 12.0, 8192)
    sd8 = transform.self_difference(gp8)
    assert not shape.check_log_concavity_grid(gp8, 1e-9).holds
    assert shape.check_log_concavity_grid(gl8, 1e-9).holds
    assert shape.check_log_concavity_grid(sd8, 1e-6).holds
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        "5 (shape triple)", elapsed, 5,
        f"product fails (violation {w.violation:.3f} at m={w.midpoint:.3f}), "
        "difference and Laplace hold across tol ladder and n-doubling",
    )


def test_criterion_6_fft_correctness():
    start = time.perf_counter()
    worst = 0.0
    for cells in (64, 128, 256):
        g = dist.discretize(dist.laplace(), 8.0, cells)
        fft = transform.self_difference(g, use_fft=True)
        direct = transform.self_difference(g, use_fft=False)
        worst = max(worst, float(np.max(np.abs(fft.values - direct.values))))
    gn = dist.discretize(dist.standard_normal(), 12.0, 4096)
    sd = transform.self_difference(gn)
    k = int(np.argmin(np.abs(sd.nodes)))
    gauss_err = abs(sd.values[k] - 1.0 / math.sqrt(4.0 * math.pi))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert gauss_err <= 1e-4
    assert elapsed < 2.0
    _report(
        "6 (FFT correctness)", elapsed, 2,
        f"fft-vs-direct {worst:.2e} <= 1e-10, N(0,2) near-zero err {gauss_err:.2e} <= 1e-4",
    )


def test_criterion_7_monte_carlo():
    start = time.perf_counter()
    reports = mc.ks_over_seeds(mc.GOLDEN_SEEDS, 10**6, dist.laplace_cdf, 0.001)
    good = reports[Generator.PRODUCT_SELF_DIFFERENCE]
    bad = reports[Generator.NORMAL_PRODUCT]
    elapsed = time.perf_counter() - start
    n_pass = sum(r.passed for r in good)
    assert n_pass >= 9
    assert all(not r.passed for r in bad)
    for seed, report in zip(mc.GOLDEN_SEEDS, good):
        assert report.scaled == pytest.approx(GOLDEN_SCALED[seed], rel=1e-9)
    assert elapsed < 60.0
    _report(
        "7 (Monte Carlo)", elapsed, 60,
        f"{n_pass}/10 seeds pass vs Laplace (golden-pinned), 10/10 fail vs product law",
    )


def test_criterion_8_verify_theorem_cli():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lclab", "verify-theorem"],
        capture_output=True,
        text=True,
        timeout=90,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OVERALL: PASS" in proc.stdout
    assert proc.stdout.count("[PASS]") == 5
    assert elapsed < 90.0
    _report("8 (verify-theorem exit 0)", elapsed, 90, "all pipeline steps pass")
