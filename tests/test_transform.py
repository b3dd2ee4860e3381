import math

import numpy as np
import pytest

from lclab import dist, shape, transform
from lclab.errors import DivergenceError, DomainError, NonConvergenceError, NotNormalizedError
from lclab.transform import MGFMethod

N02_AT_0 = 0.28209479177387814  # 1/sqrt(4 pi)


def test_normal_selfdiff_matches_variance_2_gaussian(normal_grid):
    sd = transform.self_difference(normal_grid)
    k = int(np.argmin(np.abs(sd.nodes)))
    assert sd.values[k] == pytest.approx(N02_AT_0, abs=1e-4)


def test_laplace_selfdiff_near_zero_is_quarter(laplace_grid):
    # f_D(0) = int f^2 = 1/4 for Laplace(0,1)
    sd = transform.self_difference(laplace_grid)
    k = int(np.argmin(np.abs(sd.nodes)))
    assert sd.values[k] == pytest.approx(0.25, abs=1e-4)


def test_product_selfdiff_is_laplace_in_sup_norm(product_selfdiff):
    sup = np.max(np.abs(product_selfdiff.values - dist.laplace_density(product_selfdiff.nodes)))
    assert sup <= 1e-3


def test_product_selfdiff_sup_distance_shrinks_with_n(product_selfdiff):
    sup_4096 = np.max(
        np.abs(product_selfdiff.values - dist.laplace_density(product_selfdiff.nodes))
    )
    g8 = dist.discretize(dist.normal_product(), 12.0, 8192)
    sd8 = transform.self_difference(g8)
    sup_8192 = np.max(np.abs(sd8.values - dist.laplace_density(sd8.nodes)))
    assert sup_8192 < sup_4096


def test_output_grid_geometry(product_grid, product_selfdiff):
    assert product_selfdiff.half_width == 2 * product_grid.half_width
    assert product_selfdiff.n_cells == 2 * product_grid.n_cells
    assert product_selfdiff.step == pytest.approx(product_grid.step)
    assert product_selfdiff.trusted_half_width == product_grid.half_width
    assert product_selfdiff.singular_points == (0.0,)


def test_selfdiff_even_by_construction(product_selfdiff):
    assert np.max(np.abs(product_selfdiff.values - product_selfdiff.values[::-1])) <= 1e-12


def test_selfdiff_even_for_asymmetric_input():
    # X - X' is symmetric for any X; the correlation must produce an even
    # grid even when the input density is skewed
    rng = np.random.default_rng(7)
    values = rng.uniform(0.05, 1.0, size=256) * np.linspace(0.2, 1.8, 256)
    g = dist.GridDensity(4.0, values).normalized()
    sd = transform.self_difference(g)
    assert np.max(np.abs(sd.values - sd.values[::-1])) <= 1e-12
    ss = transform.self_sum(g)
    assert np.max(np.abs(ss.values - ss.values[::-1])) > 1e-6  # sum keeps the skew


def test_selfdiff_equals_selfsum_for_even_input(product_selfdiff, product_grid):
    ss = transform.self_sum(product_grid)
    assert np.max(np.abs(ss.values - product_selfdiff.values)) <= 1e-12


def test_fft_matches_direct_correlation():
    for cells in (64, 128, 256):
        g = dist.discretize(dist.laplace(), 8.0, cells)
        fft = transform.self_difference(g, use_fft=True)
        direct = transform.self_difference(g, use_fft=False)
        assert np.max(np.abs(fft.values - direct.values)) <= 1e-10


def _assert_relative(fft, direct, rel):
    # every entry in the normal double range to ``rel``; below 2^-1022 the
    # direct sums themselves lose products to underflow
    tiny = np.finfo(float).tiny
    assert np.all(np.abs(fft - direct) <= rel * direct + tiny)


@pytest.mark.parametrize("law", dist.builtin_density_names())
@pytest.mark.parametrize("cells", [64, 4096, 2**14])
@pytest.mark.parametrize("half_width", [12.0, 48.0])
def test_fft_correlation_relative_accuracy_on_every_entry(law, cells, half_width):
    g = dist.discretize(dist.builtin_density(law), half_width, cells)
    fft = transform.self_difference(g, use_fft=True)
    direct = transform.self_difference(g, use_fft=False)
    _assert_relative(fft.values, direct.values, 1e-12)
    if law == "normal" and half_width == 48.0:
        assert np.count_nonzero(direct.values == 0.0) > 0  # the tail underflows


def test_fft_correlation_accurate_into_subnormal_tails():
    # at half-width 1000 the Laplace grid runs into subnormal values, so some
    # tilts peak on a subnormal entry; the reference sums in extended
    # precision, where the double direct sums lose products to underflow
    g = dist.discretize(dist.laplace(), 1000.0, 4096)
    v = g.values.astype(np.longdouble)
    direct = np.correlate(v, v, mode="full")[g.n_cells - 1 :]
    fft = transform._correlation_sums(g.values, use_fft=True)
    tiny = np.finfo(float).tiny
    assert np.all(np.abs(fft - direct) <= 1e-12 * np.maximum(direct, tiny))


@pytest.mark.parametrize("cells", [64, 1000, 4096, 2**14])
def test_fft_self_sum_relative_accuracy_on_asymmetric_input(cells):
    rng = np.random.default_rng(cells)
    values = rng.uniform(0.05, 1.0, cells) * np.exp(-np.linspace(0.0, 30.0, cells))
    g = dist.GridDensity(4.0, values).normalized()
    fft = transform.self_sum(g, use_fft=True)
    direct = transform.self_sum(g, use_fft=False)
    _assert_relative(fft.values, direct.values, 1e-12)
    assert fft.values[-1] < 1e-20 * fft.values.max()  # a tail the plain FFT loses


def test_product_selfdiff_log_concave_far_into_the_tail():
    # entries near 1e-8 of the peak, where a plain FFT's absolute round-off
    # breaks log-concavity at tol 1e-9 at this size
    g = dist.discretize(dist.normal_product(), 48.0, 2**14)
    assert shape.check_log_concavity_grid(transform.self_difference(g), 1e-9).holds


def test_mass_conservation(product_selfdiff, product_grid):
    assert product_selfdiff.mass == pytest.approx(1.0, abs=1e-12)
    assert abs(1.0 - product_selfdiff.raw_mass) <= 1e-4


def test_variance_additivity(product_grid, product_selfdiff):
    assert dist.moment(product_selfdiff, 2) == pytest.approx(
        2.0 * dist.moment(product_grid, 2), abs=5e-3
    )


def test_selfdiff_requires_normalized_grid():
    g = dist.GridDensity(4.0, np.full(128, 0.5))
    with pytest.raises(NotNormalizedError):
        transform.self_difference(g)


# --- MGF ---------------------------------------------------------------


def test_mgf_at_zero_is_one_for_every_method():
    assert transform.mgf_via_density(dist.normal_product(), 0.0, 1e-12).value == pytest.approx(
        1.0, abs=1e-12
    )
    assert transform.mgf_via_conditioning(0.0, 1e-12).value == pytest.approx(1.0, abs=1e-12)
    assert transform.mgf_difference_closed_form(0.0).value == 1.0


@pytest.mark.parametrize("t", [0.25, -0.25, 0.5, -0.5, 0.9, -0.9])
def test_mgf_routes_match_closed_form(t):
    closed = 1.0 / math.sqrt(1.0 - t * t)
    by_density = transform.mgf_via_density(dist.normal_product(), t, 1e-10)
    by_conditioning = transform.mgf_via_conditioning(t, 1e-10)
    assert by_density.value == pytest.approx(closed, abs=1e-8)
    assert by_conditioning.value == pytest.approx(closed, abs=1e-8)
    assert abs(by_density.value - by_conditioning.value) <= 2e-10
    assert by_density.method is MGFMethod.DENSITY_QUADRATURE
    assert by_conditioning.method is MGFMethod.GAUSSIAN_CONDITIONING


def test_mgf_even_in_t():
    a = transform.mgf_via_conditioning(0.5, 1e-12).value
    b = transform.mgf_via_conditioning(-0.5, 1e-12).value
    assert a == pytest.approx(b, rel=1e-12)


def test_mgf_specific_values():
    assert transform.mgf_via_density(dist.normal_product(), 0.6, 1e-10).value == pytest.approx(
        1.25, abs=1e-9
    )
    assert transform.mgf_via_conditioning(0.9, 1e-10).value == pytest.approx(
        2.2941573387056176, abs=1e-9
    )


def test_mgf_divergence_at_boundary():
    with pytest.raises(DivergenceError):
        transform.mgf_via_density(dist.normal_product(), 1.0)
    with pytest.raises(DivergenceError):
        transform.mgf_via_density(dist.laplace(), -1.2)
    with pytest.raises(DivergenceError):
        transform.mgf_via_conditioning(1.0)


def test_mgf_near_boundary_huge_value_or_budget_error():
    # at t = 0.999999 the integral is finite (~707.1) but brutally wide;
    # either an accurate huge value or a clean budget error is acceptable
    try:
        res = transform.mgf_via_density(dist.normal_product(), 0.999999, 1e-8)
    except NonConvergenceError:
        return
    assert res.value == pytest.approx(1.0 / math.sqrt(1.0 - 0.999999**2), rel=1e-6)


def test_mgf_difference_closed_form_values():
    assert transform.mgf_difference_closed_form(0.5).value == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert transform.mgf_difference_closed_form(0.9).value == pytest.approx(
        1.0 / 0.19, rel=1e-14
    )
    with pytest.raises(DomainError):
        transform.mgf_difference_closed_form(1.0)


@pytest.mark.parametrize("t", [0.1, -0.1, 0.3, -0.3, 0.5, -0.5, 0.8, -0.8])
def test_difference_mgf_factorization(t):
    product = dist.normal_product()
    numeric = (
        transform.mgf_via_density(product, t, 1e-9).value
        * transform.mgf_via_density(product, -t, 1e-9).value
    )
    assert numeric == pytest.approx(transform.mgf_difference_closed_form(t).value, abs=1e-7)


def test_laplace_mgf_equals_difference_mgf():
    # the self-difference MGF is the Laplace MGF: same 1/(1-t^2)
    for t in (0.2, 0.7):
        lap = transform.mgf_via_density(dist.laplace(), t, 1e-11).value
        assert lap == pytest.approx(transform.mgf_difference_closed_form(t).value, abs=1e-9)


def test_normal_mgf_sanity():
    assert transform.mgf_via_density(dist.standard_normal(), 2.0, 1e-11).value == pytest.approx(
        math.exp(2.0), rel=1e-10
    )


def test_mgf_error_estimates_within_tol():
    res = transform.mgf_via_density(dist.normal_product(), 0.5, 1e-8)
    assert 0.0 <= res.abs_error_estimate <= 1e-8
    res = transform.mgf_via_conditioning(0.5, 1e-8)
    assert 0.0 <= res.abs_error_estimate <= 1e-8


def test_mgf_rejects_bad_tol():
    with pytest.raises(DomainError):
        transform.mgf_via_density(dist.laplace(), 0.1, tol=0.0)
    with pytest.raises(DomainError):
        transform.mgf_via_conditioning(0.1, tol=-1e-3)
