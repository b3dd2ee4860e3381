import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lclab import dist, shape, transform
from lclab.errors import DivergenceError, DomainError, NonConvergenceError, NotNormalizedError

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
    sup = np.max(np.abs(product_selfdiff.values - dist.laplace().pdf(product_selfdiff.nodes)))
    assert sup <= 1e-3


def test_product_selfdiff_sup_distance_shrinks_with_n(product_selfdiff):
    pdf = dist.laplace().pdf
    sup_4096 = np.max(np.abs(product_selfdiff.values - pdf(product_selfdiff.nodes)))
    g8 = dist.discretize(dist.normal_product(), 12.0, 8192)
    sd8 = transform.self_difference(g8)
    sup_8192 = np.max(np.abs(sd8.values - pdf(sd8.nodes)))
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
    fft, k = transform._correlation_sums(g.values, use_fft=True)
    assert k == 0
    tiny = np.finfo(float).tiny
    assert np.all(np.abs(fft - direct) <= 1e-12 * np.maximum(direct, tiny))


def _counting_ffts(monkeypatch, f, *args):
    """``f(*args)`` with its number of rfft calls and its irfft lengths."""
    rffts = []
    irffts = []
    rfft, irfft = transform.np.fft.rfft, transform.np.fft.irfft

    def counting_rfft(x, *args, **kwargs):
        rffts.append(x.size)
        return rfft(x, *args, **kwargs)

    def recording_irfft(spec, m, **kwargs):
        irffts.append(m)
        return irfft(spec, m, **kwargs)

    monkeypatch.setattr(transform.np.fft, "rfft", counting_rfft)
    monkeypatch.setattr(transform.np.fft, "irfft", recording_irfft)
    out = f(*args)
    return out, len(rffts), irffts


def _fft_work(lengths):
    """FFT work of a run, priced m log2 m per length-m transform pair."""
    return sum(m * math.log2(m) for m in lengths)


#: Most tilts a skewed input of each size may take: the counts when every
#: saddle solve weighed each entry, which the binned solves must not exceed
SKEWED_MAX_TILTS = {64: 1, 1000: 4, 4096: 4, 2**14: 6, 2**16: 7}


@pytest.mark.parametrize("cells", sorted(SKEWED_MAX_TILTS))
def test_fft_selfdiff_relative_accuracy_on_skewed_input(cells, monkeypatch):
    # a skewed grid takes the two-spectrum path (values and their reverse)
    rng = np.random.default_rng(cells)
    values = rng.uniform(0.05, 1.0, cells) * np.exp(-np.linspace(0.0, 60.0, cells))
    g = dist.GridDensity(4.0, values).normalized()
    fft, rfft, irfft = _counting_ffts(monkeypatch, transform.self_difference, g)
    direct = transform.self_difference(g, use_fft=False)
    _assert_relative(fft.values, direct.values, 1e-12)
    assert fft.values[-1] < 1e-20 * fft.values.max()  # a tail the plain FFT loses
    assert rfft == 2 * len(irfft)
    # each later tilt must earn its block's FFTs: block tilts under a stop
    # rule priced at the full FFT length once took 70 tilts on such input
    assert 0 < len(irfft) <= SKEWED_MAX_TILTS[cells]


#: FFT lengths of the tilts of a self-difference, by (law, cells, L).  At
#: 2^14 cells, L = 12.06 the bisection saves the plain-FFT pass for the
#: product law and Laplace, whose first (saddle) tilt covers every lag the
#: plain FFT does, and their later tilts run on short trailing blocks; the
#: normal law's first tilt does not cover lag 0, so its second tilt is the
#: full-length plain one, and each of its later tilts covers a narrow band
#: of lags.  Laplace at 256 cells, L = 0.5 leaves only 8 lags past the
#: plain FFT's range, cheaper to sum directly than to tilt, so its one tilt
#: is the plain one
TILT_LENGTHS = {
    ("normal-product", 2**14, 12.06): [2**15, 2**12, 2**6],
    ("laplace", 2**14, 12.06): [2**15, 2**12, 2**7],
    ("normal", 2**14, 12.06): [2**15] * 4 + [2**14, 2**13, 2**12, 2**8],
    ("laplace", 256, 0.5): [512],
}


def _tilt_lengths_id(key):
    law, cells, half_width = key
    return law if (cells, half_width) == (2**14, 12.06) else f"{law}-{cells}-{half_width}"


@pytest.mark.parametrize("key", list(TILT_LENGTHS), ids=_tilt_lengths_id)
def test_builtin_grid_takes_one_spectrum_per_tilt(key, monkeypatch):
    law, cells, half_width = key
    g = dist.discretize(dist.builtin_density(law), half_width, cells)
    phis = []
    tilted = transform._tilted

    def recording(x, log2x, phi):
        phis.append(phi)
        return tilted(x, log2x, phi)

    monkeypatch.setattr(transform, "_tilted", recording)
    _, rfft, irfft = _counting_ffts(monkeypatch, transform.self_difference, g)
    assert irfft == TILT_LENGTHS[key]
    assert all(m <= irfft[0] for m in irfft[1:])
    assert rfft == len(irfft) == len(phis)
    if key == ("laplace", 256, 0.5):
        assert phis == [0.0]


#: Tilts per self-difference when every tilt ran at the full FFT length
#: 2n (before later tilts ran on trailing blocks), by (law, cells, L)
FULL_LENGTH_TILTS = {
    ("normal-product", 4096, 12.0): 2,
    ("normal-product", 4096, 48.0): 2,
    ("normal-product", 2**14, 12.0): 2,
    ("normal-product", 2**14, 48.0): 2,
    ("laplace", 4096, 12.0): 2,
    ("laplace", 4096, 48.0): 2,
    ("laplace", 2**14, 12.0): 2,
    ("laplace", 2**14, 48.0): 2,
    ("normal", 4096, 12.0): 6,
    ("normal", 4096, 48.0): 15,
    ("normal", 2**14, 12.0): 7,
    ("normal", 2**14, 48.0): 15,
}


def _no_zero_lags(v, m):
    raise AssertionError("a grid without interior zeros looked for zero lags")


def test_block_tilts_cut_fft_work(monkeypatch):
    monkeypatch.setattr(transform, "_zero_lags", _no_zero_lags)
    work = full_length_work = 0.0
    for (law, cells, half_width), tilts in FULL_LENGTH_TILTS.items():
        g = dist.discretize(dist.builtin_density(law), half_width, cells)
        _, _, irfft = _counting_ffts(monkeypatch, transform.self_difference, g)
        assert irfft[0] == 2 * cells
        work += _fft_work(irfft)
        full_length_work += tilts * _fft_work([2 * cells])
    assert work < 0.8 * full_length_work


@pytest.mark.parametrize("law", dist.builtin_density_names())
@pytest.mark.parametrize("cells", [64, 256, 1000, 4096])
def test_first_short_lag_matches_brute_force(law, cells):
    # the first lag whose exact sum falls below a plain FFT's accuracy floor
    g = dist.discretize(dist.builtin_density(law), 12.0, cells)
    v = g.values
    sums = np.correlate(v, v, mode="full")[cells - 1 :]
    m = 1 << (2 * cells - 2).bit_length()
    floor = transform._FFT_ERROR_BOUND * np.finfo(float).eps * math.log2(m) * sums[0]
    floor /= transform._REL_TARGET
    short = np.flatnonzero(sums < floor)
    expected = int(short[0]) if short.size else cells
    assert transform._first_short_lag(v, floor) == expected
    assert transform._first_short_lag(v, 0.0) == cells
    assert transform._first_short_lag(v, 2.0 * sums[0]) == 0


def test_fft_correlation_falls_back_to_plain_tilt_on_two_bumps(monkeypatch):
    # the correlation of two bumps rises again at their distance, so the
    # probe's lag lies past a dip that the first (saddle) tilt leaves short;
    # the plain tilt must follow
    n = 2000
    x = np.linspace(-1.0, 1.0, n)

    def bump(z):
        return np.exp(-0.5 * z * z)

    v = bump((x - 0.2) / 0.05) + 1e-3 * bump((x + 0.2) / 0.05) + 1e-30
    v = v + v[::-1]
    tilts = []
    tilted = transform._tilted

    def recording(x, log2x, phi):
        tilts.append((x.size, phi))
        return tilted(x, log2x, phi)

    monkeypatch.setattr(transform, "_tilted", recording)
    (fft, _), _, irfft = _counting_ffts(monkeypatch, transform._correlation_sums, v, True)
    _assert_relative(fft, np.correlate(v, v, mode="full")[n - 1 :], 1e-12)
    assert len(irfft) == len(tilts) <= 3
    # the plain tilt follows at full length; only later tilts run on blocks
    assert tilts[0][0] == n and tilts[0][1] != 0.0
    assert tilts[1] == (n, 0.0)
    assert all(size < n for size, _ in tilts[2:])


@pytest.mark.parametrize("law", dist.builtin_density_names())
def test_saddle_solves_run_on_at_most_4096_bins(law, monkeypatch):
    sizes = []
    moments = transform._tilt_moments

    def recording(log2x, *args):
        sizes.append(log2x.size)
        return moments(log2x, *args)

    monkeypatch.setattr(transform, "_tilt_moments", recording)
    transform.self_difference(dist.discretize(dist.builtin_density(law), 12.06, 2**18))
    assert sizes and max(sizes) <= 4096


def _log2_rss_by_fractions(x, width):
    """log2 sqrt(sum x_i^2) of each run of ``width`` entries, from exact sums."""
    out = []
    for start in range(0, x.size, width):
        total = sum(Fraction(float(e)) ** 2 for e in x[start : start + width])
        if total == 0:
            out.append(-math.inf)
        else:
            out.append(0.5 * (math.log2(total.numerator) - math.log2(total.denominator)))
    return np.array(out)


@pytest.mark.parametrize("size", [4096, 4097, 10_001, 2**16 + 5])
def test_saddle_bins_match_exact_root_sum_squares(size):
    rng = np.random.default_rng(size)
    x = np.exp2(rng.uniform(-1074.0, 1023.0, size)) * rng.uniform(0.5, 1.0, size)
    x[rng.random(size) < 0.3] = 0.0  # zeros, some whole runs of them
    x[size // 3 : size // 3 + 64] = 0.0
    log2x = transform._log2(x)
    centres, bins = transform._saddle_bins(log2x)
    width = -(-size // 4096)
    assert bins.size == centres.size == -(-size // width) <= 4096
    starts = np.arange(0, size, width)
    ends = np.minimum(starts + width, size) - 1
    assert np.array_equal(centres, 0.5 * (starts + ends))
    exact = _log2_rss_by_fractions(x, width)
    assert np.array_equal(np.isinf(bins), np.isinf(exact))
    finite = np.isfinite(exact)
    assert np.all(np.abs(bins[finite] - exact[finite]) <= 1e-12 * np.abs(exact[finite]) + 1e-12)
    if width == 1:
        assert np.array_equal(bins, log2x)


def _comb(cells: int, period: int) -> dist.GridDensity:
    # a lattice law on a grid ``period`` times finer: values on the first
    # half of each period only (one cell for periods 2 and 3), decaying like
    # e^(-50 x), so every lag sum off the lattice's differences is exactly 0
    i = np.arange(cells)
    values = np.exp(-50.0 * i / cells) * (i % period < period // 2)
    return dist.GridDensity(4.0, values).normalized()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("period", [2, 3, 4, 8, 16])
def test_comb_selfdiff_matches_direct_sums(period):
    g = _comb(2**14, period)
    fft = transform.self_difference(g)
    direct = transform.self_difference(g, use_fft=False)
    _assert_relative(fft.values, direct.values, 1e-12)


@pytest.mark.parametrize("period", [2, 3, 4, 8, 16])
def test_comb_selfdiff_sums_no_long_direct_block(period, monkeypatch):
    # exactly zero lags never get under the FFT's absolute round-off; they
    # once stopped the tilts and left almost every lag to np.convolve
    cells = 2**16
    blocks = []
    convolve = transform.np.convolve

    def recording(a, b, *args, **kwargs):
        blocks.append(a.size)
        return convolve(a, b, *args, **kwargs)

    monkeypatch.setattr(transform.np, "convolve", recording)
    _, rfft, irfft = _counting_ffts(monkeypatch, transform.self_difference, _comb(cells, period))
    assert rfft == 2 * len(irfft) - 1  # two spectra per tilt, one for the zero lags
    assert len(irfft) <= 2 * math.log2(cells)
    assert max(blocks, default=0) <= 64


def _log_concave_grid(seed: int, cells: int) -> dist.GridDensity:
    # ln v is the cumulative sum of nonincreasing slopes, clipped at -700
    rng = np.random.default_rng(seed)
    spread = 10.0 ** rng.uniform(-3.0, 0.0)
    slopes = np.sort(rng.normal(rng.uniform(-1.0, 1.0) * spread, spread, cells))[::-1]
    logv = np.cumsum(slopes)
    logv -= logv.max()
    return dist.GridDensity(4.0, np.exp(np.maximum(logv, -700.0))).normalized()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=32, max_value=2048), st.integers(min_value=0, max_value=2**32))
def test_selfdiff_properties_on_random_log_concave_grids(half_cells, seed):
    g = _log_concave_grid(seed, 2 * half_cells)
    sd = transform.self_difference(g)
    assert sd.mass == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(sd.values, sd.values[::-1])
    # the lag-d sum sits at d h, split evenly over the cells at (d -+ 1/2) h
    p = g.values * g.step
    x = g.nodes - float(p @ g.nodes)
    var_g = float(p @ x**2)
    var_sd = float((sd.values * sd.step) @ sd.nodes**2)
    assert var_sd == pytest.approx(2.0 * var_g + g.step**2 / 4.0, rel=1e-12)
    # discrete Prekopa (Hoggar 1974): the correlation of a log-concave
    # sequence is log-concave
    assert shape.check_log_concavity_grid(sd, 1e-11).holds


@pytest.mark.parametrize("law", dist.builtin_density_names())
def test_selfdiff_of_a_grid_peaking_past_1e153(law):
    # at half-width 1e-200 the grid peaks near 1e200, so its squares leave
    # the double range; the self-difference itself (~1/(2L) at 0) does not
    g = dist.discretize(dist.builtin_density(law), 1e-200, 64)
    assert g.values.max() > 1e199
    fft = transform.self_difference(g, use_fft=True)
    direct = transform.self_difference(g, use_fft=False)
    _assert_relative(fft.values, direct.values, 1e-12)
    assert fft.values.max() == pytest.approx(0.5e200, rel=0.05)


def test_product_selfdiff_log_concave_far_into_the_tail():
    # entries near 1e-8 of the peak, where a plain FFT's absolute round-off
    # breaks log-concavity at tol 1e-9 at this size
    g = dist.discretize(dist.normal_product(), 48.0, 2**14)
    assert shape.check_log_concavity_grid(transform.self_difference(g), 1e-9).holds


def test_mass_conservation(product_selfdiff, product_grid):
    assert product_selfdiff.mass == pytest.approx(1.0, abs=1e-12)
    assert abs(1.0 - product_selfdiff.raw_mass) <= 1e-4


def test_variance_additivity(product_grid, product_selfdiff):
    def variance(g):
        return g.step * float(np.sum(g.nodes**2 * g.values))

    assert variance(product_selfdiff) == pytest.approx(2.0 * variance(product_grid), abs=5e-3)


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
    assert transform.mgf_via_density(dist.laplace(), 0.0, 1e-12).value == pytest.approx(
        1.0, abs=1e-12
    )


@pytest.mark.parametrize("t", [0.25, -0.25, 0.5, -0.5, 0.9, -0.9])
def test_mgf_routes_match_closed_form(t):
    closed = 1.0 / math.sqrt(1.0 - t * t)
    by_density = transform.mgf_via_density(dist.normal_product(), t, 1e-10)
    by_conditioning = transform.mgf_via_conditioning(t, 1e-10)
    assert by_density.value == pytest.approx(closed, abs=1e-8)
    assert by_conditioning.value == pytest.approx(closed, abs=1e-8)
    assert abs(by_density.value - by_conditioning.value) <= 2e-10


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


@pytest.mark.parametrize("t", [0.999999, 1.0 - 1e-9, 0.9999999999999999])
@pytest.mark.parametrize("law", ["laplace", "normal-product"])
def test_mgf_error_estimate_covers_exponent_rounding_near_the_tail_rate(law, t):
    # the window 48/(1 - t) makes t*x and log_pdf(x) cancel from up to ~1e17
    # down to ~-48; the quadrature's own estimate does not see their rounding
    one_minus_t2 = (1.0 - t) * (1.0 + t)
    closed = 1.0 / one_minus_t2 if law == "laplace" else 1.0 / math.sqrt(one_minus_t2)
    try:
        res = transform.mgf_via_density(dist.builtin_density(law), t, 1e-10)
    except NonConvergenceError:
        return
    assert abs(res.value - closed) <= res.abs_error_estimate


def test_mgf_error_estimate_stays_finite_where_log_pdf_is_minus_inf():
    uniform = dist.AnalyticDensity(
        "uniform",
        lambda x: np.where(np.abs(x) < 1.0, 0.5, 0.0),
        lambda x: np.where(np.abs(x) < 1.0, math.log(0.5), -np.inf),
    )
    res = transform.mgf_via_density(uniform, 0.5, 1e-10)
    assert abs(res.value - math.sinh(0.5) / 0.5) <= res.abs_error_estimate <= 1e-10


def test_mgf_difference_closed_form_values():
    # the difference law is Laplace(0,1), whose MGF 1/(1 - t^2) is 4/3 at 0.5
    # and 1/0.19 at 0.9
    laplace = dist.laplace()
    assert transform.mgf_via_density(laplace, 0.5, 1e-12).value == pytest.approx(
        4.0 / 3.0, abs=1e-11
    )
    assert transform.mgf_via_density(laplace, 0.9, 1e-10).value == pytest.approx(
        1.0 / 0.19, abs=1e-9
    )


@pytest.mark.parametrize("t", [0.1, -0.1, 0.3, -0.3, 0.5, -0.5, 0.8, -0.8])
def test_difference_mgf_factorization(t):
    product = dist.normal_product()
    numeric = (
        transform.mgf_via_density(product, t, 1e-9).value
        * transform.mgf_via_density(product, -t, 1e-9).value
    )
    assert numeric == pytest.approx(1.0 / (1.0 - t * t), abs=1e-7)


def test_laplace_mgf_equals_difference_mgf():
    # the self-difference MGF is the Laplace MGF: same 1/(1-t^2)
    for t in (0.2, 0.7):
        lap = transform.mgf_via_density(dist.laplace(), t, 1e-11).value
        assert lap == pytest.approx(1.0 / (1.0 - t * t), abs=1e-9)


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
