import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lclab import dist, mc, transform
from lclab.errors import DomainError
from lclab.quadrature import adaptive_quad

# frozen from the quadrature-oracle run
PRODUCT_PDF_AT_1 = 0.13401624101699427
F1_MINUS_FM1 = 0.79100633699534767


def test_product_density_values():
    pdf = dist.normal_product().pdf
    assert pdf(1.0) == pytest.approx(PRODUCT_PDF_AT_1, rel=1e-13)
    assert pdf(-1.0) == pdf(1.0)


def test_product_density_singularity():
    for x in (0.0, -0.0, np.array([1.0, 0.0])):
        with pytest.raises(DomainError):
            dist.normal_product().pdf(x)


def test_product_density_even_bit_exact():
    xs = np.array([1e-6, 0.37, 1.0, 4.2, 11.0])
    pdf = dist.normal_product().pdf
    assert np.array_equal(pdf(xs), pdf(-xs))


def test_laplace_density_values():
    pdf = dist.laplace().pdf
    assert pdf(0.0) == 0.5
    assert pdf(math.log(2.0)) == pytest.approx(0.25, rel=1e-15)
    assert pdf(-3.0) == pytest.approx(0.5 * math.exp(-3.0), rel=1e-15)
    xs = np.array([0.1, 1.0, 7.7])
    assert np.array_equal(pdf(xs), pdf(-xs))


def test_laplace_cdf_values():
    assert dist.laplace_cdf(0.0) == 0.5
    assert dist.laplace_cdf(40.0) == pytest.approx(1.0, abs=1e-17)
    assert dist.laplace_cdf(-math.log(2.0)) == pytest.approx(0.25, rel=1e-15)
    xs = np.linspace(-20, 20, 101)
    f = dist.laplace_cdf(xs)
    assert np.all(np.diff(f) >= 0.0)
    assert f[0] >= 0.0 and f[-1] <= 1.0


def test_laplace_cdf_bit_identical_to_two_branch_form():
    # one exp(-|x|) serves both branches: exp(x) = exp(-|x|) for x <= 0 and
    # exp(-x) = exp(-|x|) for x > 0, so the two-branch form is reproduced bit
    # for bit, at the edges and on sampled batches of both generators
    tiny = np.nextafter(0.0, 1.0)
    edges = np.array([0.0, -0.0, tiny, -tiny, 800.0, -800.0, np.inf, -np.inf])
    batches = [mc.sample(g, 101, 100_000).values for g in mc.Generator]
    for x in [edges, *batches]:
        two_branch = np.where(
            x <= 0.0, 0.5 * np.exp(np.minimum(x, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(x, 0.0))
        )
        assert np.array_equal(dist.laplace_cdf(x), two_branch)


def test_laplace_cdf_memory_is_output_plus_mask():
    # the result doubles as every intermediate; only the n-byte branch mask
    # comes on top
    x = np.linspace(-20.0, 20.0, 10**6)
    tracemalloc.start()
    try:
        f = dist.laplace_cdf(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * f.nbytes


def test_product_density_integral_over_unit_interval():
    res = adaptive_quad(
        dist.normal_product().pdf, -1.0, 1.0, tol_abs=1e-12, tol_rel=1e-13, points=[0.0]
    )
    assert res.value == pytest.approx(F1_MINUS_FM1, abs=1e-11)


@pytest.mark.parametrize("name", ["normal", "laplace", "normal-product"])
def test_builtin_densities_normalized(name):
    d = dist.builtin_density(name)
    assert transform.mgf_via_density(d, 0.0, 1e-10).value == pytest.approx(1.0, abs=1e-8)


def test_builtin_density_unknown_name():
    with pytest.raises(ValueError):
        dist.builtin_density("cauchy")


@pytest.mark.parametrize("name", ["normal", "laplace", "normal-product"])
def test_log_pdf_consistent_with_pdf(name):
    d = dist.builtin_density(name)
    xs = np.array([1e-3, 0.1, 1.0, 5.0, 20.0, -0.4, -7.0])
    pdf = d.pdf(xs)
    keep = pdf > 1e-300
    assert np.allclose(np.exp(d.log_pdf(xs[keep])), pdf[keep], rtol=1e-12)


def test_cdf_density_consistency_central_difference():
    h = 1e-4
    for x in (0.5, 1.0, 2.0):
        lap = (dist.laplace_cdf(x + h) - dist.laplace_cdf(x - h)) / (2 * h)
        assert lap == pytest.approx(dist.laplace().pdf(x), abs=1e-7)


def test_discretize_laplace_mass_defect():
    g = dist.discretize(dist.laplace(), 8.0, 1024)
    # tail mass 2 * int_8^inf exp(-x)/2 = exp(-8), up to the midpoint-rule bias
    midpoint_mass = g.step * float(np.sum(dist.laplace().pdf(g.nodes)))
    assert 1.0 - midpoint_mass == pytest.approx(math.exp(-8.0), abs=3e-5)
    assert g.mass == pytest.approx(1.0, abs=1e-12)


def test_discretize_product_all_finite(product_grid):
    assert np.all(np.isfinite(product_grid.values))
    assert np.all(product_grid.values >= 0.0)
    assert product_grid.singular_points == (0.0,)
    # origin cells hold averages exceeding the adjacent point values
    n = product_grid.n_cells
    assert product_grid.values[n // 2] > product_grid.values[n // 2 + 1]


def test_discretize_normal_symmetric():
    g = dist.discretize(dist.standard_normal(), 8.0, 1024)
    assert np.array_equal(g.values, g.values[::-1])


@pytest.mark.parametrize("law", dist.builtin_density_names())
@pytest.mark.parametrize("half_width", [12.06, 99.21396298681813, 193.1])
@pytest.mark.parametrize("cells", [1272, 4098, 2**14])
def test_discretize_builtin_law_exactly_even(law, half_width, cells):
    # the computed nodes are not exactly antisymmetric at these half-widths
    g = dist.discretize(dist.builtin_density(law), half_width, cells)
    assert np.array_equal(g.values, g.values[::-1])


@pytest.mark.parametrize("half_width, cells", [(99.21396298681813, 1272), (710.3982969256681, 82)])
def test_discretize_product_averages_both_central_cells(half_width, cells):
    # the central edge of these grids rounds off 0, so only one central cell
    # contains the singular point; both must still hold the cell average
    g = dist.discretize(dist.normal_product(), half_width, cells)
    k = cells // 2
    assert g.values[k - 1] == g.values[k]
    assert g.values[k] > g.values[k + 1]
    assert g.values[k - 1] > g.values[k - 2]


def test_discretize_asymmetric_law_evaluated_on_every_node():
    shifted = dist.AnalyticDensity(
        "shifted-laplace",
        lambda x: 0.5 * np.exp(-np.abs(x - 1.0)),
        lambda x: -np.abs(x - 1.0) - math.log(2.0),
    )
    g = dist.discretize(shifted, 12.06, 1272)
    raw = shifted.pdf(g.nodes)
    assert np.array_equal(g.values, raw / (g.step * float(np.sum(raw))))
    assert not np.array_equal(g.values, g.values[::-1])


def test_discretize_ignores_a_singular_point_outside_the_window():
    far = dist.AnalyticDensity(
        "far-laplace",
        lambda x: 0.5 * np.exp(-np.abs(x - 20.0)),
        lambda x: -np.abs(x - 20.0) - math.log(2.0),
        singular_points=(20.0,),
    )
    g = dist.discretize(far, 8.0, 256)
    raw = far.pdf(g.nodes)
    assert np.array_equal(g.values, raw / (g.step * float(np.sum(raw))))
    assert g.singular_points == ()


def test_discretize_validates_arguments():
    with pytest.raises(ValueError):
        dist.discretize(dist.laplace(), 8.0, 63)
    with pytest.raises(ValueError):
        dist.discretize(dist.laplace(), 8.0, 62)
    with pytest.raises(ValueError):
        dist.discretize(dist.laplace(), -1.0, 64)
    with pytest.raises(ValueError, match="overflows"):
        dist.discretize(dist.laplace(), 1e308, 64)
    # x * x overflows in the normal pdf: a zero-mass grid, with no warning
    with pytest.raises(ValueError, match="zero-mass"):
        dist.discretize(dist.standard_normal(), 1e200, 64)


def test_grid_nodes_exclude_origin(product_grid):
    assert np.all(product_grid.nodes != 0.0)
    assert product_grid.step == pytest.approx(2 * 12.0 / 4096)


@pytest.mark.parametrize("cells", [64, 1000, 4096, 2**18])
@pytest.mark.parametrize("half_width", [1e-300, 1e-100, 1.0, 12.06, 1e100, 1e300])
def test_grid_nodes_bit_identical_to_the_plain_formula(cells, half_width):
    # nodes are built in place in one array; the bits are those of the
    # expression of the midpoints with its temporaries
    g = dist.GridDensity(half_width, np.ones(cells))
    expected = -g.half_width + (np.arange(cells) + 0.5) * g.step
    assert np.array_equal(g.nodes, expected)


def _raw_moment(g: dist.GridDensity, p: int) -> float:
    return g.step * float(np.sum(g.nodes**p * g.values))


def test_moments(product_grid, laplace_grid):
    assert _raw_moment(product_grid, 2) == pytest.approx(1.0, abs=2e-3)
    assert _raw_moment(laplace_grid, 2) == pytest.approx(2.0, abs=2e-3)
    assert _raw_moment(product_grid, 1) == pytest.approx(0.0, abs=1e-12)
    assert _raw_moment(laplace_grid, 0) == pytest.approx(1.0, abs=1e-12)


def test_moment_refinement_ladder():
    errors = []
    for half_width, cells in ((8.0, 1024), (12.0, 4096), (16.0, 16384)):
        g = dist.discretize(dist.normal_product(), half_width, cells)
        errors.append(abs(_raw_moment(g, 2) - 1.0))
    assert errors[0] > errors[1] > errors[2]


def test_csv_round_trip(product_selfdiff):
    text = "".join(product_selfdiff.to_csv())
    back = dist.GridDensity.from_csv(text)
    assert np.array_equal(back.values, product_selfdiff.values)
    assert back.half_width == pytest.approx(product_selfdiff.half_width, rel=1e-15)
    assert back.trusted_half_width == product_selfdiff.trusted_half_width
    assert back.singular_points == product_selfdiff.singular_points
    # blank and whitespace-only lines are skipped wherever they fall
    spaced = dist.GridDensity.from_csv(text.replace("\n", "\n \n\n"))
    assert np.array_equal(spaced.values, back.values)
    assert (spaced.half_width, spaced.trusted_half_width, spaced.singular_points) == (
        back.half_width, back.trusted_half_width, back.singular_points
    )


@st.composite
def _grids(draw):
    half_cells = draw(st.integers(min_value=1, max_value=40))
    values = draw(
        st.lists(
            st.floats(min_value=0.0, allow_infinity=False),
            min_size=2 * half_cells,
            max_size=2 * half_cells,
        )
    )
    half_width = draw(st.floats(min_value=1e-3, max_value=1e6))
    # a window over the whole grid (fraction 1) is the case where the
    # half-width parsed from the nodes may round below the declared window
    fraction = draw(st.none() | st.just(1.0) | st.floats(min_value=1e-6, max_value=1.0))
    singular = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4))
    trusted = None if fraction is None else fraction * half_width
    return dist.GridDensity(
        half_width, np.array(values), singular_points=singular, trusted_half_width=trusted
    )


@settings(max_examples=200, deadline=None)
@given(_grids())
def test_csv_round_trip_arbitrary_metadata(g):
    back = dist.GridDensity.from_csv("".join(g.to_csv()))
    assert np.array_equal(back.values, g.values)
    assert back.half_width == pytest.approx(g.half_width, rel=1e-12)
    assert back.trusted_half_width == g.trusted_half_width
    assert back.singular_points == g.singular_points


MALFORMED_CSV = [
    ("nope\n1,2\n", "expected header 'x,density'"),
    ("x,density\n0.5,1\n1.5,1\n2.6,1\n3.5,1\n", "must be uniformly increasing"),
    ("x,density\n-0.5,abc\n0.5,1\n", "malformed grid CSV: could not convert string 'abc'"),
    ("x,density\n-0.5,1\n0.5,1,2\n1.5,1\n2.5,1\n", "malformed grid CSV: the number of columns"),
    ("x,density\n-0.5,1\n0.5,1 # note\n", "malformed grid CSV: could not convert string '1 # note'"),
    ("x,density\n", "needs >= 2 rows"),
    ("# singular-points: 0\n\nx,density\n \n", "needs >= 2 rows"),
    ("x,density\n0.5,1\n", "needs >= 2 rows"),
    ("x,density\n-0.5,1,2\n0.5,1,2\n", "needs >= 2 rows"),
    ("x,density\n-0.5\n0.5\n", "needs >= 2 rows"),
    ("x,density\n-1,1\n0,1\n1,1\n", "must have an even number of rows"),
    ("x,density\n0.5,1\n1.5,1\n", "are not a midpoint grid"),
    (
        "# trusted-half-width: abc\nx,density\n-0.5,1\n0.5,1\n",
        "malformed grid CSV: could not convert string to float: ' abc'",
    ),
    (
        "# singular-points: 0 z\nx,density\n-0.5,1\n0.5,1\n",
        "malformed grid CSV: could not convert string to float: 'z'",
    ),
]


def test_csv_rejects_malformed():
    for text, message in MALFORMED_CSV:
        with warnings.catch_warnings(), pytest.raises(ValueError) as info:
            warnings.simplefilter("error")
            dist.GridDensity.from_csv(text)
        assert message in str(info.value), text


def test_grid_validation():
    with pytest.raises(ValueError):
        dist.GridDensity(1.0, np.array([1.0, 2.0, 3.0]))  # odd length
    with pytest.raises(ValueError):
        dist.GridDensity(1.0, np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        dist.GridDensity(-1.0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        dist.GridDensity(1.0, np.array([1.0, 2.0]), trusted_half_width=2.0)
    # as in discretize: the grid width 2 * half_width must be finite
    for half_width in (math.inf, 1e308):
        with pytest.raises(ValueError, match="grid width 2 \\* half_width overflows"):
            dist.GridDensity(half_width, np.ones(4))
    for point in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="singular points must be finite"):
            dist.GridDensity(1.0, np.ones(4), singular_points=(0.0, point))


def test_normalized_rejects_overflow():
    # unit-mass values sum to 1/step = 3.2e309 here; a raw mass of inf
    # would scale every value to 0
    for g in (dist.GridDensity(1e-308, np.ones(64)), dist.GridDensity(1.0, np.full(64, 1e308))):
        with pytest.raises(ValueError, match="cannot be normalized"):
            g.normalized()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=32, max_value=400))
def test_normalized_mass_is_one(ncells_half):
    rng = np.random.default_rng(ncells_half)
    values = rng.uniform(0.1, 3.0, size=2 * ncells_half)
    g = dist.GridDensity(5.0, values).normalized()
    assert g.mass == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(g.values, values / (g.step * values.sum()))
