import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lclab import dist, shape, transform
from lclab.shape import ShapeProperty
from lclab.specfun import k0_values, k_ratio_values

# frozen from the quadrature-oracle run: K0(1)^2 vs K0(0.5) K0(1.5)
K0_1_SQUARED = 0.17726157759590403
K0_HALF_TIMES_K0_1P5 = 0.19764593964593427


def test_laplace_grid_is_log_concave(laplace_grid):
    verdict = shape.check_log_concavity_grid(laplace_grid, 1e-9)
    assert verdict.holds
    assert verdict.witness is None
    assert verdict.property is ShapeProperty.LOG_CONCAVE


def test_product_grid_fails_log_concavity(product_grid):
    verdict = shape.check_log_concavity_grid(product_grid, 1e-9)
    assert not verdict.holds
    w = verdict.witness
    assert w is not None
    # maximal-violation witness straddles the origin spike
    assert w.x < 0.0 < w.y
    assert w.violation > 1.0
    assert w.x < w.midpoint < w.y


def test_product_witness_reproduces_from_grid_values(product_grid):
    w = shape.check_log_concavity_grid(product_grid, 1e-9).witness
    nodes = product_grid.nodes
    values = product_grid.values
    kx = int(np.argmin(np.abs(nodes - w.x)))
    km = int(np.argmin(np.abs(nodes - w.midpoint)))
    ky = int(np.argmin(np.abs(nodes - w.y)))
    fresh = 0.5 * (np.log(values[kx]) + np.log(values[ky])) - np.log(values[km])
    assert fresh == pytest.approx(w.violation, rel=1e-12)
    assert fresh > 1e-9


def test_product_witness_is_genuine_for_analytic_density(product_grid):
    # the violation is not a discretization artifact: re-evaluating the
    # analytic density at the witness triple violates midpoint concavity
    w = shape.check_log_concavity_grid(product_grid, 1e-9).witness
    log_pdf = np.log(dist.normal_product().pdf(np.array([w.x, w.midpoint, w.y])))
    lhs = log_pdf[1]
    rhs = 0.5 * (log_pdf[0] + log_pdf[2])
    assert rhs - lhs > 0.5


def test_selfdiff_grid_is_log_concave(product_selfdiff):
    verdict = shape.check_log_concavity_grid(product_selfdiff, 1e-6)
    assert verdict.holds
    assert verdict.domain_checked == (-12.0, 12.0)


def test_verdict_triple_stable_under_tolerance_ladder(
    product_grid, laplace_grid, product_selfdiff
):
    for tol in (1e-11, 1e-10, 1e-9, 1e-8, 1e-7):
        assert not shape.check_log_concavity_grid(product_grid, tol).holds
        assert shape.check_log_concavity_grid(laplace_grid, tol).holds
        assert shape.check_log_concavity_grid(product_selfdiff, tol).holds


def test_verdict_triple_stable_under_n_doubling():
    gp = dist.discretize(dist.normal_product(), 12.0, 8192)
    gl = dist.discretize(dist.laplace(), 12.0, 8192)
    sd = transform.self_difference(gp)
    assert not shape.check_log_concavity_grid(gp, 1e-9).holds
    assert shape.check_log_concavity_grid(gl, 1e-9).holds
    assert shape.check_log_concavity_grid(sd, 1e-6).holds


def test_k0_log_convexity_interval():
    verdict = shape.check_log_convexity_interval(k0_values, 0.01, 30.0, 2048, 1e-10)
    assert verdict.holds
    assert verdict.property is ShapeProperty.LOG_CONVEX_ON_INTERVAL


def test_k0_checks_hold_over_the_double_range():
    # K0 is a Laplace transform of a positive measure, log-convex on all of x > 0
    a, b = 1e-300, 700.0
    assert shape.check_log_convexity_interval(k0_values, a, b, 2048, 1e-10).holds
    assert shape.check_ratio_monotonicity(a, b, 512).holds


def test_k0_convexity_probe_triple():
    # K0(1)^2 <= K0(0.5) K0(1.5): the pointwise form of midpoint convexity
    assert K0_1_SQUARED < K0_HALF_TIMES_K0_1P5
    k = k0_values(np.array([0.5, 1.0, 1.5]))
    assert k[1] ** 2 == pytest.approx(K0_1_SQUARED, rel=1e-12)
    assert k[0] * k[2] == pytest.approx(K0_HALF_TIMES_K0_1P5, rel=1e-12)


def test_gaussian_fails_log_convexity():
    verdict = shape.check_log_convexity_interval(
        lambda x: np.exp(-x * x), 0.1, 5.0, 512, 1e-10
    )
    assert not verdict.holds
    w = verdict.witness
    # witness reproduces on fresh evaluation
    fresh = -w.midpoint**2 - 0.5 * (-w.x**2 - w.y**2)
    assert fresh == pytest.approx(w.violation, rel=1e-12)
    assert fresh > 1e-10


def test_ratio_monotonicity_holds():
    verdict = shape.check_ratio_monotonicity(0.1, 20.0, 512)
    assert verdict.holds
    assert verdict.property is ShapeProperty.RATIO_INCREASING


def test_ratio_consecutive_pair():
    r = k_ratio_values(np.array([1.0, 2.0]))
    assert r[0] < r[1]


def test_convexity_and_ratio_checks_agree():
    a, b = 0.05, 25.0
    convex = shape.check_log_convexity_interval(k0_values, a, b, 1024, 1e-10)
    ratio = shape.check_ratio_monotonicity(a, b, 1024)
    assert convex.holds and ratio.holds


def test_ratio_check_rejects_probes_where_the_ratio_overflows():
    # k1e overflows to inf below ~1e-308; the check must not skip those probes
    with pytest.raises(ValueError, match="not finite"):
        shape.check_ratio_monotonicity(1e-320, 1.0, 64)


def test_ratio_check_detects_decrease():
    verdict = shape.check_ratio_monotonicity  # degenerate interval rejected
    with pytest.raises(ValueError):
        verdict(1.0, 1.0, 16)


def test_ratio_check_fails_with_tie_broken_by_smallest_midpoint(monkeypatch):
    # drops r[i] - r[i+1] of 0.5 at the pairs (p1, p2) and (p3, p4)
    monkeypatch.setattr(
        shape, "k_ratio_values", lambda p: np.array([0.0, 1.0, 0.5, 1.5, 1.0])
    )
    verdict = shape.check_ratio_monotonicity(1.0, 16.0, 5)
    assert not verdict.holds
    assert verdict.tolerance == 0.0
    probes = np.geomspace(1.0, 16.0, 5)
    w = verdict.witness
    assert (w.x, w.y) == (probes[1], probes[2])
    assert w.midpoint == 0.5 * (probes[1] + probes[2])
    assert (w.lhs, w.rhs, w.violation) == (0.5, 1.0, 0.5)


def test_grid_witness_tie_prefers_negative_midpoint_then_smallest_stride():
    # mirror-symmetric dents at x = -1.5 and x = 1.5 (h = 1): every stride
    # reaching a dent from flat neighbours sees the same violation ln 2
    g = dist.GridDensity(4.0, np.array([1.0, 1.0, 0.5, 1.0, 1.0, 0.5, 1.0, 1.0]))
    verdict = shape.check_log_concavity_grid(g, 1e-9)
    assert not verdict.holds
    w = verdict.witness
    assert (w.x, w.y, w.midpoint) == (-2.5, -0.5, -1.5)
    assert (w.lhs, w.rhs) == (-math.log(2.0), 0.0)
    assert w.violation == math.log(2.0)


def _reference_certified_nodes(g):
    # the certification rule written out node by node over the whole grid
    nodes = g.nodes
    usable = g.values > shape.TAIL_NOISE_FLOOR * g.values.max()
    if g.trusted_half_width is not None:
        usable &= np.abs(nodes) <= g.trusted_half_width
        for s in g.singular_points:
            usable &= np.abs(nodes - s) >= shape.SINGULAR_SKIP_STEPS * g.step
    return usable


def _reference_witness_key(g, tol):
    # per-triple loop over every stride: the rule the vectorised check follows
    usable = _reference_certified_nodes(g)
    logv = np.log(np.where(usable, g.values, 1.0))
    nodes = g.nodes
    n = nodes.size
    keys = []
    j = 1
    while j <= (n - 1) // 2:
        for k in range(j, n - j):
            if usable[k - j] and usable[k] and usable[k + j]:
                v = float(0.5 * (logv[k - j] + logv[k + j]) - logv[k])
                m = 0.5 * (float(nodes[k - j]) + float(nodes[k + j]))
                if v > tol:
                    keys.append((-v, abs(m), m, k, j))
        j *= 2
    return min(keys, default=None)


def _assert_matches_reference(g, tol):
    verdict = shape.check_log_concavity_grid(g, tol)
    key = _reference_witness_key(g, tol)
    assert verdict.holds == (key is None)
    if key is not None:
        neg_v, _, m, k, j = key
        w = verdict.witness
        assert (w.x, w.y) == (g.nodes[k - j], g.nodes[k + j])
        assert (w.midpoint, w.violation) == (m, -neg_v)


def _random_grid(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([8, 16, 30, 64]))
    values = rng.choice([0.0, 0.5, 1.0, 2.0], n) if seed % 2 else rng.random(n)
    if seed % 4 == 3:
        values[n // 2 :] = values[: n // 2][::-1]
    return dist.GridDensity(3.0, values)


def _rng():
    return np.random.default_rng(7)


def _mirrored(values):
    values[values.size // 2 :] = values[: values.size // 2][::-1]
    return values


def _dented(n, dents):
    values = np.ones(n)
    values[list(dents)] = 0.5
    return values


def _bumped_gaussian(n, half_width, at):
    nodes = dist.GridDensity(half_width, np.ones(n)).nodes
    values = np.exp(-0.5 * nodes**2)
    values[nodes == at] *= 10.0
    return values


# L = 99.21396298681813 with 1272 cells: mirrored node pairs do not sum to
# exactly 0, so the midpoints of mirrored triples differ by an ulp
_OFF_CENTRE = 99.21396298681813
_GRIDS = {str(seed): (lambda seed=seed: _random_grid(seed)) for seed in range(8)}
_GRIDS.update({
    # every value from three levels: ties across the mirror at most strides
    "mirrored-ties": lambda: dist.GridDensity(3.0, _mirrored(_rng().choice([0.5, 1.0, 2.0], 64))),
    "mirrored-dents": lambda: dist.GridDensity(4.0, _dented(40, (9, 30))),
    # a singular band at 0 and a window edge on the nodes +-2.9375: a
    # mirrored NaN pattern
    "mirrored-window-singular-band": lambda: dist.GridDensity(
        4.0, _mirrored(_rng().random(64)), singular_points=(0.0,), trusted_half_width=2.9375
    ),
    # log-concave but for one of the nodes +-2.9375 that close the window
    "window-edge-left": lambda: dist.GridDensity(
        4.0, _bumped_gaussian(64, 4.0, -2.9375), trusted_half_width=2.9375
    ),
    "window-edge-right": lambda: dist.GridDensity(
        4.0, _bumped_gaussian(64, 4.0, 2.9375), trusted_half_width=2.9375
    ),
    "mirrored-singular-pair": lambda: dist.GridDensity(
        4.0,
        _mirrored(_rng().choice([0.5, 1.0, 2.0], 64)),
        singular_points=(-1.0625, 1.0625),
        trusted_half_width=4.0,
    ),
    # even values, but a singular band hides only the left dent: the NaN
    # pattern is not mirrored and the witness is the right dent
    "mirrored-values-one-band": lambda: dist.GridDensity(
        4.0, _dented(64, (20, 43)), singular_points=(-1.4375,), trusted_half_width=4.0
    ),
    # the tail floor cuts the span to [5, 59): mirrored inside, not outside
    "tail-floor-mirrored-span": lambda: dist.GridDensity(
        3.0, np.concatenate([np.zeros(5), _mirrored(_rng().random(54)), np.full(5, 1e-20)])
    ),
    "tail-floor-off-centre-span": lambda: dist.GridDensity(
        3.0, np.concatenate([np.zeros(3), _mirrored(_rng().random(54)), np.zeros(7)])
    ),
    "off-centre-dents": lambda: dist.GridDensity(_OFF_CENTRE, _dented(1272, (300, 971))),
    # here the right-hand triple of a mirrored tie has the smaller |midpoint|
    "off-centre-dents-right-wins": lambda: dist.GridDensity(7.3, _dented(64, (3, 60))),
    "off-centre-product": lambda: dist.discretize(dist.normal_product(), _OFF_CENTRE, 1272),
    "off-centre-product-selfdiff": lambda: transform.self_difference(
        dist.discretize(dist.normal_product(), _OFF_CENTRE, 128)
    ),
    "uneven": lambda: dist.GridDensity(
        3.0, _rng().random(64), singular_points=(0.7,), trusted_half_width=2.5
    ),
    "uneven-ties": lambda: dist.GridDensity(3.0, _rng().choice([0.5, 1.0, 2.0], 30)),
})


@pytest.mark.parametrize("case", list(_GRIDS))
def test_grid_witness_matches_per_triple_loop(case):
    # the check scans only the certified span and, where the span reads the
    # same reversed, each mirror pair once: no verdict or witness may move
    g = _GRIDS[case]()
    for tol in (1e-9, 1e-3):
        _assert_matches_reference(g, tol)


def test_grid_check_memory_is_about_three_value_arrays():
    grid = dist.discretize(dist.normal_product(), 12.0, 2**18)
    diff = transform.self_difference(grid)
    for g, holds in ((grid, False), (diff, True)):
        tracemalloc.start()
        try:
            verdict = shape.check_log_concavity_grid(g, 1e-9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.holds == holds
        assert peak <= 3.5 * g.values.nbytes


def test_interval_check_argument_validation():
    with pytest.raises(ValueError):
        shape.check_log_convexity_interval(k0_values, -1.0, 2.0, 64, 1e-10)
    with pytest.raises(ValueError):
        shape.check_log_convexity_interval(k0_values, 0.1, 2.0, 2, 1e-10)
    with pytest.raises(ValueError):
        shape.check_log_convexity_interval(k0_values, 0.1, 2.0, 64, 0.0)
    with pytest.raises(ValueError, match="vectorised"):
        shape.check_log_convexity_interval(lambda x: 1.0, 0.1, 2.0, 64, 1e-10)


def test_interval_check_rejects_nonpositive_function():
    with pytest.raises(ValueError):
        shape.check_log_convexity_interval(lambda x: x - 1.0, 0.5, 2.0, 64, 1e-10)


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
def test_grid_check_rejects_a_nonpositive_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        shape.check_log_concavity_grid(dist.discretize(dist.laplace(), 4.0, 64), tol)


def test_grid_check_needs_three_usable_nodes():
    g = dist.GridDensity(1.0, np.array([0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        shape.check_log_concavity_grid(g, 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_scale_invariance(product_grid, scale):
    # multiplying values by any c > 0 shifts ln f by a constant: no verdict
    # or witness location may change
    scaled = dist.GridDensity(
        product_grid.half_width,
        product_grid.values * scale,
        singular_points=product_grid.singular_points,
        trusted_half_width=product_grid.trusted_half_width,
    )
    base = shape.check_log_concavity_grid(product_grid, 1e-9)
    other = shape.check_log_concavity_grid(scaled, 1e-9)
    assert base.holds == other.holds
    assert other.witness.midpoint == base.witness.midpoint
    assert other.witness.violation == pytest.approx(base.witness.violation, abs=1e-12)


def test_scale_invariance_holds_case(laplace_grid):
    for scale in (1e-6, 3.7, 1e6):
        scaled = dist.GridDensity(laplace_grid.half_width, laplace_grid.values * scale)
        assert shape.check_log_concavity_grid(scaled, 1e-9).holds


def test_preservation_under_difference(normal_grid, laplace_grid):
    # Prekopa: the self-difference of a log-concave law is log-concave; the
    # derived grid carries FFT and resampling error, hence the looser tol
    for g in (normal_grid, laplace_grid):
        assert shape.check_log_concavity_grid(g, 1e-9).holds
        assert shape.check_log_concavity_grid(transform.self_difference(g), 1e-8).holds


def test_verdict_json_dict(product_grid):
    verdict = shape.check_log_concavity_grid(product_grid, 1e-9)
    payload = verdict.as_dict()
    assert payload["property"] == "log-concave"
    assert payload["outcome"] == "fails"
    assert set(payload["witness"]) == {"x", "y", "m", "lhs", "rhs", "violation"}
    assert payload["witness"]["violation"] > 0
