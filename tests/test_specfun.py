import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lclab import specfun as sf
from lclab.errors import DomainError

# Reference values computed with the integral-representation quadrature
# oracle (cross-checked at 40 digits in mpmath before being frozen).
K0_REFS = {
    1.0: 0.42102443824070833,
    0.5: 0.92441907122766586,
    2.0: 0.11389387274953344,
    5.0: 0.0036910983340425943,
    10.0: 1.7780062316167652e-05,
}
K1_REFS = {
    1.0: 0.60190723019723457,
    2.0: 0.13986588181652243,
}
LOG_K0_1 = -0.86506439890678810
K_RATIO_1 = -1.4296253982604018
K_RATIO_2 = -1.2280369298189080


@pytest.mark.parametrize("x,ref", sorted(K0_REFS.items()))
def test_k0_reference_values(x, ref):
    value = float(sf.k0_values(x))
    assert value == pytest.approx(ref, rel=1e-13)
    # 8 eps relative: Cephes documents a peak relative error of 1.2e-15
    # (about 5.4 eps) for k0 and k1; against mpmath at 40 digits on 3000
    # geometric points in [1e-6, 700] the observed maxima are k0 5.1 eps,
    # k1 3.7 eps, k0e 5.6 eps, k1e 3.4 eps.  5e-324 covers underflow to 0.
    assert abs(value - ref) <= max(8.0 * np.finfo(float).eps * value + 5e-324, 4e-16 * ref)


@pytest.mark.parametrize("x,ref", sorted(K1_REFS.items()))
def test_k1_reference_values(x, ref):
    assert sf.bessel_k1_quadrature_oracle(x).value == pytest.approx(ref, rel=1e-13)


def test_k0_near_zero_is_finite_and_large():
    value = float(sf.k0_values(1e-8))
    # log-singularity regime: about -ln(x/2) - gamma
    assert np.isfinite(value)
    assert value == pytest.approx(-np.log(0.5e-8) - np.euler_gamma, rel=1e-9)


def test_k0_huge_argument_underflows_to_zero_without_error():
    assert sf.k0_values(800.0) == 0.0
    assert np.isfinite(sf.log_k0_values(800.0))


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-300])
def test_domain_errors(bad):
    for fn in (sf.k0_values, sf.log_k0_values, sf.k_ratio_values):
        for arg in (bad, [1.0, bad]):
            with pytest.raises(DomainError):
                fn(arg)
    with pytest.raises(DomainError):
        sf.bessel_k0_quadrature_oracle(bad)


def test_infinite_argument_is_a_domain_error():
    for fn in (sf.k0_values, sf.log_k0_values, sf.k_ratio_values):
        with pytest.raises(DomainError, match="argument must be finite"):
            fn([np.inf])


@pytest.mark.parametrize("tiny", [1e-310, 5e-324])
def test_oracles_reject_subnormal_arguments(tiny):
    for oracle in (sf.bessel_k0_quadrature_oracle, sf.bessel_k1_quadrature_oracle):
        with pytest.raises(DomainError):
            oracle(tiny)


def test_oracles_at_their_floor_match_main_path():
    x = 1e-300
    k0 = sf.bessel_k0_quadrature_oracle(x).value
    k1 = sf.bessel_k1_quadrature_oracle(x).value
    main_k0 = float(sf.k0_values(x))
    assert abs(k0 - main_k0) / k0 <= 1e-12
    # the main path reads K1 only through the ratio K1/K0
    assert abs(k1 + float(sf.k_ratio_values(x)) * main_k0) / k1 <= 1e-12


def test_oracle_agrees_with_main_path():
    xs = np.geomspace(1e-6, 700.0, 40)
    k0 = sf.k0_values(xs)
    ratio = sf.k_ratio_values(xs)
    k1 = -ratio * k0
    for i, x in enumerate(xs):
        oracle = sf.bessel_k0_quadrature_oracle(x)
        oracle1 = sf.bessel_k1_quadrature_oracle(x)
        denom = max(abs(oracle.value), 1e-300)
        assert abs(k0[i] - oracle.value) / denom <= 1e-12
        assert abs(k1[i] - oracle1.value) / max(abs(oracle1.value), 1e-300) <= 1e-12
        oracle_ratio = -oracle1.value / oracle.value
        assert abs(ratio[i] - oracle_ratio) / abs(oracle_ratio) <= 1e-12


def test_oracle_asymptotic_regime():
    # K0(10) ~ exp(-10) sqrt(pi/20) (1 + O(1/80))
    oracle = sf.bessel_k0_quadrature_oracle(10.0)
    leading = np.exp(-10.0) * np.sqrt(np.pi / 20.0)
    assert oracle.value == pytest.approx(leading, rel=2.0 / 80.0)
    assert oracle.value == pytest.approx(K0_REFS[10.0], rel=1e-12)


def test_k1_oracle():
    oracle = sf.bessel_k1_quadrature_oracle(1.0)
    assert oracle.value == pytest.approx(K1_REFS[1.0], rel=1e-12)


def test_log_k0_values():
    assert sf.log_k0_values(1.0) == pytest.approx(LOG_K0_1, abs=1e-13)
    # large-argument path: asymptotic logarithm, no exp/ln round trip
    assert sf.log_k0_values(700.0) == pytest.approx(-700.0 + 0.5 * np.log(np.pi / 1400.0), abs=2e-4)
    assert abs(sf.log_k0_values(30.0) - np.log(sf.k0_values(30.0))) <= 1e-11


def test_log_k0_matches_ln_of_value_up_to_30():
    xs = np.geomspace(1e-4, 30.0, 60)
    assert np.all(np.abs(sf.log_k0_values(xs) - np.log(sf.k0_values(xs))) <= 1e-11)


def test_k_ratio_values():
    r1, r2 = sf.k_ratio_values([1.0, 2.0])
    assert r1 == pytest.approx(K_RATIO_1, rel=1e-12)
    assert r2 == pytest.approx(K_RATIO_2, rel=1e-12)
    assert r2 > r1


def test_k_ratio_matches_oracles():
    ratio = -sf.bessel_k1_quadrature_oracle(1.0).value / sf.bessel_k0_quadrature_oracle(1.0).value
    assert sf.k_ratio_values(1.0) == pytest.approx(ratio, rel=1e-11)


def test_k_ratio_tends_to_minus_one_from_below():
    xs = np.array([50.0, 200.0, 1000.0, 1e5])
    r = sf.k_ratio_values(xs)
    assert np.all(r < -1.0)
    assert np.all(np.diff(r) > 0.0)
    assert r[-1] == pytest.approx(-1.0, abs=1e-4)


def test_positivity_and_monotone_decrease():
    xs = np.geomspace(1e-6, 700.0, 400)
    vals = sf.k0_values(xs)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_log_convexity_surrogate_pairwise():
    # ln K0 midpoint-convex for all grid pairs 0 < x < y <= 30
    xs = np.geomspace(1e-6, 30.0, 120)
    x, y = np.meshgrid(xs, xs)
    keep = x < y
    lmid = sf.log_k0_values(0.5 * (x[keep] + y[keep]))
    lmean = 0.5 * (sf.log_k0_values(x[keep]) + sf.log_k0_values(y[keep]))
    assert np.all(lmid <= lmean + 1e-12)


def test_k_ratio_strictly_increasing_on_probe_set():
    xs = np.geomspace(1e-4, 30.0, 512)
    r = sf.k_ratio_values(xs)
    assert np.all(np.diff(r) > 0.0)


@pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
def test_derivative_consistency_order_h2(x):
    # central differences of ln K0 approach k_ratio at second order: the
    # error drops ~100x when h goes from 1e-3 to 1e-4
    errs = []
    for h in (1e-3, 1e-4):
        central = (sf.log_k0_values(x + h) - sf.log_k0_values(x - h)) / (2.0 * h)
        errs.append(abs(central - sf.k_ratio_values(x)))
    assert errs[0] < 1e-5
    assert 50.0 < errs[0] / errs[1] < 200.0


def test_branch_seam_discrepancy():
    # x = 2 is where the evaluator switches from the series to the scaled
    # expansion; the values one ulp either side agree to ~1 ulp
    below, above = sf.k0_values(np.array([np.nextafter(2.0, 0.0), np.nextafter(2.0, 4.0)]))
    assert abs(below / above - 1.0) <= 1e-13


def test_eval_result_bounds_nonnegative():
    for x in (0.1, 1.0, 10.0, 300.0):
        for oracle in (sf.bessel_k0_quadrature_oracle, sf.bessel_k1_quadrature_oracle):
            res = oracle(x)
            assert res.error >= 0.0
            assert res.n_panels > 0


@pytest.mark.parametrize("x", [745.0, 800.0, 1e300])
def test_oracles_underflow_to_zero_from_745(x):
    for oracle in (sf.bessel_k0_quadrature_oracle, sf.bessel_k1_quadrature_oracle):
        res = oracle(x)
        assert (res.value, res.error, res.n_panels) == (0.0, 5e-324, 0)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=699.0))
def test_k0_between_neighbours(x):
    # strict decrease at random points
    assert sf.k0_values(x * 1.001) < sf.k0_values(x) < sf.k0_values(x * 0.999)
