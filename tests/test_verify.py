import dataclasses
import math

import pytest
from scipy.special import kolmogi

from lclab import dist, shape, transform, verify


def test_run_verification_integrates_each_mgf_once_per_t(monkeypatch):
    calls = []
    conditioning_calls = []
    direct = transform.mgf_via_density
    conditioning = transform.mgf_via_conditioning

    def counting(density, t, tol=1e-10):
        calls.append(t)
        return direct(density, t, tol)

    def counting_conditioning(t, tol=1e-10):
        conditioning_calls.append(t)
        return conditioning(t, tol)

    monkeypatch.setattr(transform, "mgf_via_density", counting)
    monkeypatch.setattr(transform, "mgf_via_conditioning", counting_conditioning)
    report = verify.run_verification()
    assert report.overall
    assert len(calls) == 13
    assert len(set(calls)) == 13
    # the conditioning route is even in t: one quadrature per distinct |t|
    assert sorted(conditioning_calls) == [0.0, 0.1, 0.25, 0.3, 0.5, 0.8, 0.9]


def test_conditioning_route_is_even_bit_for_bit():
    for t in (0.1, 0.25, 0.3, 0.5, 0.8, 0.9):
        assert (
            transform.mgf_via_conditioning(t, 1e-8).value
            == transform.mgf_via_conditioning(-t, 1e-8).value
        )


def test_mgf_steps_equal_direct_uncached_evaluation():
    # the MGF steps evaluated the way they read on paper: every M(t) and
    # M(-t) integrated afresh where it is used
    tol = 1e-8
    product = dist.normal_product()

    def m(t):
        return transform.mgf_via_density(product, t, tol).value

    def c(t):
        return transform.mgf_via_conditioning(t, tol).value

    worst_density = 0.0
    worst_conditioning = 0.0
    for t in verify._MGF_T:
        closed = 1.0 / math.sqrt(1.0 - t * t)
        worst_density = max(worst_density, abs(m(t) - closed))
        worst_conditioning = max(worst_conditioning, abs(c(t) - closed))
    worst_product = 0.0
    worst_conditioning_product = 0.0
    for t in verify._FACTORIZATION_T:
        closed = 1.0 / (1.0 - t * t)
        worst_product = max(worst_product, abs(m(t) * m(-t) - closed))
        worst_conditioning_product = max(worst_conditioning_product, abs(c(t) * c(-t) - closed))
    expected = [
        {
            "step_name": "mgf-identity",
            "status": "pass",
            "metrics": {
                "max_abs_err_density_route": worst_density,
                "max_abs_err_conditioning_route": worst_conditioning,
                "tol": tol,
            },
        },
        {
            "step_name": "mgf-factorization",
            "status": "pass",
            "metrics": {
                "max_abs_err": worst_product,
                "max_abs_err_conditioning_route": worst_conditioning_product,
                "tol": verify._FACTORIZATION_TOL,
            },
        },
    ]
    report = verify.run_verification(tol_mgf=tol).as_dict()
    assert report["steps"][1:3] == expected


def test_factorization_step_needs_both_routes(monkeypatch):
    def factorization():
        (step,) = [s for s in verify.run_verification().steps if s.name == "mgf-factorization"]
        return step

    assert factorization().passed
    # M(t)^2 is off by about 2e-6 when M(t) is off by 1e-6
    table = verify._conditioning_table
    monkeypatch.setattr(
        verify, "_conditioning_table", lambda tol: {t: v + 1e-6 for t, v in table(tol).items()}
    )
    off = factorization()
    assert not off.passed
    assert off.metrics["max_abs_err"] <= verify._FACTORIZATION_TOL
    assert off.metrics["max_abs_err_conditioning_route"] > verify._FACTORIZATION_TOL


def test_first_failure_names_the_first_failing_step_or_none():
    steps = [verify.StepResult(name, True) for name in ("a", "b", "c")]
    assert verify.VerificationReport(tuple(steps), {}).first_failure is None
    steps[1:] = [verify.StepResult("b", False), verify.StepResult("c", False)]
    assert verify.VerificationReport(tuple(steps), {}).first_failure == "b"


def test_monte_carlo_step_at_small_n():
    report = verify.run_verification(with_mc=True, mc_n=20_000)
    assert len(report.steps) == 6
    step = report.steps[-1]
    assert (step.name, step.passed) == ("monte-carlo", True)
    m = step.metrics
    assert (m["laplace_ks_passes"], m["product_law_ks_failures"], m["n"]) == (10, 10, 20000)
    assert m["threshold"] == kolmogi(0.001)
    # frozen like test_mc.GOLDEN_SCALED: the seeded draws are bit-reproducible
    assert m["max_scaled_statistic"] == pytest.approx(1.1895654321814095, rel=1e-9)
    assert m["min_product_scaled_statistic"] == pytest.approx(13.620899424858067, rel=1e-9)


#: (shape check, the call of it to flip, its metric in the shape step); a
#: call is told apart by its grid or by the start of its interval
SHAPE_SUB_CHECKS = [
    ("check_log_concavity_grid", "product", "product_fails"),
    ("check_log_concavity_grid", "selfdiff", "self_difference_holds"),
    ("check_log_concavity_grid", "laplace", "laplace_holds"),
    ("check_log_convexity_interval", verify._CONVEXITY_INTERVAL[0], "k0_log_convex_holds"),
    ("check_ratio_monotonicity", verify._RATIO_INTERVAL[0], "k_ratio_increasing_holds"),
    (
        "check_log_convexity_interval",
        verify._DOUBLE_RANGE_INTERVAL[0],
        "k0_log_convex_double_range_holds",
    ),
    (
        "check_ratio_monotonicity",
        verify._DOUBLE_RANGE_INTERVAL[0],
        "k_ratio_increasing_double_range_holds",
    ),
]
SHAPE_METRICS = [metric for *_, metric in SHAPE_SUB_CHECKS]


@pytest.mark.parametrize("check, target, metric", SHAPE_SUB_CHECKS, ids=SHAPE_METRICS)
def test_shape_step_fails_on_each_sub_check(
    check, target, metric, product_grid, product_selfdiff, laplace_grid, monkeypatch
):
    # one sub-check gets the verdict it must not have: a witness where it
    # should hold, none on the product grid, which must fail
    grids = {"product": product_grid, "selfdiff": product_selfdiff, "laplace": laplace_grid}
    target = grids.get(target, target)
    original = getattr(shape, check)
    flipped = []

    def flipping(*args):
        verdict = original(*args)
        subject = args[1] if check == "check_log_convexity_interval" else args[0]
        if subject is target if isinstance(target, dist.GridDensity) else subject == target:
            flipped.append(verdict.holds)
            witness = shape.Witness(1.0, 2.0, 1.5, 0.0, 1.0, 1.0) if verdict.holds else None
            verdict = dataclasses.replace(verdict, witness=witness)
        return verdict

    monkeypatch.setattr(shape, check, flipping)
    step = verify._shape_step(product_grid, product_selfdiff, laplace_grid, verify.TOL_SHAPE)
    assert flipped == [metric != "product_fails"]
    assert not step.passed
    assert {k: step.metrics[k] for k in SHAPE_METRICS} == {
        k: float(k != metric) for k in SHAPE_METRICS
    }
    assert ("product_witness_m" in step.metrics) == (metric != "product_fails")
