import math

from lclab import dist, transform, verify


def test_run_verification_integrates_each_mgf_once_per_t(monkeypatch):
    calls = []
    direct = transform.mgf_via_density

    def counting(density, t, tol=1e-10):
        calls.append(t)
        return direct(density, t, tol)

    monkeypatch.setattr(transform, "mgf_via_density", counting)
    report = verify.run_verification()
    assert report.overall
    assert len(calls) == 13
    assert len(set(calls)) == 13


def test_mgf_steps_equal_direct_uncached_evaluation():
    # the MGF steps evaluated the way they read on paper: every M(t) and
    # M(-t) integrated afresh where it is used
    tol = 1e-8
    product = dist.normal_product()

    def m(t):
        return transform.mgf_via_density(product, t, tol).value

    worst_density = 0.0
    worst_conditioning = 0.0
    for t in verify._MGF_T:
        closed = 1.0 / math.sqrt(1.0 - t * t)
        worst_density = max(worst_density, abs(m(t) - closed))
        worst_conditioning = max(
            worst_conditioning, abs(transform.mgf_via_conditioning(t, tol).value - closed)
        )
    worst_product = 0.0
    for t in verify._FACTORIZATION_T:
        closed = transform.mgf_difference_closed_form(t).value
        worst_product = max(worst_product, abs(m(t) * m(-t) - closed))
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
            "metrics": {"max_abs_err": worst_product, "tol": verify._FACTORIZATION_TOL},
        },
    ]
    report = verify.run_verification(tol_mgf=tol).as_dict()
    assert report["steps"][1:3] == expected
