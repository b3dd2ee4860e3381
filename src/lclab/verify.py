"""The end-to-end verification pipeline behind ``verify-theorem``.

Steps run in the order of the underlying argument so a failure localizes
which numeric counterpart broke: (1) the product density K0(|x|)/pi over
the quadrature oracle equals 1, (2) both MGF routes match the closed form
(1 - t^2)^(-1/2), (3) M(t) M(-t) matches the Laplace MGF 1/(1 - t^2) by
both routes, (4) the FFT self-difference matches the Laplace density in
sup-node norm, (5) the shape verdicts (product fails log-concavity, its
self-difference and Laplace hold, K0 is log-convex and K0'/K0 increases,
on the default intervals and over the double range), and optionally (6) a
KS run over the committed seed table.  Steps 1-4 are scored by one rule
(``_identity_step``): each route's largest |route - exact| over the step's
probes, within the step's tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dist, mc, shape, specfun, transform

_DENSITY_PROBES = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
_MGF_T = (0.0, 0.25, -0.25, 0.5, -0.5, 0.9, -0.9)
_FACTORIZATION_T = (0.1, -0.1, 0.3, -0.3, 0.5, -0.5, 0.8, -0.8)
_SUP_NODE_TOL = 1e-3
_FACTORIZATION_TOL = 1e-7
_CONVEXITY_INTERVAL = (0.01, 30.0)
_CONVEXITY_PROBES = 2048
_CONVEXITY_TOL = 1e-10
_RATIO_INTERVAL = (0.1, 20.0)
_RATIO_PROBES = 512
#: K0 from deep in its log singularity to just short of its underflow
_DOUBLE_RANGE_INTERVAL = (1e-300, 700.0)

#: Defaults of ``run_verification``, shared by ``lclab verify-theorem``, ``density``, ``selfdiff``
HALF_WIDTH = 12.0
N_CELLS = 4096
TOL_SHAPE = 1e-9
TOL_MGF = 1e-8
MC_N = 10**6


@dataclass(frozen=True)
class StepResult:
    name: str
    passed: bool
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def as_dict(self) -> dict:
        return {"step_name": self.name, "status": self.status, "metrics": dict(self.metrics)}


@dataclass(frozen=True)
class VerificationReport:
    steps: tuple[StepResult, ...]
    parameters: dict[str, float]

    @property
    def overall(self) -> bool:
        return all(s.passed for s in self.steps)

    @property
    def first_failure(self) -> str | None:
        return next((s.name for s in self.steps if not s.passed), None)

    def as_dict(self) -> dict:
        return {
            "overall": "pass" if self.overall else "fail",
            "parameters": dict(self.parameters),
            "steps": [s.as_dict() for s in self.steps],
        }


def _identity_step(name: str, exact, routes: dict, tol: float, **extra: float) -> StepResult:
    """Each route's largest |route - exact| over the step's probes; passes iff all are <= tol.

    A NaN score fails the step, as ``np.max`` propagates it.
    """
    metrics = {k: float(np.max(np.abs(route - exact))) for k, route in routes.items()}
    passed = all(err <= tol for err in metrics.values())
    return StepResult(name, passed, {**metrics, "tol": tol, **extra})


def _shape_step(
    product_grid: dist.GridDensity,
    diff: dist.GridDensity,
    laplace_grid: dist.GridDensity,
    tol_shape: float,
) -> StepResult:
    """The grid verdicts, then K0 log-convex and K0'/K0 increasing.

    K0(x) = int_1^inf exp(-x s) (s^2 - 1)^(-1/2) ds is the Laplace transform
    of a positive measure, so Cauchy-Schwarz makes it log-convex on all of
    x > 0.  Both K0 checks therefore run on the default intervals and again
    over the double range, from 1e-300 to 700, where K0 is still normal.
    """
    grid = shape.check_log_concavity_grid

    def convex(interval):
        return shape.check_log_convexity_interval(
            specfun.k0_values, *interval, _CONVEXITY_PROBES, _CONVEXITY_TOL
        )

    def ratio(interval):
        return shape.check_ratio_monotonicity(*interval, _RATIO_PROBES)

    # metric -> (verdict, whether it should hold): the product law must fail
    checks = {
        "product_fails": (grid(product_grid, tol_shape), False),
        "self_difference_holds": (grid(diff, tol_shape), True),
        "laplace_holds": (grid(laplace_grid, tol_shape), True),
        "k0_log_convex_holds": (convex(_CONVEXITY_INTERVAL), True),
        "k_ratio_increasing_holds": (ratio(_RATIO_INTERVAL), True),
        "k0_log_convex_double_range_holds": (convex(_DOUBLE_RANGE_INTERVAL), True),
        "k_ratio_increasing_double_range_holds": (ratio(_DOUBLE_RANGE_INTERVAL), True),
    }
    metrics = {name: float(v.holds == expected) for name, (v, expected) in checks.items()}
    passed = all(metrics.values())
    metrics.update(tol_shape=tol_shape, tol_convexity=_CONVEXITY_TOL)
    witness = checks["product_fails"][0].witness
    if witness is not None:
        metrics["product_witness_violation"] = witness.violation
        metrics["product_witness_m"] = witness.midpoint
    return StepResult("shape-verdicts", passed, metrics)


def _monte_carlo_step(n: int) -> StepResult:
    seeds = mc.GOLDEN_SEEDS
    reports = mc.ks_over_seeds(seeds, n)
    good = reports[mc.Generator.PRODUCT_SELF_DIFFERENCE]
    bad = reports[mc.Generator.NORMAL_PRODUCT]
    n_pass = sum(r.passed for r in good)
    n_bad_fail = sum(not r.passed for r in bad)
    passed = n_pass >= len(seeds) - 1 and n_bad_fail == len(seeds)
    return StepResult(
        "monte-carlo",
        passed,
        {
            "laplace_ks_passes": float(n_pass),
            "seeds": float(len(seeds)),
            "max_scaled_statistic": max(r.scaled for r in good),
            "product_law_ks_failures": float(n_bad_fail),
            "min_product_scaled_statistic": min(r.scaled for r in bad),
            "alpha": good[0].alpha,
            "threshold": good[0].threshold,
            "n": float(n),
        },
    )


def run_verification(
    half_width: float = HALF_WIDTH,
    n_cells: int = N_CELLS,
    tol_shape: float = TOL_SHAPE,
    tol_mgf: float = TOL_MGF,
    with_mc: bool = False,
    mc_n: int = MC_N,
) -> VerificationReport:
    """Run the full pipeline and collect one report."""
    product = dist.normal_product()
    product_grid = dist.discretize(product, half_width, n_cells)
    laplace_grid = dist.discretize(dist.laplace(), half_width, n_cells)
    diff = transform.self_difference(product_grid)
    # one quadrature per distinct t of steps 2-3, and per |t| by conditioning,
    # which sees t only through t^2: its M(-t) is M(t) bit for bit
    ts = set(_MGF_T) | set(_FACTORIZATION_T) | {-v for v in _FACTORIZATION_T}
    mgf = {v: transform.mgf_via_density(product, v, tol_mgf).value for v in ts}
    conditioning = {v: transform.mgf_via_conditioning(v, tol_mgf).value for v in set(map(abs, ts))}

    x = np.array(_DENSITY_PROBES)
    oracle = np.array([specfun.bessel_k0_quadrature_oracle(v).value for v in x])
    t, u = np.array(_MGF_T), np.array(_FACTORIZATION_T)

    def at(table, points):
        return np.array([table[v] for v in points])

    mgf_routes = {
        "max_abs_err_density_route": at(mgf, t),
        "max_abs_err_conditioning_route": at(conditioning, abs(t)),
    }
    # M(t) M(-t) by each route; the conditioning route is even in t
    factor_routes = {
        "max_abs_err": at(mgf, u) * at(mgf, -u),
        "max_abs_err_conditioning_route": at(conditioning, abs(u)) ** 2,
    }
    steps = [
        _identity_step(
            "density-identity", 1.0,
            {"max_rel_err": product.pdf(x) / (oracle / math.pi)},
            1e-12, n_probes=float(x.size),
        ),
        # X1 X2 has the MGF (1 - t^2)^(-1/2), so X - X' has the Laplace MGF 1/(1 - t^2)
        _identity_step("mgf-identity", 1 / np.sqrt(1 - t * t), mgf_routes, tol_mgf),
        _identity_step("mgf-factorization", 1 / (1 - u * u), factor_routes, _FACTORIZATION_TOL),
        _identity_step(
            "laplace-identification", dist.laplace().pdf(diff.nodes),
            {"sup_node_distance": diff.values}, _SUP_NODE_TOL,
        ),
        _shape_step(product_grid, diff, laplace_grid, tol_shape),
    ]
    if with_mc:
        steps.append(_monte_carlo_step(mc_n))

    # deterministic table fingerprint (hash() of ints varies across builds)
    table_id = 0
    for i, s in enumerate(mc.GOLDEN_SEEDS):
        table_id = (table_id * 1000003 + int(s) * (i + 1)) % 10**9
    parameters = {
        "half_width": half_width,
        "n_cells": float(n_cells),
        "tol_shape": tol_shape,
        "tol_mgf": tol_mgf,
        "with_mc": float(with_mc),
        "seed_table_id": float(table_id),
    }
    return VerificationReport(tuple(steps), parameters)
