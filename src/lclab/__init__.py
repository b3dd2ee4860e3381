"""Numeric verification lab for log-concavity of normal-product laws.

The product X1*X2 of two independent standard normals has density
K0(|x|)/pi, which is not log-concave (K0 is log-convex on the positive
axis), while the independent self-difference X1*X2 - X3*X4 is exactly
Laplace(0,1), which is log-concave.  This package machine-checks every
step of that statement: vectorised Bessel-K evaluation (``lclab.specfun``;
the root exports only its quadrature oracles) against those oracles, MGF
identities by two independent routes, the FFT self-difference against the
Laplace density, midpoint-concavity verdicts with explicit witnesses, and
a seeded Kolmogorov-Smirnov run.
"""

from .dist import (
    AnalyticDensity,
    GridDensity,
    builtin_density,
    discretize,
    laplace,
    laplace_cdf,
    laplace_density,
    moment,
    normal_product,
    normal_product_cdf,
    normal_product_density,
    standard_normal,
)
from .errors import (
    DivergenceError,
    DomainError,
    NonConvergenceError,
    NotNormalizedError,
    SingularityError,
)
from .mc import GOLDEN_SEEDS, Generator, KSReport, SampleBatch, ks_statistic, sample
from .shape import (
    ShapeProperty,
    ShapeVerdict,
    Witness,
    check_log_concavity_grid,
    check_log_convexity_interval,
    check_ratio_monotonicity,
)
from .specfun import bessel_k0_quadrature_oracle, bessel_k1_quadrature_oracle
from .transform import (
    MGFMethod,
    MGFValue,
    mgf_difference_closed_form,
    mgf_via_conditioning,
    mgf_via_density,
    self_difference,
)
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "AnalyticDensity",
    "DivergenceError",
    "DomainError",
    "GOLDEN_SEEDS",
    "Generator",
    "GridDensity",
    "KSReport",
    "MGFMethod",
    "MGFValue",
    "NonConvergenceError",
    "NotNormalizedError",
    "SampleBatch",
    "ShapeProperty",
    "ShapeVerdict",
    "SingularityError",
    "VerificationReport",
    "Witness",
    "bessel_k0_quadrature_oracle",
    "bessel_k1_quadrature_oracle",
    "builtin_density",
    "check_log_concavity_grid",
    "check_log_convexity_interval",
    "check_ratio_monotonicity",
    "discretize",
    "ks_statistic",
    "laplace",
    "laplace_cdf",
    "laplace_density",
    "mgf_difference_closed_form",
    "mgf_via_conditioning",
    "mgf_via_density",
    "moment",
    "normal_product",
    "normal_product_cdf",
    "normal_product_density",
    "run_verification",
    "sample",
    "self_difference",
    "standard_normal",
]
