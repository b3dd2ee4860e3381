"""Numeric verification lab for log-concavity of normal-product laws.

The product X1*X2 of two independent standard normals has density
K0(|x|)/pi, which is not log-concave (K0 is log-convex on the positive
axis), while the independent self-difference X1*X2 - X3*X4 is exactly
Laplace(0,1), which is log-concave.  This package machine-checks every
step of that statement: vectorised Bessel-K evaluation (``lclab.specfun``)
against its quadrature oracles, MGF identities by two independent routes,
the FFT self-difference against the Laplace density, midpoint-concavity
verdicts with explicit witnesses, and a seeded Kolmogorov-Smirnov run.
Its public names live in its modules; the package binds the modules only.
"""

from . import dist, errors, mc, quadrature, shape, specfun, transform, verify
