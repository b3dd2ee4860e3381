"""Modified Bessel functions K0 and K1 of a positive real argument.

Values come from ``scipy.special`` (``k0`` and the exponentially scaled
``k0e = exp(x) K0``, ``k1e = exp(x) K1``; Cephes, Moshier 1989).  The
scaled functions give ``ln K0 = ln k0e(x) - x`` without underflow and the
ratio ``K0'/K0 = -k1e/k0e`` with the exponential scaling cancelled.

An adaptive-quadrature oracle for the integral representation
``K0(x) = int_0^inf exp(-x cosh t) dt`` gives an independent cross-check;
it shares no code with the scipy evaluation and is meant for tests and
verification pipelines, not production evaluation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import k0, k0e, k1e

from .errors import DomainError
from .quadrature import QuadResult, adaptive_quad

# exp(z) underflows to zero in double precision below roughly -745.13;
# integrands/results beyond that are truncated or flushed to zero.
_EXP_UNDERFLOW = 745.0

# Smallest x the quadrature oracles accept: the truncation point has
# cosh(t*) ~ 745/x, which overflows near x ~ 4e-306, so the oracles stop
# at a round floor with margin (there K0 ~ 690.9 and K1 ~ 1/x are finite).
_ORACLE_MIN_X = 1e-300


def _validate_positive(x) -> np.ndarray:
    """x as a float array; DomainError unless every entry is finite and > 0."""
    x = np.asarray(x, dtype=float)
    if x.size and not np.all(x > 0.0):
        raise DomainError("argument must be strictly positive")
    if x.size and not np.all(np.isfinite(x)):
        raise DomainError("argument must be finite")
    return x


def k0_values(x) -> np.ndarray:
    """Vectorised K0; underflows to zero (never overflows) for huge x."""
    return k0(_validate_positive(x))


def log_k0_values(x) -> np.ndarray:
    """Vectorised ln K0; finite for large x (no exp/ln round trip)."""
    x = _validate_positive(x)
    return np.log(k0e(x)) - x


def k_ratio_values(x) -> np.ndarray:
    """Vectorised K0'(x)/K0(x) = -K1(x)/K0(x); the exponential scaling cancels."""
    x = _validate_positive(x)
    return -k1e(x) / k0e(x)


def _k_oracle(x: float, order: int, tol: float) -> QuadResult:
    """K0 (order 0) or K1 (order 1) of x by adaptive quadrature.

    K_order(x) = int_0^inf exp(-x cosh t) cosh(order t) dt; the integrand
    is truncated at t* = arccosh((745 + order ln(745/x)) / x), where it
    falls to the exp underflow bound (the cosh factor pushes t* a touch
    further for order 1), so the tail beyond is below one subnormal unit.
    Below ``_ORACLE_MIN_X`` the truncation point is not representable and
    the oracle raises DomainError.  The error adds that subnormal unit to
    the quadrature's estimate; from x = 745 on the value is 0 from no panels.
    """
    x = float(x)
    if not x > 0.0:
        raise DomainError("oracle requires x > 0")
    if x < _ORACLE_MIN_X:
        raise DomainError(f"oracle requires x >= {_ORACLE_MIN_X:g}")
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    if x >= _EXP_UNDERFLOW:
        return QuadResult(0.0, 5e-324, 0)
    shift = math.log(_EXP_UNDERFLOW / x) if order else 0.0
    tstar = float(np.arccosh((_EXP_UNDERFLOW + shift) / x))

    def integrand(t: np.ndarray) -> np.ndarray:
        c = np.cosh(t)
        v = np.exp(-x * c)
        return v * c if order else v

    res = adaptive_quad(integrand, 0.0, tstar, tol_rel=tol, tol_abs=0.0, max_panels=4000)
    return QuadResult(res.value, res.error + 5e-324, res.n_panels)


def bessel_k0_quadrature_oracle(x: float, tol: float = 1e-14) -> QuadResult:
    """K0(x) by adaptive quadrature of int_0^inf exp(-x cosh t) dt.

    Independent of the scipy evaluation; intended as a test
    oracle.  ``tol`` is the relative tolerance of the panel subdivision.
    """
    return _k_oracle(x, 0, tol)


def bessel_k1_quadrature_oracle(x: float, tol: float = 1e-14) -> QuadResult:
    """K1(x) by adaptive quadrature of int_0^inf exp(-x cosh t) cosh t dt."""
    return _k_oracle(x, 1, tol)
