"""Test oracles for the covariance factor B(u) = B_F(s+1, r-1/alpha) / alpha of a Pareto(alpha) marginal.

Two independent evaluations of the incomplete beta function, F = 1 - u^-alpha:
scipy's regularized form in double precision, and mpmath's in 40 digits plus
those of 1/alpha.
"""

import math

import mpmath
import numpy as np
from scipy.special import beta, betainc


def incomplete_beta_bracket(r: float, s: float, u, alpha: float):
    """B(u) = (1/alpha) B_F(s+1, r-1/alpha) through scipy's regularized incomplete beta (test oracle)."""
    f = -np.expm1(-alpha * np.log(u))
    return betainc(s + 1.0, r - 1.0 / alpha, f) * beta(s + 1.0, r - 1.0 / alpha) / alpha


def mpmath_bracket(r: float, s: float, u: float, alpha: float):
    """B(u) = (1/alpha) B_F(s+1, r-1/alpha) in 40-digit arithmetic, its real part (test oracle).

    Below alpha = 1, b = r - 1/alpha carries log10(1/alpha) more digits, so that it keeps r.
    """
    with mpmath.workdps(40 + max(0, math.ceil(-math.log10(alpha)))):
        a, b = mpmath.mpf(s) + 1, mpmath.mpf(r) - 1 / mpmath.mpf(alpha)
        f = -mpmath.expm1(-mpmath.mpf(alpha) * mpmath.log(mpmath.mpf(u)))
        return mpmath.re(mpmath.betainc(a, b, 0, f)) / alpha
