"""The covariance functional of a dependent pair and its pointwise gap.

For a pair coupled by copula C with common marginal F the pointwise
dependence gap is

    delta(x, y) = C(F(x), F(y)) - F(x) F(y),

identical in survival form and CDF form, and the covariance functional is
its double integral over [-u, u] x [-v, v].  Both shipped copula families
are C(u, v) = u v + gap(u, v), so delta is evaluated as gap(F(x), F(y)),
free of the cancellation in the difference.  Three routes are provided:

* ``g_numeric``     adaptive product quadrature of delta in y = log x on
                    both axes (the oracle: it integrates the copula's own
                    gap, never the closed form; needs a marginal with
                    positive support, where the substitution puts the
                    mass near the support edge and the far tail on a
                    comparable scale),
* ``g_factor``      the separable factor integral(support..u) F^s (1-F)^r dx,
                    valid because the power-family gap factorizes,
* ``g_closed_form`` the closed form for a Pareto(alpha) marginal,

    G(u, v) = theta * B(u) * B(v),
    B(u) = (1/alpha) * B_{F(u)}(s+1, r-1/alpha),

an incomplete beta function (substitute t = F(x)), finite as u -> inf
exactly when r alpha > 1.  Writing b = r - 1/alpha, it is evaluated with
the Gauss hypergeometric sum H (DLMF 8.17.4, 8.17.7 and 8.17.8) in one of
two forms, each keeping the series argument at most 1/2:

    B(u) = B(inf) - H(-s, b; b+1; u^-alpha) / ((alpha r - 1) u^(alpha r - 1))
                                                        where u^-alpha <= 1/2,
    B(u) = F^(s+1) (1-F)^b / ((s+1) alpha) * H(1, s+1+b; s+2; F)
                                                        where F(u) < 1/2,
    B(inf) = s G(s) G(b+1) / ((alpha r - 1) G(r+s+1-1/alpha)),

with G the gamma function.  The second form sums positive terms only, so
it keeps its relative accuracy up to the support edge.  B(u) -> 0 as
u -> 1+ and increases to B(inf) as u -> inf, which also furnishes a
k,j-independent bound G <= theta * B(inf)^2 used by the series majorant.
``g_closed_bracket`` evaluates B at a scalar or at a whole array of
thresholds in one pass; ``g_factor`` and ``g_numeric`` take a list of
thresholds or (u, v) pairs and refine their quadratures in lockstep, so one
point is a one-element list.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .copulas import GfmCopula, PerturbationCopula, power_factor
from .errors import DomainError
from .marginals import Marginal, ParetoMarginal
from .quadrature import QuadSpec, adaptive_quad_2d_many, adaptive_quad_many
from .specfun import gamma, gauss_2f1

__all__ = [
    "DeltaField",
    "bracket_limit",
    "g_closed_bracket",
    "g_closed_form",
    "g_factor",
    "g_numeric",
]

_FACTOR_ABS_TOL = 1e-10  # absolute tolerance of the separable factor quadrature


def _validate_rs(r: float, s: float) -> None:
    if not (r >= 1.0 and s >= 1.0):
        raise DomainError(f"power-family exponents require r >= 1 and s >= 1, got r={r!r}, s={s!r}")


def bracket_limit(r: float, s: float, alpha: float = 2.0) -> float:
    """Limit B(inf) of the closed-form factor: s G(s) G(r+1-1/alpha) / ((alpha r-1) G(r+s+1-1/alpha)).

    Raises DomainError when r alpha <= 1, where the factor diverges.
    """
    _validate_rs(r, s)
    if not alpha * r > 1.0:
        raise DomainError(f"closed-form factor requires r * alpha > 1, got r={r!r}, alpha={alpha!r}")
    shift = 1.0 - 1.0 / alpha
    return s * gamma(s) * gamma(r + shift) / ((alpha * r - 1.0) * gamma(r + s + shift))


def _pow_or_inf(x: float, y: float) -> float:
    """Python's float x ** y (libm pow), or inf where it overflows."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def g_closed_bracket(r: float, s: float, u, alpha: float = 2.0):
    """Closed-form factor B(u) for the Pareto(alpha) marginal, u >= 1, r alpha > 1.

    Equals integral(1..u) (1 - x^-alpha)^s x^(-alpha r) dx; returns exactly
    0 at the support edge u = 1.  Accepts a scalar or an array u and returns
    a float or an array of the same shape.
    """
    limit = bracket_limit(r, s, alpha)
    us = np.asarray(u, dtype=float)
    if not np.all(us >= 1.0):
        raise DomainError(f"closed-form factor requires u >= 1, got {float(np.min(us))!r}")
    out = np.zeros(us.shape)
    b, e = r - 1.0 / alpha, alpha * r - 1.0
    with np.errstate(over="ignore"):
        z = 1.0 / us**alpha
    tail = (us != 1.0) & (z <= 0.5)
    edge = (us != 1.0) & (z > 0.5)
    if tail.any():
        # Python's float ** (libm pow), not np.power, which differs from it in
        # the last bit for some arguments; a power that overflows leaves B(inf)
        xs = us[tail].tolist()
        try:
            powers = np.fromiter(map(pow, xs, itertools.repeat(e)), float, len(xs))
        except OverflowError:
            powers = np.fromiter(map(_pow_or_inf, xs, itertools.repeat(e)), float, len(xs))
        out[tail] = limit - gauss_2f1(-s, b, b + 1.0, z[tail]) / (e * powers)
    if edge.any():
        f = -np.expm1(-alpha * np.log(us[edge]))
        out[edge] = f ** (s + 1.0) * (1.0 - f) ** b / ((s + 1.0) * alpha) * gauss_2f1(1.0, s + 1.0 + b, s + 2.0, f)
    return out if out.ndim else float(out)


def g_closed_form(theta: float, r: float, s: float, u: float, v: float, alpha: float = 2.0) -> float:
    """Closed-form covariance functional theta * B(u) * B(v) (Pareto(alpha) marginal)."""
    if not 0.0 <= theta <= 1.0:
        raise DomainError(f"dependence strength must lie in [0, 1], got {theta!r}")
    return theta * g_closed_bracket(r, s, u, alpha) * g_closed_bracket(r, s, v, alpha)


def g_factor(r: float, s: float, marginal: Marginal, us) -> np.ndarray:
    """Separable factor integral(max(-u, support)..u) F(x)^s (1 - F(x))^r dx at each u, by quadrature.

    The integrals are refined in lockstep (:func:`adaptive_quad_many`), each
    to the bits it gets alone.
    """
    _validate_rs(r, s)

    def integrand(x):
        return power_factor(np.asarray(marginal.cdf(x), dtype=float), r, s)

    intervals = ((max(-u, marginal.support_min), u) for u in map(float, us))
    values, _ = adaptive_quad_many(integrand, intervals, abs_tol=_FACTOR_ABS_TOL)
    return values


@dataclass(frozen=True)
class DeltaField:
    """Pointwise dependence gap of a copula-coupled pair with common marginal.

    delta(x, y) = gap(F(x), F(y)) is taken from the copula's own gap, never
    as C(F(x), F(y)) - F(x) F(y), so it keeps its relative accuracy where
    the gap is far below F(x) F(y).  It is >= 0 everywhere when the copula
    is PQD, and vanishes whenever either argument is below the marginal's
    support.
    """

    copula: GfmCopula | PerturbationCopula
    marginal: Marginal

    def delta(self, x, y):
        return self.copula.gap(self.marginal.cdf(x), self.marginal.cdf(y))


def g_numeric(field: DeltaField, pairs, spec: QuadSpec | None = None) -> np.ndarray:
    """Covariance functional at each (u, v), by adaptive product quadrature of the gap field in log x.

    Integrates delta over [support, u] x [support, v] (empty, giving 0, when
    u or v is at or below the support's infimum) after substituting
    y = log x on both axes, i.e. delta(e^y1, e^y2) e^(y1 + y2) over
    [log support, log u] x [log support, log v].  The truncation at the
    support is exact because delta vanishes below it.  Requires a marginal
    with positive support (DomainError otherwise).  The integrals are refined
    in lockstep (:func:`adaptive_quad_2d_many`), each to the bits it gets
    alone.  Raises the QuadratureError (carrying the best estimate and
    bound) of the first pair whose integral fails.
    """
    pairs = list(pairs)
    for u, v in pairs:
        if not (u > 0.0 and v > 0.0):
            raise DomainError(f"integration half-widths must be positive, got u={u!r}, v={v!r}")
    lo = field.marginal.support_min
    if not lo > 0.0:
        raise DomainError(f"log-space quadrature needs a marginal with positive support, got support_min={lo!r}")
    spec = spec or QuadSpec()

    def integrand(y1, y2):
        x1, x2 = np.exp(y1), np.exp(y2)
        return field.delta(x1, x2) * (x1 * x2)

    log_lo = math.log(lo)
    boxes = [(log_lo, math.log(u), log_lo, math.log(v)) for u, v in pairs]
    values, _ = adaptive_quad_2d_many(integrand, boxes, abs_tol=spec.abs_tol, max_panels=spec.max_panels)
    return values
