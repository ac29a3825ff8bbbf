"""The covariance functional of a dependent pair and its pointwise gap.

For a pair coupled by copula C with common marginal F the pointwise
dependence gap is

    delta(x, y) = C(F(x), F(y)) - F(x) F(y),

identical in survival form and CDF form, and the covariance functional is
its double integral over [-u, u] x [-v, v].  The power-family copula is
C(u, v) = u v + gap(u, v), so delta is evaluated as gap(F(x), F(y)),
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
exactly when r alpha > 1.  Writing a = s + 1 and b = r - 1/alpha, it is
evaluated with one positive-term Gauss hypergeometric sum H (DLMF 8.17.8,
applied to B_F(a, b) and to its mirror B_{1-F}(b, a)) on either side of
the symmetry point x* = (a + 1) / (a + b + 2):

    B(u) = F^a (1-F)^b / (a alpha) * H(1, a+b; a+1; F)           where F < x*,
    B(u) = B(inf) - F^a (1-F)^b / (b alpha) * H(1, a+b; b+1; 1-F) where F >= x*,
    B(inf) = Beta(a, b) / alpha,

with F = 1 - u^-alpha and 1 - F = u^-alpha both taken from one log u, so
1 - F is never formed by subtraction.  Both series sum positive terms whose
ratio stays below max(z, (a+b)/(a+b+2)) < 1 at an argument z on their side
of x*, so below x* B keeps its relative accuracy up to the support edge.
Above x* the difference keeps B(u) >= Q(b, b+1) B(inf), Q the regularized
upper incomplete gamma function (0.135 at b = 1, 0.083 at b = 1/2, about
0.22 b for small b), so it loses little unless b << 1.  B(u) -> 0 as
u -> 1+ and increases to B(inf) as u -> inf, which also furnishes a
k,j-independent bound G <= theta * B(inf)^2 used by the series majorant.
``g_closed_bracket`` evaluates B at a scalar or at a whole array of
thresholds in one pass, and ``factor_values`` is the one route to B for a
Pareto marginal at any r alpha (the closed form, or quadrature where
r alpha <= 1).  ``factor_differences`` takes B(hi) - B(lo) over brackets
from the same evaluations; where both edges lie above x* it subtracts the
two tails, so B(inf) cancels exactly.  ``g_factor`` and ``g_numeric`` take
a list of thresholds or (u, v) pairs and refine their quadratures in
lockstep, so one point is a one-element list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copulas import GfmCopula, power_factor
from .errors import DomainError, NumericError
from .marginals import Marginal, ParetoMarginal
from .quadrature import QuadSpec, adaptive_quad_2d_many, adaptive_quad_many
from .specfun import gamma, gauss_2f1

__all__ = [
    "DeltaField",
    "bracket_limit",
    "factor_differences",
    "factor_values",
    "g_closed_bracket",
    "g_closed_form",
    "g_factor",
    "g_numeric",
]

_FACTOR_ABS_TOL = 1e-10  # absolute tolerance of the separable factor quadrature


def _validate_rs(r: float, s: float) -> None:
    if not (r >= 1.0 and s >= 1.0):
        raise DomainError(f"power-family exponents require r >= 1 and s >= 1, got r={r!r}, s={s!r}")


def _stirling_remainder(z: float) -> float:
    """omega(z) = lnGamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2 to four terms (DLMF 5.11.1), for z > 85."""
    w = 1.0 / (z * z)
    return (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w / 1680.0))) / z


def _beta(x: float, y: float) -> float:
    """Euler's beta function Gamma(x) Gamma(y) / Gamma(x + y) for x, y > 0 with x + y > 1.

    The rounding of x + y is corrected to first order, with log(x + y - 1/2)
    for the digamma function; it would otherwise cost up to about
    (x + y) log(x + y) / 2 ulp.  Where Gamma(x + y) overflows (so the larger
    argument exceeds 85), the ratio Gamma(hi) / Gamma(hi + lo) is taken from
    Stirling's series, whose terms stay small, not as a difference of two
    large lgamma values.
    """
    lo, hi = sorted((x, y))
    total = lo + hi
    try:
        ratio = gamma(hi) / gamma(total)
    except NumericError:
        log_ratio = lo - (hi - 0.5) * math.log1p(lo / hi) - lo * math.log(total)
        return math.exp(math.lgamma(lo) + log_ratio + _stirling_remainder(hi) - _stirling_remainder(total))
    carry = lo - (total - hi)  # lo + hi - total, exactly
    return gamma(lo) * ratio * math.exp(-carry * math.log(total - 0.5))


def bracket_limit(r: float, s: float, alpha: float = 2.0) -> float:
    """Limit B(inf) = Beta(s+1, r-1/alpha) / alpha of the closed-form factor.

    Raises DomainError when r alpha <= 1, where the factor diverges.
    """
    _validate_rs(r, s)
    if not alpha * r > 1.0:
        raise DomainError(f"closed-form factor requires r * alpha > 1, got r={r!r}, alpha={alpha!r}")
    return _beta(s + 1.0, r - 1.0 / alpha) / alpha


def _closed_parts(r: float, s: float, us: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(above, part) at thresholds ``us`` >= 1: B(u) = part where F(u) < x*, B(inf) - part above it.

    One Gauss hypergeometric sum per side of x* that has thresholds.
    """
    if not np.all(us >= 1.0):
        raise DomainError(f"closed-form factor requires u >= 1, got {float(np.min(us))!r}")
    a, b = s + 1.0, r - 1.0 / alpha
    log_tail = -alpha * np.log(us)  # log(1 - F)
    g = np.exp(log_tail)
    below = g > (b + 1.0) / (a + b + 2.0)  # F < x*
    above = ~below
    part = np.empty(us.shape)
    if below.any():
        f = -np.expm1(log_tail[below])
        part[below] = f**a * g[below] ** b / (a * alpha) * gauss_2f1(1.0, a + b, a + 1.0, f)
    if above.any():
        # F^a as exp(a log1p(-g)): F rounded near 1 would carry a times its rounding error into F^a
        tail = g[above]
        lead = np.exp(a * np.log1p(-tail) + b * log_tail[above])
        part[above] = lead / (b * alpha) * gauss_2f1(1.0, a + b, b + 1.0, tail)
    return above, part


def g_closed_bracket(r: float, s: float, u, alpha: float = 2.0):
    """Closed-form factor B(u) for the Pareto(alpha) marginal, u >= 1, r alpha > 1.

    Equals integral(1..u) (1 - x^-alpha)^s x^(-alpha r) dx; returns exactly
    0 at the support edge u = 1.  Accepts a scalar or an array u and returns
    a float or an array of the same shape.
    """
    limit = bracket_limit(r, s, alpha)
    above, part = _closed_parts(r, s, np.asarray(u, dtype=float), alpha)
    part[above] = limit - part[above]
    return part if part.ndim else float(part)


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


def factor_values(r: float, s: float, marginal: ParetoMarginal, thresholds) -> np.ndarray:
    """Covariance factor B at each threshold u >= 1 of a Pareto marginal, as an array.

    The closed form serves r alpha > 1; below that B(inf) diverges, so B
    comes from one quadrature per threshold, refined in lockstep.
    """
    if r * marginal.alpha > 1.0:
        return g_closed_bracket(r, s, thresholds, marginal.alpha)
    return g_factor(r, s, marginal, thresholds)


def factor_differences(r: float, s: float, marginal: ParetoMarginal, his, los) -> np.ndarray:
    """B(hi) - B(lo) over each bracket [lo, hi] of thresholds >= 1 of a Pareto marginal, as an array.

    Every edge is evaluated once, as in :func:`factor_values`.  Where the closed form puts both
    edges of a bracket above x*, B = B(inf) - part there, and the difference is taken of the
    parts, part(lo) - part(hi): B(inf) then cancels exactly, instead of leaving the rounding of
    two values of B near it.
    """
    edges = np.array([*his, *los], dtype=float)
    count = len(his)
    if r * marginal.alpha <= 1.0:
        values = factor_values(r, s, marginal, edges)
        return values[:count] - values[count:]
    limit = bracket_limit(r, s, marginal.alpha)
    above, part = _closed_parts(r, s, edges, marginal.alpha)
    values = np.where(above, limit - part, part)
    tails = above[:count] & above[count:]
    return np.where(tails, part[count:] - part[:count], values[:count] - values[count:])


@dataclass(frozen=True)
class DeltaField:
    """Pointwise dependence gap of a copula-coupled pair with common marginal.

    delta(x, y) = gap(F(x), F(y)) is taken from the copula's own gap, never
    as C(F(x), F(y)) - F(x) F(y), so it keeps its relative accuracy where
    the gap is far below F(x) F(y).  It is >= 0 everywhere when the copula
    is PQD, and vanishes whenever either argument is below the marginal's
    support.
    """

    copula: GfmCopula
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
