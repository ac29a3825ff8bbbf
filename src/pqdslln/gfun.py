"""The covariance functional of a dependent pair and its pointwise gap.

For a pair coupled by copula C with common marginal F the pointwise
dependence gap is

    delta(x, y) = C(F(x), F(y)) - F(x) F(y),

identical in survival form and CDF form, and the covariance functional is
its double integral over [-u, u] x [-v, v].  The power-family copula is
C(u, v) = u v + gap(u, v), so delta is evaluated as gap(F(x), F(y)),
free of the cancellation in the difference.  Three routes are provided,
all for the Pareto(alpha) marginal, whose support starts at 1:

* ``g_numeric``     adaptive product quadrature of delta in y = log x on
                    both axes (the oracle: it integrates the copula's own
                    gap, never the closed form; the substitution puts the
                    mass near the support edge and the far tail on a
                    comparable scale),
* ``g_factor``      the separable factor integral(1..u) F^s (1-F)^r dx by
                    quadrature, valid because the power-family gap factorizes,
* ``g_closed_form`` the closed form

    G(u, v) = theta * B(u) * B(v),
    B(u) = (1/alpha) * B_{F(u)}(s+1, r-1/alpha),

an incomplete beta function (substitute t = F(x)), finite at every u and
every r alpha; its limit B(inf) = Beta(s+1, r-1/alpha) / alpha is finite
exactly when r alpha > 1 (``bracket_limit`` is inf otherwise).  Write
a = s + 1, b = r - 1/alpha and g = 1 - F = u^-alpha, with F and g both
taken from one log u, so g is never formed by subtraction.  B is split at
h = 1 - x*, where x* = (a + 1) / (a + b + 2) is the symmetry point of the
positive-term sums below (b is replaced by max(b, 0) there):

    B(u) = F^a g^b / (a alpha) * H(1, a+b; a+1; F)              where g > h,
    B(u) = B(inf) - F^a g^b / (b alpha) * H(1, a+b; b+1; g)     where g <= h, b >= 1/64,
    B(u) = B(u_h) + (1/alpha) sum_n c_n (h^t - g^t) / t         where g <= h, b < 1/64,

with H the Gauss hypergeometric sum (DLMF 8.17.8, applied to B_F(a, b) and
to its mirror B_g(b, a)), u_h the threshold where g = h, c_n = (1-a)_n / n!
the binomial coefficients of (1 - w)^(a-1) and t = n + b.  The first form
holds for every real b; its terms' ratio stays below max(F, (a+b)/(a+b+2))
< 1 in size, so it keeps its relative accuracy up to the support edge.
The mirror form keeps B(u) >= Q(b, b+1) B(inf), Q the regularized upper
incomplete gamma function (about 0.22 b for small b), so its difference
loses digits as b -> 0: 3.7e-12 relative at b = 1e-3 and 2.8e-6 at
b = 1e-9, against 40-digit values over s <= 400 and u <= 1e8.  The strip
sum integrates (1 - w)^(a-1) w^(b-1) over [g, h] term by term, each term
as -h^t expm1(t log(g/h)) / t (log(h/g) at t = 0): it is uniform through
b = 0, -1, -2, ..., needs no Beta function, sums terms whose ratio tends
to h < 0.26, and stops after s + 1 terms for integer s.  Both forms hold
about 4e-13 at b = 1/64, the switch.

B(u) -> 0 as u -> 1+ and increases to B(inf) as u -> inf, which also
furnishes a k,j-independent bound G <= theta * B(inf)^2 used by the series
majorant.  ``g_closed_bracket`` evaluates B at a scalar or at a whole
array of thresholds in one pass; it is the one route to B of ``condition
check`` and ``report example``.  ``factor_differences`` takes B(hi) - B(lo)
over brackets from the same evaluations; where both edges lie above the
split it sums the strip between them, or subtracts the two mirror tails,
so B(u_h) or B(inf) cancels exactly.  ``g_factor`` and ``g_numeric`` take
a list of thresholds or (u, v) pairs and refine their quadratures in
lockstep, so one point is a one-element list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copulas import GfmCopula, power_factor
from .errors import DomainError, NumericError
from .marginals import ParetoMarginal
from .quadrature import QuadSpec, adaptive_quad_2d_many, adaptive_quad_many
from .specfun import gamma, gauss_2f1

__all__ = [
    "DeltaField",
    "bracket_limit",
    "factor_differences",
    "g_closed_bracket",
    "g_closed_form",
    "g_factor",
    "g_numeric",
]

_FACTOR_ABS_TOL = 1e-10  # absolute tolerance of the separable factor quadrature
# Above the split, the mirror form B(inf) - part serves b >= _MIRROR_MIN_B and the strip sum
# serves smaller b: where the mirror form's error overtakes the strip sum's (see the module text).
_MIRROR_MIN_B = 1.0 / 64.0
_STRIP_RTOL = 1e-17  # a strip sum stops at its first term below this share of its running sum


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

    It is math.inf when r alpha <= 1, where the factor diverges.  Raises
    DomainError unless alpha > 0.
    """
    _validate_rs(r, s)
    if not alpha > 0.0:
        raise DomainError(f"closed-form factor requires alpha > 0, got {alpha!r}")
    b = r - 1.0 / alpha
    return _beta(s + 1.0, b) / alpha if b > 0.0 else math.inf


def _below_split(a: float, b: float, f, g, alpha: float):
    """B = F^a g^b / (a alpha) * 2F1(1, a+b; a+1; F) at F = f, 1 - F = g; the form for g > h."""
    return f**a * g**b / (a * alpha) * gauss_2f1(1.0, a + b, a + 1.0, f)


def _strip(a: float, b: float, log_small, log_large, alpha: float):
    """(1/alpha) * integral over [e^log_small, e^log_large] of (1 - w)^(a-1) w^(b-1) dw, for log_small <= log_large.

    That is B(u1) - B(u2) for the thresholds u1 >= u2 whose values of 1 - F are the two edges.
    Summed as sum_n c_n (G^t - g^t) / t, c_n = (1-a)_n / n!, t = n + b, with each term
    -G^t expm1(t log(g/G)) / t (log(G/g) at t = 0), until a term drops below _STRIP_RTOL of its
    running sum everywhere, or c_n vanishes (after s + 1 terms for integer s = a - 1).
    """
    gap = log_small - log_large
    total = np.zeros(np.shape(gap))
    coef, n = 1.0, 0
    while True:
        t = n + b
        term = coef * (-gap if t == 0.0 else np.exp(t * log_large) * np.expm1(t * gap) / -t)
        total += term
        n += 1
        coef *= (n - a) / n
        if coef == 0.0 or not np.any(np.abs(term) > _STRIP_RTOL * np.abs(total)):
            return total / alpha


def _closed_parts(r: float, s: float, us: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(above, part, base) at thresholds ``us`` >= 1: B(u) = part below the split, base + part above it.

    Above the split, base is B(inf) and part the negated mirror tail where b >= _MIRROR_MIN_B,
    and base is B(u_h) and part the strip sum from u_h to u below that.  One Gauss
    hypergeometric sum per side of the split that has thresholds, and one more for B(u_h).
    """
    limit = bracket_limit(r, s, alpha)
    if not np.all(us >= 1.0):
        raise DomainError(f"closed-form factor requires u >= 1, got {float(np.min(us))!r}")
    a, b = s + 1.0, r - 1.0 / alpha
    lift = max(b, 0.0)
    h = (lift + 1.0) / (a + lift + 2.0)  # 1 - x*
    log_tail = -alpha * np.log(us)  # log(1 - F)
    g = np.exp(log_tail)
    below = g > h
    above = ~below
    part = np.empty(us.shape)
    if below.any():
        part[below] = _below_split(a, b, -np.expm1(log_tail[below]), g[below], alpha)
    if not above.any():
        return above, part, limit
    if b >= _MIRROR_MIN_B:
        # F^a as exp(a log1p(-g)): F rounded near 1 would carry a times its rounding error into F^a
        tail = g[above]
        lead = np.exp(a * np.log1p(-tail) + b * log_tail[above])
        part[above] = -(lead / (b * alpha) * gauss_2f1(1.0, a + b, b + 1.0, tail))
        return above, part, limit
    part[above] = _strip(a, b, log_tail[above], math.log(h), alpha)
    return above, part, _below_split(a, b, (a + 1.0) / (a + lift + 2.0), h, alpha)


def g_closed_bracket(r: float, s: float, u, alpha: float = 2.0):
    """Closed-form factor B(u) for the Pareto(alpha) marginal, u >= 1, at any r alpha.

    Equals integral(1..u) (1 - x^-alpha)^s x^(-alpha r) dx; returns exactly
    0 at the support edge u = 1.  Accepts a scalar or an array u and returns
    a float or an array of the same shape.
    """
    above, part, base = _closed_parts(r, s, np.asarray(u, dtype=float), alpha)
    part[above] += base
    return part if part.ndim else float(part)


def g_closed_form(theta: float, r: float, s: float, u: float, v: float, alpha: float = 2.0) -> float:
    """Closed-form covariance functional theta * B(u) * B(v) (Pareto(alpha) marginal)."""
    if not 0.0 <= theta <= 1.0:
        raise DomainError(f"dependence strength must lie in [0, 1], got {theta!r}")
    return theta * g_closed_bracket(r, s, u, alpha) * g_closed_bracket(r, s, v, alpha)


def g_factor(r: float, s: float, marginal: ParetoMarginal, us) -> np.ndarray:
    """Separable factor integral(1..u) F(x)^s (1 - F(x))^r dx at each u, by quadrature.

    The integrals are refined in lockstep (:func:`adaptive_quad_many`), each
    to the bits it gets alone.
    """
    _validate_rs(r, s)

    def integrand(x):
        return power_factor(np.asarray(marginal.cdf(x), dtype=float), r, s)

    values, _ = adaptive_quad_many(integrand, ((1.0, u) for u in map(float, us)), abs_tol=_FACTOR_ABS_TOL)
    return values


def factor_differences(r: float, s: float, marginal: ParetoMarginal, his, los) -> np.ndarray:
    """B(hi) - B(lo) over each bracket [lo, hi] of thresholds >= 1 of a Pareto marginal, as an array.

    Every edge is evaluated once, as in :func:`g_closed_bracket`.  Where both edges of a bracket
    lie above the split, the difference is taken without the base that B shares there: as the
    strip sum between the two edges, or as the difference of the two mirror tails.  B(u_h) or
    B(inf) then cancels exactly, instead of leaving the rounding of two values of B near it.
    """
    edges = np.array([*his, *los], dtype=float)
    count = len(his)
    alpha = marginal.alpha
    above, part, base = _closed_parts(r, s, edges, alpha)
    values = np.where(above, base + part, part)
    tails = above[:count] & above[count:]
    diffs = np.where(tails, part[:count] - part[count:], values[:count] - values[count:])
    b = r - 1.0 / alpha
    if b < _MIRROR_MIN_B and tails.any():
        log_tail = -alpha * np.log(edges)
        diffs[tails] = _strip(s + 1.0, b, log_tail[:count][tails], log_tail[count:][tails], alpha)
    return diffs


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
    marginal: ParetoMarginal

    def delta(self, x, y):
        return self.copula.gap(self.marginal.cdf(x), self.marginal.cdf(y))


def g_numeric(field: DeltaField, pairs, spec: QuadSpec | None = None) -> np.ndarray:
    """Covariance functional at each (u, v), by adaptive product quadrature of the gap field in log x.

    Integrates delta over [1, u] x [1, v] (empty, giving 0, when u or v is
    at or below the support edge 1) after substituting y = log x on both
    axes, i.e. delta(e^y1, e^y2) e^(y1 + y2) over [0, log u] x [0, log v].
    The truncation at the support edge is exact because delta vanishes below
    it.  The integrals are refined in lockstep (:func:`adaptive_quad_2d_many`),
    each to the bits it gets alone.  Raises the QuadratureError (carrying the
    best estimate and bound) of the first pair whose integral fails.
    """
    pairs = list(pairs)
    for u, v in pairs:
        if not (u > 0.0 and v > 0.0):
            raise DomainError(f"integration half-widths must be positive, got u={u!r}, v={v!r}")
    spec = spec or QuadSpec()

    def integrand(y1, y2):
        x1, x2 = np.exp(y1), np.exp(y2)
        return field.delta(x1, x2) * (x1 * x2)

    boxes = [(0.0, math.log(u), 0.0, math.log(v)) for u, v in pairs]
    values, _ = adaptive_quad_2d_many(integrand, boxes, abs_tol=spec.abs_tol, max_panels=spec.max_panels)
    return values
