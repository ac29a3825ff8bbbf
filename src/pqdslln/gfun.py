"""The covariance functional of a dependent pair, by closed form and two oracles.

For a pair coupled by copula C with common marginal F the pointwise
dependence gap is

    delta(x, y) = C(F(x), F(y)) - F(x) F(y),

identical in survival form and CDF form, and the covariance functional is
its double integral over [-u, u] x [-v, v].  The power-family copula is
C(u, v) = u v + gap(u, v), so delta is evaluated as gap(F(x), F(y)),
free of the cancellation in the difference.  Three routes are provided,
all for the Pareto(alpha) marginal, whose support starts at 1:

* ``g_numeric``        adaptive product quadrature of the copula's gap
                       gap(F(x), F(y)) in y = log x on both axes (the
                       oracle: it integrates whatever gap its copula
                       holds, never the closed form; the substitution puts
                       the mass near the support edge and the far tail on
                       a comparable scale),
* ``g_factor``         the separable factor integral(1..u) F^s (1-F)^r dx
                       by quadrature, valid because the power-family gap
                       factorizes,
* ``g_closed_bracket`` the closed-form factor B, from which

    G(u, v) = theta * B(u) * B(v),
    B(u) = (1/alpha) * B_{F(u)}(s+1, r-1/alpha),

an incomplete beta function (substitute t = F(x)), finite at every u and
every r alpha; its limit B(inf) = Beta(s+1, r-1/alpha) / alpha is finite
exactly when r alpha > 1 (``bracket_limit`` is inf otherwise).  Write
a = s + 1, b = r - 1/alpha and g = 1 - F = u^-alpha, with F and g both
taken from one log u, so g is never formed by subtraction, and g^b taken
as exp(b log g), so that at small alpha, where |b| ~ 1/alpha, the rounding
of g near 1 is not raised to the power b.  B is split at h = 1 - x*,
where x* = (a + 1) / (a + b + 2) is the symmetry point of the positive-term
sums below (b is replaced by max(b, 0) there):

    B(u) = F^a g^b / (a alpha) * H(1, a+b; a+1; F)              where g > h,
    B(u) = B(inf) - F^a g^b / (b alpha) * H(1, a+b; b+1; g)     where g <= h, b >= 1/64,
    B(u) = B(u_h) + (1/alpha) sum_n c_n (h^t - g^t) / t         where g <= h, b < 1/64,

with H the Gauss hypergeometric series 2F1(1, b'; c; z) = sum_n (b')_n / (c)_n z^n
(DLMF 8.17.8, applied to B_F(a, b) and to its mirror B_g(b, a)), which
``_hyp_series`` sums for both forms, u_h the threshold where g = h, c_n = (1-a)_n / n!
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
a list of thresholds or (u, v) pairs and refine their intervals or boxes
in lockstep, each oracle to one fixed absolute tolerance, through the one
quadrature entry, ``adaptive_quad_many``, so one point is a one-element list.
Every route takes the marginal as a ``ParetoMarginal``, which owns the rule
0 < alpha < inf with 1/alpha finite, and exactly the finite thresholds u >= 1; it raises
ParameterError for any other (NaN, +-inf, or below the support edge),
through one check.  B(inf) has its one entry, ``bracket_limit``.  B(1) = 0
exactly on every side of the split: u = 1 takes the first form even where
h rounds to 1 (b past about 3e16).  Where alpha log u or b log g passes the
largest double, it is taken as its limit -inf (g = 0, or g^b = 0), quietly.  Where B(inf)
underflows to 0, as when r and s both near the largest double, every B(u) is 0 with no sum.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .copulas import GfmCopula, check_rs, power_factor
from .errors import NumericError, ParameterError
from .marginals import ParetoMarginal
from .quadrature import adaptive_quad_many
from .specfun import gamma

__all__ = [
    "bracket_limit",
    "factor_differences",
    "g_closed_bracket",
    "g_factor",
    "g_numeric",
]

_FACTOR_ABS_TOL = 1e-10  # absolute tolerance of the separable factor quadrature
_NUMERIC_ABS_TOL = 1e-9  # absolute tolerance of the 2-D oracle's quadrature
# Above the split, the mirror form B(inf) - part serves b >= _MIRROR_MIN_B and the strip sum
# serves smaller b: where the mirror form's error overtakes the strip sum's (see the module text).
_MIRROR_MIN_B = 1.0 / 64.0
_STRIP_RTOL = 1e-17  # a strip sum stops at its first term below this share of its running sum
_LOG_MAX = math.log(sys.float_info.max)  # the 2-D oracle refuses a pair with log u + log v at or past it
# Relative truncation threshold of the series H.  Downstream tolerances are 1e-6; this leaves
# nine orders of margin.
_SERIES_RTOL = 1e-15
_MAX_TERMS = 1_000_000
# Terms times live elements summed per block of H.  numpy's 2-D accumulate runs one inner loop
# per row, so a block pays only while its rows are few and long: above _BLOCK_ROWS live elements
# (blocks narrower than 16 terms) one term per step is faster.  On a 2-core AVX-512 machine, a
# series still summing after thousands of terms cost 3.5 us per term in steps and 5.0 us in
# blocks at 400 live elements, 3.5 and 2.9 us at 256.
_BLOCK_CELLS = 4096
_BLOCK_ROWS = 256


def _check_support(us: np.ndarray) -> None:
    """Raise ParameterError unless every threshold in ``us`` is finite and >= 1, the support edge."""
    usable = (us >= 1.0) & (us < math.inf)  # False at NaN
    if not usable.all():
        bad = float(us[~usable].flat[0])
        raise ParameterError(f"thresholds must be finite and >= 1 (the Pareto support edge), got {bad!r}")


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
        try:
            log_lo = math.lgamma(lo)
        except OverflowError:  # lo past about 2.5e305: Beta <= Beta(lo, lo) < 4^(1 - lo) underflowed long before
            return 0.0
        log_ratio = lo - (hi - 0.5) * math.log1p(lo / hi) - lo * math.log(total)
        return math.exp(log_lo + log_ratio + _stirling_remainder(hi) - _stirling_remainder(total))
    carry = lo - (total - hi)  # lo + hi - total, exactly
    return gamma(lo) * ratio * math.exp(-carry * math.log(total - 0.5))


def _hyp_series(b: float, c: float, z):
    """H = 2F1(1, b; c; z) = sum_{n>=0} (b)_n / (c)_n z^n, elementwise over 0 <= z < 1.

    The series of DLMF 8.17.8 that both forms of B sum: c is a + 1 >= 3 or b + 1 >= 1 + 1/64,
    and z is F < 1 - h or g <= h, so no argument needs a check here.  Term n + 1 is term n
    times (b + n) / (c + n) z.  Each element's series is truncated once its running term drops
    below _SERIES_RTOL times its running sum, so a series that terminates (b a nonpositive
    integer) stops at its first zero term at the latest.  Every element sees the same
    floating-point operations as a scalar call.  A scalar z gives a float, an array z an array
    of its shape.

    Live elements are summed in blocks of W terms (W from 16, doubling, with W times the live
    count at most _BLOCK_CELLS; one term per step while more than _BLOCK_ROWS elements are
    live): an outer product of term ratios, then running products and running sums along each
    row, which are the one-term step's operations in its order, so the bits are the step's.
    Converged elements leave the live set.  A series that does not truncate within _MAX_TERMS
    terms raises NumericError, as does a sum that overflows double precision.
    """
    zs = np.asarray(z, dtype=float)
    live_z = zs.ravel()
    out = np.empty(zs.size)
    live = np.arange(zs.size)  # elements still summing, compacted as they converge
    term, total = np.ones(zs.size), np.ones(zs.size)
    n, width = 0, 16
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed sum is refused below
        while n < _MAX_TERMS and live.size:
            if live.size > _BLOCK_ROWS:
                step = 1
                term *= (b + n) / (c + n) * live_z
                total += term
                done, value = np.abs(term) <= _SERIES_RTOL * np.abs(total), total
            else:
                step = min(width, _BLOCK_CELLS // live.size, _MAX_TERMS - n)
                width = 2 * step
                ns = np.arange(n, n + step, dtype=float)
                ratios = np.multiply.outer(live_z, (b + ns) / (c + ns))
                ratios[:, 0] *= term
                terms = np.multiply.accumulate(ratios, axis=1)
                sums = terms.copy()
                sums[:, 0] += total
                sums = np.add.accumulate(sums, axis=1)
                term, total = terms[:, -1], sums[:, -1]
                passed = np.abs(terms) <= _SERIES_RTOL * np.abs(sums)
                first = passed.argmax(axis=1)  # each row's first passing term, or 0 where none passes
                rows = np.arange(live.size)
                done, value = passed[rows, first], sums[rows, first]
            n += step
            if done.any():
                out[live[done]] = value[done]
                keep = ~done
                live, live_z, term, total = live[keep], live_z[keep], term[keep], total[keep]
    if live.size:
        raise NumericError(f"2F1 series did not converge within {_MAX_TERMS} terms (z={float(live_z[0])!r})")
    finite = np.isfinite(out)
    if not finite.all():
        raise NumericError(f"2F1 series overflows double precision (z={float(zs.ravel()[np.argmin(finite)])!r})")
    out = out.reshape(zs.shape)
    return out if out.ndim else float(out)


def bracket_limit(r: float, s: float, marginal: ParetoMarginal) -> float:
    """Limit B(inf) = Beta(s+1, r-1/alpha) / alpha of the closed-form factor for a Pareto(alpha) marginal.

    It is math.inf when r alpha <= 1, where the factor diverges.
    """
    check_rs(r, s)
    alpha = marginal.alpha
    b = r - 1.0 / alpha
    return _beta(s + 1.0, b) / alpha if b > 0.0 else math.inf


def _below_split(a: float, b: float, f, log_g, alpha: float):
    """B = F^a g^b / (a alpha) * 2F1(1, a+b; a+1; F) at F = f, log(1 - F) = log_g; the form for g > h.

    g^b is exp(b log g): g rounded near 1 would carry |b| times its rounding error into g^b.
    """
    return f**a * np.exp(b * log_g) / (a * alpha) * _hyp_series(a + b, a + 1.0, f)


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


def _closed_parts(r: float, s: float, marginal: ParetoMarginal, us: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """(above, part, base, log(1 - F)) at thresholds ``us`` >= 1: B(u) = part below the split, base + part above it.

    Above the split, base is B(inf) and part the negated mirror tail where b >= _MIRROR_MIN_B,
    and base is B(u_h) and part the strip sum from u_h to u below that.  One Gauss
    hypergeometric sum per side of the split that has thresholds, and one more for B(u_h).
    Where B(inf) underflows to 0, every part is 0 and none lies above the split.
    """
    limit = bracket_limit(r, s, marginal)
    _check_support(us)
    alpha = marginal.alpha
    a, b = s + 1.0, r - 1.0 / alpha
    lift = max(b, 0.0)
    h = (lift + 1.0) / (a + lift + 2.0)  # 1 - x*
    with np.errstate(over="ignore"):  # -inf past the largest double: g = 0 and F = 1
        log_tail = -alpha * np.log(us)  # log(1 - F)
    if limit == 0.0:  # 0 <= B(u) <= B(inf), which underflows: so does every B(u)
        return np.zeros(us.shape, dtype=bool), np.zeros(us.shape), limit, log_tail
    g = np.exp(log_tail)
    below = (g > h) | (g == 1.0)  # u = 1 gives 0 here even where h rounds to 1
    above = ~below
    part = np.empty(us.shape)
    if below.any():
        part[below] = _below_split(a, b, -np.expm1(log_tail[below]), log_tail[below], alpha)
    if not above.any():
        return above, part, limit, log_tail
    if b >= _MIRROR_MIN_B:
        # F^a as exp(a log1p(-g)): F rounded near 1 would carry a times its rounding error into F^a;
        # b log g overflows to -inf (g^b = 0) at b near the largest double
        tail = g[above]
        with np.errstate(over="ignore"):
            lead = np.exp(a * np.log1p(-tail) + b * log_tail[above])
        part[above] = -(lead / (b * alpha) * _hyp_series(a + b, b + 1.0, tail))
        return above, part, limit, log_tail
    part[above] = _strip(a, b, log_tail[above], math.log(h), alpha)
    return above, part, _below_split(a, b, (a + 1.0) / (a + lift + 2.0), math.log(h), alpha), log_tail


def g_closed_bracket(r: float, s: float, marginal: ParetoMarginal, u):
    """Closed-form factor B(u) for a Pareto(alpha) marginal, at any r alpha.

    Equals integral(1..u) (1 - x^-alpha)^s x^(-alpha r) dx; returns exactly
    0 at the support edge u = 1.  Accepts a scalar or an array u and returns
    a float or an array of the same shape.  A u that is not finite and >= 1
    raises ParameterError; B(inf) is :func:`bracket_limit`.
    """
    above, part, base, _ = _closed_parts(r, s, marginal, np.asarray(u, dtype=float))
    part[above] += base
    return part if part.ndim else float(part)


def g_factor(r: float, s: float, marginal: ParetoMarginal, us) -> np.ndarray:
    """Separable factor integral(1..u) F(x)^s (1 - F(x))^r dx at each u, by quadrature.

    The intervals [1, u] are refined in lockstep (:func:`adaptive_quad_many`),
    each to the bits it gets alone.  A u that is not finite and >= 1 raises
    ParameterError.
    """
    check_rs(r, s)
    us = np.asarray(us, dtype=float)
    _check_support(us)

    def integrand(x):
        return power_factor(np.asarray(marginal.cdf(x), dtype=float), r, s)

    values, _ = adaptive_quad_many(integrand, ((1.0, u) for u in us.tolist()), abs_tol=_FACTOR_ABS_TOL)
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
    above, part, base, log_tail = _closed_parts(r, s, marginal, edges)
    values = np.where(above, base + part, part)
    tails = above[:count] & above[count:]
    diffs = np.where(tails, part[:count] - part[count:], values[:count] - values[count:])
    alpha = marginal.alpha
    b = r - 1.0 / alpha
    if b < _MIRROR_MIN_B and tails.any():
        diffs[tails] = _strip(s + 1.0, b, log_tail[:count][tails], log_tail[count:][tails], alpha)
    return diffs


def g_numeric(copula: GfmCopula, marginal: ParetoMarginal, pairs) -> np.ndarray:
    """Covariance functional at each (u, v), by adaptive product quadrature of the copula's gap in log x.

    Integrates delta(x1, x2) = copula.gap(F(x1), F(x2)) over [1, u] x [1, v]
    (empty, giving 0, when u or v is the support edge 1) after substituting
    y = log x on both axes, i.e. delta(e^y1, e^y2) e^(y1 + y2) over
    [0, log u] x [0, log v].  The truncation at the support edge is exact
    because delta vanishes below it.  The boxes are refined in lockstep to
    _NUMERIC_ABS_TOL (:func:`adaptive_quad_many`), each to the bits it gets
    alone.  A u or v that is not finite and >= 1 raises ParameterError.  A
    pair with log u + log v at or past the log of the largest double raises
    NumericError before any evaluation: the Jacobian e^(y1 + y2) would
    overflow there while the gap underflows to 0.  Raises the
    QuadratureError (carrying the best estimate and bound) of the first pair
    whose integral fails.
    """
    pairs = list(pairs)
    _check_support(np.array(pairs, dtype=float))
    boxes = [(0.0, math.log(u), 0.0, math.log(v)) for u, v in pairs]
    for (u, v), (_, log_u, _, log_v) in zip(pairs, boxes):
        if log_u + log_v >= _LOG_MAX:
            raise NumericError(f"u*v overflows a double at u={u!r}, v={v!r}, so the 2-D oracle cannot integrate there")

    def integrand(y1, y2):
        x1, x2 = np.exp(y1), np.exp(y2)
        return copula.gap(marginal.cdf(x1), marginal.cdf(x2)) * (x1 * x2)

    values, _ = adaptive_quad_many(integrand, boxes, abs_tol=_NUMERIC_ABS_TOL)
    return values
