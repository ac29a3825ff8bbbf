"""Evaluators for the weighted covariance series and the tail-sum condition.

Three series over pairs 1 <= k < j are supported, differing only in the
weight and the thresholds fed to the covariance functional G:

* ``cs11``   weight j^(-2/p),     thresholds (k^(1/p), j^(1/p))
* ``nec12``  weight (kj)^(-1/p),  thresholds (k^(1/p), j^(1/p))
* ``l1``     weight (kj)^(-1),    thresholds (k, j)  (first-moment case)

With a power schedule theta_{k,j} = k^mu j^nu the functional factorizes as
G = theta * B(k') * B(j'), so the double sum reduces to B at the N
thresholds (one array pass of the closed form when r alpha > 1, one
quadrature per threshold otherwise) plus cumulative products.  Partial sums
are accumulated with exact (fsum) summation, so they do not depend on the
order of the terms.

Truncated sums cannot prove convergence; verdicts are an honest
classification of the fitted decay rate of the per-j aggregated terms over
the last decade of j, with an explicit inconclusive band around the
harmonic boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copulas import ThetaSchedule, separable_pair_sums
from .errors import ParameterError
from .gfun import bracket_limit, g_closed_bracket, g_factor
from .marginals import ParetoMarginal

__all__ = [
    "CONVERGES",
    "DIVERGES",
    "INCONCLUSIVE",
    "SeriesVerdict",
    "MajorantBound",
    "condition_terms",
    "verdict_from_terms",
    "classify_series",
    "majorant_sum",
    "tail_condition",
]

CONVERGES = "converges"
DIVERGES = "diverges"
INCONCLUSIVE = "inconclusive"

_KINDS = ("cs11", "nec12", "l1")

# Fitted-exponent bands: a series is declared convergent only clearly below
# the harmonic boundary; at or above the boundary the integral test gives an
# infinite tail, so it is declared divergent; the gap in between stays
# inconclusive.
_CONVERGE_BELOW = -1.05
_DIVERGE_AT = -1.0 - 1e-9


@dataclass(frozen=True)
class SeriesVerdict:
    """Partial sum, decay fit and classification of a nonnegative-term series."""

    partial_sum: float
    n_terms: int
    fitted_decay_exponent: float
    tail_estimate: float
    verdict: str

    def __post_init__(self):
        if self.verdict not in (CONVERGES, DIVERGES, INCONCLUSIVE):
            raise ParameterError(f"unknown verdict {self.verdict!r}")
        if self.verdict == CONVERGES and not math.isfinite(self.tail_estimate):
            raise ParameterError("a convergent verdict requires a finite tail estimate")


@dataclass(frozen=True)
class MajorantBound:
    """Pair-independent constant and power-series majorant for the nec12 sum.

    The term bound is T_j <= c_const * inner_sum_factor * j^exponent, and the
    full-series bound c_const * inner_sum_factor * (partial_sum + tail_bound).
    The tail bound is infinite when the majorant exponent is at or above -1,
    the inner-sum factor when mu - 1/p + 1 <= 0.
    """

    c_const: float
    partial_sum: float
    tail_bound: float
    exponent: float
    inner_sum_factor: float


def classify_series(j_values: np.ndarray, terms: np.ndarray) -> tuple[float, str, float]:
    """Fit the decay exponent of per-j terms and classify the series.

    Fits log(terms) against log(j) by least squares over the last decade of
    j (restricted to positive terms), returning (exponent, verdict,
    tail_estimate).  All-zero terms classify as convergent with zero tail.
    """
    j_values = np.asarray(j_values, dtype=float)
    terms = np.asarray(terms, dtype=float)
    if np.any(terms < 0.0):
        raise ParameterError("series classification requires nonnegative terms")
    if not np.any(terms > 0.0):
        return math.nan, CONVERGES, 0.0
    n_max = float(j_values[-1])
    window = (j_values >= n_max / 10.0) & (terms > 0.0)
    if int(window.sum()) < 5:
        return math.nan, INCONCLUSIVE, math.inf
    slope, _ = np.polyfit(np.log(j_values[window]), np.log(terms[window]), 1)
    slope = float(slope)
    if slope < _CONVERGE_BELOW:
        tail = float(terms[window][-1]) * n_max / (-slope - 1.0)
        return slope, CONVERGES, tail
    if slope >= _DIVERGE_AT:
        return slope, DIVERGES, math.inf
    return slope, INCONCLUSIVE, math.inf


def _factor_values(r: float, s: float, marginal: ParetoMarginal, thresholds: np.ndarray) -> np.ndarray:
    """Covariance factor B at each threshold.

    The closed form serves r alpha > 1; below that B(inf) diverges, so B
    comes from one quadrature per threshold, refined in lockstep.
    """
    if r * marginal.alpha > 1.0:
        return g_closed_bracket(r, s, thresholds, marginal.alpha)
    return g_factor(r, s, marginal, thresholds)


def _weight_exponents(kind: str, p: float) -> tuple[float, float, float]:
    """(k-exponent, j-exponent, threshold exponent 1/p_eff) for a series kind."""
    if kind == "cs11":
        return 0.0, -2.0 / p, 1.0 / p
    if kind == "nec12":
        return -1.0 / p, -1.0 / p, 1.0 / p
    if kind == "l1":
        return -1.0, -1.0, 1.0
    raise ParameterError(f"unknown series kind {kind!r}; expected one of {_KINDS}")


def condition_terms(
    kind: str,
    p: float,
    schedule: ThetaSchedule,
    r: float,
    s: float,
    marginal: ParetoMarginal,
    n_terms: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-j aggregated terms T_j = sum_{k<j} w(k,j) G(thresholds), j = 2..N.

    Returns (j_values, terms).  The factorization G = theta B B is exploited
    to cache one factor value per index.
    """
    if kind not in _KINDS:
        raise ParameterError(f"unknown series kind {kind!r}; expected one of {_KINDS}")
    if not 1.0 <= p < 2.0:
        raise ParameterError(f"series evaluation requires 1 <= p < 2, got p={p!r}")
    if schedule.p != p:
        raise ParameterError(f"schedule was built for p={schedule.p!r}, series evaluation uses p={p!r}")
    if n_terms < 2:
        raise ParameterError(f"series truncation requires N >= 2, got {n_terms!r}")
    wk, wj, inv_p = _weight_exponents(kind, p)
    idx = np.arange(1, n_terms + 1, dtype=float)
    b = _factor_values(r, s, marginal, idx**inv_p)
    k_part = idx ** (wk + schedule.mu) * b
    j_part = idx ** (wj + schedule.nu) * b
    terms = separable_pair_sums(k_part, j_part)[0][1:]
    return idx[1:].astype(int), terms


def verdict_from_terms(j_values: np.ndarray, terms: np.ndarray) -> SeriesVerdict:
    """Partial sum and decay classification of the (j_values, terms) of :func:`condition_terms`."""
    partial = math.fsum(terms)
    exponent, verdict, tail = classify_series(j_values, terms)
    return SeriesVerdict(
        partial_sum=partial,
        n_terms=int(j_values[-1]),
        fitted_decay_exponent=exponent,
        tail_estimate=tail,
        verdict=verdict,
    )


def majorant_sum(
    p: float, mu: float, nu: float, r: float, s: float, n_terms: int, alpha: float = 2.0
) -> MajorantBound:
    """Constant C = B(inf)^2 at the Pareto(alpha) marginal, the inner-sum factor
    1/(mu - 1/p + 1), and the power majorant sum_{j=2}^N j^(mu+nu-2/p+1).

    Their product dominates the nec12 partial sum at every truncation N: each
    factor B is bounded by its limit, theta_{k,j} = k^mu j^nu, and the
    integral test gives sum_{k<j} k^(mu-1/p) <= j^(mu-1/p+1) / (mu-1/p+1)
    when mu - 1/p + 1 > 0; otherwise the inner sum is not bounded by that
    power and the factor is infinite.  Exponents are taken as given (no
    window check) so out-of-window schedules can be diagnosed: at or above
    the harmonic exponent -1 the tail bound is flagged infinite.
    """
    if not 1.0 <= p < 2.0:
        raise ParameterError(f"majorant requires 1 <= p < 2, got p={p!r}")
    if n_terms < 2:
        raise ParameterError(f"majorant truncation requires N >= 2, got {n_terms!r}")
    c_const = bracket_limit(r, s, alpha) ** 2
    inner = mu - 1.0 / p + 1.0
    exponent = mu + nu - 2.0 / p + 1.0
    js = np.arange(2, n_terms + 1, dtype=float)
    partial = math.fsum(js**exponent)
    if exponent < -1.0:
        tail = n_terms ** (exponent + 1.0) / (-exponent - 1.0)
    else:
        tail = math.inf
    return MajorantBound(
        c_const=c_const,
        partial_sum=partial,
        tail_bound=tail,
        exponent=exponent,
        inner_sum_factor=1.0 / inner if inner > 0.0 else math.inf,
    )


def tail_condition(p: float, marginal: ParetoMarginal, n_terms: int) -> SeriesVerdict:
    """Tail sum sum_{k<=N} P{X > k^(1/p)} = sum k^(-alpha/p) with integral-test tail.

    The verdict is analytic, not fitted: the series converges exactly when
    alpha/p > 1, which is also exactly when E|X|^p is finite.
    """
    if not 1.0 <= p < 2.0:
        raise ParameterError(f"tail condition requires 1 <= p < 2, got p={p!r}")
    if n_terms < 1:
        raise ParameterError(f"tail truncation requires N >= 1, got {n_terms!r}")
    q = -marginal.alpha / p
    ks = np.arange(1, n_terms + 1, dtype=float)
    partial = math.fsum(ks**q)
    if q < -1.0:
        tail = n_terms ** (q + 1.0) / (-q - 1.0)
        verdict = CONVERGES
    else:
        tail = math.inf
        verdict = DIVERGES
    return SeriesVerdict(
        partial_sum=partial,
        n_terms=n_terms,
        fitted_decay_exponent=q,
        tail_estimate=tail,
        verdict=verdict,
    )
