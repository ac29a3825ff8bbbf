"""Evaluators for the weighted covariance series and the tail-sum condition.

Three series over pairs 1 <= k < j are supported, differing only in the
weight and the thresholds fed to the covariance functional G:

* ``cs11``   weight j^(-2/p),     thresholds (k^(1/p), j^(1/p))
* ``nec12``  weight (kj)^(-1/p),  thresholds (k^(1/p), j^(1/p))
* ``l1``     weight (kj)^(-1),    thresholds (k, j)  (first-moment case)

With a power schedule theta_{k,j} = k^mu j^nu the functional factorizes as
G = theta * B(k') * B(j'), so the double sum reduces to B at the N
thresholds (one array pass of the closed form, at every r alpha) plus
cumulative products.  Partial sums
are accumulated with exact (fsum) summation, so they do not depend on the
order of the terms.

The verdict does not come from the truncated sum: under the power schedule
the per-j terms decay like T_j ~ j^e up to log factors, with e fixed by
(kind, p, mu, nu, r alpha), and the series converges exactly when e < -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .copulas import PowerSchedule, separable_pair_sums
from .errors import ParameterError
from .gfun import bracket_limit, g_closed_bracket
from .marginals import ParetoMarginal

__all__ = [
    "CONVERGES",
    "DIVERGES",
    "SeriesVerdict",
    "MajorantBound",
    "condition_terms",
    "decay_exponent",
    "verdict_from_terms",
    "majorant_sum",
    "tail_condition",
]

CONVERGES = "converges"
DIVERGES = "diverges"

_KINDS = ("cs11", "nec12", "l1")


@dataclass(frozen=True)
class SeriesVerdict:
    """Partial sum, decay exponent and verdict of a nonnegative-term series."""

    partial_sum: float
    n_terms: int
    decay_exponent: float
    tail_estimate: float
    verdict: str

    def __post_init__(self):
        if self.verdict not in (CONVERGES, DIVERGES):
            raise ParameterError(f"unknown verdict {self.verdict!r}")
        if self.verdict == CONVERGES and not math.isfinite(self.tail_estimate):
            raise ParameterError("a convergent verdict requires a finite tail estimate")


@dataclass(frozen=True)
class MajorantBound:
    """Pair-independent constant and power-series majorant for the nec12 sum.

    The term bound is T_j <= c_const * inner_sum_factor * j^exponent, and the
    full-series bound c_const * inner_sum_factor * (partial_sum + tail_bound).
    The tail bound is infinite when the majorant exponent is at or above -1,
    the inner-sum factor when mu - 1/p + 1 <= 0, and c_const when
    r alpha <= 1, where B(inf) diverges.
    """

    c_const: float
    partial_sum: float
    tail_bound: float
    exponent: float
    inner_sum_factor: float


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
    schedule: PowerSchedule,
    r: float,
    s: float,
    marginal: ParetoMarginal,
    n_terms: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-j aggregated terms T_j = sum_{k<j} w(k,j) G(thresholds), j = 2..N.

    Returns (j_values, terms).  The factorization G = theta B B is exploited
    to cache one factor value per index.  The schedule must pass its
    :meth:`~PowerSchedule.check_window` at p.
    """
    schedule.check_window(p)  # first: _weight_exponents divides by p
    wk, wj, inv_p = _weight_exponents(kind, p)
    if n_terms < 2:
        raise ParameterError(f"series truncation requires N >= 2, got {n_terms!r}")
    idx = np.arange(1, n_terms + 1, dtype=float)
    b = g_closed_bracket(r, s, idx**inv_p, marginal.alpha)
    k_part = idx ** (wk + schedule.mu) * b
    j_part = idx ** (wj + schedule.nu) * b
    terms = separable_pair_sums(k_part, j_part)[0][1:]
    return idx[1:].astype(int), terms


def decay_exponent(kind: str, p: float, schedule: PowerSchedule, r: float, marginal: ParetoMarginal) -> float:
    """Exponent e with T_j ~ j^e, up to log factors, for the terms of :func:`condition_terms`.

    B(u) tends to B(inf) when r alpha > 1 and grows like u^(1 - r alpha)
    when r alpha < 1, so B at the j-th threshold grows like j^gamma with
    gamma = max(0, (1 - r alpha)/p_eff).  The inner sum over k < j of
    k^(w_k + mu + gamma) then adds max(w_k + mu + gamma + 1, 0).  Log
    factors (r alpha = 1, or an inner exponent of exactly -1) only make
    terms larger, so the series converges exactly when e < -1.

    e is summed exactly from the double inputs and rounded to the nearest
    double, except that an e just below -1 stays below it: a schedule that
    passes ``check_window(p)`` with r alpha > 1 always gives e < -1.
    """
    schedule.check_window(p)
    if not math.isfinite(r):
        raise ParameterError(f"decay exponent requires a finite r, got {r!r}")
    wk, wj, inv_p = (Fraction(w) for w in _weight_exponents(kind, p))
    gamma = max(0, (1 - Fraction(r) * Fraction(marginal.alpha)) * inv_p)
    exact = wj + Fraction(schedule.nu) + gamma + max(wk + Fraction(schedule.mu) + gamma + 1, 0)
    return min(float(exact), math.nextafter(-1.0, -math.inf)) if exact < -1 else float(exact)


def verdict_from_terms(j_values: np.ndarray, terms: np.ndarray, exponent: float) -> SeriesVerdict:
    """Partial sum of the (j_values, terms) of :func:`condition_terms` and the
    verdict of their :func:`decay_exponent`.

    The series converges iff exponent < -1; its tail estimate is then the
    integral-test value T_N N/(-exponent - 1), and infinite otherwise.
    """
    n_max = int(j_values[-1])
    if exponent < -1.0:
        verdict, tail = CONVERGES, float(terms[-1]) * n_max / (-exponent - 1.0)
    else:
        verdict, tail = DIVERGES, math.inf
    return SeriesVerdict(
        partial_sum=math.fsum(terms),
        n_terms=n_max,
        decay_exponent=exponent,
        tail_estimate=tail,
        verdict=verdict,
    )


def majorant_sum(
    p: float, mu: float, nu: float, r: float, s: float, n_terms: int, alpha: float = 2.0
) -> MajorantBound:
    """Constant C = B(inf)^2 at the Pareto(alpha) marginal, the inner-sum factor
    1/(mu - 1/p + 1), and the power majorant sum_{j=2}^N j^(mu+nu-2/p+1).

    Their product dominates the nec12 partial sum at every truncation N: each
    factor B is bounded by its limit (infinite when r alpha <= 1, and C with it), theta_{k,j} = k^mu j^nu, and the
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

    The verdict is analytic: the series converges exactly when
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
        decay_exponent=q,
        tail_estimate=tail,
        verdict=verdict,
    )
