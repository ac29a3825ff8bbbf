"""Deterministic second-moment Borel-Cantelli diagnostics.

Everything here is computed analytically from the copula and the marginal;
Monte Carlo lives in :mod:`pqdslln.simulate`.  The objects of interest are
the threshold-exceedance events A_k = {X_k > k^(1/p)}, their exact
pairwise joint probabilities, the Renyi-Lamperti pair-sum ratio

    sum_{k,j<=n} P(A_k n A_j) / (sum_{k<=n} P(A_k))^2

with the diagonal convention P(A_k n A_k) = P(A_k), the epsilon-bracket
lower bound that converts joint-survival integrals into joint tail
probabilities.  The bracket's box integral takes no 2-D quadrature: the
survival integrates in closed form, and the dependence term is theta
times a product of differences of the covariance factor B, in closed
form at every r alpha (``gfun.factor_differences``).

The dependence term of every pair law is the pair copula's own gap
(:meth:`GfmCopula.gap`); double sums use cumulative prefix reductions in
fixed index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .copulas import GfmCopula, PowerSchedule, carried_cumsum, power_factor, separable_pair_sums
from .errors import DomainError, ParameterError, UndefinedRatioError
from .gfun import factor_differences
from .marginals import ParetoMarginal

__all__ = [
    "EventSystem",
    "BracketCheck",
    "event_prob",
    "pair_event_prob",
    "renyi_lamperti_ratios",
    "epsilon_bracket_check",
]

_CHUNK = 1 << 15  # indices per pass of the pair-sum ratio: 256 KB per array, small enough to stay in cache


@dataclass(frozen=True)
class EventSystem:
    """Threshold-exceedance event family for one normalising exponent p.

    Coordinates k < j are coupled by the power-family copula with strength
    ``schedule.theta(k, j)`` and exponents r, s; ``schedule`` is None for
    independent coordinates, which ignore r and s.
    """

    p: float
    marginal: ParetoMarginal
    schedule: PowerSchedule | None = None
    r: float = 1.0
    s: float = 1.0

    def __post_init__(self):
        if self.schedule is not None:
            self.schedule.check_window(self.p)
            GfmCopula(theta=0.0, r=self.r, s=self.s)  # the family's r, s >= 1 rule
        if not 1.0 <= self.p < 2.0:
            raise ParameterError(f"event system requires 1 <= p < 2, got p={self.p!r}")

    def threshold(self, k: int) -> float:
        """The threshold k^(1/p) of the event A_k; raises DomainError for k < 1."""
        if k < 1:
            raise DomainError(f"event index must be a positive integer, got {k!r}")
        return float(k) ** (1.0 / self.p)


def event_prob(es: EventSystem, k: int) -> float:
    """P(A_k) = P{X > k^(1/p)}."""
    return float(es.marginal.survival(es.threshold(k)))


def _pair_copula(es: EventSystem, k: int, j: int) -> GfmCopula:
    """The copula of (X_k, X_j); the independence copula (zero gap) when there is no dependence."""
    if es.schedule is None:
        return GfmCopula(theta=0.0)
    lo, hi = (k, j) if k < j else (j, k)
    return GfmCopula(theta=es.schedule.theta(lo, hi), r=es.r, s=es.s)


def pair_event_prob(es: EventSystem, k: int, j: int) -> float:
    """Exact joint probability of the k-th and j-th events (k != j).

    Uses the survival-form / CDF-form identity of the gap:
    P(A_k n A_j) = P(A_k) P(A_j) + delta(k^(1/p), j^(1/p)), which is at
    least the product for any nonnegative dependence strength.
    """
    if k == j:
        raise DomainError("pair events require k != j")
    gap = _pair_copula(es, k, j).gap(es.marginal.cdf(es.threshold(k)), es.marginal.cdf(es.threshold(j)))
    return event_prob(es, k) * event_prob(es, j) + gap


def renyi_lamperti_ratios(es: EventSystem, ns) -> np.ndarray:
    """Pair-sum ratio at each requested n (diagonal terms enter as P(A_k)).

    For the power schedule the dependent part of the double sum is separable,
    so the whole grid costs one pass of cumulative sums up to max(ns).  The
    pass runs over chunks of _CHUNK indices, carrying each running sum from
    chunk to chunk, so it holds a fixed number of chunk-length arrays however
    large n is, and every sum keeps the bits of one pass over the whole range.
    """
    ns = np.asarray(ns, dtype=int)
    if ns.size == 0 or np.any(ns < 1):
        raise DomainError("ratio grid must contain positive integers")
    at = ns - 1
    sums = np.zeros((3, ns.size))  # sum P(A_k), sum P(A_k)^2 and sum over pairs k < j, at each n
    carry = [0.0, 0.0, 0.0]
    k_carry = 0.0
    n_max = int(ns.max())
    for lo in range(0, n_max, _CHUNK):
        idx = np.arange(lo + 1, min(lo + _CHUNK, n_max) + 1, dtype=float)
        probs = np.asarray(es.marginal.survival(idx ** (1.0 / es.p)), dtype=float)
        terms = [probs, probs * probs]
        if es.schedule is not None:
            # 1 - P(A_k) is the Pareto cdf at the threshold, bit for bit: both share one power
            h = power_factor(1.0 - probs, es.r, es.s)
            pairs, k_carry = separable_pair_sums(idx**es.schedule.mu * h, idx**es.schedule.nu * h, k_carry)
            terms.append(pairs)
        here = (at >= lo) & (at < lo + idx.size)
        for i, term in enumerate(terms):
            run = carried_cumsum(term, carry[i])
            carry[i] = run[-1]
            sums[i, here] = run[at[here] - lo]
    s1, s2, pair_sums = sums
    if np.any(s1 <= 0.0):
        raise UndefinedRatioError("all event probabilities vanish; the pair-sum ratio is undefined")
    return (s1 + s1**2 - s2 + 2.0 * pair_sums) / s1**2


class BracketCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def _survival_integral(alpha: float, lo: float, hi: float) -> float:
    """Integral over [lo, hi], hi >= 1, of the Pareto(alpha) survival: 1 below the support edge 1, x^-alpha above it."""
    edge = max(lo, 1.0)
    log_ratio = math.log(hi / edge)
    tail = log_ratio if alpha == 1.0 else edge ** (1.0 - alpha) * -math.expm1((1.0 - alpha) * log_ratio) / (alpha - 1.0)
    return max(0.0, 1.0 - lo) + tail


def epsilon_bracket_check(es: EventSystem, k: int, j: int, eps: float) -> BracketCheck:
    """Check the bracket inequality for one pair and one eps > 1.

    lhs  = integral of the joint survival over
           [k^(1/p)/eps, k^(1/p)] x [j^(1/p)/eps, j^(1/p)]
    rhs  = ((eps-1)/eps)^2 k^(1/p) j^(1/p) P(A_k n A_j)

    holds is lhs >= rhs - 1e-9; the joint survival dominates the joint tail
    probability on the whole bracket, so the inequality is exact.

    The joint survival is S(x) S(y) + theta f(F(x)) f(F(y)), f(F) =
    F^s (1 - F)^r, and f(F) vanishes below the support edge 1.  So lhs is
    exactly the product of the two survival integrals plus theta times the
    product of the factor differences B(hi) - B(max(lo, 1)) on each axis.
    """
    if k == j:
        raise DomainError("bracket check requires k != j")
    if not eps > 1.0:
        raise DomainError(f"bracket check requires eps > 1, got {eps!r}")
    xk, xj = es.threshold(k), es.threshold(j)
    alpha = es.marginal.alpha
    lhs = _survival_integral(alpha, xk / eps, xk) * _survival_integral(alpha, xj / eps, xj)
    theta = _pair_copula(es, k, j).theta
    if theta > 0.0:
        los = [max(xk / eps, 1.0), max(xj / eps, 1.0)]
        dbk, dbj = factor_differences(es.r, es.s, es.marginal, [xk, xj], los)
        lhs += theta * dbk * dbj
    rhs = ((eps - 1.0) / eps) ** 2 * xk * xj * pair_event_prob(es, k, j)
    return BracketCheck(lhs=lhs, rhs=rhs, holds=bool(lhs >= rhs - 1e-9))
