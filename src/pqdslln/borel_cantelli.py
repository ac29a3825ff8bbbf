"""Deterministic second-moment Borel-Cantelli diagnostics.

Everything here is computed analytically from the copula and the marginal;
Monte Carlo lives in :mod:`pqdslln.simulate`.  The objects of interest are
the threshold-exceedance events A_k = {X_k > k^(1/p)}, their exact
pairwise joint probabilities, the Renyi-Lamperti pair-sum ratio

    sum_{k,j<=n} P(A_k n A_j) / (sum_{k<=n} P(A_k))^2

with the diagonal convention P(A_k n A_k) = P(A_k), the epsilon-bracket
lower bound that converts joint-survival integrals into joint tail
probabilities, and the ceiling-scaled tail-ratio chain

    1 <= sum_{k<=n} P{eps X > k^(1/p)} / sum_{k<=n} P{X > k^(1/p)}
      <= eps^p + eps^p / sum_{k<=n} P{X > k^(1/p)}.

The dependence term of every pair law is the pair copula's own gap
(:meth:`GfmCopula.gap`); double sums use cumulative prefix reductions in
fixed index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .copulas import GfmCopula, ThetaSchedule, carried_cumsum, power_factor, separable_pair_sums
from .errors import DomainError, NumericError, ParameterError, UndefinedRatioError
from .marginals import ParetoMarginal
from .quadrature import adaptive_quad_2d_many

__all__ = [
    "GfmDependence",
    "EventSystem",
    "BracketCheck",
    "ScaledTailRatio",
    "event_prob",
    "event_probs",
    "pair_event_prob",
    "renyi_lamperti_ratio",
    "renyi_lamperti_ratios",
    "epsilon_bracket_check",
    "scaled_tail_ratio",
]

_BRACKET_ABS_TOL = 1e-9  # absolute tolerance of the bracket integral, shared by its pieces
_CHUNK = 1 << 15  # indices per pass of the pair-sum ratio: 256 KB per array, small enough to stay in cache

@dataclass(frozen=True)
class GfmDependence:
    """Pairwise power-family dependence with a pair-indexed strength schedule."""

    r: float
    s: float
    schedule: ThetaSchedule

    def __post_init__(self):
        GfmCopula(theta=0.0, r=self.r, s=self.s)  # the family's r, s >= 1 rule

    def copula(self, k: int, j: int) -> GfmCopula:
        lo, hi = (k, j) if k < j else (j, k)
        return GfmCopula(theta=self.schedule.theta(lo, hi), r=self.r, s=self.s)


@dataclass(frozen=True)
class EventSystem:
    """Threshold-exceedance event family for one normalising exponent p.

    ``dependence`` is None for independent coordinates.
    """

    p: float
    marginal: ParetoMarginal
    dependence: GfmDependence | None = None

    def __post_init__(self):
        if not 1.0 <= self.p < 2.0:
            raise ParameterError(f"event system requires 1 <= p < 2, got p={self.p!r}")

    def threshold(self, k: int) -> float:
        return float(k) ** (1.0 / self.p)


def event_prob(es: EventSystem, k: int) -> float:
    """P(A_k) = P{X > k^(1/p)}."""
    if k < 1:
        raise DomainError(f"event index must be a positive integer, got {k!r}")
    return float(es.marginal.survival(es.threshold(k)))


def event_probs(es: EventSystem, n: int) -> np.ndarray:
    """Vector of event probabilities for k = 1..n."""
    if n < 1:
        raise DomainError(f"event count must be positive, got {n!r}")
    t = np.arange(1, n + 1, dtype=float) ** (1.0 / es.p)
    return np.asarray(es.marginal.survival(t), dtype=float)


def _pair_copula(es: EventSystem, k: int, j: int) -> GfmCopula:
    """The copula of (X_k, X_j); the independence copula (zero gap) when there is no dependence."""
    if es.dependence is None:
        return GfmCopula(theta=0.0)
    return es.dependence.copula(k, j)


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
        if es.dependence is not None:
            # 1 - P(A_k) is the Pareto cdf at the threshold, bit for bit: both share one power
            h = power_factor(1.0 - probs, es.dependence.r, es.dependence.s)
            schedule = es.dependence.schedule
            pairs, k_carry = separable_pair_sums(idx**schedule.mu * h, idx**schedule.nu * h, k_carry)
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


def renyi_lamperti_ratio(es: EventSystem, n: int) -> float:
    """Pair-sum ratio at a single n."""
    return float(renyi_lamperti_ratios(es, [n])[0])


class BracketCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    quad_error: float


def _joint_survival_fn(es: EventSystem, k: int, j: int):
    """P{X_k > x, X_j > y} as a broadcastable function of (x, y)."""
    marginal = es.marginal
    copula = _pair_copula(es, k, j)

    def fn(x, y):
        sx = np.asarray(marginal.survival(x))
        sy = np.asarray(marginal.survival(y))
        return sx * sy + copula.gap(1.0 - sx, 1.0 - sy)

    return fn


def _segments(lo: float, hi: float, cut: float) -> list[tuple[float, float]]:
    """Split [lo, hi] at an interior kink point."""
    if lo < cut < hi:
        return [(lo, cut), (cut, hi)]
    return [(lo, hi)]


def epsilon_bracket_check(es: EventSystem, k: int, j: int, eps: float) -> BracketCheck:
    """Check the bracket inequality for one pair and one eps > 1.

    lhs  = integral of the joint survival over
           [k^(1/p)/eps, k^(1/p)] x [j^(1/p)/eps, j^(1/p)]
    rhs  = ((eps-1)/eps)^2 k^(1/p) j^(1/p) P(A_k n A_j)

    holds is lhs >= rhs - 1e-9; the joint survival dominates the joint tail
    probability on the whole bracket, so the inequality is exact.
    """
    if k == j:
        raise DomainError("bracket check requires k != j")
    if not eps > 1.0:
        raise DomainError(f"bracket check requires eps > 1, got {eps!r}")
    xk, xj = es.threshold(k), es.threshold(j)
    fn = _joint_survival_fn(es, k, j)
    cut = es.marginal.support_min
    boxes = [(x0, x1, y0, y1) for x0, x1 in _segments(xk / eps, xk, cut) for y0, y1 in _segments(xj / eps, xj, cut)]
    pieces, errors = adaptive_quad_2d_many(fn, boxes, abs_tol=_BRACKET_ABS_TOL / 4.0)
    lhs = math.fsum(pieces)
    quad_error = math.fsum(errors)
    rhs = ((eps - 1.0) / eps) ** 2 * xk * xj * pair_event_prob(es, k, j)
    return BracketCheck(lhs=lhs, rhs=rhs, holds=bool(lhs >= rhs - 1e-9), quad_error=quad_error)


class ScaledTailRatio(NamedTuple):
    ratio: float
    lower: float
    upper: float


def scaled_tail_ratio(es: EventSystem, eps: float, n: int) -> ScaledTailRatio:
    """Ratio of scaled to unscaled tail sums together with its sandwich bounds.

    ratio = sum_{k<=n} P{eps X > k^(1/p)} / sum_{k<=n} P{X > k^(1/p)}; the
    chain gives 1 <= ratio <= eps^p + eps^p / sum_{k<=n} P{X > k^(1/p)}.
    """
    if not eps > 1.0:
        raise DomainError(f"tail-ratio chain requires eps > 1, got {eps!r}")
    if n < 1:
        raise DomainError(f"tail-ratio chain requires n >= 1, got {n!r}")
    t = np.arange(1, n + 1, dtype=float) ** (1.0 / es.p)
    denom = math.fsum(np.asarray(es.marginal.survival(t), dtype=float))
    if denom <= 0.0:
        raise UndefinedRatioError("unscaled tail sum vanishes; the ratio is undefined")
    numer = math.fsum(np.asarray(es.marginal.survival(t / eps), dtype=float))
    ratio = numer / denom
    upper = eps**es.p + eps**es.p / denom
    if not (1.0 - 1e-12 <= ratio <= upper * (1.0 + 1e-12)):
        raise NumericError(
            f"tail-ratio chain violated: ratio={ratio!r} outside [1, {upper!r}]"
        )
    return ScaledTailRatio(ratio=ratio, lower=1.0, upper=upper)
