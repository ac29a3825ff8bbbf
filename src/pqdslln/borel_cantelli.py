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
(:meth:`GfmCopula.gap`).  The ratio's sums take one pass of cumulative
prefix reductions, in fixed index order, over the head k <= 2^15 only; past
it they add Euler-Maclaurin tails (DLMF 2.10.1) whose integrals use the
15-node Gauss-Legendre rule, so their cost does not grow with n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .copulas import GfmCopula, PowerSchedule, check_p, check_rs, power_factor, separable_pair_sums
from .errors import NumericError, ParameterError
from .gfun import factor_differences
from .marginals import ParetoMarginal
from .quadrature import GL15

__all__ = [
    "EventSystem",
    "BracketCheck",
    "event_prob",
    "pair_event_prob",
    "renyi_lamperti_ratios",
    "epsilon_bracket_check",
]

_HEAD = 1 << 15  # the pair-sum ratio sums terms one by one up to here, and by Euler-Maclaurin tails beyond


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
        check_p(self.p)
        if self.schedule is not None:
            self.schedule.check_window(self.p)
            check_rs(self.r, self.s)

    def threshold(self, k: int) -> float:
        """The threshold k^(1/p) of the event A_k; raises ParameterError for k < 1."""
        if k < 1:
            raise ParameterError(f"event index must be a positive integer, got {k!r}")
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
        raise ParameterError("pair events require k != j")
    gap = _pair_copula(es, k, j).gap(es.marginal.cdf(es.threshold(k)), es.marginal.cdf(es.threshold(j)))
    return event_prob(es, k) * event_prob(es, j) + gap


def renyi_lamperti_ratios(es: EventSystem, ns) -> np.ndarray:
    """Pair-sum ratio at each requested n (diagonal terms enter as P(A_k)).

    The ratio is (s1 + s1^2 - s2 + 2 pairs) / s1^2, from the sums that
    ``_pair_sums`` gives at each n.  Head: up to n = _HEAD = 2^15 they are
    running sums of the float terms, with the bits of one cumsum over 1..n.
    Tails: past it each sum is the head's total plus an Euler-Maclaurin tail,
    at a cost that does not grow with n.  Accuracy: the sums past the head
    were within 2e-14 of exact sums of float terms in every system tried
    (s = 1000 and alpha/p from 0.01 to 3.5 among them), the head's terms to
    2^15 and beyond it terms whose 1 - F is the survival P itself: there
    the head's subtraction 1 - F keeps few digits of a small P.
    """
    ns = np.asarray(ns, dtype=int)
    if ns.size == 0 or np.any(ns < 1):
        raise ParameterError("ratio grid must contain positive integers")
    s1, s2, pairs = _pair_sums(es, ns)  # s1 >= P(A_1) = 1: the first threshold is 1^(1/p) = 1, the support edge
    return (s1 + s1**2 - s2 + 2.0 * pairs) / s1**2


def _pair_sums(es: EventSystem, ns: np.ndarray) -> np.ndarray:
    """(3, len(ns)) rows: sum P(A_k), sum P(A_k)^2 and the dependent pair sum over k < j, at each n.

    The head, k <= min(max(ns), _HEAD), is one pass of cumulative sums; the
    dependent part of the pair sum is separable for the power schedule, a_k b_j
    with a_k = k^mu h_k, b_j = j^nu h_j and h = F^s (1 - F)^r at the threshold.
    Past the head, with H = _HEAD and A(H) the head's sum of a_k,

        pairs(n) = pairs(H) + A(H) sum_{H<j<=n} b_j + sum_{H<k<j<=n} a_k b_j,

    and each sum is the head's total plus the tails of ``_tails``.  Raises
    NumericError where a sum of the k-parts or a tail overflows a double.
    """
    idx = np.arange(1, min(int(ns.max()), _HEAD) + 1, dtype=float)
    probs = np.asarray(es.marginal.survival(idx ** (1.0 / es.p)), dtype=float)
    at = np.minimum(ns, idx.size) - 1
    sums = np.zeros((3, ns.size))
    sums[0] = np.cumsum(probs)[at]  # each running sum is dropped once read: the head holds few arrays at once
    sums[1] = np.cumsum(probs * probs)[at]
    pair_terms, a_head = np.zeros(0), 0.0
    if es.schedule is not None:
        # 1 - P(A_k) is the Pareto cdf at the threshold, bit for bit: both share one power
        h = power_factor(1.0 - probs, es.r, es.s)
        pair_terms, a_head = separable_pair_sums(idx, h, es.schedule.mu, es.schedule.nu)
        sums[2] = np.cumsum(pair_terms)[at]
    far = ns > _HEAD
    if far.any():
        t1, t12, tb, tn = _tails(es, ns[far])
        # the head's totals as pairwise sums: a running sum of its 2^15 terms can be 2e-13 off
        sums[0, far] = probs.sum() + t1
        sums[1, far] = sums[0, far] - ((probs * (1.0 - probs)).sum() + t12)  # s1 - s2 without cancellation
        sums[2, far] = pair_terms.sum() + a_head * tb + tn
        if not np.all(np.isfinite(sums[2, far])):
            raise NumericError(f"pair sums overflow a double: a tail past k = {_HEAD} is not finite")
    return sums


def _tails(es: EventSystem, ns: np.ndarray) -> list[np.ndarray]:
    """Euler-Maclaurin sums over _HEAD < k <= n, at each n > _HEAD of ns, of P, P (1 - P), b, and a_k b_j over k < j.

    With P(x) = x^(-alpha/p) and the a, b of ``_pair_sums`` extended to real
    x (F = 1 - P and P each computed without cancellation), each sum of f over
    m = _HEAD + 1 <= k <= n is (DLMF 2.10.1, one B_2 term)

        int_m^n f(x) dx + (f(m) + f(n)) / 2 + (f'(n) - f'(m)) / 12,

    with f'(x) = f(x) (d log f / d log x) / x in closed form.  The nested sum
    is that of G(y) = b(y) F_a(y - 1), where F_a is a's own such sum from m,
    and F_a(y - 1) = F_a(y) - a(y).  Integrals are 15-node Gauss-Legendre sums
    over unit panels in u = log(x / m) from 0, one set up to max(ns) for every
    n, each n ending on its own partial panel; F_a at each node of G is the
    same rule over the node's own piece of its panel.  The independent system
    has zero b and pair tails.
    """
    nodes, weights = GL15
    c = es.marginal.alpha / es.p
    m = _HEAD + 1.0
    t0 = math.log(m)
    ends = np.log1p((ns - m) / m)  # log(n / m), where log n - log m would cancel for n near m
    whole = np.floor(ends).astype(int)  # full panels below each n
    panel = np.concatenate([np.arange(whole.max()), whole])  # the full panels, then each n's partial one
    lo = panel.astype(float)
    hi = np.concatenate([lo[: -ns.size] + 1.0, ends])

    def terms(u, x):
        """P, P (1 - P), b and a at x = m e^u, and their derivatives in x."""
        t = t0 + u
        survival, cdf = np.exp(-c * t), -np.expm1(-c * t)  # P and F = 1 - P, neither rounded by a subtraction
        values = [survival, survival * cdf]
        slopes = [-c, c * (survival - cdf) / cdf]  # d log / d log x
        if es.schedule is not None:
            h = power_factor(cdf, es.r, es.s, survival)
            dh = c * (es.s * survival / cdf - es.r)
            values += [x**es.schedule.nu * h, x**es.schedule.mu * h]
            slopes += [es.schedule.nu + dh, es.schedule.mu + dh]
        return values, [np.where(v == 0.0, 0.0, v * d / x) for v, d in zip(values, slopes)]

    def rule(lo, hi):
        """The nodes u of each interval [lo, hi] and their x = m e^u, and the intervals' half-widths."""
        half = 0.5 * (hi - lo)
        u = 0.5 * (hi + lo)[..., None] + half[..., None] * nodes
        return u, m * np.exp(u), half

    def integral(v, x, half):
        """The integral in x of the values v at the nodes x of a rule: dx = x du."""
        return (v * x) @ weights * half

    def starts(panels):
        """The integral from m to the start of every full panel, from the integrals over all the panels."""
        return np.concatenate([[0.0], np.cumsum(panels[: -ns.size])])

    with np.errstate(all="ignore"):  # overflow and 0 * inf are refused by the caller
        u, x, half = rule(lo, hi)
        f, df = terms(u, x)
        ints = [integral(v, x, half) for v in f]
        f_end, df_end = terms(np.r_[0.0, ends], np.r_[m, ns])  # at m, then at each n
        tails = [  # the full panels below each n, then its partial one, then the end corrections
            starts(i)[whole] + i[-ns.size :] + 0.5 * (e[0] + e[1:]) + (de[1:] - de[0]) / 12.0
            for i, e, de in zip(ints, f_end, df_end)
        ]
        if es.schedule is None:
            return tails + [np.zeros(ns.size)] * 2
        b, a, da = f[2], f[3], df[3]
        b_m, a_m, da_m = f_end[2][0], f_end[3][0], df_end[3][0]
        b_n, a_n, db_n, da_n = f_end[2][1:], f_end[3][1:], df_end[2][1:], df_end[3][1:]
        # G(y) = b(y) (F_a(y) - a(y)) at every node y, with a's integral from m to y
        u_sub, x_sub, half_sub = rule(lo[:, None], u)
        a_to_y = starts(ints[3])[panel][:, None] + integral(terms(u_sub, x_sub)[0][3], x_sub, half_sub)
        g = integral(b * (a_to_y + 0.5 * (a_m - a) + (da - da_m) / 12.0), x, half)
        # G(m) = 0, and G'(y) = b'(y) (F_a(y) - a(y)) + b(y) (a(y) - a'(y) / 2), F_a' being a + a'/2 to O(a'')
        fa_n = tails[3] - a_n
        dg = db_n * fa_n + b_n * (a_n - 0.5 * da_n) - b_m * (a_m - 0.5 * da_m)
        nested = starts(g)[whole] + g[-ns.size :] + 0.5 * b_n * fa_n + dg / 12.0
    return tails[:3] + [nested]


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
        raise ParameterError("bracket check requires k != j")
    if not eps > 1.0:
        raise ParameterError(f"bracket check requires eps > 1, got {eps!r}")
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
