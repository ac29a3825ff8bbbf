"""Bivariate dependence structures, admissibility bounds and pair sampling.

Two families are provided.  The power family

    C(u, v) = u v + theta * u^s v^s (1 - u)^r (1 - v)^r,   0 <= theta <= 1, r, s >= 1

is positively quadrant dependent for every admissible parameter choice
(the perturbation is a nonnegative product), and reduces to the classical
bilinear-perturbation copula at r = s = 1.  The generic perturbation family

    C(u, v) = u v + theta * phi(u) psi(v)

is admissible for 0 <= theta <= -1 / min(inf phi' * sup psi', sup phi' * inf psi')
when phi and psi vanish at 0 and 1.

Pair-indexed dependence strengths theta_{k,j} = k^mu * j^nu live in
:class:`ThetaSchedule`, whose construction enforces the exponent window
1/p - 1 < mu < 2/p - 2 - nu that makes the weighted covariance series
summable, plus the explicit guarantee theta_{k,j} in [0, 1] for all k < j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ParameterError
from .marginals import Marginal

__all__ = [
    "GfmCopula",
    "FunctionDescriptor",
    "PerturbationCopula",
    "ThetaSchedule",
    "pqd_grid_check",
    "theta_admissible_bound",
    "sample_pairs",
]

_BISECT_STEPS = 52  # halves [0, 1] down to ~2e-16, well inside the 1e-12 contract


def _scalar_or_array(out: np.ndarray):
    return out if out.ndim else float(out)


def power_factor(f, r: float, s: float):
    """The power-family factor f^s (1 - f)^r, in the operand types it is given."""
    return f**s * (1.0 - f) ** r


def _cdf_from_gap(copula, u, v):
    """C(u, v) = u v + gap(u, v), the CDF of either family from its dependence gap."""
    uu = np.asarray(u, dtype=float)
    vv = np.asarray(v, dtype=float)
    return _scalar_or_array(np.asarray(uu * vv + copula.gap(uu, vv)))


@dataclass(frozen=True)
class GfmCopula:
    """Power-family copula u v + theta u^s v^s (1-u)^r (1-v)^r."""

    theta: float
    r: float = 1.0
    s: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ParameterError(f"power-family copula requires 0 <= theta <= 1, got {self.theta!r}")
        if not (self.r >= 1.0 and self.s >= 1.0):
            raise ParameterError(f"power-family copula requires r >= 1 and s >= 1, got r={self.r!r}, s={self.s!r}")

    def perturbation_factor(self, u):
        """The separable factor u^s (1 - u)^r of the dependence perturbation."""
        # [()] powers a 0-d input as a numpy scalar (libm pow, as a Python float), not by vector pow
        return _scalar_or_array(power_factor(np.asarray(u, dtype=float)[()], self.r, self.s))

    def gap(self, u, v):
        """The dependence gap C(u, v) - u v = theta u^s v^s (1-u)^r (1-v)^r, without cancellation."""
        return _scalar_or_array(np.asarray(self.theta * self.perturbation_factor(u) * self.perturbation_factor(v)))

    cdf = _cdf_from_gap

    def conditional(self, u, v):
        """Conditional CDF P{V <= v | U = u} = dC/du; a CDF in v for admissible theta."""
        uu = np.asarray(u, dtype=float)
        vv = np.asarray(v, dtype=float)
        du = self.s * uu ** (self.s - 1.0) * (1.0 - uu) ** self.r - self.r * uu**self.s * (1.0 - uu) ** (
            self.r - 1.0
        )
        out = vv + self.theta * self.perturbation_factor(vv) * du
        return _scalar_or_array(np.asarray(out))


@dataclass(frozen=True)
class FunctionDescriptor:
    """A perturbation profile on [0, 1] with analytic derivative range.

    ``deriv_inf`` and ``deriv_sup`` are the infimum and supremum of the
    derivative where it exists; they are supplied by the caller because
    numerical inf/sup estimation is unreliable at kinks.
    """

    fn: Callable
    deriv_inf: float
    deriv_sup: float


def theta_admissible_bound(phi: FunctionDescriptor, psi: FunctionDescriptor) -> float:
    """Largest admissible theta for the perturbation family built from phi, psi."""
    if not (phi.deriv_inf < 0.0 < phi.deriv_sup):
        raise DomainError(
            f"phi derivative range must straddle 0, got [{phi.deriv_inf!r}, {phi.deriv_sup!r}]"
        )
    if not (psi.deriv_inf < 0.0 < psi.deriv_sup):
        raise DomainError(
            f"psi derivative range must straddle 0, got [{psi.deriv_inf!r}, {psi.deriv_sup!r}]"
        )
    return -1.0 / min(phi.deriv_inf * psi.deriv_sup, phi.deriv_sup * psi.deriv_inf)


@dataclass(frozen=True)
class PerturbationCopula:
    """Generic perturbation copula u v + theta phi(u) psi(v)."""

    theta: float
    phi: FunctionDescriptor
    psi: FunctionDescriptor

    def __post_init__(self):
        for name, desc in (("phi", self.phi), ("psi", self.psi)):
            for t in (0.0, 1.0):
                if abs(float(desc.fn(t))) > 1e-12:
                    raise ParameterError(f"{name} must vanish at 0 and 1, got {name}({t}) = {desc.fn(t)!r}")
        bound = theta_admissible_bound(self.phi, self.psi)
        if not 0.0 <= self.theta <= bound + 1e-12:
            raise ParameterError(
                f"theta must lie in [0, {bound!r}] for these perturbation profiles, got {self.theta!r}"
            )

    def gap(self, u, v):
        """The dependence gap C(u, v) - u v = theta phi(u) psi(v), without cancellation."""
        uu = np.asarray(u, dtype=float)
        vv = np.asarray(v, dtype=float)
        out = self.theta * np.asarray(self.phi.fn(uu), dtype=float) * np.asarray(self.psi.fn(vv), dtype=float)
        return _scalar_or_array(np.asarray(out))

    cdf = _cdf_from_gap


def pqd_grid_check(cdf, m: int) -> bool:
    """True iff C(u, v) - u v >= -1e-12 on the (m+1) x (m+1) uniform grid."""
    if m < 2:
        raise DomainError(f"grid size must be at least 2, got {m!r}")
    grid = np.linspace(0.0, 1.0, m + 1)
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    try:
        values = np.asarray(cdf(uu, vv), dtype=float)
        if values.shape != uu.shape:
            raise TypeError
    except TypeError:
        values = np.array([[float(cdf(a, b)) for b in grid] for a in grid])
    return bool(np.all(values - uu * vv >= -1e-12))


@dataclass(frozen=True)
class ThetaSchedule:
    """Pair-indexed dependence strengths theta_{k,j} = k^mu * j^nu.

    Construction enforces the window 1/p - 1 < mu < 2/p - 2 - nu and the
    resulting guarantee theta_{k,j} in [0, 1] for all 1 <= k < j.
    """

    mu: float
    nu: float
    p: float

    def __post_init__(self):
        if not 1.0 <= self.p < 2.0:
            raise ParameterError(f"schedule requires 1 <= p < 2, got p={self.p!r}")
        lo = 1.0 / self.p - 1.0
        hi = 2.0 / self.p - 2.0 - self.nu
        if not self.mu > lo:
            raise ParameterError(
                f"schedule violates 1/p - 1 < mu: mu={self.mu!r} is not above {lo!r} (p={self.p!r})"
            )
        if not self.mu < hi:
            raise ParameterError(
                f"schedule violates mu < 2/p - 2 - nu: mu={self.mu!r} is not below {hi!r} "
                f"(p={self.p!r}, nu={self.nu!r})"
            )
        # window nonemptiness forces nu < 1/p - 1 <= 0; check the [0, 1]
        # range guarantee explicitly anyway
        if self.mu >= 0.0:
            if self.mu + self.nu > 0.0:
                raise ParameterError(
                    f"schedule would exceed 1: mu + nu must be <= 0 when mu >= 0, got {self.mu + self.nu!r}"
                )
        elif self.nu > 0.0:
            raise ParameterError(f"schedule would exceed 1: nu must be <= 0 when mu < 0, got {self.nu!r}")

    def theta(self, k: int, j: int) -> float:
        """theta_{k,j} = k^mu * j^nu for 1 <= k < j."""
        if not 1 <= k < j:
            raise ParameterError(f"schedule index requires 1 <= k < j, got k={k!r}, j={j!r}")
        return float(k) ** self.mu * float(j) ** self.nu


def carried_cumsum(x: np.ndarray, carry: float = 0.0) -> np.ndarray:
    """Running sums of x that continue from carry, the last running sum of the chunks before x.

    Adding carry to the first element before the pass makes the same
    additions, in the same order, as one cumsum over the whole array, so a
    chunk's running sums keep the whole array's bits.
    """
    out = np.array(x, dtype=float)
    out[0] += carry
    return np.cumsum(out, out=out)


def separable_pair_sums(k_part: np.ndarray, j_part: np.ndarray, carry: float = 0.0) -> tuple[np.ndarray, float]:
    """j_part[j] * (carry + sum_{k<j} k_part[k]) for every index j, and the carry for the next chunk.

    A separable pair weight such as the power schedule k^mu j^nu turns a
    double sum over k < j into this single pass of exclusive prefix sums.
    ``carry`` is the sum of k_part over earlier chunks (see carried_cumsum).
    """
    prefix = carried_cumsum(k_part, carry)
    return j_part * (prefix - k_part), float(prefix[-1])


def _solve_conditional(copula: GfmCopula, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve conditional(u, v) = w for v by bisection, to ~1e-12 in v."""
    lo = np.zeros_like(w)
    hi = np.ones_like(w)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        below = np.asarray(copula.conditional(u, mid)) < w
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    v = 0.5 * (lo + hi)
    residual = np.max(np.abs(np.asarray(copula.conditional(u, v)) - w))
    if residual > 1e-9:
        raise ParameterError(
            f"conditional inversion failed (residual {residual:.3e}); copula parameters are inadmissible"
        )
    return v


def sample_pairs(copula: GfmCopula, marginal: Marginal, rng: np.random.Generator, n: int):
    """Draw n dependent pairs (X, Y) by conditional inversion; returns (n,) arrays."""
    u = rng.random(n)
    w = rng.random(n)
    if copula.theta == 0.0:
        v = w
    else:
        v = _solve_conditional(copula, u, w)
    return marginal.quantile(u), marginal.quantile(v)
