"""The power-family pair copula and the pair-indexed schedule of its strengths.

The power family

    C(u, v) = u v + theta * u^s v^s (1 - u)^r (1 - v)^r,   0 <= theta <= 1, r, s >= 1

is positively quadrant dependent for every admissible parameter choice
(the perturbation is a nonnegative product), and reduces to the classical
bilinear-perturbation copula at r = s = 1.

Pair-indexed dependence strengths theta_{k,j} = scale * k^mu * j^nu live in
:class:`PowerSchedule`, which every command reads.  Its
:meth:`~PowerSchedule.check_window` enforces, for the analytic commands,
the exponent window 1/p - 1 < mu < 2/p - 2 - nu that makes the weighted
covariance series summable, plus the explicit guarantee theta_{k,j} in
[0, 1] for all k < j; simulation may explore outside it.

Two input rules have their one owner here: :func:`check_p` (the paper's
normalisation n^(1/p) with 1 <= p < 2) and :func:`check_rs` (the family's
r, s >= 1), which every entry taking p or (r, s) calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError
from .marginals import _scalar_or_array

__all__ = ["GfmCopula", "PowerSchedule"]


def power_factor(f, r: float, s: float):
    """The power-family factor f^s (1 - f)^r, in the operand types it is given."""
    return f**s * (1.0 - f) ** r


def check_p(p: float) -> None:
    """Refuse a normalising exponent p outside the paper's 1 <= p < 2."""
    if not 1.0 <= p < 2.0:
        raise ParameterError(f"normalising exponent requires 1 <= p < 2, got p={p!r}")


def check_rs(r: float, s: float) -> None:
    """Refuse power-family exponents unless r >= 1 and s >= 1."""
    if not (r >= 1.0 and s >= 1.0):
        raise ParameterError(f"power-family copula requires r >= 1 and s >= 1, got r={r!r}, s={s!r}")


@dataclass(frozen=True)
class GfmCopula:
    """Power-family copula u v + theta u^s v^s (1-u)^r (1-v)^r."""

    theta: float
    r: float = 1.0
    s: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ParameterError(f"power-family copula requires 0 <= theta <= 1, got {self.theta!r}")
        check_rs(self.r, self.s)

    def perturbation_factor(self, u):
        """The separable factor u^s (1 - u)^r of the dependence perturbation."""
        # [()] powers a 0-d input as a numpy scalar (libm pow, as a Python float), not by vector pow
        return _scalar_or_array(power_factor(np.asarray(u, dtype=float)[()], self.r, self.s))

    def gap(self, u, v):
        """The dependence gap C(u, v) - u v = theta u^s v^s (1-u)^r (1-v)^r, without cancellation."""
        return _scalar_or_array(np.asarray(self.theta * self.perturbation_factor(u) * self.perturbation_factor(v)))

    def cdf(self, u, v):
        """C(u, v) = u v + gap(u, v)."""
        uu = np.asarray(u, dtype=float)
        vv = np.asarray(v, dtype=float)
        return _scalar_or_array(np.asarray(uu * vv + self.gap(uu, vv)))


@dataclass(frozen=True)
class PowerSchedule:
    """Pair-indexed dependence strengths theta_{k,j} = scale * k^mu * j^nu.

    ``window`` keeps only the pairs with j - k <= window (None keeps all).
    Construction needs finite exponents, a finite scale >= 0 and a positive
    window; the analytic commands add :meth:`check_window`.
    """

    mu: float
    nu: float
    scale: float = 1.0
    window: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.nu) and 0.0 <= self.scale < math.inf):
            raise ParameterError(
                f"schedule needs finite mu, nu and scale >= 0, "
                f"got mu={self.mu!r}, nu={self.nu!r}, scale={self.scale!r}"
            )
        if self.window is not None and self.window < 1:
            raise ParameterError(f"dependence window must be positive, got {self.window!r}")

    def check_window(self, p: float) -> None:
        """Refuse the schedule unless it is the paper's at exponent p.

        That is 1 <= p < 2, the window 1/p - 1 < mu < 2/p - 2 - nu that makes
        the weighted covariance series summable, the resulting guarantee
        theta_{k,j} in [0, 1] for all 1 <= k < j, and scale 1 with no
        dependence window.
        """
        check_p(p)
        lo = 1.0 / p - 1.0
        hi = 2.0 / p - 2.0 - self.nu
        if not self.mu > lo:
            raise ParameterError(
                f"schedule violates 1/p - 1 < mu: mu={self.mu!r} is not above {lo!r} (p={p!r})"
            )
        if not self.mu < hi:
            raise ParameterError(
                f"schedule violates mu < 2/p - 2 - nu: mu={self.mu!r} is not below {hi!r} "
                f"(p={p!r}, nu={self.nu!r})"
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
        if self.scale != 1.0 or self.window is not None:
            raise ParameterError("analytic event systems take the schedule as-is; scale is only for 'simulate'")

    def theta(self, k: int, j: int) -> float:
        """theta_{k,j} = scale * k^mu * j^nu for 1 <= k < j (the window is not applied)."""
        if not 1 <= k < j:
            raise ParameterError(f"schedule index requires 1 <= k < j, got k={k!r}, j={j!r}")
        try:
            return self.scale * float(k) ** self.mu * float(j) ** self.nu
        except OverflowError:  # k^mu alone overflows a double, where theta itself need not
            return self.scale * math.exp(self.mu * math.log(k) + self.nu * math.log(j))

    def theta_sum(self, n: int) -> float:
        """sum of theta_{k,j} over the pairs 1 <= k < j <= n inside the window; inf or nan on overflow."""
        if n < 2 or self.scale == 0.0:
            return 0.0
        idx = np.arange(1, n + 1, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing power is refused by the caller
            kp = np.concatenate(([0.0], np.cumsum(idx**self.mu)))  # kp[i] = sum_{k <= i} k^mu
            j = np.arange(2, n + 1)
            lo = 0 if self.window is None else np.maximum(0, j - 1 - self.window)
            inner = kp[j - 1] - kp[lo]
            return self.scale * float(np.dot(idx[1:] ** self.nu, inner))


def carried_cumsum(x: np.ndarray, carry: float = 0.0) -> np.ndarray:
    """Running sums of x that continue from carry, the last running sum of the chunks before x.

    Adding carry to the first element before the pass makes the same
    additions, in the same order, as one cumsum over the whole array, so a
    chunk's running sums keep the whole array's bits.
    """
    out = np.array(x, dtype=float)
    out[0] += carry
    return np.cumsum(out, out=out)


def separable_pair_sums(
    idx: np.ndarray, weight: np.ndarray, k_power: float, j_power: float, carry: float = 0.0
) -> tuple[np.ndarray, float]:
    """j^j_power w_j * (carry + sum_{k<j} k^k_power w_k) at every index j of ``idx``, and the carry for the next chunk.

    A separable pair weight such as the power schedule k^mu j^nu turns a
    double sum over k < j into this single pass of exclusive prefix sums.
    ``carry`` is the sum of the k-parts over earlier chunks (see
    carried_cumsum).  Raises NumericError, with no overflow warning, where
    that running sum is not finite: where some k^k_power overflows a double.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below: inf, or inf * 0 where the weight is 0
        k_part = idx**k_power * weight
        prefix = carried_cumsum(k_part, carry)
    if not math.isfinite(prefix[-1]):
        raise NumericError(f"pair sums overflow a double: the running sum of k^{k_power!r} w_k to k = {idx[-1]:.0f} is not finite")
    return idx**j_power * weight * (prefix - k_part), float(prefix[-1])
