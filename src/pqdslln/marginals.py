"""One-dimensional marginal laws.

Everything downstream works against the small :class:`Marginal` interface so
the quadrature oracle stays marginal-agnostic; only the Pareto family ships.
Pareto(alpha) has density alpha * t^(-alpha-1) on (1, inf); alpha = 2 gives
the heavy-tailed reference law with finite mean and infinite variance used
throughout the worked configuration.

Methods accept scalars or numpy arrays and return matching shapes.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

__all__ = ["Marginal", "ParetoMarginal"]


def _scalar_or_array(out: np.ndarray):
    return out if out.ndim else float(out)


class Marginal(ABC):
    """A one-dimensional law by role: CDF, survival, quantile, p-th moment."""

    #: infimum of the support; integration below this point contributes nothing
    support_min: float = -math.inf

    @abstractmethod
    def cdf(self, x):
        """P{X <= x}."""

    @abstractmethod
    def quantile(self, u, out=None):
        """Inverse CDF on [0, 1).

        With ``out``, a float64 array of u's shape that is ``u`` itself or does not overlap it,
        the values are written into ``out`` and ``out`` is returned: a caller can invert a block
        of uniforms in place.
        """

    @abstractmethod
    def abs_moment(self, p: float) -> float:
        """E|X|^p, or math.inf when the moment does not exist."""

    def survival(self, x):
        """P{X > x}."""
        return 1.0 - self.cdf(x)

    def tail_prob_at_threshold(self, k: int, p: float) -> float:
        """P{X > k^(1/p)} for integer k >= 1 and 1 <= p < 2."""
        if k < 1 or k != int(k):
            raise DomainError(f"threshold index k must be a positive integer, got {k!r}")
        if not 1.0 <= p < 2.0:
            raise DomainError(f"normalising exponent p must lie in [1, 2), got {p!r}")
        return float(self.survival(float(k) ** (1.0 / p)))


@dataclass(frozen=True)
class ParetoMarginal(Marginal):
    """Pareto law on (1, inf) with tail index alpha > 0.

    cdf(x) = 1 - x^(-alpha) for x >= 1, survival(x) = x^(-alpha), and
    E|X|^p = alpha / (alpha - p) for p < alpha (infinite otherwise).
    """

    alpha: float

    support_min = 1.0

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ParameterError(f"Pareto tail index must be positive, got {self.alpha!r}")

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(arr <= 1.0, 0.0, 1.0 - np.power(np.maximum(arr, 1.0), -self.alpha))
        return _scalar_or_array(out)

    def survival(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(arr <= 1.0, 1.0, np.power(np.maximum(arr, 1.0), -self.alpha))
        return _scalar_or_array(out)

    def quantile(self, u, out=None):
        arr = np.asarray(u, dtype=float)
        if arr.size and not (arr.min() >= 0.0 and arr.max() < 1.0):  # NaN fails both comparisons
            raise DomainError("quantile argument must lie in [0, 1)")
        if out is None:
            out = np.empty(arr.shape)
        np.subtract(1.0, arr, out=out)
        return _scalar_or_array(np.power(out, -1.0 / self.alpha, out=out))

    def abs_moment(self, p: float) -> float:
        if not p > 0.0:
            raise DomainError(f"moment order must be positive, got {p!r}")
        if p < self.alpha:
            return self.alpha / (self.alpha - p)
        return math.inf

    def tail_prob_at_threshold(self, k: int, p: float) -> float:
        # same value as survival(k^(1/p)) but in the exact power form k^(-alpha/p)
        if k < 1 or k != int(k):
            raise DomainError(f"threshold index k must be a positive integer, got {k!r}")
        if not 1.0 <= p < 2.0:
            raise DomainError(f"normalising exponent p must lie in [1, 2), got {p!r}")
        return float(k) ** (-self.alpha / p)
