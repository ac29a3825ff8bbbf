"""The Pareto marginal law.

Pareto(alpha) has density alpha * t^(-alpha-1) on (1, inf); alpha = 2 gives
the heavy-tailed reference law with finite mean and infinite variance used
throughout the worked configuration.  It is the one marginal: the closed
form of the covariance factor and the log-space quadrature oracle are both
written for its support (1, inf).

Methods accept scalars or numpy arrays and return matching shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["ParetoMarginal"]


def _scalar_or_array(out: np.ndarray):
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ParetoMarginal:
    """Pareto law on (1, inf) with a finite tail index alpha > 0 whose reciprocal is finite (alpha >= about 5.6e-309).

    cdf(x) = P{X <= x} = 1 - x^(-alpha) for x >= 1, survival(x) = P{X > x}
    = x^(-alpha), and E|X|^p = alpha / (alpha - p) for p < alpha (infinite
    otherwise).
    """

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf or 1.0 / self.alpha == math.inf:
            raise ParameterError(f"Pareto tail index must be finite and positive, with 1/alpha finite, got {self.alpha!r}")

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(arr <= 1.0, 0.0, 1.0 - np.power(np.maximum(arr, 1.0), -self.alpha))
        return _scalar_or_array(out)

    def survival(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(arr <= 1.0, 1.0, np.power(np.maximum(arr, 1.0), -self.alpha))
        return _scalar_or_array(out)

    def quantile(self, u, out=None):
        """Inverse CDF on [0, 1); +inf, the correctly rounded value, where it passes the largest double.

        With ``out``, a float64 array of u's shape that is ``u`` itself or does not overlap it,
        the values are written into ``out`` and ``out`` is returned: a caller can invert a block
        of uniforms in place.
        """
        arr = np.asarray(u, dtype=float)
        if arr.size and not (arr.min() >= 0.0 and arr.max() < 1.0):  # NaN fails both comparisons
            raise ParameterError("quantile argument must lie in [0, 1)")
        if out is None:
            out = np.empty(arr.shape)
        np.subtract(1.0, arr, out=out)
        with np.errstate(over="ignore"):
            return _scalar_or_array(np.power(out, -1.0 / self.alpha, out=out))

    def abs_moment(self, p: float) -> float:
        """E|X|^p, or math.inf when the moment does not exist."""
        if not p > 0.0:
            raise ParameterError(f"moment order must be positive, got {p!r}")
        if p < self.alpha:
            return self.alpha / (self.alpha - p)
        return math.inf
