"""Gamma, Pochhammer and Gauss hypergeometric evaluation on the real line.

Only the parameter ranges needed by the closed-form covariance factor are
supported: positive gamma arguments, and 2F1 series that either terminate
(first or second parameter a nonpositive integer) or converge absolutely
(|z| < 1).  No analytic continuation is attempted; out-of-range arguments
raise :class:`~pqdslln.errors.DomainError` instead of silently returning
garbage.  ``gauss_2f1`` takes a scalar or a numpy array z and works
elementwise; the other functions take scalars.  All functions are pure and
safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError

__all__ = ["gamma", "pochhammer", "gauss_2f1", "HypergeometricArgs"]

# Lanczos rational approximation, g = 7, 9 coefficients.  Relative accuracy
# is a few ulp over the positive reals, comfortably inside the 1e-12
# contract on [0.5, 50].
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Relative truncation threshold for the 2F1 power series.  Downstream
# tolerances are 1e-6; this leaves nine orders of margin.
_SERIES_RTOL = 1e-15
_MAX_TERMS = 1_000_000
# Headroom by which a projected series must miss the truncation test before
# it is refused early; the projection itself is good to a factor of e^(1/8).
_PROJECTION_MARGIN = 10.0


def gamma(x: float) -> float:
    """Gamma function for real x > 0 via a fixed-coefficient Lanczos sum.

    Relative error <= 1e-12 on (0, 50]; below 0.5 it is Gamma(x + 1) / x.
    Nonpositive or non-finite arguments raise DomainError; arguments where
    the result overflows raise NumericError: x above about 142.37, where the
    Lanczos power overflows, and x below about 5.6e-309, where 1/x does.
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"gamma requires finite x > 0, got {x!r}")
    if x < 0.5:
        value = gamma(x + 1.0) / x
        if value == math.inf:
            raise NumericError(f"gamma({x!r}) overflows double precision")
        return value
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    try:
        power = t ** (z + 0.5)
    except OverflowError:
        raise NumericError(f"gamma({x!r}) overflows double precision") from None
    return _SQRT_TWO_PI * power * math.exp(-t) * acc


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1.

    For a nonpositive integer a = -m with m < n the factor a + m is zero, so
    the product is the signed zero (-1)^m * 0.0, returned without a loop.  A
    product that overflows raises NumericError at the factor where it does.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"pochhammer requires a nonnegative integer n, got {n!r}")
    m = _nonpositive_int_order(a)
    if m is not None and m < n:
        return (-1.0) ** m * 0.0
    out = 1.0
    for i in range(int(n)):
        out *= a + i
        if math.isinf(out):
            raise NumericError(f"pochhammer({a!r}, {n!r}) overflows double precision")
    return out


def _nonpositive_int_order(x: float) -> int | None:
    """Return m >= 0 such that x == -m, or None if x is not a nonpositive integer."""
    if x <= 0.0 and x == math.floor(x):
        return int(-x)
    return None


def _terminating_order(a: float, b: float) -> int | None:
    """Smallest series-terminating order induced by a or b, if any."""
    orders = [m for m in (_nonpositive_int_order(a), _nonpositive_int_order(b)) if m is not None]
    return min(orders) if orders else None


@dataclass(frozen=True)
class HypergeometricArgs:
    """Validated argument bundle for the Gauss hypergeometric series.

    Invariants: every argument is finite, c is not zero or a negative integer, and
    either |z| < 1 or the series terminates because a (or b) is a
    nonpositive integer.
    """

    a: float
    b: float
    c: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.a, self.b, self.c, self.z)):
            raise DomainError(f"2F1 arguments must be finite, got a={self.a!r}, b={self.b!r}, c={self.c!r}, z={self.z!r}")
        if _nonpositive_int_order(self.c) is not None:
            raise DomainError(f"2F1 parameter c must not be zero or a negative integer, got {self.c!r}")
        if abs(self.z) >= 1.0 and _terminating_order(self.a, self.b) is None:
            raise DomainError(
                f"2F1 series does not terminate and |z| >= 1 is outside the supported range, got z={self.z!r}"
            )


def _settled_step(a: float, b: float, c: float) -> int:
    """A step past which every factor of the term ratio is within 1/64 of 1."""
    return 64 * math.ceil(max(abs(a), abs(b), abs(c), 1.0)) ** 2


def _beyond_budget(a: float, b: float, c: float, k: int, z, term, total):
    """Which series, at term k >= _settled_step, cannot truncate within _MAX_TERMS terms.

    From term k on, |t_n| = |t_k| |z|^(n-k) (n/k)^kappa with kappa = a+b-c-1,
    up to a factor within e^(1/8).  On [k, _MAX_TERMS] that projection is
    smallest at an end, and the running sum stays below
    |S_k| + |t_k| (N/k)^max(kappa, 0) min(N - k, 1/(1-|z|)).
    """
    kappa, n = a + b - c - 1.0, _MAX_TERMS
    t, mod = np.abs(term), np.abs(z)
    with np.errstate(divide="ignore", over="ignore"):
        smallest = t * np.exp(np.minimum(0.0, (n - k) * np.log(mod) + kappa * math.log(n / k)))
        bound = np.abs(total) + t * np.power(n / k, max(kappa, 0.0)) * np.minimum(n - k, 1.0 / (1.0 - mod))
    return smallest > _PROJECTION_MARGIN * _SERIES_RTOL * bound


def gauss_2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric sum_{n>=0} (a)_n (b)_n / ((c)_n n!) z^n, elementwise over z.

    Terminating series (a or b a nonpositive integer -m) are summed over
    exactly m + 1 terms; otherwise each element's series is truncated once
    its running term drops below 1e-15 times its running sum.  Every element
    sees the same floating-point operations as a scalar call.  A scalar z
    gives a float, an array z an array of its shape.

    A nonterminating series that cannot meet its truncation test within
    _MAX_TERMS terms raises NumericError: at once, from a projection made at
    the step _settled_step (a few hundred terms for small parameters), when
    the projection misses by a wide margin, and otherwise at the budget's end.
    A sum that overflows double precision raises NumericError too.
    """
    zs = np.asarray(z, dtype=float)
    live_z = zs.ravel()
    HypergeometricArgs(a, b, c, float(live_z[np.argmax(np.abs(live_z))]) if live_z.size else 0.0)
    m = _terminating_order(a, b)
    settled = _settled_step(a, b, c)
    out = np.empty(zs.size)
    live = np.arange(zs.size)  # elements still summing, compacted as they converge
    term, total = np.ones(zs.size), np.ones(zs.size)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed sum is refused below
        for n in range(_MAX_TERMS if m is None else m):
            if not live.size:
                break
            term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * live_z
            total += term
            if m is None:
                done = np.abs(term) <= _SERIES_RTOL * np.abs(total)
                if done.any():
                    out[live[done]] = total[done]
                    keep = ~done
                    live, live_z, term, total = live[keep], live_z[keep], term[keep], total[keep]
                if n + 1 == settled and live.size:
                    hopeless = _beyond_budget(a, b, c, settled, live_z, term, total)
                    if hopeless.any():
                        z_bad = float(live_z[np.argmax(hopeless)])
                        raise NumericError(f"2F1 series cannot converge within {_MAX_TERMS} terms (z={z_bad!r})")
    if m is None and live.size:
        raise NumericError(f"2F1 series did not converge within {_MAX_TERMS} terms (z={float(live_z[0])!r})")
    out[live] = total
    finite = np.isfinite(out)
    if not finite.all():
        raise NumericError(f"2F1 series overflows double precision (z={float(zs.ravel()[np.argmin(finite)])!r})")
    out = out.reshape(zs.shape)
    return out if out.ndim else float(out)
