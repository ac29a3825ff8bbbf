"""Gamma and Gauss hypergeometric evaluation on the real line.

Only the parameter ranges needed by the closed-form covariance factor are
supported: positive gamma arguments, with Gamma(x) finite for x from about
5.6e-309 to 171.62, and 2F1 power series at |z| < 1.  No analytic
continuation is attempted; out-of-range arguments raise
:class:`~pqdslln.errors.ParameterError` instead of silently returning garbage.
``gauss_2f1`` takes a scalar or a numpy array z and works elementwise,
summing blocks of terms with the bits of a one-term-per-step loop, and
refuses a series only once its whole term budget is spent; ``gamma`` takes
a scalar.  Both functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ParameterError

__all__ = ["gamma", "gauss_2f1"]

# Relative truncation threshold for the 2F1 power series.  Downstream
# tolerances are 1e-6; this leaves nine orders of margin.
_SERIES_RTOL = 1e-15
_MAX_TERMS = 1_000_000
# Terms times live elements summed per block of gauss_2f1.  numpy's 2-D
# accumulate runs one inner loop per row, so a block pays only while its rows
# are few and long: above _BLOCK_ROWS live elements (blocks narrower than 16
# terms) one term per step is faster.  On a 2-core AVX-512 machine, a series
# still summing after thousands of terms cost 3.5 us per term in steps and
# 5.0 us in blocks at 400 live elements, 3.5 and 2.9 us at 256.
_BLOCK_CELLS = 4096
_BLOCK_ROWS = 256


def gamma(x: float) -> float:
    """Gamma function for real x > 0, as the standard library's ``math.gamma``.

    Nonpositive or non-finite arguments raise ParameterError; arguments where
    the result overflows raise NumericError: x above about 171.62, and x
    below about 5.6e-309.
    """
    if not 0.0 < x < math.inf:
        raise ParameterError(f"gamma requires finite x > 0, got {x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise NumericError(f"gamma({x!r}) overflows double precision") from None


def _check_2f1_args(a: float, b: float, c: float, z: float) -> None:
    """Refuse 2F1 arguments unless all are finite, c is not zero or a negative integer, and |z| < 1."""
    if not all(math.isfinite(x) for x in (a, b, c, z)):
        raise ParameterError(f"2F1 arguments must be finite, got a={a!r}, b={b!r}, c={c!r}, z={z!r}")
    if c <= 0.0 and c == math.floor(c):
        raise ParameterError(f"2F1 parameter c must not be zero or a negative integer, got {c!r}")
    if abs(z) >= 1.0:
        raise ParameterError(f"2F1 power series needs |z| < 1, got z={z!r}")


def gauss_2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric sum_{n>=0} (a)_n (b)_n / ((c)_n n!) z^n, elementwise over z.

    Only |z| < 1 is accepted.  Each element's series is truncated once its
    running term drops below 1e-15 times its running sum, so a series that
    terminates (a or b a nonpositive integer) stops at its first zero term
    at the latest.  Every element sees the same floating-point operations as
    a scalar call.  A scalar z gives a float, an array z an array of its
    shape.

    Live elements are summed in blocks of W terms (W from 16, doubling, with
    W times the live count at most _BLOCK_CELLS; one term per step while
    more than _BLOCK_ROWS elements are live): an outer product of term
    ratios, then running products and running sums along each row, which
    are the one-term step's operations in its order, so the bits are the
    step's.  A series that does not truncate within _MAX_TERMS terms
    raises NumericError, as does a sum that overflows double precision.
    """
    zs = np.asarray(z, dtype=float)
    live_z = zs.ravel()
    _check_2f1_args(a, b, c, float(live_z[np.argmax(np.abs(live_z))]) if live_z.size else 0.0)
    out = np.empty(zs.size)
    live = np.arange(zs.size)  # elements still summing, compacted as they converge
    term, total = np.ones(zs.size), np.ones(zs.size)
    n, width = 0, 16
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed sum is refused below
        while n < _MAX_TERMS and live.size:
            if live.size > _BLOCK_ROWS:
                step = 1
                term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * live_z
                total += term
                done, value = np.abs(term) <= _SERIES_RTOL * np.abs(total), total
            else:
                step = min(width, _BLOCK_CELLS // live.size, _MAX_TERMS - n)
                width = 2 * step
                ns = np.arange(n, n + step, dtype=float)
                ratios = np.multiply.outer(live_z, (a + ns) * (b + ns) / ((c + ns) * (ns + 1.0)))
                ratios[:, 0] *= term
                terms = np.multiply.accumulate(ratios, axis=1)
                sums = terms.copy()
                sums[:, 0] += total
                sums = np.add.accumulate(sums, axis=1)
                term, total = terms[:, -1], sums[:, -1]
                passed = np.abs(terms) <= _SERIES_RTOL * np.abs(sums)
                first = passed.argmax(axis=1)  # each row's first passing term, or 0 where none passes
                rows = np.arange(live.size)
                done, value = passed[rows, first], sums[rows, first]
            n += step
            if done.any():
                out[live[done]] = value[done]
                keep = ~done
                live, live_z, term, total = live[keep], live_z[keep], term[keep], total[keep]
    if live.size:
        raise NumericError(f"2F1 series did not converge within {_MAX_TERMS} terms (z={float(live_z[0])!r})")
    finite = np.isfinite(out)
    if not finite.all():
        raise NumericError(f"2F1 series overflows double precision (z={float(zs.ravel()[np.argmin(finite)])!r})")
    out = out.reshape(zs.shape)
    return out if out.ndim else float(out)
