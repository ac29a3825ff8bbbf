"""The gamma function on the positive real line.

``gamma`` takes a scalar x > 0, with Gamma(x) finite for x from about
5.6e-309 to 171.62; any other argument raises a typed error instead of
silently returning garbage.  It is pure and safe for concurrent use.
"""

from __future__ import annotations

import math

from .errors import NumericError, ParameterError

__all__ = ["gamma"]


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
