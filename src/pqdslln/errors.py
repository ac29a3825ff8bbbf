"""Exception hierarchy shared across the package."""

from __future__ import annotations


class Error(Exception):
    """Base class for all package-specific errors."""


class DomainError(Error, ValueError):
    """An argument lies outside a function's mathematical domain."""


class ParameterError(Error, ValueError):
    """A model or run parameter violates its admissibility constraints."""


class NumericError(Error, ArithmeticError):
    """A numerical procedure failed to meet its accuracy contract."""


class QuadratureError(NumericError):
    """Adaptive quadrature exhausted its panel budget.

    Carries the best available estimate and the associated error bound so
    callers can decide whether the partial result is still usable.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound

