"""Exception hierarchy shared across the package: one error per command-line exit code,
ParameterError for every refused input (2) and NumericError, QuadratureError among them, for a
computation that cannot meet its accuracy contract (3)."""

from __future__ import annotations


class Error(Exception):
    """Base class for all package-specific errors."""


class ParameterError(Error, ValueError):
    """An argument lies outside its function's domain or a model's admissibility constraints."""


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
