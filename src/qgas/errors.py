"""Exception types shared across the package.

The hierarchy mirrors how callers need to react: domain violations
(bad input), singular points of the occupation function, and numeric
failures (series truncation, quadrature, root bracketing).
"""

import math


class QgasError(Exception):
    """Base class for all package errors."""


class DomainError(QgasError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class SingularityError(QgasError, ValueError):
    """Evaluation was requested exactly at a singular point.

    The canonical case is the Bose occupation at z = 1, beta_eps = 0,
    where the denominator vanishes.
    """


class TruncationError(QgasError, ArithmeticError):
    """A series hit its term cap before the terms dropped below tolerance."""

    def __init__(self, message: str, partial_sum: float, last_term: float):
        super().__init__(message)
        self.partial_sum = partial_sum
        self.last_term = last_term


class QuadratureError(QgasError, ArithmeticError):
    """The exp-sinh quadrature failed its step-halving accuracy check."""


class ConvergenceError(QgasError, ArithmeticError):
    """A bracketing solver found a sign change but not a root within its iteration cap."""


def _real(value, name: str) -> float:
    """``value`` as a float; DomainError when it is not a real number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a real number, got {value!r}") from exc


def _require_positive(value, name: str) -> float:
    """``value`` as a float; DomainError unless it is positive and finite."""
    value = _real(value, name)
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return value


def _set_positive(instance, *names: str) -> None:
    """Check each named field of a frozen dataclass and store it as a float."""
    for name in names:
        object.__setattr__(instance, name, _require_positive(getattr(instance, name), name))
