"""Exception types shared across the package.

The hierarchy mirrors how callers need to react: domain violations
(bad input), singular points of the occupation function, and numeric
failures (series truncation, quadrature, root bracketing).
"""

import math

__all__ = [
    "ConvergenceError",
    "DomainError",
    "QgasError",
    "QuadratureError",
    "SingularityError",
    "TruncationError",
]


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


def _shown(value) -> str:
    """``repr(value)`` for a refusal message; a description when Python will not print it."""
    try:
        return repr(value)
    except ValueError:  # an int past Python's digit limit for int-to-str, or a value holding one
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a value of type {type(value).__name__}"


def _real(value, name: str) -> float:
    """``value`` as a float; DomainError when it is not a real number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a real number, got {_shown(value)}") from exc


def _require_positive(value, name: str) -> float:
    """``value`` as a float; DomainError unless it is positive and finite."""
    value = _real(value, name)
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return value


def _one_of(value, choices: tuple, what: str) -> None:
    """DomainError unless ``value`` is one of ``choices``; ``what`` names the kind of value."""
    if value not in choices:
        raise DomainError(f"unknown {what} {_shown(value)}, expected one of {choices}")


def _set_positive(instance, *names: str) -> None:
    """Check each named field of a frozen dataclass and store it as a float."""
    for name in names:
        object.__setattr__(instance, name, _require_positive(getattr(instance, name), name))
