"""Exception types shared across the package.

The hierarchy mirrors how callers need to react: domain violations
(bad input), singular points of the occupation function, and numeric
failures (series truncation, quadrature, root bracketing).
"""

import math
import sys

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
    """A bisection bracket reached adjacent doubles while still wider than its tolerance."""


def _shown(value) -> str:
    """``repr(value)`` for a refusal message; a description when Python will not print it."""
    try:
        return repr(value)
    except ValueError:  # an int past Python's digit limit for int-to-str, or a value holding one
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a value of type {type(value).__name__}"


# Named ranges for _real, as (lowest, highest, wording).  A value passes when
# lowest <= value <= highest, which NaN never does.  An open end at zero is
# the smallest positive double, and "finite" bounds by the largest double.
_POSITIVE = (math.ulp(0.0), sys.float_info.max, "be positive and finite")
_NONNEGATIVE = (0.0, sys.float_info.max, "be nonnegative and finite")
_FINITE = (-sys.float_info.max, sys.float_info.max, "be finite")
_UNIT = (0.0, 1.0, "lie in [0, 1]")
_UNIT_NO_ZERO = (math.ulp(0.0), 1.0, "lie in (0, 1]")
_ABOVE_ZERO = (math.ulp(0.0), math.inf, "be positive")


def _real(value, name: str, bounds: tuple[float, float, str] | None = None) -> float:
    """``value`` as a float; DomainError when it is not a real number or lies outside ``bounds``.

    ``bounds`` is one of the named ranges above; the refusal reads
    ``"<name> must <wording>, got <float>"``.
    """
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a real number, got {_shown(value)}") from exc
    if bounds is not None and not bounds[0] <= value <= bounds[1]:
        raise DomainError(f"{name} must {bounds[2]}, got {value!r}")
    return value


def _one_of(value, choices: tuple, what: str) -> None:
    """DomainError unless ``value`` is one of ``choices``; ``what`` names the kind of value."""
    if value not in choices:
        raise DomainError(f"unknown {what} {_shown(value)}, expected one of {choices}")


class _Record:
    """A frozen record: ``__init__`` fills the instance dict once, with the fields in order."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{self.__class__.__qualname__}({shown})"
