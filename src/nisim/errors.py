"""Exception types shared across the package, and the integer-argument guard.

Everything user-facing raises one of these so callers (and the CLI) can map
failure modes to exit codes without string matching.
"""

import numbers


class DimensionRangeError(ValueError):
    """Ambient dimension outside the supported range for the requested operation."""


class DimensionMismatchError(ValueError):
    """Two codes that must live on the same hypercube do not."""


class WordRangeError(ValueError):
    """A codeword does not fit in the ambient dimension."""


class EmptyCodeError(ValueError):
    """A code must contain at least one word."""


class ParameterRangeError(ValueError):
    """A scalar parameter is outside its documented domain."""


class FormatError(ValueError):
    """Malformed serialized input."""


class NumericalConsistencyError(ArithmeticError):
    """Two computation paths that must agree did not, beyond tolerance."""


class ConvergenceError(ArithmeticError):
    """An iterative optimizer exhausted its budget before reaching tolerance."""


class SearchBudgetError(RuntimeError):
    """An exhaustive search was refused because it would exceed the time budget."""


def as_integer(
    name: str, value, low: int, high: int | None = None, error: type = ParameterRangeError
) -> int:
    """``value`` as a Python int if it is an integer (a ``numbers.Integral``
    other than a bool) in low..high, or at least low when ``high`` is None;
    otherwise raise ``error`` naming the argument."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if integral and low <= value and (high is None or value <= high):
        return int(value)
    span = f"at least {low}" if high is None else f"in {low}..{high}"
    raise error(f"{name} must be an integer {span}, got {value!r}")
