"""Exception types shared across the package, and the two argument rules.

Everything user-facing raises one of these so callers (and the CLI) can map
failure modes to exit codes without string matching.

Two rules check scalar arguments.  Every integer argument of the public API
(dimensions, code sizes, distances, orders, radii, a ball's center,
permutation entries, flip masks, seeds) goes through :func:`as_integer`, and
every correlation through :func:`as_real`.  Each returns the value as a plain
Python ``int`` or ``float``, which the caller uses from then on, so a numpy
scalar is accepted and stored as the builtin type.  A bool, a string, or a non-integral number
where an integer is due is refused with the error type the caller names.
The densities of the ``bounds`` functions and the target of ``dyadic_round``
go through :func:`as_real` on [0, 1], and each ``bounds`` function then
checks its own, narrower range.  Other densities and word lists (coerced
word by word in ``make_code``) keep their own checks.
"""

import math
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
    """An optimizer found no feasible point to start from."""


class SearchBudgetError(RuntimeError):
    """An exhaustive search was refused because it would exceed the time budget."""


def as_integer(
    name: str, value, low: int, high: float = math.inf, error: type = ParameterRangeError
) -> int:
    """``value`` as a Python int if it is an integer (a ``numbers.Integral``
    other than a bool) in low..high, or at least low when ``high`` is left
    infinite; otherwise raise ``error`` naming the argument."""
    if type(value) is not int:
        integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        if integral and low <= value <= high:
            return int(value)
    elif low <= value <= high:
        return value
    span = f"at least {low}" if high == math.inf else f"in {low}..{high}"
    raise error(f"{name} must be an integer {span}, got {value!r}")


def as_real(name: str, value, low: float, high: float, error: type = ParameterRangeError) -> float:
    """``value`` as a Python float if it is a real number (a ``numbers.Real``
    other than a bool) in the closed interval [low, high]; otherwise raise
    ``error`` naming the argument.  NaN lies in no interval."""
    if type(value) is not float:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if real and low <= value <= high:
            return float(value)
    elif low <= value <= high:
        return value
    raise error(f"{name} must be a real number in [{low}, {high}], got {value!r}")
