"""Exception types shared across the package, and its parameter checks."""

import math
import numbers


class SpringbackError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SpringbackError, ValueError):
    """An argument violates a documented precondition."""


class NumericError(SpringbackError, RuntimeError):
    """A numerical routine failed (non-SPD factorization, non-finite iterates)."""


class RipConditionError(InvalidParameterError):
    """A bound was requested for a RIP profile that does not satisfy the
    recovery condition, so the bound would be vacuous."""


def check_positive(what: str, *values: float, zero_ok: bool = False) -> None:
    """Raise InvalidParameterError "<what> must be positive and finite" unless
    every value is finite and positive ("nonnegative" and >= 0 if zero_ok).
    A bool, or a value that is no float (a string, 10**400), is refused."""
    sign = "nonnegative" if zero_ok else "positive"
    for v in values:
        try:
            ok = not isinstance(v, bool) and math.isfinite(v) and (v >= 0 if zero_ok else v > 0)
        except (OverflowError, TypeError):
            ok = False
        if not ok:
            raise InvalidParameterError(f"{what} must be {sign} and finite")


def check_integer(message: str, *values, least: int = 1) -> None:
    """Raise InvalidParameterError(message) unless every value is an integer
    of at least ``least``: a ``numbers.Integral`` but not a bool, so NaN,
    2.5, 3.0 and True are refused."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < least:
            raise InvalidParameterError(message)
