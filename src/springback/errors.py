"""Exception types shared across the package, and its one real-parameter check."""

import math


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
    every value is finite and positive ("nonnegative" and >= 0 if zero_ok)."""
    sign = "nonnegative" if zero_ok else "positive"
    for v in values:
        if not (math.isfinite(v) and (v >= 0 if zero_ok else v > 0)):
            raise InvalidParameterError(f"{what} must be {sign} and finite")
