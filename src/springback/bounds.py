"""Closed-form recovery conditions, constants, and error bounds.

Everything in this module is a direct formula evaluation on a restricted
isometry profile (sparsity s together with the 3s- and 4s-level isometry
constants).  No matrix RIP constants are ever computed here; callers assume
or estimate them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InvalidParameterError, NumericError, RipConditionError, check_integer, check_positive
from .linalg import as_matrix, as_vector, safe_norm, singular_extremes
from .penalties import PenaltyKind, ThresholdParams

import numpy as np

__all__ = [
    "RipProfile",
    "BoundKind",
    "BoundReport",
    "rip_condition",
    "d1",
    "d2",
    "alpha_posterior_bound",
    "posterior_verify",
    "recovery_bound",
    "a_of_s",
    "exact_condition",
    "noise_threshold",
    "constant_c",
    "convergence_alpha_bound",
    "alpha_relation",
    "TOY_PROFILE",
    "toy_noise_thresholds",
]


@dataclass(frozen=True)
class RipProfile:
    """Sparsity level plus the 3s- and 4s-restricted isometry constants."""

    s: int
    delta3s: float
    delta4s: float

    def __post_init__(self):
        check_integer("sparsity s must be a positive integer", self.s)
        if not (0.0 < self.delta3s < 1.0 and 0.0 < self.delta4s < 1.0):
            raise InvalidParameterError("isometry constants must lie in (0, 1)")


class BoundKind(enum.Enum):
    SPARSE = "sparse"
    SPARSE_IMPROVED = "sparse_improved"
    NEARLY_SPARSE = "nearly_sparse"
    NEARLY_SPARSE_IMPROVED = "nearly_sparse_improved"


@dataclass(frozen=True)
class BoundReport:
    d1: float
    d2: float
    bound: float
    kind: BoundKind


# The worked example used throughout: s=20, delta_3s=1/4, delta_4s=1/3.
TOY_PROFILE = RipProfile(s=20, delta3s=0.25, delta4s=1.0 / 3.0)


def _roots(prof: RipProfile) -> tuple[float, float, float, float]:
    """sqrt(1-delta4s), sqrt(1+delta3s), sqrt(3s), sqrt(s)."""
    return (
        math.sqrt(1.0 - prof.delta4s),
        math.sqrt(1.0 + prof.delta3s),
        math.sqrt(3.0 * prof.s),
        math.sqrt(float(prof.s)),
    )


def rip_condition(prof: RipProfile) -> bool:
    """Whether delta_3s < 3 (1 - delta_4s) - 1, the springback/l1 condition."""
    return prof.delta3s < 3.0 * (1.0 - prof.delta4s) - 1.0


def d1(prof: RipProfile, alpha: float) -> float:
    """Quadratic coefficient of the recovery estimate."""
    check_positive("alpha", alpha)
    r4, r3, s3, s1 = _roots(prof)
    return 0.5 * alpha * (r4 + r3) / (s3 + s1)


def d2(prof: RipProfile) -> float:
    """Linear coefficient of the improved recovery estimate."""
    r4, r3, _, _ = _roots(prof)
    return (math.sqrt(3.0) * r4 - r3) / (math.sqrt(3.0) + 1.0)


def alpha_posterior_bound(prof: RipProfile, xopt_norm: float) -> float:
    """Largest alpha admitted by the posterior verification given ||x*||_2.

    Pass ``||x*||_2 + eps`` for the accuracy-inflated variant.
    """
    check_positive("xopt_norm", xopt_norm)
    r4, r3, s3, s1 = _roots(prof)
    return (r4 * s3 - r3 * s1) / ((r4 + r3) * xopt_norm)


def posterior_verify(prof: RipProfile, alpha: float, x_star, eps: float = 0.0) -> bool:
    """Check alpha against the posterior bound evaluated at ||x*||_2 + eps."""
    x_star = as_vector(x_star)
    check_positive("alpha", alpha)
    check_positive("eps", eps, zero_ok=True)
    norm = float(np.linalg.norm(x_star)) + eps
    if norm <= 0:
        return True
    return alpha <= alpha_posterior_bound(prof, norm)


def recovery_bound(
    prof: RipProfile,
    alpha: float,
    tau: float,
    tail_l1: float = 0.0,
    improved: bool = False,
) -> BoundReport:
    """Recovery error bound for sparse or nearly sparse signals.

    tail_l1 is the l1 mass outside the s largest entries (zero for exactly
    sparse signals); the improved variants subtract the linear-term
    correction.
    """
    check_positive("tau and tail_l1", tau, tail_l1, zero_ok=True)
    if not rip_condition(prof):
        raise RipConditionError(
            "RIP condition delta_3s < 3(1 - delta_4s) - 1 fails; bound is vacuous"
        )
    c1 = d1(prof, alpha)
    c2 = d2(prof)
    if c1 == 0.0:  # alpha below about 1e-322
        raise NumericError("D1 underflows to 0: alpha is too small for a finite bound")
    inner = 2.0 * tau / c1 + 4.0 * tail_l1 / alpha
    if improved:
        shift = c2 / (2.0 * c1)
        value = math.sqrt(shift * shift + inner) - shift
        kind = BoundKind.NEARLY_SPARSE_IMPROVED if tail_l1 > 0 else BoundKind.SPARSE_IMPROVED
    else:
        value = math.sqrt(inner)
        kind = BoundKind.NEARLY_SPARSE if tail_l1 > 0 else BoundKind.SPARSE
    if not math.isfinite(value):
        raise NumericError(f"recovery bound overflows to {value} at alpha = {alpha:g}, tau = {tau:g}")
    return BoundReport(d1=c1, d2=c2, bound=value, kind=kind)


def a_of_s(s: int) -> float:
    """Sharpness constant of the l1-minus-l2 exact recovery condition."""
    check_integer("s must be a positive integer", s)
    return ((3.0 * s - 1.0) / (math.sqrt(3.0) * s + math.sqrt(4.0 * s - 1.0))) ** 2


def exact_condition(kind: PenaltyKind, prof: RipProfile, params: ThresholdParams) -> bool:
    """Exact recovery condition of the penalized model for the given kind."""
    if kind in (PenaltyKind.L1, PenaltyKind.SPRINGBACK):
        return rip_condition(prof)
    d3, d4 = prof.delta3s, prof.delta4s
    if kind is PenaltyKind.LP:
        p = params.p
        return d3 < 3.0 ** ((2.0 - p) / p) * (1.0 - d4) - 1.0
    if kind is PenaltyKind.TL1:
        b = params.beta
        return d3 < (b / (b + 1.0)) ** 2 * 3.0 * (1.0 - d4) - 1.0
    if kind is PenaltyKind.L1_MINUS_2:
        return d3 < a_of_s(prof.s) * (1.0 - d4) - 1.0
    raise InvalidParameterError(f"no exact recovery condition for {kind!r}")


def noise_threshold(
    kind: PenaltyKind, prof: RipProfile, alpha: float, params: ThresholdParams
) -> float:
    """Noise level above which the springback square-root bound is tighter
    than the competing model's linear bound.

    Only the springback-side RIP condition is enforced: the printed
    comparison values exist even for profiles where the competitor's own
    exact recovery condition fails.
    """
    check_positive("alpha", alpha)
    if not rip_condition(prof):
        raise RipConditionError("springback RIP condition fails; comparison undefined")
    d3, d4 = prof.delta3s, prof.delta4s
    r4, r3, s3, s1 = _roots(prof)
    ssum = s3 + s1
    rsum = r4 + r3
    if kind is PenaltyKind.L1:
        num, den = ssum * (math.sqrt(3.0) * r4 - r3) ** 2, 4.0 * alpha * rsum
    elif kind is PenaltyKind.LP:
        p = params.p
        num = ssum * ((1.0 - d4) ** (p / 2.0) - (1.0 + d3) ** (p / 2.0) * 3.0 ** (p / 2.0 - 1.0)) ** (2.0 / p)
        den = alpha * rsum * (1.0 + 1.0 / ((2.0 / p - 1.0) * 3.0 ** (2.0 / p - 1.0)))
    elif kind is PenaltyKind.TL1:
        b = params.beta
        core = (b / (b + 1.0)) * math.sqrt(3.0) * r4 - r3
        num = 4.0 * ssum * (1.0 - d3) * core**2
        den = alpha * rsum * (core + s3 * math.sqrt(1.0 - d3)) ** 2
    elif kind is PenaltyKind.L1_MINUS_2:
        a = a_of_s(prof.s)
        num = ssum * (math.sqrt(a * (1.0 - d4)) - r3) ** 2
        den = alpha * rsum * (s3 - math.sqrt(prof.s * a)) ** 2
    else:
        raise InvalidParameterError(f"no noise threshold formula for {kind!r}")
    value = num / den
    if not math.isfinite(value):
        raise NumericError(f"noise threshold overflows to {value} at alpha = {alpha:g}")
    return value


def constant_c(prof: RipProfile, alpha: float, tau: float, c1s: float) -> float:
    """Sparsity ceiling below which the nearly-sparse comparison holds.

    c1s is the (caller-supplied) linear-bound constant of the competing
    model; no closed form for it is available.
    """
    check_positive("alpha", alpha)
    check_positive("tau", tau, zero_ok=True)
    check_positive("c1s", c1s)
    r4, r3, _, _ = _roots(prof)
    core = (r4 + r3) / (4.0 * (math.sqrt(3.0) + 1.0))
    return alpha**2 * c1s**4 * tau**2 * core**2


def convergence_alpha_bound(A, b, tau: float) -> float:
    """Upper bound 2 sigma_min(A) / (||b||_2 + tau) ensuring nonnegative
    objective values along the solver iterates."""
    A = as_matrix(A)
    b = as_vector(b)
    check_positive("tau", tau, zero_ok=True)
    denom = safe_norm(b) + tau
    if denom <= 0:
        raise InvalidParameterError("||b||_2 + tau must be positive")
    smin, _ = singular_extremes(A)
    return 2.0 * smin / denom


def alpha_relation(prof: RipProfile, A, b, tau: float, xopt_norm: float) -> bool:
    """Whether the posterior alpha bound implies the convergence alpha bound."""
    return alpha_posterior_bound(prof, xopt_norm) <= convergence_alpha_bound(A, b, tau)


def toy_noise_thresholds(alpha: float = 1.0) -> list[tuple[str, float]]:
    """The worked-example comparison thresholds, in the order they are
    usually quoted: l1, l0.2, l0.5, l0.999, transformed l1 (beta=1), l1-l2."""
    prof = TOY_PROFILE
    base = ThresholdParams()
    return [
        ("l1", noise_threshold(PenaltyKind.L1, prof, alpha, base)),
        ("l0.2", noise_threshold(PenaltyKind.LP, prof, alpha, ThresholdParams(p=0.2))),
        ("l0.5", noise_threshold(PenaltyKind.LP, prof, alpha, ThresholdParams(p=0.5))),
        ("l0.999", noise_threshold(PenaltyKind.LP, prof, alpha, ThresholdParams(p=0.999))),
        ("tl1", noise_threshold(PenaltyKind.TL1, prof, alpha, ThresholdParams(beta=1.0))),
        ("l1-l2", noise_threshold(PenaltyKind.L1_MINUS_2, prof, alpha, base)),
    ]
