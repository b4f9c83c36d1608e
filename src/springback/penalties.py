"""Sparsity penalties, thresholding operators, and concave-part gradients.

The catalog covers the convex l1 penalty, the nonconvex lp / transformed-l1 /
MCP / l1-minus-l2 penalties, and the weakly convex springback penalty
``||x||_1 - (alpha/2) ||x||_2^2``.  The thresholding operators (soft, firm,
springback, and the springback prox) realize the corresponding proximal
mappings in closed form, all through the one kernel ``soft_shrink``;
``dc_concave_gradient`` supplies the linearization used by
difference-of-convex solvers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .linalg import as_vector

__all__ = [
    "PenaltyKind",
    "ThresholdParams",
    "penalty_value",
    "soft_threshold",
    "soft_shrink",
    "firm_threshold",
    "springback_threshold",
    "prox_springback",
    "dc_concave_gradient",
]


class PenaltyKind(enum.Enum):
    L1 = "l1"
    LP = "lp"
    TL1 = "tl1"
    MCP = "mcp"
    L1_MINUS_2 = "l1_minus_2"
    SPRINGBACK = "springback"


@dataclass(frozen=True)
class ThresholdParams:
    """Scalar parameters shared by the penalty family.

    alpha is the springback curvature; mu the MCP saturation level; beta the
    transformed-l1 shape; p the lp exponent in (0, 1).
    """

    alpha: float = 0.5
    mu: float = 1.0
    beta: float = 1.0
    p: float = 0.5

    def __post_init__(self):
        for name in ("alpha", "mu", "beta"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise InvalidParameterError(f"{name} must be positive and finite")
        if not (0.0 < self.p < 1.0):
            raise InvalidParameterError("p must lie in (0, 1)")


def penalty_value(kind: PenaltyKind, x, params: ThresholdParams) -> float:
    """Evaluate the scalar penalty of the given kind at x."""
    x = as_vector(x)
    ax = np.abs(x)
    if kind is PenaltyKind.L1:
        return float(ax.sum())
    if kind is PenaltyKind.LP:
        return float(np.sum(ax**params.p))
    if kind is PenaltyKind.TL1:
        b = params.beta
        return float(np.sum((b + 1.0) * ax / (b + ax)))
    if kind is PenaltyKind.MCP:
        mu = params.mu
        inner = ax - ax * ax / (2.0 * mu)
        return float(np.sum(np.where(ax <= mu, inner, mu / 2.0)))
    if kind is PenaltyKind.L1_MINUS_2:
        return float(ax.sum() - np.linalg.norm(x))
    if kind is PenaltyKind.SPRINGBACK:
        return float(ax.sum() - 0.5 * params.alpha * (x @ x))
    raise InvalidParameterError(f"unknown penalty kind: {kind!r}")


def soft_shrink(v: np.ndarray, t: float) -> np.ndarray:
    """Elementwise sgn(v) * max(|v| - t, 0), unvalidated: the one shrinkage
    kernel behind every thresholding operator here.  The inner ADMM loops
    compute the same values in their work vectors.

    Computed as v - clamp(v, -t, t), which rounds the same for finite v and
    t > 0: both give v - t above t and v + t below -t.  Only the sign of a
    zero may differ: this one is +0.0 throughout the dead zone.
    """
    return v - v.clip(-t, t)


def _springback_scale(lam: float, alpha: float) -> float:
    """The springback divisor 1 - lam*alpha, checked with its parameters."""
    if lam <= 0 or alpha <= 0:
        raise InvalidParameterError("lam and alpha must be positive")
    scale = 1.0 - lam * alpha
    if scale <= 0:
        raise InvalidParameterError("springback thresholding requires 1 - lam*alpha > 0")
    return scale


def _threshold(w: float, lam: float, scale: float = 1.0) -> float:
    """soft_shrink(w, lam) / scale for one finite scalar w, taken as a numpy
    scalar: a one-entry array costs several times more per call."""
    w = np.float64(w)
    if not math.isfinite(w):
        raise InvalidParameterError("thresholding operators require finite input")
    return float(soft_shrink(w, lam) / scale)


def soft_threshold(w: float, lam: float) -> float:
    """sgn(w) * max(|w| - lam, 0)."""
    if lam <= 0:
        raise InvalidParameterError("lam must be positive")
    return _threshold(w, lam)


def springback_threshold(w: float, lam: float, alpha: float) -> float:
    """Springback shrinkage: zero below lam, amplified soft threshold above."""
    return _threshold(w, lam, _springback_scale(lam, alpha))


def firm_threshold(w: float, lam: float, mu: float) -> float:
    """Three-branch firm thresholding: zero, linear ramp, identity.  Below mu
    it is springback thresholding with alpha = 1/mu, computed as such."""
    if not (0 < lam < mu):
        raise InvalidParameterError("firm thresholding requires 0 < lam < mu")
    if mu <= abs(w) < math.inf:  # _threshold rejects an infinite or NaN w
        return float(w)
    return _threshold(w, lam, _springback_scale(lam, 1.0 / mu))


def prox_springback(x, lam: float, alpha: float) -> np.ndarray:
    """Elementwise proximal mapping of the springback penalty.

    Equals the exact minimizer of lam * R_spb(y) + 0.5 ||y - x||^2 whenever
    1 - lam*alpha > 0, which makes that objective strongly convex.
    """
    return soft_shrink(as_vector(x), lam) / _springback_scale(lam, alpha)


def dc_concave_gradient(kind: PenaltyKind, x, params: ThresholdParams) -> np.ndarray:
    """Gradient (subgradient at kinks) of the concave-part function h in the
    DC split penalty = convex_part - h.

    Splits used: springback h = (alpha/2)||x||^2; l1-2 h = ||x||_2 (subgradient
    0 at the origin); MCP h = ||x||_1 - R_mcp (a Huber function); TL1
    h = ((beta+1)/beta)||x||_1 - R_tl1.
    """
    x = as_vector(x)
    if kind is PenaltyKind.SPRINGBACK:
        return params.alpha * x
    if kind is PenaltyKind.L1_MINUS_2:
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0:
            return np.zeros_like(x)
        return x / nrm
    if kind is PenaltyKind.MCP:
        mu = params.mu
        return np.sign(x) * np.minimum(np.abs(x), mu) / mu
    if kind is PenaltyKind.TL1:
        b = params.beta
        ax = np.abs(x)
        return np.sign(x) * ((b + 1.0) / b - (b + 1.0) * b / (b + ax) ** 2)
    raise InvalidParameterError(f"no DC decomposition implemented for {kind!r}")
