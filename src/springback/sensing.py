"""Sensing-matrix ensembles, sparse test signals, and SNR-calibrated noise.

Two measurement ensembles are provided: random Gaussian and oversampled DCT
(the refinement factor F controls how coherent the columns become; F = 1 is
the partial DCT).  Ground-truth signals are exactly s-sparse with standard
normal nonzeros, optionally with a minimum pairwise separation between
support indices.  All generators are deterministic functions of (spec, seed).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .linalg import as_vector

__all__ = [
    "EnsembleKind",
    "EnsembleSpec",
    "SignalSpec",
    "gen_matrix",
    "gen_support",
    "gen_signal",
    "snr_ratio",
    "add_noise_snr",
]


class EnsembleKind(enum.Enum):
    GAUSSIAN = "gaussian"
    OVERSAMPLED_DCT = "oversampled_dct"


@dataclass(frozen=True)
class EnsembleSpec:
    """Measurement-matrix description: ensemble kind, shape, refinement, seed."""

    kind: EnsembleKind
    m: int
    n: int
    refinement: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InvalidParameterError("m and n must be positive")
        if self.refinement < 1:
            raise InvalidParameterError("refinement factor must be >= 1")
        if self.kind is not EnsembleKind.OVERSAMPLED_DCT and self.refinement != 1:
            raise InvalidParameterError(
                "refinement factor only applies to the oversampled DCT ensemble"
            )


@dataclass(frozen=True)
class SignalSpec:
    """Ground-truth description: dimension, sparsity, minimum separation, seed."""

    n: int
    sparsity: int
    min_separation: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError("n must be positive")
        if not (0 <= self.sparsity <= self.n):
            raise InvalidParameterError("sparsity must lie in [0, n]")
        if self.min_separation < 0:
            raise InvalidParameterError("min_separation must be nonnegative")
        s, sep = self.sparsity, self.min_separation
        if s > 0 and sep > 0 and (s - 1) * sep + 1 > self.n:
            raise InvalidParameterError(
                f"cannot place {s} indices with separation {sep} in [0, {self.n})"
            )


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def gen_matrix(spec: EnsembleSpec) -> np.ndarray:
    """Draw a sensing matrix from the given ensemble.

    Gaussian: i.i.d. N(0, 1/m) entries.  Oversampled DCT: a single frequency
    vector chi ~ U[0,1]^m is shared across columns and column i (1-based) is
    cos(2 pi i chi / F) / sqrt(m).  Sharing chi across columns is what makes
    large F produce nearly parallel (coherent) columns.
    """
    rng = _rng(spec.seed)
    m, n = spec.m, spec.n
    if spec.kind is EnsembleKind.GAUSSIAN:
        return rng.standard_normal((m, n)) / np.sqrt(m)
    chi = rng.uniform(0.0, 1.0, size=m)
    cols = np.arange(1, n + 1, dtype=float)
    F = float(spec.refinement)
    return np.cos(2.0 * np.pi * np.outer(chi, cols) / F) / np.sqrt(m)


def gen_support(spec: SignalSpec) -> np.ndarray:
    """Sample a sorted support of size s, honoring the minimum separation.

    The support is drawn by gap allocation, with L the separation (0 reads
    as 1, no constraint): choose a uniform s-subset of the n - (s-1)(L-1)
    compacted slots, then stretch it back by adding (L-1) * rank to each
    index.  This is uniform over all feasible supports and never rejects.
    """
    rng = _rng(spec.seed)
    s, n, sep = spec.sparsity, spec.n, max(spec.min_separation, 1)
    if s == 0:
        return np.empty(0, dtype=np.intp)
    free = n - (s - 1) * (sep - 1)
    base = np.sort(rng.choice(free, size=s, replace=False))
    return base + (sep - 1) * np.arange(s)


def gen_signal(spec: SignalSpec) -> np.ndarray:
    """Exactly s-sparse vector with standard normal nonzero entries."""
    support = gen_support(spec)
    rng = _rng((spec.seed, 1))
    x = np.zeros(spec.n)
    if support.size == 0:
        return x
    vals = rng.standard_normal(support.size)
    while np.any(vals == 0.0):  # pragma: no cover - probability zero in practice
        vals[vals == 0.0] = rng.standard_normal(int(np.sum(vals == 0.0)))
    x[support] = vals
    return x


def snr_ratio(snr_db: float) -> float:
    """The signal-to-noise power ratio 10^(snr_db/10) of an SNR in dB.

    Raises InvalidParameterError for a NaN or infinite SNR, or one whose
    ratio overflows or underflows (|snr_db| beyond about 3080 dB), where the
    noise variance would be zero, infinite or undefined.
    """
    snr_db = float(snr_db)
    if not math.isfinite(snr_db):
        raise InvalidParameterError(f"SNR must be finite, got {snr_db} dB")
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not sys.float_info.min <= ratio < math.inf:
        raise InvalidParameterError(
            f"SNR {snr_db:g} dB is out of range: 10^(SNR/10) overflows or underflows"
        )
    return ratio


def add_noise_snr(clean, snr_db: float, seed: int) -> tuple[np.ndarray, float]:
    """Add white Gaussian noise at the requested SNR (in dB).

    The per-sample noise variance is P / 10^(snr_db/10) with P the measured
    signal power ||clean||^2 / m.  Returns the noisy vector and the realized
    noise norm ||e||_2, the natural tau for the constrained solvers.  An SNR
    that snr_ratio rejects raises its InvalidParameterError.
    """
    ratio = snr_ratio(snr_db)
    clean = as_vector(clean)
    if not np.any(clean):
        raise InvalidParameterError("cannot calibrate noise power to a zero signal")
    m = clean.shape[0]
    power = float(clean @ clean) / m
    sigma = np.sqrt(power / ratio)
    e = _rng(seed).standard_normal(m) * sigma
    return clean + e, float(np.linalg.norm(e))
