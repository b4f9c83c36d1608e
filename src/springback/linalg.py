"""Minimal dense linear-algebra kernels used by the solvers and generators.

Matrices are plain 2-D ``numpy.ndarray`` in row-major order; vectors are 1-D
arrays.  Everything here is a pure function of its inputs (the factorization
caches never change once built), so concurrent use is safe.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrs

from .errors import InvalidParameterError, NumericError

__all__ = [
    "as_matrix",
    "as_vector",
    "SpdFactor",
    "GramRidgeSolver",
    "singular_extremes",
    "l2_ball_project",
]


def as_matrix(a) -> np.ndarray:
    """Validate and convert to a finite 2-D float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise InvalidParameterError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InvalidParameterError("matrix entries must be finite")
    return m


def as_vector(a) -> np.ndarray:
    """Validate and convert to a finite 1-D float array."""
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise InvalidParameterError(f"expected a 1-D vector, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError("vector entries must be finite")
    return v


class SpdFactor:
    """Cached Cholesky factorization of a symmetric positive definite matrix.

    The factorization is computed once and reused for repeated right-hand
    sides, which is what the solvers need: the same normal matrix is solved
    against at every inner iteration.  ``chol`` is LAPACK's lower factor.
    """

    def __init__(self, M):
        M = as_matrix(M)
        if M.shape[0] != M.shape[1]:
            raise InvalidParameterError("SPD solve requires a square matrix")
        try:
            self.chol, _ = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise NumericError(f"matrix is not positive definite: {exc}") from exc
        self.shape = M.shape

    def solve(self, r) -> np.ndarray:
        r = as_vector(r)
        if r.shape[0] != self.shape[0]:
            raise InvalidParameterError(
                f"right-hand side length {r.shape[0]} does not match "
                f"matrix order {self.shape[0]}"
            )
        return dpotrs(self.chol, r, lower=1)[0]


class GramRidgeSolver:
    """Reusable solver for systems (A^T A + zeta * I) x = r.

    For wide matrices (m < n) the matrix-inversion lemma keeps the cached
    factor at size m x m:

        (zeta I + A^T A)^-1 r = (r - A^T (zeta I + A A^T)^-1 A r) / zeta

    which is both faster and better conditioned than factoring the n x n
    normal matrix when n is large.  A is validated once, here; ``solve`` and
    ``offset_solve`` take their vectors unchecked (finite, length n).  The
    lasso ADMM reads ``zeta``, its splitting penalty.
    """

    def __init__(self, A, zeta: float):
        A = as_matrix(A)
        if not 0 < zeta < math.inf:
            raise InvalidParameterError("zeta must be positive and finite")
        m, n = A.shape
        self._A = A
        self._At = A.T
        self.zeta = zeta
        self._wide = m < n
        if self._wide:
            G = A @ A.T
            G[np.diag_indices(m)] += zeta
        else:
            G = A.T @ A
            G[np.diag_indices(n)] += zeta
        if not np.isfinite(G).all():
            raise NumericError("Gram matrix overflowed: the entries of A are too large")
        self._chol = SpdFactor(G).chol
        # The m x n operator H with zeta (A^T A + zeta I)^-1 v = v - A^T H v:
        # H = (A A^T + zeta I)^-1 A from the m x m factor of a wide A, and the
        # same matrix A (A^T A + zeta I)^-1 from the n x n factor otherwise.
        # One vector potrs per column (wide) or row, so that it makes no
        # multi-threaded BLAS-3 call, as one potrs with a matrix right-hand
        # side would.
        if self._wide:
            self._H = np.array([dpotrs(self._chol, a, lower=1)[0] for a in self._At]).T.copy()
        else:
            self._H = np.array([dpotrs(self._chol, a, lower=1)[0] for a in self._A])

    def solve(self, r: np.ndarray) -> np.ndarray:
        """(A^T A + zeta I)^-1 r."""
        if self._wide:
            # potrs overwrites the temporary A r with its solution
            x = self._At.dot(dpotrs(self._chol, self._A.dot(r), 1, 1)[0])
            np.subtract(r, x, x)
            if self.zeta != 1.0:  # dividing by 1.0 changes nothing
                x /= self.zeta
            return x
        return dpotrs(self._chol, r, lower=1)[0]

    def offset_solve(
        self, c: np.ndarray | None, d: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """c + zeta (A^T A + zeta I)^-1 d, as (c + d) - A^T (H d), and
        d - A^T (H d) when c is None; the x-update of both inner ADMM loops,
        unchecked like ``solve`` and written into ``out`` when given (a
        length-n float vector other than c and d)."""
        if c is None:
            t = self._At.dot(self._H.dot(d), out)
            return np.subtract(d, t, t)
        t = self._At.dot(self._H.dot(d))
        x = np.add(c, d, out)
        x -= t
        return x


def singular_extremes(A) -> tuple[float, float]:
    """Smallest and largest singular values of a dense matrix."""
    A = as_matrix(A)
    if not np.any(A):
        raise InvalidParameterError("matrix must be nonzero")
    sv = np.linalg.svd(A, compute_uv=False)
    return float(sv[-1]), float(sv[0])


def l2_ball_project(v, tau: float) -> np.ndarray:
    """Euclidean projection of v onto the ball of radius tau.

    tau = 0 returns the zero vector exactly.  The inner ADMM projects inline;
    perfbench/selftest.py calls this one to check its tracer.
    """
    v = as_vector(v)
    if tau < 0:
        raise InvalidParameterError("ball radius must be nonnegative")
    if tau == 0.0:
        return np.zeros_like(v)
    nrm = float(np.linalg.norm(v))
    if nrm <= tau:
        return v.copy()
    return v * (tau / nrm)
