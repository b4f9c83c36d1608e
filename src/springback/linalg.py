"""Minimal dense linear-algebra kernels used by the solvers and generators.

Matrices are plain 2-D ``numpy.ndarray`` in row-major order; vectors are 1-D
arrays.  Everything here is a pure function of its inputs (the factorization
caches never change once built), so concurrent use is safe.

scipy's LAPACK supplies the Cholesky factor and its triangular solves
(``potrs``).  The first factor a process builds loads them from scipy's
extension ``_flapack`` alone (``_lapack``), so no process imports the
``scipy.linalg`` package, about 0.25 s of modules no factor uses.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os

import numpy as np

from .errors import InvalidParameterError, NumericError, check_positive

__all__ = [
    "as_matrix",
    "as_vector",
    "SpdFactor",
    "GramRidgeSolver",
    "singular_extremes",
    "safe_norm",
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


@functools.cache
def _lapack():
    """(dpotrf, dpotrs) from ``scipy/linalg/_flapack``, loaded on its own:
    the routines ``scipy.linalg`` calls, without importing it.  ImportError
    if scipy no longer ships the extension there."""
    import scipy

    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = importlib.machinery.PathFinder.find_spec("_flapack", [where])
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack is not in {where}")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack.dpotrf, flapack.dpotrs


class SpdFactor:
    """Cached Cholesky factorization of a symmetric positive definite matrix.

    The factorization is computed once and reused for repeated right-hand
    sides, which is what the solvers need: the same normal matrix is solved
    against at every inner iteration.  ``chol`` is LAPACK's lower factor,
    from the very ``potrf`` call of ``scipy.linalg.cho_factor(M,
    lower=True)``; the ``potrs`` binding is kept on the factor.
    """

    def __init__(self, M):
        M = as_matrix(M)
        if M.shape[0] != M.shape[1]:
            raise InvalidParameterError("SPD solve requires a square matrix")
        potrf, self._potrs = _lapack()
        self.chol, info = potrf(M, lower=1, clean=0)
        if info > 0:
            raise NumericError(f"matrix is not positive definite at leading minor {info}")
        self.shape = M.shape

    def solve(self, r) -> np.ndarray:
        r = as_vector(r)
        if r.shape[0] != self.shape[0]:
            raise InvalidParameterError(
                f"right-hand side length {r.shape[0]} does not match "
                f"matrix order {self.shape[0]}"
            )
        return self._potrs(self.chol, r, lower=1)[0]


class GramRidgeSolver:
    """Reusable solver for systems (A^T A + zeta * I) x = r.

    For wide matrices (m < n) the matrix-inversion lemma keeps the cached
    factor at size m x m:

        (zeta I + A^T A)^-1 r = (r - A^T (zeta I + A A^T)^-1 A r) / zeta

    which is both faster and better conditioned than factoring the n x n
    normal matrix when n is large.  A is validated once, here; ``solve`` and
    ``offset_solve`` take their vectors unchecked (finite, of the lengths
    they name).  The inner ADMM loops read ``zeta``: the lasso's splitting
    penalty, and the factor of A x in springback's at tau = 0.

    Two operators give the x-update of every inner ADMM loop through
    ``offset_solve``: the m x n ``H`` = (A A^T + zeta I)^-1 A, with
    zeta (A^T A + zeta I)^-1 v = v - A^T H v, and the m x (n + m) ``F`` =
    [H, -M], M = (A A^T + zeta I)^-1, with (A^T A + zeta I)^-1 (A^T w +
    zeta v) = v - A^T F [v; w].
    """

    def __init__(self, A, zeta: float):
        A = as_matrix(A)
        check_positive("zeta", zeta)
        m, n = A.shape
        self._A = A
        self._At = A.T
        self.zeta = zeta
        self._wide = m < n
        G = A @ A.T if self._wide else A.T @ A
        G[np.diag_indices_from(G)] += zeta
        if not np.isfinite(G).all():
            raise NumericError("Gram matrix overflowed: the entries of A are too large")
        factor = SpdFactor(G)
        self._chol, self._potrs = factor.chol, factor._potrs
        # A wide A solves its m x m factor against each column of [A, -I];
        # a tall one has H = A (A^T A + zeta I)^-1 from its n x n factor, a
        # row of A at a time, and M = (I - H A^T) / zeta.  On a wide A the
        # vector potrs calls make no multi-threaded BLAS-3 call, as one potrs
        # with a matrix right-hand side would.
        if self._wide:
            cols = np.vstack([self._At, -np.eye(m)])
            self.F = np.array([self._potrs(self._chol, c, lower=1)[0] for c in cols]).T.copy()
            self.H = self.F[:, :n].copy()
        else:
            self.H = np.array([self._potrs(self._chol, a, lower=1)[0] for a in A])
            M = np.eye(m) - self.H @ self._At
            M /= zeta
            self.F = np.hstack([self.H, -M])

    def solve(self, r: np.ndarray) -> np.ndarray:
        """(A^T A + zeta I)^-1 r."""
        if self._wide:
            # potrs overwrites the temporary A r with its solution
            x = self._At.dot(self._potrs(self._chol, self._A.dot(r), 1, 1)[0])
            np.subtract(r, x, x)
            x /= self.zeta
            return x
        return self._potrs(self._chol, r, lower=1)[0]

    def offset_solve(self, op: np.ndarray, c: np.ndarray, out: np.ndarray, rows) -> np.ndarray:
        """``out`` = c - ``out`` after, for each (d, q, t) in ``rows``,
        q = op d and t = A^T q: the x-update of every inner ADMM loop, with
        ``op`` the solver's H (d of length n) or F (d = [v; w] of length
        n + m).  Unchecked like ``solve``; the views in ``rows``, made once
        by the caller, are the loop's own float arrays, other than c and d.

        A lone vector is a ``rows`` of one whose t is ``out`` itself.  On a
        stack of lasso rows c and ``out`` are 2-D with one problem per row,
        and each listed row's t is its row of ``out``: it gets the very calls
        of a lone vector, so that it rounds as it would alone, and the
        subtraction covers every row at once, a row not listed getting c
        minus the ``out`` row it held."""
        At = self._At
        for d, q, t in rows:
            At.dot(op.dot(d, q), t)
        return np.subtract(c, out, out)


def singular_extremes(A) -> tuple[float, float]:
    """Smallest and largest singular values of a dense matrix."""
    A = as_matrix(A)
    if not np.any(A):
        raise InvalidParameterError("matrix must be nonzero")
    sv = np.linalg.svd(A, compute_uv=False)
    return float(sv[-1]), float(sv[0])


def safe_norm(v: np.ndarray) -> float:
    """||v||_2 of a finite vector, rescaled by max |v_i| when ||v||^2
    overflows, as ||v|| itself need not."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm == math.inf:
        scale = float(np.abs(v).max())
        norm = scale * float(np.linalg.norm(v / scale))
    return norm


def l2_ball_project(v, tau: float) -> np.ndarray:
    """Euclidean projection of v onto the ball of radius tau.

    tau = 0 returns the zero vector exactly.  The inner ADMM projects inline;
    perfbench/selftest.py calls this one to check its tracer.
    """
    v = as_vector(v)
    check_positive("ball radius", tau, zero_ok=True)
    if tau == 0.0:
        return np.zeros_like(v)
    nrm = float(np.linalg.norm(v))
    if nrm <= tau:
        return v.copy()
    return v * (tau / nrm)
