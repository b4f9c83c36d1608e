"""Tests for the dense linear-algebra kernels."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import springback
from springback import linalg
from springback.errors import InvalidParameterError, NumericError
from springback.linalg import (
    GramRidgeSolver,
    SpdFactor,
    as_matrix,
    as_vector,
    l2_ball_project,
    safe_norm,
    singular_extremes,
)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        as_matrix(np.zeros(3))
    with pytest.raises(InvalidParameterError):
        as_matrix([[1.0, np.nan], [0.0, 1.0]])
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == float and m.shape == (2, 2)


def test_as_vector_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(InvalidParameterError):
        as_vector([np.inf, 0.0])


def test_spd_solve_matches_numpy():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((5, 5))
    M = B @ B.T + 5 * np.eye(5)
    r = rng.standard_normal(5)
    np.testing.assert_allclose(SpdFactor(M).solve(r), np.linalg.solve(M, r), atol=1e-10)


def test_spd_factor_reusable_and_validates():
    rng = np.random.default_rng(1)
    B = rng.standard_normal((4, 4))
    M = B @ B.T + np.eye(4)
    f = SpdFactor(M)
    for _ in range(3):
        r = rng.standard_normal(4)
        np.testing.assert_allclose(M @ f.solve(r), r, atol=1e-10)
    with pytest.raises(InvalidParameterError):
        f.solve(np.zeros(3))
    with pytest.raises(InvalidParameterError, match="square"):
        SpdFactor(np.ones((2, 3)))


@pytest.mark.parametrize("M", [np.diag([1.0, -1.0]), np.zeros((3, 3)), np.ones((4, 4))])
def test_spd_rejects_indefinite(M):
    with pytest.raises(NumericError, match="matrix is not positive definite"):
        SpdFactor(M)


def _spd_and_rhs(order):
    rng = np.random.default_rng(order)
    B = rng.standard_normal((order, order))
    return B @ B.T + order * np.eye(order), rng.standard_normal(order)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# linalg._lapack loads scipy's _flapack on its own; its routines must be the
# ones scipy.linalg calls, to the bit.  A scipy that moves _flapack fails here.
@pytest.mark.parametrize("reload", [False, True])
@pytest.mark.parametrize("order", [50, 64, 100])
def test_lapack_is_scipy_linalgs_to_the_bit(order, reload):
    from scipy.linalg import cho_factor
    from scipy.linalg.lapack import dpotrs

    if reload:  # a fresh load beside an imported scipy.linalg
        linalg._lapack.cache_clear()
    potrf, potrs = linalg._lapack()
    M, r = _spd_and_rhs(order)
    chol, info = potrf(M, lower=1, clean=0)
    assert info == 0
    assert _same_bytes(chol, cho_factor(M, lower=True, check_finite=False)[0])
    assert _same_bytes(potrs(chol, r, lower=1)[0], dpotrs(chol, r, lower=1)[0])
    factor = SpdFactor(M)
    assert _same_bytes(factor.chol, chol) and factor._potrs is potrs
    assert _same_bytes(factor.solve(r), dpotrs(chol, r, lower=1)[0])


# A fresh interpreter factors with linalg._lapack before scipy.linalg is
# loaded, then imports scipy.linalg and compares.
_FRESH_FACTOR = """\
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from springback.linalg import SpdFactor
out = []
for order in (50, 64, 100):
    rng = np.random.default_rng(order)
    B = rng.standard_normal((order, order))
    M, r = B @ B.T + order * np.eye(order), rng.standard_normal(order)
    f = SpdFactor(M)
    out.append((M, r, f.chol.tobytes(), f.solve(r).tobytes()))
print("scipy.linalg" in sys.modules)
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs
for M, r, chol, x in out:
    c = cho_factor(M, lower=True, check_finite=False)[0]
    print(c.tobytes() == chol and dpotrs(c, r, lower=1)[0].tobytes() == x)
"""


def test_lapack_before_scipy_linalg_is_loaded():
    src = str(Path(springback.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _FRESH_FACTOR, src], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "True", "True", "True"]


@pytest.mark.parametrize("shape", [(3, 8), (8, 3), (5, 5)])
def test_gram_ridge_solver_matches_dense(shape):
    rng = np.random.default_rng(2)
    A = rng.standard_normal(shape)
    zeta = 0.5
    solver = GramRidgeSolver(A, zeta)
    r = rng.standard_normal(shape[1])
    expected = np.linalg.solve(A.T @ A + zeta * np.eye(shape[1]), r)
    np.testing.assert_allclose(solver.solve(r), expected, atol=1e-8)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    zeta=st.floats(1e-6, 1e2),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=3, n=8, zeta=0.5, seed=2)  # wide
@example(m=8, n=3, zeta=0.5, seed=2)  # tall
@example(m=5, n=5, zeta=0.5, seed=2)  # square
def test_gram_ridge_solver_matches_dense_property(m, n, zeta, seed):
    # wide A takes the m x m Woodbury form, square and tall A the n x n one;
    # both must agree with a dense solve to within the system's conditioning
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    r = rng.standard_normal(n)
    M = A.T @ A + zeta * np.eye(n)
    expected = np.linalg.solve(M, r)
    err = np.linalg.norm(GramRidgeSolver(A, zeta).solve(r) - expected)
    assert err <= 1e-13 * np.linalg.cond(M) * np.linalg.norm(expected)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    zeta=st.floats(1e-6, 1e2),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=3, n=8, zeta=1e-5, seed=2)  # wide, the solvers' setting
@example(m=8, n=3, zeta=1e-5, seed=2)  # tall
@example(m=5, n=5, zeta=1e-5, seed=2)  # square
def test_gram_ridge_operator_matches_dense_property(m, n, zeta, seed):
    # (c + v) - A^T (H v) = c + zeta (A^T A + zeta I)^-1 v for every shape.
    # The dense solve errs by up to cond(M) ||expected||, as in the property
    # above; the operator cancels v against A^T H v, so it errs by up to the
    # condition number of the matrix it factors (the smaller of the m x m and
    # n x n Gram systems) times ||v||, plus the rounding of c + v
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    c, v = rng.standard_normal(n), rng.standard_normal(n)
    M = A.T @ A + zeta * np.eye(n)
    G = A @ A.T + zeta * np.eye(m)
    expected = zeta * np.linalg.solve(M, v)
    solver = GramRidgeSolver(A, zeta)
    got = _lone(solver, solver.H, c + v, v, np.empty(m), np.empty(n))
    err = np.linalg.norm(got - c - expected)
    factored = min(np.linalg.cond(M), np.linalg.cond(G))
    bound = (
        np.linalg.cond(M) * np.linalg.norm(expected)
        + factored * np.linalg.norm(v)
        + np.linalg.norm(c)
    )
    assert err <= 1e-13 * bound


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    zeta=st.floats(1e-6, 1e2),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=3, n=8, zeta=1e-5, seed=2)  # wide, the solvers' setting
@example(m=8, n=3, zeta=0.5, seed=2)  # tall
@example(m=5, n=5, zeta=0.5, seed=2)  # square
def test_gram_ridge_buffered_forms_match_allocating_forms(m, n, zeta, seed):
    # the inner loops pass work vectors as q and out: the results must be
    # written into them, out returned, equal bit for bit to a call on fresh
    # buffers, and the inputs must come back unchanged; H takes d of length
    # n, the fused operator F = [H, -M] takes d = [v; w] of length n + m, and
    # with c = d (springback's x-update at tau > 0) it is d - A^T (H d)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    solver = GramRidgeSolver(A, zeta)
    c, d = (rng.standard_normal(n) for _ in range(2))
    vw = rng.standard_normal(n + m)
    inputs = [v.copy() for v in (c, d, vw)]
    for vec, op in ((d, solver.H), (vw, solver.F)):
        q, out = np.full(m, np.nan), np.full(n, np.nan)
        assert _lone(solver, op, c, vec, q, out) is out
        assert np.array_equal(out, _lone(solver, op, c, vec, np.empty(m), np.empty(n)))
        assert np.array_equal(q, op @ vec)
        assert np.array_equal(out, c - A.T @ q)
    out = np.full(n, np.nan)
    assert _lone(solver, solver.H, d, d, np.empty(m), out) is out
    assert np.array_equal(out, d - A.T @ (solver.H @ d))
    for v, kept in zip((c, d, vw), inputs):
        assert np.array_equal(v, kept)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(m=st.integers(1, 12), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(m=20, n=50, seed=2)  # wide, the solvers' shape class
@example(m=50, n=20, seed=2)  # tall
def test_gram_ridge_stacked_rows_are_lone_vectors(m, n, seed):
    # a stack of three rows with rows 0 and 2 listed, through H (the lasso's,
    # d of width n) and through F (d of width n + m): each listed row is bit
    # for bit the x-update of its lone vectors, q included, and row 1 takes
    # c - out from the out row it held; the result is out itself
    rng = np.random.default_rng(seed)
    solver = GramRidgeSolver(rng.standard_normal((m, n)), 1e-5)
    for op in (solver.H, solver.F):
        c, d = rng.standard_normal((3, n)), rng.standard_normal((3, op.shape[1]))
        q, out = np.full((3, m), np.nan), rng.standard_normal((3, n))
        held = out[1].copy()
        rows = [(d[r], q[r], out[r]) for r in (0, 2)]
        assert solver.offset_solve(op, c, out, rows) is out
        for r in (0, 2):
            q_r = np.empty(m)
            assert out[r].tobytes() == _lone(solver, op, c[r], d[r], q_r, np.empty(n)).tobytes()
            assert q[r].tobytes() == q_r.tobytes()
        assert out[1].tobytes() == (c[1] - held).tobytes()
        assert np.isnan(q[1]).all()


# The fused operator F = [H, -M] of the m-space x-update, on wide, square and
# tall A at the solvers' zeta = 1e-5: M = (A A^T + zeta I)^-1 (from the m x m
# factor of a wide A, as (I - H A^T) / zeta from the n x n one otherwise),
# and q = H v - M w gives the x-update (A^T A + zeta I)^-1 (A^T w + zeta v)
# as v - A^T q and its A x as w + zeta q.  On a tall A, M carries the
# eigenvalue 1 / zeta on the complement of range(A), so q is about 1e5 times
# larger there and w + zeta q cancels it.  The largest errors over the 20
# seeds are 1.3e-11 (M, square and tall), 9.8e-11 (x, square, mostly the
# dense solve's: A^T A + zeta I has condition ~1e5 and more) and 2.0e-13
# (A x, square); the tolerances hold 10x margin or more.
@pytest.mark.parametrize("shape", [(20, 50), (30, 30), (50, 20)])
def test_gram_ridge_fused_operator_matches_dense(shape):
    m, n = shape
    zeta = 1e-5
    for seed in range(20):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal(shape) / np.sqrt(m)
        v, w = rng.standard_normal(n), rng.standard_normal(m)
        solver = GramRidgeSolver(A, zeta)
        G = A @ A.T + zeta * np.eye(m)
        assert _rel(-solver.F[:, n:], np.linalg.inv(G)) <= 2e-10
        q = np.empty(m)
        x = _lone(solver, solver.F, v, np.concatenate([v, w]), q, np.empty(n))
        x_ref = np.linalg.solve(A.T @ A + zeta * np.eye(n), A.T @ w + zeta * v)
        assert _rel(x, x_ref) <= 1e-9
        assert _rel(w + zeta * q, A @ x_ref) <= 2e-12


def _lone(solver, op, c, d, q, out):
    """The x-update of one vector: a rows of one whose t is out itself."""
    return solver.offset_solve(op, c, out, ((d, q, out),))


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_gram_ridge_rejects_nonpositive_penalties():
    A = np.ones((2, 3))
    with pytest.raises(InvalidParameterError):
        GramRidgeSolver(A, 0.0)
    with pytest.raises(InvalidParameterError):
        GramRidgeSolver(A, -1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_gram_ridge_rejects_non_finite_penalties(value):
    with pytest.raises(InvalidParameterError, match="finite"):
        GramRidgeSolver(np.ones((2, 3)), value)


def test_gram_ridge_solver_validates_a_once():
    # a non-finite A is the caller's error; a Gram matrix that overflows from
    # finite A is a numeric failure (wide and tall forms alike)
    with pytest.raises(InvalidParameterError):
        GramRidgeSolver(np.array([[1.0, np.nan, 0.0]]), 1.0)
    with np.errstate(over="ignore"):
        for shape in [(2, 3), (3, 2)]:
            with pytest.raises(NumericError):
                GramRidgeSolver(np.full(shape, 1e200), 1.0)


def test_singular_extremes():
    A = np.diag([3.0, 1.0, 0.5])
    smin, smax = singular_extremes(A)
    assert smin == pytest.approx(0.5)
    assert smax == pytest.approx(3.0)
    with pytest.raises(InvalidParameterError):
        singular_extremes(np.zeros((2, 2)))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(v=arrays(float, st.integers(1, 8), elements=st.floats(-1e150, 1e150)))
def test_safe_norm_is_numpy_norm_unless_the_square_overflows(v):
    assert safe_norm(v) == float(np.linalg.norm(v))


def test_safe_norm_rescales_an_overflowing_square():
    v = np.array([1e160, -1e160, 0.0])
    with np.errstate(over="ignore"):
        assert float(np.linalg.norm(v)) == np.inf
    assert safe_norm(v) == 1e160 * float(np.linalg.norm([1.0, -1.0, 0.0]))


def test_l2_ball_project():
    v = np.array([3.0, 4.0])
    np.testing.assert_allclose(l2_ball_project(v, 10.0), v)
    np.testing.assert_allclose(l2_ball_project(v, 1.0), v / 5.0)
    np.testing.assert_array_equal(l2_ball_project(v, 0.0), np.zeros(2))
    for radius in (-1.0, np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match="ball radius"):
            l2_ball_project(v, radius)


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_radius = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _vector_pair(draw):
    n = draw(st.integers(1, 8))
    return draw(arrays(float, n, elements=_finite)), draw(arrays(float, n, elements=_finite))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pair=_vector_pair(), tau=_radius)
def test_l2_ball_project_properties(pair, tau):
    u, v = pair
    pu, pv = l2_ball_project(u, tau), l2_ball_project(v, tau)
    # lies in the ball
    assert np.linalg.norm(pu) <= tau * (1.0 + 1e-12)
    # idempotent: a projected point projects to itself
    np.testing.assert_allclose(l2_ball_project(pu, tau), pu, rtol=1e-12, atol=0.0)
    # nonexpansive
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) * (1.0 + 1e-12) + 1e-12
