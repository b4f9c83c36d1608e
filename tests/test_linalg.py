"""Tests for the dense linear-algebra kernels."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from springback.errors import InvalidParameterError, NumericError
from springback.linalg import (
    GramRidgeSolver,
    SpdFactor,
    as_matrix,
    as_vector,
    l2_ball_project,
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


def test_spd_rejects_indefinite():
    with pytest.raises(NumericError):
        SpdFactor(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("shape", [(3, 8), (8, 3), (5, 5)])
def test_gram_ridge_solver_matches_dense(shape):
    rng = np.random.default_rng(2)
    A = rng.standard_normal(shape)
    rho, zeta = 1e3, 0.5
    solver = GramRidgeSolver(A, rho, zeta)
    r = rng.standard_normal(shape[1])
    expected = np.linalg.solve(rho * A.T @ A + zeta * np.eye(shape[1]), r)
    np.testing.assert_allclose(solver.solve(r), expected, atol=1e-8)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    rho=st.floats(1e-3, 1e6),
    zeta=st.floats(1e-6, 1e2),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=3, n=8, rho=1e3, zeta=0.5, seed=2)  # wide
@example(m=8, n=3, rho=1e3, zeta=0.5, seed=2)  # tall
@example(m=5, n=5, rho=1e3, zeta=0.5, seed=2)  # square
def test_gram_ridge_solver_matches_dense_property(m, n, rho, zeta, seed):
    # wide A takes the m x m Woodbury form, square and tall A the n x n one;
    # both must agree with a dense solve to within the system's conditioning
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    r = rng.standard_normal(n)
    M = rho * A.T @ A + zeta * np.eye(n)
    expected = np.linalg.solve(M, r)
    err = np.linalg.norm(GramRidgeSolver(A, rho, zeta).solve(r) - expected)
    assert err <= 1e-13 * np.linalg.cond(M) * np.linalg.norm(expected)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    rho=st.floats(1e-3, 1e6),
    zeta=st.floats(1e-6, 1e2),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=3, n=8, rho=1.0, zeta=1e-5, seed=2)  # wide, the lasso's setting
@example(m=8, n=3, rho=1.0, zeta=1e-5, seed=2)  # tall
@example(m=5, n=5, rho=1.0, zeta=1e-5, seed=2)  # square
def test_gram_ridge_operator_matches_dense_property(m, n, rho, zeta, seed):
    # c + v - A^T (H v) = c + zeta (rho A^T A + zeta I)^-1 v for every shape.
    # The dense solve errs by up to cond(M) ||expected||, as in the property
    # above; the operator cancels v against A^T H v, so it errs by up to the
    # condition number of the matrix it factors (the smaller of the m x m and
    # n x n Gram systems) times ||v||, plus the rounding of c + v
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    c, v = rng.standard_normal(n), rng.standard_normal(n)
    M = rho * A.T @ A + zeta * np.eye(n)
    G = A @ A.T + (zeta / rho) * np.eye(m)
    expected = zeta * np.linalg.solve(M, v)
    got = GramRidgeSolver(A, rho, zeta).offset_solve(c, v)
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
    rho=st.floats(1e-3, 1e6),
    zeta=st.floats(1e-6, 1e2),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=3, n=8, rho=1e5, zeta=1.0, seed=2)  # wide, a large rho
@example(m=3, n=8, rho=1.0, zeta=1e-5, seed=2)  # wide, the lasso's setting
@example(m=8, n=3, rho=1e3, zeta=0.5, seed=2)  # tall
@example(m=5, n=5, rho=1e3, zeta=0.5, seed=2)  # square
def test_gram_ridge_buffered_forms_match_allocating_forms(m, n, rho, zeta, seed):
    # the inner loops pass a work vector as out: the result must be written
    # into it and returned, equal bit for bit to the allocating form, and the
    # inputs must come back unchanged; with c = None (springback's x-update)
    # it is d - A^T (H d)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    solver = GramRidgeSolver(A, rho, zeta)
    c, d = (rng.standard_normal(n) for _ in range(2))
    inputs = [v.copy() for v in (c, d)]
    out = np.full(n, np.nan)
    assert solver.offset_solve(c, d, out) is out
    assert np.array_equal(out, solver.offset_solve(c, d))
    out = np.full(n, np.nan)
    assert solver.offset_solve(None, d, out) is out
    assert np.array_equal(out, solver.offset_solve(None, d))
    assert np.array_equal(out, d - A.T @ (solver._H @ d))
    for v, kept in zip((c, d), inputs):
        assert np.array_equal(v, kept)


def test_gram_ridge_rejects_nonpositive_penalties():
    A = np.ones((2, 3))
    with pytest.raises(InvalidParameterError):
        GramRidgeSolver(A, 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        GramRidgeSolver(A, 1.0, -1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["rho", "zeta"])
def test_gram_ridge_rejects_non_finite_penalties(name, value):
    penalties = {"rho": 1.0, "zeta": 1.0, name: value}
    with pytest.raises(InvalidParameterError, match="finite"):
        GramRidgeSolver(np.ones((2, 3)), **penalties)


def test_gram_ridge_solver_validates_a_once():
    # a non-finite A is the caller's error; a Gram matrix that overflows from
    # finite A is a numeric failure (wide and tall forms alike)
    with pytest.raises(InvalidParameterError):
        GramRidgeSolver(np.array([[1.0, np.nan, 0.0]]), 1.0, 1.0)
    with np.errstate(over="ignore"):
        for shape in [(2, 3), (3, 2)]:
            with pytest.raises(NumericError):
                GramRidgeSolver(np.full(shape, 1e200), 1.0, 1.0)


def test_singular_extremes():
    A = np.diag([3.0, 1.0, 0.5])
    smin, smax = singular_extremes(A)
    assert smin == pytest.approx(0.5)
    assert smax == pytest.approx(3.0)
    with pytest.raises(InvalidParameterError):
        singular_extremes(np.zeros((2, 2)))


def test_l2_ball_project():
    v = np.array([3.0, 4.0])
    np.testing.assert_allclose(l2_ball_project(v, 10.0), v)
    np.testing.assert_allclose(l2_ball_project(v, 1.0), v / 5.0)
    np.testing.assert_array_equal(l2_ball_project(v, 0.0), np.zeros(2))
    with pytest.raises(InvalidParameterError):
        l2_ball_project(v, -1.0)


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
