"""Tests for the DCA-springback solver and the baseline solvers."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import springback.solvers as solvers_mod
from springback.bounds import convergence_alpha_bound
from springback.errors import InvalidParameterError, NumericError
from springback.linalg import GramRidgeSolver
from springback.penalties import PenaltyKind, ThresholdParams, dc_concave_gradient
from springback.sensing import EnsembleKind, EnsembleSpec, SignalSpec, gen_matrix, gen_signal
from springback.solvers import (
    ProblemInstance,
    SolverOptions,
    SolverStatus,
    admm_l1,
    admm_subproblem,
    aiht,
    alpha_subroutine,
    dca_springback,
    dca_unconstrained,
    fresh_admm_state,
    ALPHA_MAX,
    hard_threshold,
    irls_lp,
)


def _gaussian_instance(m, n, s, seed):
    A = gen_matrix(EnsembleSpec(EnsembleKind.GAUSSIAN, m=m, n=n, seed=seed))
    x = gen_signal(SignalSpec(n=n, sparsity=s, seed=seed + 1000))
    return ProblemInstance(A, A @ x, 0.0, x), x


def test_problem_instance_validation():
    with pytest.raises(InvalidParameterError):
        ProblemInstance(np.ones((2, 3)), np.ones(3))
    with pytest.raises(InvalidParameterError):
        ProblemInstance(np.ones((2, 3)), np.ones(2), tau=-1.0)
    with pytest.raises(InvalidParameterError):
        ProblemInstance(np.ones((2, 3)), np.ones(2), ground_truth=np.ones(2))


@pytest.mark.parametrize("tau", [np.inf, np.nan])
def test_problem_instance_rejects_non_finite_tau(tau):
    with pytest.raises(InvalidParameterError, match="tau"):
        ProblemInstance(np.ones((2, 3)), np.ones(2), tau=tau)


def test_solver_options_validation():
    with pytest.raises(InvalidParameterError):
        SolverOptions(alpha=0.0)
    with pytest.raises(InvalidParameterError):
        SolverOptions(max_inner=0)
    with pytest.raises(InvalidParameterError):
        SolverOptions(eps_outer=-1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["alpha", "eps_outer", "eps_inner"])
def test_solver_options_reject_non_finite(name, value):
    with pytest.raises(InvalidParameterError, match=name):
        SolverOptions(**{name: value})


def test_dca_springback_identity_constraint_pins_solution():
    b = np.array([1.0, -2.0, 0.5])
    prob = ProblemInstance(np.eye(3), b, 0.0)
    rep = dca_springback(prob, SolverOptions(alpha=0.1))
    np.testing.assert_allclose(rep.x_star, b, atol=1e-4)
    assert rep.residual < 1e-4


def test_dca_springback_recovers_sparse_signal():
    successes = 0
    for seed in range(5):
        prob, x = _gaussian_instance(64, 250, 10, seed)
        alpha = alpha_subroutine(prob.A, prob.b, 0.0)
        rep = dca_springback(prob, SolverOptions(alpha=alpha))
        rel = np.linalg.norm(rep.x_star - x) / np.linalg.norm(x)
        successes += rel < 1e-3
    assert successes >= 4


def test_dca_springback_report_flags():
    prob, _ = _gaussian_instance(64, 250, 10, 0)
    alpha = alpha_subroutine(prob.A, prob.b, 0.0)
    rep = dca_springback(prob, SolverOptions(alpha=alpha))
    assert alpha <= convergence_alpha_bound(prob.A, prob.b, 0.0)
    assert rep.status in (SolverStatus.CONVERGED, SolverStatus.MAX_ITER)
    assert len(rep.objective_trace) == rep.outer_iterations


def test_dca_springback_descent_with_tight_inner_tolerance():
    prob, _ = _gaussian_instance(64, 250, 10, 7)
    alpha = alpha_subroutine(prob.A, prob.b, 0.0)
    opts = SolverOptions(alpha=alpha, eps_inner=1e-9, max_inner=2000)
    rep = dca_springback(prob, opts)
    trace = rep.objective_trace
    assert all(f >= -1e-8 for f in trace)
    assert all(a - b >= -1e-6 for a, b in zip(trace, trace[1:]))


def test_admm_subproblem_identity_feasible_singleton():
    b = np.array([0.3, -1.1])
    prob = ProblemInstance(np.eye(2), b, 0.0)
    x = admm_subproblem(prob, np.zeros(2), SolverOptions())
    np.testing.assert_allclose(x, b, atol=1e-4)


def test_admm_subproblem_matches_bp_linear_program():
    # with xi = 0 and tau = 0 the subproblem is basis pursuit, an LP
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 4))
    xbar = np.zeros(4)
    xbar[1] = 1.3
    b = A @ xbar
    prob = ProblemInstance(A, b, 0.0)
    x = admm_subproblem(prob, np.zeros(4), SolverOptions(eps_inner=1e-9, max_inner=5000))
    # split x = u - v, u,v >= 0; min sum(u+v) s.t. A(u-v) = b
    res = scipy.optimize.linprog(
        np.ones(8),
        A_eq=np.hstack([A, -A]),
        b_eq=b,
        bounds=[(0, None)] * 8,
        method="highs",
    )
    assert res.success
    assert np.abs(x).sum() == pytest.approx(res.fun, abs=1e-3)


def test_admm_subproblem_warm_start_fixed_point():
    prob, _ = _gaussian_instance(16, 40, 3, 2)
    opts = SolverOptions()
    state = fresh_admm_state(prob)
    x1 = admm_subproblem(prob, np.zeros(40), opts, warm=state)
    before = state.iterations
    x2 = admm_subproblem(prob, np.zeros(40), opts, warm=state)
    assert state.iterations - before <= 1
    np.testing.assert_allclose(x1, x2, atol=1e-4)


def _lasso(A, b, lam, zeta, eps=1e-5):
    """admm_l1's solve with its own lam and zeta: the sparse iterate y."""
    st = solvers_mod._lasso_state(A.shape[1], zeta)
    solvers_mod._lasso_admm(A, b, lam, None, st, eps, solvers_mod.ADMM_MAX)
    return st.y


def test_admm_l1_orthonormal_design_is_soft_thresholding():
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 4)))
    b = rng.standard_normal(8)
    lam = 0.3
    atb = Q.T @ b
    expected = np.sign(atb) * np.maximum(np.abs(atb) - lam, 0.0)
    np.testing.assert_allclose(_lasso(Q, b, lam, 1.0, eps=1e-10), expected, atol=1e-6)


def test_admm_l1_small_lambda_square_system():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    b = rng.standard_normal(4)
    np.testing.assert_allclose(_lasso(A, b, 1e-10, 1e-6), np.linalg.solve(A, b), atol=1e-4)


def test_admm_l1_large_lambda_zero_solution():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((6, 3))
    b = rng.standard_normal(6)
    lam = 2.0 * np.abs(A.T @ b).max()
    np.testing.assert_allclose(_lasso(A, b, lam, 1.0), np.zeros(3), atol=1e-8)


def test_admm_l1_objective_decreases():
    prob, _ = _gaussian_instance(20, 60, 4, 8)
    rep = admm_l1(prob, SolverOptions())
    assert rep.objective_trace[-1] <= rep.objective_trace[0] + 1e-12


def test_dca_unconstrained_zero_data():
    prob = ProblemInstance(np.ones((2, 4)), np.zeros(2))
    for kind in (PenaltyKind.TL1, PenaltyKind.MCP, PenaltyKind.L1_MINUS_2):
        rep = dca_unconstrained(kind, prob, SolverOptions())
        np.testing.assert_allclose(rep.x_star, np.zeros(4), atol=1e-10)
    with pytest.raises(InvalidParameterError):
        dca_unconstrained(PenaltyKind.L1, prob, SolverOptions())


def test_dca_unconstrained_matches_support_oracle():
    # best objective over all small supports, least squares per support
    rng = np.random.default_rng(9)
    A = rng.standard_normal((2, 4))
    xbar = np.zeros(4)
    xbar[2] = -0.8
    b = A @ xbar
    prob = ProblemInstance(A, b)
    opts = SolverOptions(alpha=0.5, eps_inner=1e-9, max_inner=3000)
    from itertools import combinations

    from springback.penalties import ThresholdParams, penalty_value

    lam = solvers_mod.LAMBDA
    params = ThresholdParams(mu=1.0 / opts.alpha)

    def objective(x):
        r = A @ x - b
        return 0.5 * r @ r + lam * penalty_value(PenaltyKind.MCP, x, params)

    best = objective(np.zeros(4))
    for k in (1, 2):
        for sup in combinations(range(4), k):
            xs = np.zeros(4)
            sol, *_ = np.linalg.lstsq(A[:, sup], b, rcond=None)
            xs[list(sup)] = sol
            best = min(best, objective(xs))
    rep = dca_unconstrained(PenaltyKind.MCP, prob, opts)
    assert objective(rep.x_star) <= best + 1e-3


def test_irls_zero_data():
    rep = irls_lp(ProblemInstance(np.ones((2, 4)), np.zeros(2)), SolverOptions())
    np.testing.assert_allclose(rep.x_star, np.zeros(4), atol=1e-8)


def test_irls_recovers_sparse_signal():
    prob, x = _gaussian_instance(64, 250, 10, 11)
    rep = irls_lp(prob, SolverOptions())
    assert np.linalg.norm(rep.x_star - x) / np.linalg.norm(x) < 1e-3


def test_hard_threshold_contract():
    v = np.array([3.0, -1.0, 0.0, 2.0, -2.0])
    out = hard_threshold(v, 2)
    np.testing.assert_array_equal(out, [3.0, 0.0, 0.0, 2.0, 0.0])
    # ties break toward the lower index
    t = hard_threshold(np.array([1.0, 2.0, 2.0]), 1)
    np.testing.assert_array_equal(t, [0.0, 2.0, 0.0])
    # never counts exact zeros
    assert np.count_nonzero(hard_threshold(np.array([0.0, 1.0, 0.0]), 3)) == 1
    with pytest.raises(InvalidParameterError):
        hard_threshold(v, -1)


# small integers make ties and exact zeros common
_entries = st.one_of(
    st.integers(-3, 3).map(float), st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(v=arrays(float, st.integers(1, 12), elements=_entries), s=st.integers(0, 14))
def test_hard_threshold_properties(v, s):
    out = hard_threshold(v, s)
    kept = out != 0.0
    assert kept.sum() == min(s, np.count_nonzero(v))
    np.testing.assert_array_equal(out[kept], v[kept])
    if kept.any() and not kept.all():
        assert np.abs(v[kept]).min() >= np.abs(v[~kept]).max()


def test_aiht_identity_one_step():
    x = np.array([0.0, 2.0, 0.0, -1.0])
    prob = ProblemInstance(np.eye(4), x.copy(), 0.0, x)
    rep = aiht(prob, SolverOptions(sparsity_estimate=2))
    np.testing.assert_allclose(rep.x_star, x, atol=1e-10)
    assert rep.status is SolverStatus.CONVERGED


def test_aiht_recovers_sparse_signal():
    prob, x = _gaussian_instance(64, 250, 8, 12)
    rep = aiht(prob, SolverOptions(sparsity_estimate=8))
    assert np.linalg.norm(rep.x_star - x) / np.linalg.norm(x) < 1e-3


def test_aiht_cap_does_not_follow_max_inner():
    prob, _ = _gaussian_instance(64, 250, 8, 12)
    opts = SolverOptions(sparsity_estimate=8)
    rep = aiht(prob, opts)
    assert rep.outer_iterations > 1
    capped = aiht(prob, replace(opts, max_inner=1))
    assert capped.outer_iterations == rep.outer_iterations
    assert capped.status is rep.status
    assert np.array_equal(capped.x_star, rep.x_star)
    assert capped.objective_trace == rep.objective_trace


def test_alpha_subroutine_branches():
    # well-conditioned, sigma-based value above the safeguard -> ALPHA_MAX
    A = np.eye(3)
    assert alpha_subroutine(A, np.array([0.5, 0.0, 0.0]), 0.0) == ALPHA_MAX == 0.7
    # well-conditioned, safeguard inactive -> sigma-based value
    b = np.zeros(3)
    b[0] = 20.0 / 3.0
    assert alpha_subroutine(A, b, 0.0) == pytest.approx(0.3)
    # ill-conditioned -> floored at omega
    A2 = np.diag([100.0, 1.0])
    b2 = np.array([0.0, 200.0])
    assert alpha_subroutine(A2, b2, 0.0, omega=0.5) == pytest.approx(0.5)
    # zero observation -> ALPHA_MAX; a negative noise radius is rejected
    assert alpha_subroutine(A, np.zeros(3), 0.0) == ALPHA_MAX
    with pytest.raises(InvalidParameterError):
        alpha_subroutine(A, b, -1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["tau", "omega"])
def test_alpha_subroutine_rejects_non_finite(name, value):
    # a coherent A and a Gaussian one: each takes a different branch
    A_gauss = gen_matrix(EnsembleSpec(EnsembleKind.GAUSSIAN, m=8, n=20, seed=0))
    for A in (np.diag([100.0, 1.0]), A_gauss):
        b = np.ones(A.shape[0])
        kwargs = {"tau": 0.0, "omega": 0.5, name: value}
        with pytest.raises(InvalidParameterError, match=name):
            alpha_subroutine(A, b, **kwargs)


def test_alpha_subroutine_zero_observation_skips_svd(monkeypatch):
    def no_svd(A):
        raise AssertionError("zero observation must not compute an SVD")

    monkeypatch.setattr(solvers_mod, "singular_extremes", no_svd)
    assert alpha_subroutine(np.eye(3), np.zeros(3), 0.0) == ALPHA_MAX


def test_feasibility_at_exit_constrained():
    for seed in range(3):
        prob, _ = _gaussian_instance(32, 100, 5, seed + 20)
        alpha = alpha_subroutine(prob.A, prob.b, prob.tau)
        rep = dca_springback(prob, SolverOptions(alpha=alpha))
        assert rep.residual <= prob.tau + 1e-4 * (1 + np.linalg.norm(prob.b))


# Reference copies of the two inner ADMM loops as they were before they ran
# on local arrays, with the x-update through scipy's cho_solve.  The kernels
# must reproduce them bit for bit, warm state included.


def _ref_ridge_solve(A, rho, zeta):
    m, n = A.shape
    if m < n:
        G = A @ A.T
        G[np.diag_indices(m)] += zeta / rho
        c = scipy.linalg.cho_factor(G, lower=True, check_finite=False)
        return lambda r: (r - A.T @ scipy.linalg.cho_solve(c, A @ r, check_finite=False)) / zeta
    M = rho * (A.T @ A)
    M[np.diag_indices(n)] += zeta
    c = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    return lambda r: scipy.linalg.cho_solve(c, r, check_finite=False)


def _ref_shrink(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _ref_rel_change(new, old):
    denom = max(float(np.linalg.norm(new)), float(np.linalg.norm(old)), 1e-300)
    return float(np.linalg.norm(new - old)) / denom


def _ref_springback_admm(A, b, tau, xi, st, eps, max_inner):
    rho, zeta = solvers_mod.RHO, solvers_mod.ZETA_INNER
    for _ in range(max_inner):
        x_old = st.x
        rhs = rho * (A.T @ (b + st.z - st.eta)) + xi + zeta * (st.y - st.u)
        x = st.solve(rhs)
        y = _ref_shrink(x + st.u, 1.0 / zeta)
        Ax = A @ x
        if tau == 0.0:
            z = np.zeros_like(b)
        else:
            v = Ax - b + st.eta
            nrm = float(np.linalg.norm(v))
            z = v.copy() if nrm <= tau else v * (tau / nrm)
        st.u = st.u + x - y
        st.eta = st.eta + Ax - b - z
        st.x, st.y, st.z = x, y, z
        st.iterations += 1
        xnorm = float(np.linalg.norm(x))
        if (
            _ref_rel_change(x, x_old) < eps
            and float(np.linalg.norm(x - y)) <= eps * max(1.0, xnorm)
            and float(np.linalg.norm(Ax - b)) <= tau + solvers_mod.FEAS_TOL_INNER
        ):
            break
    return st.x.copy()


def _ref_lasso_admm(A, b, lam, linear, st, eps, max_iter, trace):
    zeta = st.zeta
    x, y, u = st.x, st.y, st.u
    rhs_const = A.T @ b if linear is None else A.T @ b + linear
    for _ in range(max_iter):
        x_old = x
        x = st.solve(rhs_const + zeta * (y - u))
        y = _ref_shrink(x + u, lam / zeta)
        u = u + x - y
        st.x, st.y, st.u = x, y, u
        st.iterations += 1
        r = A @ y - b
        trace.append(0.5 * float(r @ r) + lam * float(np.abs(y).sum()))
        if _ref_rel_change(x, x_old) < eps and float(np.linalg.norm(x - y)) <= eps * max(
            1.0, float(np.linalg.norm(x))
        ):
            return True
    return False


def _oracle_instance(shape, noisy):
    m, n = shape
    rng = np.random.default_rng(m * 100 + n)
    A = rng.standard_normal(shape) / np.sqrt(m)
    x = np.zeros(n)
    x[rng.choice(n, size=min(m, n) // 4, replace=False)] = rng.standard_normal(min(m, n) // 4)
    b = A @ x
    tau = 0.0
    if noisy:
        noise = 1e-4 * rng.standard_normal(m)  # small enough that the ball binds
        b, tau = b + noise, float(np.linalg.norm(noise))
    return ProblemInstance(A, b, tau)


_ORACLE_SHAPES = [(20, 50), (30, 30), (50, 20)]


def _assert_states_equal(state, ref, names):
    for name in names:
        assert np.array_equal(getattr(state, name), getattr(ref, name)), name
    assert state.iterations == ref.iterations


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("shape", _ORACLE_SHAPES)
def test_admm_subproblem_is_bit_identical_to_reference_loop(shape, noisy):
    prob = _oracle_instance(shape, noisy)
    n = shape[1]
    opts = SolverOptions(max_inner=200)
    state = fresh_admm_state(prob)
    solve = _ref_ridge_solve(prob.A, solvers_mod.RHO, solvers_mod.ZETA_INNER)
    ref = SimpleNamespace(**vars(fresh_admm_state(prob)), solve=solve)
    xi = np.zeros(n)
    for _ in range(2):  # a cold call, then a warm-started one
        x = admm_subproblem(prob, xi, opts, warm=state)
        x_ref = _ref_springback_admm(prob.A, prob.b, prob.tau, xi, ref, opts.eps_inner, 200)
        assert np.array_equal(x, x_ref)
        _assert_states_equal(state, ref, ("x", "y", "z", "u", "eta"))
        xi = 0.5 * x
    assert state.iterations > 0


def _rel_diff(a, b):
    return np.linalg.norm(np.subtract(a, b)) / np.linalg.norm(b)


# The lasso solves its constant part once per call and each iteration's part
# through the precomputed operator, so it rounds differently from the
# reference loop.  x and y agree to 1e-9.  The scaled dual u settles at
# A^T (b - A x) / zeta, which carries the rounding of A x times
# ||A||^2 / zeta (zeta = 1e-5), and so does the trace's residual term: on
# the wide case they agree to about 1.2e-8, hence 1e-7 for both.
@pytest.mark.parametrize("linear", [False, True])
@pytest.mark.parametrize("shape", _ORACLE_SHAPES)
def test_lasso_admm_matches_reference_loop_to_rounding(shape, linear):
    prob = _oracle_instance(shape, False)
    A, b = prob.A, prob.b
    n = shape[1]
    lam, zeta = solvers_mod.LAMBDA, solvers_mod.ZETA_LASSO
    eps = SolverOptions().eps_inner
    state = solvers_mod._lasso_state(n, zeta)
    ref = SimpleNamespace(**vars(state), solve=_ref_ridge_solve(A, 1.0, zeta))
    g = 1e-3 * np.ones(n) if linear else None
    trace, ref_trace = [], []
    for _ in range(2):  # a cold call, then a warm-started one
        done = solvers_mod._lasso_admm(A, b, lam, g, state, eps, 300, trace)
        ref_done = _ref_lasso_admm(A, b, lam, g, ref, eps, 300, ref_trace)
        assert done == ref_done
        assert state.iterations == ref.iterations
        assert len(trace) == len(ref_trace)
        assert _rel_diff(state.x, ref.x) <= 1e-9
        assert _rel_diff(state.y, ref.y) <= 1e-9
        assert _rel_diff(state.u, ref.u) <= 1e-7
        np.testing.assert_allclose(trace, ref_trace, rtol=1e-7, atol=0.0)
        if linear:
            g = lam * dc_concave_gradient(PenaltyKind.L1_MINUS_2, state.y, ThresholdParams())


def _failing_solve_on_call(monkeypatch, k, value=np.nan, method="solve"):
    """Patch GramRidgeSolver.<method> to put ``value`` into one entry of its
    k-th result; returns the call counter, a one-element list.  The method
    that computes each x-update is ``solve`` in springback's loop and
    ``offset_solve`` in the lasso's, which calls ``solve`` once per call, for
    its constant part."""
    original = getattr(GramRidgeSolver, method)
    calls = [0]

    def failing(self, *args):
        calls[0] += 1
        out = original(self, *args)
        if calls[0] == k:
            out = out.copy()
            out[out.size // 2] = value
        return out

    monkeypatch.setattr(GramRidgeSolver, method, failing)
    return calls


def _check_completed_iterations_reported(monkeypatch, k, value):
    # the failing iteration is not counted: the report holds k - 1
    prob, _ = _gaussian_instance(16, 40, 3, 2)
    opts = SolverOptions(max_inner=20)
    runs = {
        "springback": ("solve", lambda: dca_springback(prob, opts)),
        "admm_l1": ("offset_solve", lambda: admm_l1(prob, opts)),
        "dca_l12": ("offset_solve", lambda: dca_unconstrained(PenaltyKind.L1_MINUS_2, prob, opts)),
    }
    for name, (method, run) in runs.items():
        with monkeypatch.context() as mp:
            calls = _failing_solve_on_call(mp, k, value, method)
            rep = run()
        assert calls[0] == k, name
        assert rep.status is SolverStatus.NUMERIC_FAILURE, name
        assert rep.inner_iterations_total == k - 1, name
        assert np.isfinite(rep.x_star).all(), name


def _check_last_finite_warm_state_kept(monkeypatch, k, value):
    prob, _ = _gaussian_instance(16, 40, 3, 2)
    A, b, n = prob.A, prob.b, 40
    xi = 0.1 * np.ones(n)
    # the state after k - 1 clean iterations, the k-th x-update never reached
    ref = fresh_admm_state(prob)
    if k > 1:
        admm_subproblem(prob, xi, SolverOptions(max_inner=k - 1), warm=ref)
    state = fresh_admm_state(prob)
    with monkeypatch.context() as mp:
        _failing_solve_on_call(mp, k, value, "solve")
        with pytest.raises(NumericError):
            admm_subproblem(prob, xi, SolverOptions(max_inner=50), warm=state)
    _assert_states_equal(state, ref, ("x", "y", "z", "u", "eta"))
    assert state.iterations == k - 1

    ref = solvers_mod._lasso_state(n, 1e-5)
    if k > 1:
        solvers_mod._lasso_admm(A, b, 1e-6, None, ref, 1e-5, k - 1)
    state = solvers_mod._lasso_state(n, 1e-5)
    with monkeypatch.context() as mp:
        _failing_solve_on_call(mp, k, value, "offset_solve")
        with pytest.raises(NumericError):
            solvers_mod._lasso_admm(A, b, 1e-6, None, state, 1e-5, 50)
    _assert_states_equal(state, ref, ("x", "y", "u"))
    assert state.iterations == k - 1


@pytest.mark.parametrize("k", [1, 4, 27])
def test_non_finite_x_update_reports_completed_iterations(monkeypatch, k):
    _check_completed_iterations_reported(monkeypatch, k, np.nan)


@pytest.mark.parametrize("k", [1, 6])
def test_non_finite_x_update_leaves_last_finite_warm_state(monkeypatch, k):
    _check_last_finite_warm_state_kept(monkeypatch, k, np.nan)


# ||x|| is computed before the entries are scanned: an infinite entry makes
# x.dot(x) infinite, which the loops then check entry by entry.
@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("k", [1, 4])
def test_infinite_x_update_reports_completed_iterations(monkeypatch, k, value):
    _check_completed_iterations_reported(monkeypatch, k, value)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("k", [1, 6])
def test_infinite_x_update_leaves_last_finite_warm_state(monkeypatch, k, value):
    _check_last_finite_warm_state_kept(monkeypatch, k, value)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("noisy", [False, True])
def test_finite_x_update_with_overflowing_norm_does_not_raise(monkeypatch, noisy):
    # an entry of 1e200 overflows x.dot(x) to inf, yet every entry is finite
    k = 3
    prob = _oracle_instance((20, 50), noisy)
    state = fresh_admm_state(prob)
    with monkeypatch.context() as mp:
        calls = _failing_solve_on_call(mp, k, 1e200, "solve")
        admm_subproblem(prob, np.zeros(50), SolverOptions(max_inner=k), warm=state)
    assert calls[0] == k and state.iterations == k
    assert state.x[25] == 1e200 and np.isfinite(state.z).all()

    lasso = solvers_mod._lasso_state(50, 1e-5)
    with monkeypatch.context() as mp:
        calls = _failing_solve_on_call(mp, k, 1e200, "offset_solve")
        solvers_mod._lasso_admm(prob.A, prob.b, 1e-6, None, lasso, 1e-5, k)
    assert calls[0] == k and lasso.iterations == k
    assert lasso.x[25] == 1e200


def _overflowing_instance(scale):
    # finite data; at 1e200 the Gram matrix A A^T overflows, at 1e100 the
    # springback x-update and the AIHT step size do
    A = scale * np.hstack([np.eye(3), np.eye(3)[:, :1], np.zeros((3, 1))])
    return ProblemInstance(A, scale * np.ones(3))


def _all_solvers(prob, opts):
    reports = {
        "springback": dca_springback(prob, opts),
        "admm_l1": admm_l1(prob, opts),
        "irls_lp": irls_lp(prob, opts),
        "aiht": aiht(prob, opts),
    }
    for kind in (PenaltyKind.TL1, PenaltyKind.L1_MINUS_2, PenaltyKind.MCP):
        reports[kind.value] = dca_unconstrained(kind, prob, opts)
    return reports


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_inside_a_solver_is_a_numeric_failure():
    prob = _overflowing_instance(1e200)
    for name, rep in _all_solvers(prob, SolverOptions()).items():
        assert rep.status is SolverStatus.NUMERIC_FAILURE, name
        assert np.isfinite(rep.x_star).all(), name
    # the alpha the solvers get is still a valid curvature
    assert alpha_subroutine(prob.A, prob.b, 0.0) == ALPHA_MAX
    reports = _all_solvers(_overflowing_instance(1e100), SolverOptions())
    for name in ("springback", "aiht"):
        assert reports[name].status is SolverStatus.NUMERIC_FAILURE, name
