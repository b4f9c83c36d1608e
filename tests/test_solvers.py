"""Tests for the DCA-springback solver and the baseline solvers."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings
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
    A = gen_matrix(EnsembleSpec(EnsembleKind.GAUSSIAN, m=m, n=n), seed)
    x = gen_signal(SignalSpec(n=n, sparsity=s), seed + 1000)
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
    # NaN passes every ordering test, and a fractional cap fails deep in a solve
    for name in ("max_inner", "sparsity_estimate"):
        for value in (np.nan, np.inf, 2.5, 3.0, True):
            with pytest.raises(InvalidParameterError, match=f"{name} must be a positive integer"):
                SolverOptions(**{name: value})
    SolverOptions(max_inner=np.int64(7), sparsity_estimate=np.int32(2))


# and values that are no float: an int beyond the float range, a string, a bool
@pytest.mark.parametrize("value", [np.nan, np.inf, pytest.param(10**400, id="10**400"), "1.0", True])
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


# kind None is springback, "admm_l1" the lasso, whose one outer step is a
# whole solve, and the others the three DCA baselines
@pytest.mark.parametrize(
    "kind",
    [None, PenaltyKind.TL1, PenaltyKind.L1_MINUS_2, PenaltyKind.MCP, "admm_l1"],
    ids=["springback", "dca_tl1", "dca_l12", "dca_mcp", "admm_l1"],
)
def test_dca_springback_report_flags(kind):
    prob, _ = _gaussian_instance(64, 250, 10, 0)
    alpha = alpha_subroutine(prob.A, prob.b, 0.0)
    opts = SolverOptions(alpha=alpha)
    if kind is None:
        rep = dca_springback(prob, opts)
        assert alpha <= convergence_alpha_bound(prob.A, prob.b, 0.0)
    elif kind == "admm_l1":
        rep = admm_l1(prob, opts)
        assert rep.outer_iterations == 1
    else:
        (rep,) = dca_unconstrained((kind,), prob, opts)
    assert rep.status in (SolverStatus.CONVERGED, SolverStatus.MAX_ITER)
    assert len(rep.objective_trace) == rep.outer_iterations <= solvers_mod.MAX_OUTER


def _infeasible_start_instance():
    # one inner iteration on a large b leaves x^1 far outside the ball
    prob, x = _gaussian_instance(16, 40, 3, 2)
    return ProblemInstance(prob.A, 100 * prob.b, 0.0, 100 * x), SolverOptions(alpha=1e-5, max_inner=1)


def test_dca_springback_reports_infeasible_start():
    prob, opts = _infeasible_start_instance()
    rep = dca_springback(prob, opts)
    assert rep.status is SolverStatus.INFEASIBLE_START
    assert len(rep.objective_trace) == rep.outer_iterations >= 1
    assert rep.inner_iterations_total == rep.outer_iterations


def test_numeric_failure_after_an_infeasible_start_is_reported(monkeypatch):
    # x^1 is infeasible; a NaN x-update at outer step 2 still reports the failure
    prob, opts = _infeasible_start_instance()
    first = dca_springback(prob, replace(opts, eps_outer=1e300))
    assert first.status is SolverStatus.INFEASIBLE_START and first.outer_iterations == 1
    calls = _failing_solve_on_call(monkeypatch, 2)
    rep = dca_springback(prob, opts)
    assert calls[0] == 2
    assert rep.status is SolverStatus.NUMERIC_FAILURE
    assert rep.outer_iterations == 1 and rep.inner_iterations_total == 1
    assert rep.objective_trace == first.objective_trace
    assert np.array_equal(rep.x_star, first.x_star)


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


def test_admm_subproblem_takes_the_warm_state_by_keyword_only():
    prob, _ = _gaussian_instance(16, 40, 3, 2)
    with pytest.raises(TypeError):
        admm_subproblem(prob, np.zeros(40), SolverOptions(), fresh_admm_state(prob))


@pytest.mark.parametrize("length", [1, 39])
def test_admm_subproblem_rejects_xi_of_another_length(length):
    # a length-1 xi would broadcast into every entry of the right-hand side
    prob, _ = _gaussian_instance(16, 40, 3, 2)
    with pytest.raises(InvalidParameterError, match=f"40 columns but xi has length {length}"):
        admm_subproblem(prob, np.full(length, 0.3), SolverOptions())


def _lasso_row(A, b, lam, linear, solver, st, eps, max_iter):
    """_lasso_admm on a stack of one row: whether its stopping test fired,
    and a NumericError for a row that turned non-finite, as the one-row loop
    raised."""
    (status,) = solvers_mod._lasso_admm(A, b, [lam], [linear], solver, [st], eps, max_iter)
    if status is SolverStatus.NUMERIC_FAILURE:
        raise NumericError("lasso row turned non-finite")
    return status is SolverStatus.CONVERGED


def _lasso(A, b, lam, zeta, eps=1e-5):
    """admm_l1's solve with its own lam and zeta: the sparse iterate y."""
    st = fresh_admm_state(ProblemInstance(A, b))
    solver = GramRidgeSolver(A, zeta)
    _lasso_row(A, b, lam, None, solver, st, eps, solvers_mod.ADMM_MAX)
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


def test_admm_l1_trace_is_the_objective_at_x_star():
    prob, _ = _gaussian_instance(20, 60, 4, 8)
    rep = admm_l1(prob, SolverOptions())
    r = prob.A @ rep.x_star - prob.b
    objective = 0.5 * float(r @ r) + solvers_mod.LAMBDA * float(np.abs(rep.x_star).sum())
    assert rep.objective_trace == [pytest.approx(objective, rel=1e-12)]
    assert rep.objective_trace[0] < 0.5 * float(prob.b @ prob.b)  # the objective at x^0 = 0


def test_dca_unconstrained_zero_data():
    prob = ProblemInstance(np.ones((2, 4)), np.zeros(2))
    kinds = (PenaltyKind.TL1, PenaltyKind.MCP, PenaltyKind.L1_MINUS_2)
    for rep in dca_unconstrained(kinds, prob, SolverOptions()):
        np.testing.assert_allclose(rep.x_star, np.zeros(4), atol=1e-10)
    with pytest.raises(InvalidParameterError):
        dca_unconstrained((PenaltyKind.TL1, PenaltyKind.L1), prob, SolverOptions())


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
    (rep,) = dca_unconstrained((PenaltyKind.MCP,), prob, opts)
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
    for s in (-1, np.nan, 2.5, True):
        with pytest.raises(InvalidParameterError, match="s must be nonnegative"):
            hard_threshold(v, s)


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


def _check_raising_at_step(mp, k, first):
    """solvers._check_finite, raising NumericError at the k-th check named
    ``first``: the first check of each IRLS sweep or AIHT iteration."""
    real, seen = solvers_mod._check_finite, [0]

    def checking(x, what):
        if what == first:
            seen[0] += 1
            if seen[0] == k:
                raise NumericError(f"{what} failed at step {k}")
        return real(x, what)

    mp.setattr(solvers_mod, "_check_finite", checking)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize(
    "name, cap, first, seeded",
    [("irls_lp", "IRLS_MAX", "IRLS normal matrix", 0), ("aiht", "AIHT_MAX", "AIHT gradient", 1)],
)
def test_numeric_failure_at_step_k_reports_the_completed_steps(monkeypatch, name, cap, first, seeded, k):
    # the shared outer loop: a NumericError in step k ends the solve with the
    # k - 1 completed steps, as a run capped at k - 1 steps ends, and with
    # x^0 = 0 at k = 1 (every cap is at least one step)
    prob, _ = _gaussian_instance(32, 80, 6, 5)
    opts = SolverOptions(sparsity_estimate=6)
    solve = getattr(solvers_mod, name)
    with monkeypatch.context() as mp:
        _check_raising_at_step(mp, k, first)
        rep = solve(prob, opts)
    assert rep.status is SolverStatus.NUMERIC_FAILURE
    assert rep.outer_iterations == rep.inner_iterations_total == k - 1
    assert len(rep.objective_trace) == rep.outer_iterations + seeded
    if k == 1:
        assert not rep.x_star.any()
        assert rep.objective_trace == [rep.residual] * seeded
        assert rep.residual == float(np.linalg.norm(prob.b))
        return
    with monkeypatch.context() as mp:
        mp.setattr(solvers_mod, cap, k - 1)
        capped = solve(prob, opts)
    assert capped.status is SolverStatus.MAX_ITER
    assert np.array_equal(rep.x_star, capped.x_star)
    assert rep.objective_trace == capped.objective_trace
    assert rep.residual == capped.residual


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
    A_gauss = gen_matrix(EnsembleSpec(EnsembleKind.GAUSSIAN, m=8, n=20), 0)
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
# on local arrays, with the x-update through scipy's cho_solve.  Both kernels
# now take their x-update through the precomputed operators, so they match
# these loops to rounding; at tau > 0 springback's loop with H in place of
# cho_solve must match the kernel bit for bit, warm state included, and at
# tau = 0 _ref_bp_admm, which computes the m-space expressions, must.


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
    rho, zeta = solvers_mod.RHO, 1.0  # springback's splitting penalty is 1
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


def _ref_bp_admm(prob, xi, st, eps, max_inner):
    """Springback's loop at tau = 0 in the m-space expressions of the kernel,
    every temporary allocated and every stopping test computed at every
    iteration: q = F [v; w] = H v - M w with v = xi + y - u and w = b - eta,
    p = x + u = (xi + y) - A^T q, u = clamp(p, -1, 1), y = p - u, x = p - u_old
    and eta = ZETA_LASSO q, so that A x - b = eta - eta_old."""
    A, b = prob.A, prob.b
    F, zeta = prob.gram_solver.F, prob.gram_solver.zeta
    for _ in range(max_inner):
        c = xi + st.y
        q = F @ np.concatenate([c - st.u, b - st.eta])
        p = c - A.T @ q
        x_old, x = st.x, p - st.u
        u = p.clip(-1.0, 1.0)
        eta = q * zeta
        res = float(np.linalg.norm(eta - st.eta))
        st.x, st.y, st.u, st.eta = x, p - u, u, eta
        st.iterations += 1
        xnorm = float(np.linalg.norm(x))
        if (
            _ref_rel_change(x, x_old) < eps
            and float(np.linalg.norm(x - st.y)) <= eps * max(1.0, xnorm)
            and res <= solvers_mod.FEAS_TOL_INNER
        ):
            break
    return st.x.copy()


def _ref_operator_springback(prob, xi, st, eps, max_inner):
    """The kernel's per-iteration reference: _ref_bp_admm at tau = 0, and at
    tau > 0 _ref_springback_admm with st.solve = _operator_solve(prob)."""
    if prob.tau == 0.0:
        return _ref_bp_admm(prob, xi, st, eps, max_inner)
    return _ref_springback_admm(prob.A, prob.b, prob.tau, xi, st, eps, max_inner)


def _ref_lasso_admm(A, b, lam, linear, st, eps, max_iter):
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


def _operator_solve(prob):
    """Springback's x-update through the instance's H, as (RHO A^T A + I)^-1
    rhs = rhs - A^T (H rhs) with ZETA_LASSO = 1 / RHO."""
    A, H = prob.A, prob.gram_solver.H
    return lambda rhs: rhs - A.T @ (H @ rhs)


def _springback_pair(prob, solve):
    """A springback warm state and a reference state whose x-update is solve."""
    return fresh_admm_state(prob), SimpleNamespace(**vars(fresh_admm_state(prob)), solve=solve)


# On the clean oracle instances the cold call's stopping test fires inside a
# block: at iteration 109 (20 x 50), 55 (30 x 30) and 16 (50 x 20) at
# eps = 1e-5, and at 55, 54 and 16 at 1e-3; on the noisy ones at 55, 403 and
# 19 at 1e-3 and not within 200 iterations at 1e-5.  The caps cover the block
# edges, 1 and 31 to 33.
@pytest.mark.parametrize("eps", [1e-5, 1e-3])
@pytest.mark.parametrize("max_inner", [1, 31, 32, 33, 200])
@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("shape", _ORACLE_SHAPES)
def test_admm_subproblem_is_bit_identical_to_operator_reference_loop(
    shape, noisy, max_inner, eps
):
    assert solvers_mod.ADMM_BLOCK == 32  # the caps are set for this block
    prob = _oracle_instance(shape, noisy)
    n = shape[1]
    opts = SolverOptions(max_inner=max_inner, eps_inner=eps)
    state, ref = _springback_pair(prob, _operator_solve(prob))
    xi = np.zeros(n)
    for _ in range(2):  # a cold call, then a warm-started one
        x = admm_subproblem(prob, xi, opts, warm=state)
        x_ref = _ref_operator_springback(prob, xi, ref, eps, max_inner)
        assert np.array_equal(x, x_ref)
        _assert_states_equal(state, ref, ("x", "y", "z", "u", "eta"))
        xi = 0.5 * x
    assert state.iterations > 0


# Against the dense Cholesky reference, H rounds differently.  On the oracle
# instances both loops take the same iterations, cold and warm, and x and y
# agree to 3.2e-9 at most.  The duals carry the rounding of A x divided by
# their own small size: u, at most 1 in each entry, agrees to 2.3e-7, and
# eta, the constraint's multiplier over RHO = 1e5, to 1e-5 (noisy 30 x 30,
# warm), as does z, which eta shifts onto the tau-ball.  Hence 1e-8 for x
# and y, 1e-6 for u, and 1e-4 for z and eta.
@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("shape", _ORACLE_SHAPES)
def test_admm_subproblem_matches_reference_loop_to_rounding(shape, noisy):
    prob = _oracle_instance(shape, noisy)
    n = shape[1]
    opts = SolverOptions(max_inner=200)
    solve = _ref_ridge_solve(prob.A, solvers_mod.RHO, 1.0)
    state, ref = _springback_pair(prob, solve)
    xi = np.zeros(n)
    for _ in range(2):  # a cold call, then a warm-started one
        x = admm_subproblem(prob, xi, opts, warm=state)
        x_ref = _ref_springback_admm(prob.A, prob.b, prob.tau, xi, ref, opts.eps_inner, 200)
        assert state.iterations == ref.iterations
        assert _rel_diff(x, x_ref) <= 1e-8
        assert _rel_diff(state.y, ref.y) <= 1e-8
        assert _rel_diff(state.u, ref.u) <= 1e-6
        assert _rel_diff(state.z, ref.z) <= 1e-4
        assert _rel_diff(state.eta, ref.eta) <= 1e-4
        xi = 0.5 * x


def _rel_diff(a, b):
    if not np.any(b):
        return np.linalg.norm(a)
    return np.linalg.norm(np.subtract(a, b)) / np.linalg.norm(b)


# The lasso solves its constant part once per call and each iteration's part
# through the precomputed operator, so it rounds differently from the
# reference loop.  x and y agree to 1e-9.  The scaled dual u settles at
# A^T (b - A x) / zeta, which carries the rounding of A x times
# ||A||^2 / zeta (zeta = 1e-5): on the wide case it agrees to about 1.2e-8,
# hence 1e-7.
@pytest.mark.parametrize("linear", [False, True])
@pytest.mark.parametrize("shape", _ORACLE_SHAPES)
def test_lasso_admm_matches_reference_loop_to_rounding(shape, linear):
    prob = _oracle_instance(shape, False)
    A, b = prob.A, prob.b
    n = shape[1]
    lam, zeta = solvers_mod.LAMBDA, solvers_mod.ZETA_LASSO
    eps = SolverOptions().eps_inner
    state = fresh_admm_state(prob)
    ref = SimpleNamespace(**vars(state), zeta=zeta, solve=_ref_ridge_solve(A, 1.0, zeta))
    g = 1e-3 * np.ones(n) if linear else None
    for _ in range(2):  # a cold call, then a warm-started one
        done = _lasso_row(A, b, lam, g, prob.gram_solver, state, eps, 300)
        ref_done = _ref_lasso_admm(A, b, lam, g, ref, eps, 300)
        assert done == ref_done
        assert state.iterations == ref.iterations
        assert _rel_diff(state.x, ref.x) <= 1e-9
        assert _rel_diff(state.y, ref.y) <= 1e-9
        assert _rel_diff(state.u, ref.u) <= 1e-7
        if linear:
            g = lam * dc_concave_gradient(PenaltyKind.L1_MINUS_2, state.y, ThresholdParams())


# A reference copy of the lasso loop through the precomputed operator, with
# none of the kernel's work vectors or blocks: every temporary allocated, the
# clamp through ndarray.clip, every stopping test computed at every
# iteration.  It takes the cached factor and H of a GramRidgeSolver and
# applies them in the kernel's expressions, p = x + u = (x_c + y) -
# A^T H (y - u) and x = p - u_old, so the kernel must match it bit for bit.


def _ref_operator_lasso_admm(A, b, lam, linear, st, eps, max_iter):
    chol, At, H, zeta = st.solver._chol, A.T, st.solver.H, st.solver.zeta
    r = A.T @ b if linear is None else A.T @ b + linear
    if A.shape[0] < A.shape[1]:
        x_c = r - At.dot(scipy.linalg.lapack.dpotrs(chol, A.dot(r), lower=1)[0])
        x_c /= zeta
    else:
        x_c = scipy.linalg.lapack.dpotrs(chol, r, lower=1)[0]
    x, y, u = st.x, st.y, st.u
    thresh = lam / zeta
    for _ in range(max_iter):
        p = (x_c + y) - At.dot(H.dot(y - u))
        x_old, x = x, p - u
        u = p.clip(-thresh, thresh)
        y = p - u
        st.x, st.y, st.u = x, y, u
        st.iterations += 1
        if _ref_rel_change(x, x_old) < eps and float(np.linalg.norm(x - y)) <= eps * max(
            1.0, float(np.linalg.norm(x))
        ):
            return True
    return False


def _lasso_pair(prob):
    """A cold lasso state and a reference state with its own solver."""
    ref = fresh_admm_state(prob)
    ref.solver = GramRidgeSolver(prob.A, solvers_mod.ZETA_LASSO)
    return fresh_admm_state(prob), ref


@pytest.mark.parametrize("linear", [False, True])
@pytest.mark.parametrize("shape", _ORACLE_SHAPES)
def test_lasso_admm_is_bit_identical_to_operator_reference_loop(shape, linear):
    prob = _oracle_instance(shape, False)
    A, b = prob.A, prob.b
    n = shape[1]
    lam, eps = solvers_mod.LAMBDA, SolverOptions().eps_inner
    state, ref = _lasso_pair(prob)
    g = 1e-3 * np.ones(n) if linear else None
    for _ in range(2):  # a cold call, then a warm-started one
        done = _lasso_row(A, b, lam, g, prob.gram_solver, state, eps, 300)
        assert done == _ref_operator_lasso_admm(A, b, lam, g, ref, eps, 300)
        _assert_states_equal(state, ref, ("x", "y", "u"))
        if linear:
            g = lam * dc_concave_gradient(PenaltyKind.L1_MINUS_2, state.y, ThresholdParams())
    assert state.iterations > 0


# (linear, max_iter, eps, the iteration of the cold call's stop or None).  On
# the (20, 50) oracle instance the stopping test first fires at iteration 45
# (row 13 of the second block) at eps = 2.2e-3, at 64 (the second block's
# last row) at 4.5e-4, and with linear = 1e-3 at 32 (the first block's last
# row) at 3.18e-2; at eps_inner it does not fire within 67 iterations.
_LASSO_BLOCK_CASES = [(False, k, 1e-5, None) for k in (1, 31, 32, 33, 67)] + [
    (False, 200, 2.2e-3, 45),
    (False, 200, 4.5e-4, 64),
    (True, 200, 3.18e-2, 32),
]


@pytest.mark.parametrize("linear, max_iter, eps, stop", _LASSO_BLOCK_CASES)
def test_lasso_admm_blocks_match_per_iteration_loop(linear, max_iter, eps, stop):
    assert solvers_mod.ADMM_BLOCK == 32  # the cases are set for this block
    prob = _oracle_instance((20, 50), False)
    A, b, lam = prob.A, prob.b, solvers_mod.LAMBDA
    state, ref = _lasso_pair(prob)
    g = 1e-3 * np.ones(50) if linear else None
    for call in range(2):  # a cold call, then a warm-started one
        done = _lasso_row(A, b, lam, g, prob.gram_solver, state, eps, max_iter)
        ref_done = _ref_operator_lasso_admm(A, b, lam, g, ref, eps, max_iter)
        if call == 0:
            assert ref_done == (stop is not None)
            assert ref.iterations == (stop or max_iter)
        assert done == ref_done
        _assert_states_equal(state, ref, ("x", "y", "u"))
        if linear:
            g = lam * dc_concave_gradient(PenaltyKind.L1_MINUS_2, state.y, ThresholdParams())


def _held_arrays(state, names):
    """The state's arrays, as a caller holds them, and copies of their values."""
    return [(getattr(state, name), getattr(state, name).copy()) for name in names]


def _assert_unchanged(held):
    for array, value in held:
        assert np.array_equal(array, value)


# The loops update work vectors in place.  Neither may write into an array a
# caller still holds: the x a call returned, the state arrays from before a
# call, xi and linear.


@pytest.mark.parametrize("noisy", [False, True])
def test_admm_subproblem_leaves_caller_arrays_unchanged(noisy):
    prob = _oracle_instance((20, 50), noisy)
    opts = SolverOptions(max_inner=30)
    state = fresh_admm_state(prob)
    x1 = admm_subproblem(prob, np.zeros(50), opts, warm=state)
    names = ("x", "y", "z", "u", "eta")
    held = _held_arrays(state, names)
    xi = 0.5 * x1
    held += [(x1, x1.copy()), (xi, xi.copy())]
    x2 = admm_subproblem(prob, xi, opts, warm=state)
    _assert_unchanged(held)
    assert state.iterations == 2 * opts.max_inner
    assert not np.array_equal(state.x, held[0][1])  # the second call moved x
    assert not np.shares_memory(x2, state.x)


def test_lasso_admm_leaves_caller_arrays_unchanged():
    prob = _oracle_instance((20, 50), False)
    A, b = prob.A, prob.b
    lam, eps = solvers_mod.LAMBDA, SolverOptions().eps_inner
    state = fresh_admm_state(prob)
    _lasso_row(A, b, lam, 1e-3 * np.ones(50), prob.gram_solver, state, eps, 30)
    held = _held_arrays(state, ("x", "y", "u"))  # y is what a DCA step returns
    g = lam * dc_concave_gradient(PenaltyKind.L1_MINUS_2, state.y, ThresholdParams())
    held.append((g, g.copy()))
    _lasso_row(A, b, lam, g, prob.gram_solver, state, eps, 30)
    _assert_unchanged(held)
    assert state.iterations == 60
    assert not np.array_equal(state.x, held[0][1])  # the second call moved x


def _failing_solve_on_call(monkeypatch, k, value=np.nan):
    """Patch GramRidgeSolver.offset_solve to put ``value`` into one entry of
    its k-th result, in the array it returns, which is the loop's own slot;
    returns the call counter, a one-element list.  Every inner loop computes
    each x-update with ``offset_solve``: x itself in springback's at tau > 0,
    and p = x + u in the lasso's and in springback's at tau = 0, whose x rows
    are p - u_old."""
    original = GramRidgeSolver.offset_solve
    calls = [0]

    def failing(self, *args):
        calls[0] += 1
        out = original(self, *args)
        if calls[0] == k:
            out.flat[out.size // 2] = value
        return out

    monkeypatch.setattr(GramRidgeSolver, "offset_solve", failing)
    return calls


def _calls_to_failure(k, block=solvers_mod.ADMM_BLOCK):
    """The x-updates a loop computes when the k-th is not finite: the whole
    block of length ``block`` it falls in, whose end finds it."""
    return -(-k // block) * block


def _check_completed_iterations_reported(monkeypatch, k, value):
    # the failing iteration is not counted: the report holds k - 1; the
    # inner blocks are max_inner long, and admm_l1's ADMM_BLOCK long
    prob, _ = _gaussian_instance(16, 40, 3, 2)
    opts = SolverOptions(max_inner=20)
    runs = {
        "springback": (opts.max_inner, lambda: dca_springback(prob, opts)),
        "admm_l1": (solvers_mod.ADMM_BLOCK, lambda: admm_l1(prob, opts)),
        "dca_l12": (opts.max_inner, lambda: dca_unconstrained((PenaltyKind.L1_MINUS_2,), prob, opts)[0]),
    }
    for name, (block, run) in runs.items():
        with monkeypatch.context() as mp:
            calls = _failing_solve_on_call(mp, k, value)
            rep = run()
        assert calls[0] == _calls_to_failure(k, block), name
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
        _failing_solve_on_call(mp, k, value)
        with pytest.raises(NumericError):
            admm_subproblem(prob, xi, SolverOptions(max_inner=50), warm=state)
    _assert_states_equal(state, ref, ("x", "y", "z", "u", "eta"))
    assert state.iterations == k - 1

    ref = fresh_admm_state(prob)
    if k > 1:
        _lasso_row(A, b, 1e-6, None, prob.gram_solver, ref, 1e-5, k - 1)
    state = fresh_admm_state(prob)
    with monkeypatch.context() as mp:
        _failing_solve_on_call(mp, k, value)
        with pytest.raises(NumericError):
            _lasso_row(A, b, 1e-6, None, prob.gram_solver, state, 1e-5, 50)
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


@pytest.mark.parametrize("noisy", [False, True])
def test_finite_x_update_with_overflowing_norm_does_not_raise(monkeypatch, noisy):
    # an entry of 1e200 overflows x.dot(x) to inf, yet every entry is finite
    # (in p = x + u it is x's too: |u| is at most 1)
    k = 3
    prob = _oracle_instance((20, 50), noisy)
    state = fresh_admm_state(prob)
    with monkeypatch.context() as mp:
        calls = _failing_solve_on_call(mp, k, 1e200)
        admm_subproblem(prob, np.zeros(50), SolverOptions(max_inner=k), warm=state)
    assert calls[0] == k and state.iterations == k
    assert state.x[25] == 1e200 and np.isfinite(state.z).all()

    lasso = fresh_admm_state(prob)
    with monkeypatch.context() as mp:
        calls = _failing_solve_on_call(mp, k, 1e200)
        _lasso_row(prob.A, prob.b, 1e-6, None, prob.gram_solver, lasso, 1e-5, k)
    assert calls[0] == k and lasso.iterations == k
    assert lasso.x[25] == 1e200


# The bad x-update is found when its block ends, after the block's remaining
# x-updates, which compute on non-finite values and are discarded; k = 33, 35
# and 64 put it in the first, a middle and the last slot of the second block.
@pytest.mark.parametrize("k", [33, 35, 64])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_x_update_in_a_later_block(monkeypatch, value, k):
    block = solvers_mod.ADMM_BLOCK
    prob, _ = _gaussian_instance(16, 40, 3, 2)
    A, b, n = prob.A, prob.b, 40
    lam, eps = solvers_mod.LAMBDA, SolverOptions().eps_outer
    state, ref = _lasso_pair(prob)
    assert not _ref_operator_lasso_admm(A, b, lam, None, ref, eps, k - 1)
    with monkeypatch.context() as mp:
        calls = _failing_solve_on_call(mp, k, value)
        with pytest.raises(NumericError):
            _lasso_row(A, b, lam, None, prob.gram_solver, state, eps, 100)
    assert calls[0] == 2 * block
    _assert_states_equal(state, ref, ("x", "y", "u"))
    assert state.iterations == k - 1

    # admm_l1's one outer step fails: the report holds x^0 and no step
    with monkeypatch.context() as mp:
        _failing_solve_on_call(mp, k, value)
        rep = admm_l1(prob, SolverOptions())
    assert rep.status is SolverStatus.NUMERIC_FAILURE
    assert rep.inner_iterations_total == k - 1
    assert rep.outer_iterations == 0
    assert rep.objective_trace == []
    assert np.array_equal(rep.x_star, np.zeros(n))


# On the (20, 50) oracle instances springback's stopping test does not fire
# within 63 iterations at eps_inner, and not at all on the noisy one; k = 33,
# 35 and 64 put the bad x-update in the first, a middle and the last slot of
# the second block.
@pytest.mark.parametrize("k", [33, 35, 64])
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("noisy", [False, True])
def test_non_finite_springback_x_update_in_a_later_block(monkeypatch, noisy, value, k):
    prob = _oracle_instance((20, 50), noisy)
    xi = 0.1 * np.ones(50)
    state, ref = _springback_pair(prob, _operator_solve(prob))
    _ref_operator_springback(prob, xi, ref, 1e-5, k - 1)
    assert ref.iterations == k - 1
    with monkeypatch.context() as mp:
        calls = _failing_solve_on_call(mp, k, value)
        with pytest.raises(NumericError):
            admm_subproblem(prob, xi, SolverOptions(max_inner=100), warm=state)
    assert calls[0] == _calls_to_failure(k)
    _assert_states_equal(state, ref, ("x", "y", "z", "u", "eta"))

    with monkeypatch.context() as mp:
        _failing_solve_on_call(mp, k, value)
        rep = dca_springback(prob, SolverOptions(max_inner=100))
    assert rep.status is SolverStatus.NUMERIC_FAILURE
    assert rep.inner_iterations_total == k - 1
    assert np.isfinite(rep.x_star).all()


def test_non_finite_x_update_after_the_stop_does_not_surface(monkeypatch):
    # the stopping test fires at iteration 45, row 13 of the second block
    prob = _oracle_instance((20, 50), False)
    A, b, lam, eps = prob.A, prob.b, solvers_mod.LAMBDA, 2.2e-3
    state, ref = _lasso_pair(prob)
    assert _ref_operator_lasso_admm(A, b, lam, None, ref, eps, 200)
    assert ref.iterations == 45
    with monkeypatch.context() as mp:
        calls = _failing_solve_on_call(mp, 50)
        assert _lasso_row(A, b, lam, None, prob.gram_solver, state, eps, 200)
    assert calls[0] == 2 * solvers_mod.ADMM_BLOCK
    _assert_states_equal(state, ref, ("x", "y", "u"))


# Springback's stopping test fires at iteration 109 (row 13 of the fourth
# block) on the clean (20, 50) oracle instance at eps = 1e-5, and at 55 (row
# 23 of the second) on the noisy one at eps = 1e-3.
@pytest.mark.parametrize("noisy, eps, stop", [(False, 1e-5, 109), (True, 1e-3, 55)])
def test_non_finite_springback_x_update_after_the_stop_does_not_surface(monkeypatch, noisy, eps, stop):
    prob = _oracle_instance((20, 50), noisy)
    state, ref = _springback_pair(prob, _operator_solve(prob))
    _ref_operator_springback(prob, np.zeros(50), ref, eps, 200)
    assert ref.iterations == stop
    with monkeypatch.context() as mp:
        calls = _failing_solve_on_call(mp, stop + 5)
        admm_subproblem(prob, np.zeros(50), SolverOptions(eps_inner=eps, max_inner=200), warm=state)
    assert calls[0] == _calls_to_failure(stop + 5)
    _assert_states_equal(state, ref, ("x", "y", "z", "u", "eta"))


# Neither loop reads the warm state's x except in the first change test,
# which a non-finite x fails, as the per-iteration loops' comparison did.
def test_non_finite_warm_x_is_not_an_error():
    prob = _oracle_instance((20, 50), False)
    A, b, lam = prob.A, prob.b, solvers_mod.LAMBDA
    state, ref = _springback_pair(prob, _operator_solve(prob))
    state.x[3] = ref.x[3] = np.nan
    admm_subproblem(prob, np.zeros(50), SolverOptions(max_inner=40), warm=state)
    _ref_operator_springback(prob, np.zeros(50), ref, 1e-5, 40)
    _assert_states_equal(state, ref, ("x", "y", "z", "u", "eta"))

    state, ref = _lasso_pair(prob)
    state.x[3] = ref.x[3] = np.nan
    _lasso_row(A, b, lam, None, prob.gram_solver, state, 1e-5, 40)
    _ref_operator_lasso_admm(A, b, lam, None, ref, 1e-5, 40)
    _assert_states_equal(state, ref, ("x", "y", "u"))


def _assert_reports_equal(rep, ref):
    assert np.array_equal(rep.x_star, ref.x_star)
    assert rep.status is ref.status
    assert rep.outer_iterations == ref.outer_iterations
    assert rep.inner_iterations_total == ref.inner_iterations_total
    assert rep.objective_trace == ref.objective_trace
    assert rep.residual == ref.residual


# offset_solve writes each x-update into the loop's own buffers, and no loop
# reads its return value: a wrapper that returns every x-update in a copy of
# its own, as a copying tracer span would, here filled with NaN, changes no
# report, a stack of three lasso rows included.
@pytest.mark.parametrize("name", ["springback", "springback_noisy", "admm_l1", "dca_l12", "dca_stack"])
def test_copying_x_update_changes_no_report(monkeypatch, name):
    prob = _oracle_instance((20, 50), name == "springback_noisy")
    opts = SolverOptions()
    run = {
        "springback": lambda prob, opts: [dca_springback(prob, opts)],
        "springback_noisy": lambda prob, opts: [dca_springback(prob, opts)],
        "admm_l1": lambda prob, opts: [admm_l1(prob, opts)],
        "dca_l12": lambda prob, opts: dca_unconstrained((PenaltyKind.L1_MINUS_2,), prob, opts),
        "dca_stack": lambda prob, opts: dca_unconstrained(_DCA_KINDS, prob, opts),
    }[name]
    refs = run(prob, opts)
    original = GramRidgeSolver.offset_solve
    calls = [0]

    def copying(self, *args):
        calls[0] += 1
        return np.full_like(original(self, *args), np.nan)

    with monkeypatch.context() as mp:
        mp.setattr(GramRidgeSolver, "offset_solve", copying)
        reps = run(prob, opts)
    assert calls[0] >= max(ref.inner_iterations_total for ref in refs) > solvers_mod.ADMM_BLOCK
    assert len(reps) == len(refs)
    for rep, ref in zip(reps, refs):
        _assert_reports_equal(rep, ref)


_DCA_KINDS = (PenaltyKind.TL1, PenaltyKind.L1_MINUS_2, PenaltyKind.MCP)


def _assert_reports_bit_identical(rep, ref):
    assert rep.x_star.dtype == ref.x_star.dtype and rep.x_star.shape == ref.x_star.shape
    assert rep.x_star.tobytes() == ref.x_star.tobytes()
    assert np.array(rep.objective_trace).tobytes() == np.array(ref.objective_trace).tobytes()
    assert np.float64(rep.residual).tobytes() == np.float64(ref.residual).tobytes()
    assert rep.status is ref.status
    assert rep.outer_iterations == ref.outer_iterations
    assert rep.inner_iterations_total == ref.inner_iterations_total


# The DCA baselines run as one stack of lasso rows.  Whatever the kinds and
# their order, each row is bit for bit the run of its kind alone, a stack of
# one, while the rows stop their inner solves and settle at different steps.
@settings(max_examples=12, deadline=None)
@given(
    shape=st.sampled_from([(12, 30), (30, 12)]),
    seed=st.integers(0, 2**16),
    kinds=st.permutations(_DCA_KINDS).flatmap(lambda p: st.sampled_from([p[:1], p[:2], p[:3]])),
    max_inner=st.sampled_from([1, 31, 33, 120]),
    eps_inner=st.sampled_from([1e-5, 1e-3]),
)
def test_stacked_dca_rows_are_their_solo_runs(shape, seed, kinds, max_inner, eps_inner):
    m, n = shape
    rng = np.random.default_rng(seed)
    A = rng.standard_normal(shape) / np.sqrt(m)
    x = np.zeros(n)
    x[rng.choice(n, 3, replace=False)] = rng.standard_normal(3)
    prob = ProblemInstance(A, A @ x)
    opts = SolverOptions(alpha=0.5, eps_inner=eps_inner, max_inner=max_inner)
    stacked = dca_unconstrained(kinds, prob, opts)
    assert len(stacked) == len(kinds)
    for kind, rep in zip(kinds, stacked):
        (solo,) = dca_unconstrained((kind,), prob, opts)
        _assert_reports_bit_identical(rep, solo)


def _failing_row_on_call(monkeypatch, pos, k, value=np.nan):
    """Patch GramRidgeSolver.offset_solve so that its k-th stacked x-update
    that computes stack row ``pos`` writes ``value`` into one entry of that
    row, in place; returns the calls counted up to it and the stack height
    there."""
    original = GramRidgeSolver.offset_solve
    calls, heights = [0], []

    def failing(self, op, c, out, rows):
        result = original(self, op, c, out, rows)
        if out.ndim == 2 and calls[0] < k and pos < out.shape[0]:
            if any(np.shares_memory(t, out[pos]) for _, _, t in rows):
                calls[0] += 1
                if calls[0] == k:
                    heights.append(out.shape[0])
                    result[pos, result.shape[1] // 2] = value
        return result

    monkeypatch.setattr(GramRidgeSolver, "offset_solve", failing)
    return calls, heights


# A row whose x-update turns non-finite ends its own solver only: its report
# is the NUMERIC_FAILURE report of its kind alone, at its last completed step,
# and the other rows carry on to their reports of a clean run.  The 9th
# x-update falls in the first outer step, the 27th in the second
# (max_inner = 20), where every row is still in the stack.
@pytest.mark.parametrize("k", [9, 27])
@pytest.mark.parametrize("pos", [0, 1, 2])
def test_non_finite_row_fails_alone_in_the_stack(monkeypatch, pos, k):
    prob, _ = _gaussian_instance(16, 40, 3, 2)
    opts = SolverOptions(max_inner=20)
    with monkeypatch.context() as mp:
        _failing_row_on_call(mp, 0, k)
        (solo,) = dca_unconstrained((_DCA_KINDS[pos],), prob, opts)
    with monkeypatch.context() as mp:
        calls, heights = _failing_row_on_call(mp, pos, k)
        stacked = dca_unconstrained(_DCA_KINDS, prob, opts)
    assert heights == [3] and calls[0] == k
    clean = dca_unconstrained(_DCA_KINDS, prob, opts)
    assert solo.status is SolverStatus.NUMERIC_FAILURE
    assert solo.outer_iterations == (k - 1) // opts.max_inner
    assert solo.inner_iterations_total == k - 1
    for r, rep in enumerate(stacked):
        _assert_reports_bit_identical(rep, solo if r == pos else clean[r])


# At xi = 0 and tau = 0 the springback subproblem is basis pursuit,
# min ||x||_1 s.t. A x = b, a linear program in x = x+ - x-.  The instances
# are as small as ACCEPTANCE 8's support enumeration makes cheap (m = 2-4,
# n <= 8, unit columns) with a 1-sparse signal, which basis pursuit recovers
# as its unique solution (|<a_i, a_j>| < 1).  The ADMM run to a tight
# tolerance gives the LP's solution: over these 20 instances it stops after
# 25-232 iterations with the largest entrywise gap 1.5e-12, hence 1e-9.
def test_admm_subproblem_at_tau_zero_is_the_lp_solution():
    rng = np.random.default_rng(81)
    for _ in range(20):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, 9))
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        xbar = np.zeros(n)
        xbar[int(rng.integers(n))] = rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.2)
        b = A @ xbar
        split = np.hstack([A, -A])  # x = x+ - x-, x+, x- >= 0
        lp = scipy.optimize.linprog(np.ones(2 * n), A_eq=split, b_eq=b, bounds=(0, None), method="highs")
        assert lp.success
        x_lp = lp.x[:n] - lp.x[n:]
        np.testing.assert_allclose(x_lp, xbar, rtol=0, atol=1e-12)
        opts = SolverOptions(eps_inner=1e-12, max_inner=20000)
        x = admm_subproblem(ProblemInstance(A, b, 0.0), np.zeros(n), opts)
        assert np.abs(x - x_lp).max() <= 1e-9


# A later DCA step at tau = 0 has xi != 0: min ||x||_1 - <xi, x> s.t. A x = b,
# still an LP in x = x+ - x-, with costs 1 - xi and 1 + xi, bounded while
# every |xi_i| < 1.  On instances like those above with xi uniform in
# [-0.9, 0.9]^n the ADMM stops after 22-737 iterations; the largest gaps to
# the LP are 3.4e-12 in the objective and 2.8e-12 in x, with ||A x - b|| at
# most 9.0e-16, hence 1e-9.
def test_admm_subproblem_with_xi_at_tau_zero_is_the_lp_solution():
    rng = np.random.default_rng(82)
    for _ in range(20):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, 9))
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        xbar = np.zeros(n)
        xbar[int(rng.integers(n))] = rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.2)
        b = A @ xbar
        xi = rng.uniform(-0.9, 0.9, n)
        cost = np.concatenate([1.0 - xi, 1.0 + xi])
        lp = scipy.optimize.linprog(cost, A_eq=np.hstack([A, -A]), b_eq=b, bounds=(0, None), method="highs")
        assert lp.success
        x_lp = lp.x[:n] - lp.x[n:]
        opts = SolverOptions(eps_inner=1e-12, max_inner=200000)
        x = admm_subproblem(ProblemInstance(A, b, 0.0), xi, opts)
        assert abs(np.abs(x).sum() - xi @ x - lp.fun) <= 1e-9
        assert np.abs(x - x_lp).max() <= 1e-9
        assert np.linalg.norm(A @ x - b) <= 1e-9


# Every inner loop's scaled l1 dual is u = clamp(x + u, -t, t), so its kept
# state is prox-optimal: ||u||_inf <= t, and u = t sign(y) wherever the
# soft-thresholded y is nonzero.  At scale 1e20 x + u exceeds 2^53, where
# p - (p - clamp(p)) is not clamp(p).
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    loop=st.sampled_from(("springback, tau = 0", "springback, tau > 0", "lasso")),
    shape=st.sampled_from(((6, 15), (15, 6), (8, 8))),
    exponent=st.integers(0, 20),
    max_inner=st.integers(1, 80),
    seed=st.integers(0, 2**16),
)
@example(loop="springback, tau = 0", shape=(6, 15), exponent=20, max_inner=5, seed=1)
@example(loop="springback, tau > 0", shape=(6, 15), exponent=20, max_inner=5, seed=1)
@example(loop="lasso", shape=(6, 15), exponent=20, max_inner=5, seed=1)
def test_every_inner_loop_keeps_a_prox_optimal_dual(loop, shape, exponent, max_inner, seed):
    m, n = shape
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    xbar = np.zeros(n)
    xbar[rng.choice(n, 2, replace=False)] = rng.standard_normal(2)
    e = 0.01 * rng.standard_normal(m) if loop == "springback, tau > 0" else np.zeros(m)
    scale = 10.0**exponent
    prob = ProblemInstance(A, scale * (A @ xbar + e), scale * float(np.linalg.norm(e)))
    xi = rng.uniform(-1.0, 1.0, n)
    state = fresh_admm_state(prob)
    if loop == "lasso":
        lam = 10.0 ** rng.uniform(-8.0, 0.0)
        t = lam / prob.gram_solver.zeta
        solvers_mod._lasso_admm(prob.A, prob.b, [lam], [xi], prob.gram_solver, [state], 1e-5, max_inner)
    else:
        t = 1.0
        try:
            admm_subproblem(prob, xi, SolverOptions(max_inner=max_inner), warm=state)
        except NumericError:
            pass  # the state holds the last finite iterate, which the test reads
    assert np.abs(state.u).max() <= t
    moved = state.y != 0.0
    np.testing.assert_array_equal(state.u[moved], t * np.sign(state.y[moved]))


def _overflowing_instance(scale, tau=0.0):
    # finite data; at 1e200 the Gram matrix A A^T overflows, at 1e100 the
    # springback x-update at tau > 0 (RHO A^T w cancels against A^T H of
    # itself) and the AIHT step size do
    A = scale * np.hstack([np.eye(3), np.eye(3)[:, :1], np.zeros((3, 1))])
    return ProblemInstance(A, scale * np.ones(3), tau)


def _all_solvers(prob, opts):
    reports = {
        "springback": dca_springback(prob, opts),
        "admm_l1": admm_l1(prob, opts),
        "irls_lp": irls_lp(prob, opts),
        "aiht": aiht(prob, opts),
    }
    for kind in (PenaltyKind.TL1, PenaltyKind.L1_MINUS_2, PenaltyKind.MCP):
        (reports[kind.value],) = dca_unconstrained((kind,), prob, opts)
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
    assert reports["aiht"].status is SolverStatus.NUMERIC_FAILURE
    rep = dca_springback(_overflowing_instance(1e100, 1.0), SolverOptions())
    assert rep.status is SolverStatus.NUMERIC_FAILURE
    assert np.isfinite(rep.x_star).all()
    # at tau = 0 the m-space x-update is scale-free: w, q and eta take the
    # scales of b, 1 / scale and 1 / scale, and nothing overflows
    rep = reports["springback"]
    assert rep.status is SolverStatus.CONVERGED
    np.testing.assert_allclose(rep.x_star, [0.5, 1.0, 1.0, 0.5, 0.0], atol=1e-9)


def test_finite_x_update_with_overflowing_a_x_is_a_numeric_failure():
    # at 1e110 and tau > 0 the first x-update is finite, near 1e209, but A x
    # overflows; the ball projection meets the non-finite z, and the inner
    # ADMM ends at its cold start, as on a non-finite x-update
    prob = _overflowing_instance(1e110, 1.0)
    state = fresh_admm_state(prob)
    with pytest.raises(NumericError):
        admm_subproblem(prob, np.zeros(5), SolverOptions(), warm=state)
    _assert_states_equal(state, fresh_admm_state(prob), ("x", "y", "z", "u", "eta"))
    rep = dca_springback(prob, SolverOptions())
    assert rep.status is SolverStatus.NUMERIC_FAILURE
    assert rep.inner_iterations_total == 0


def test_lasso_solvers_share_one_factor_per_instance(monkeypatch):
    # all seven solvers: springback and the four lasso solvers share the
    # instance's one GramRidgeSolver, and irls_lp and aiht build none
    prob, _ = _gaussian_instance(16, 40, 3, 2)
    opts = SolverOptions(max_inner=20)
    built = []
    original = GramRidgeSolver.__init__

    def counting(self, A, zeta):
        built.append(zeta)
        original(self, A, zeta)

    monkeypatch.setattr(GramRidgeSolver, "__init__", counting)
    reports = _all_solvers(prob, opts)
    assert len(reports) == 7
    assert built == [solvers_mod.ZETA_LASSO]


def test_shared_operator_constants():
    # springback's x-update (RHO A^T A + I)^-1 r, at its splitting penalty 1,
    # is the shared solver's ZETA_LASSO (A^T A + ZETA_LASSO I)^-1 r only while
    # ZETA_LASSO = 1 / RHO; 1 / 1e5 is 1e-5 in binary64, bit for bit
    assert solvers_mod.ZETA_LASSO == 1.0 / solvers_mod.RHO
    assert (solvers_mod.RHO, solvers_mod.ZETA_LASSO) == (1e5, 1e-5)
