"""Tests for the DCA-springback solver and the baseline solvers."""

import numpy as np
import pytest
import scipy.optimize

from springback.bounds import RipProfile
from springback.errors import InvalidParameterError
from springback.penalties import PenaltyKind
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
    hard_threshold,
    irls_lp,
    posterior_verify,
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


def test_solver_options_validation():
    with pytest.raises(InvalidParameterError):
        SolverOptions(alpha=0.0)
    with pytest.raises(InvalidParameterError):
        SolverOptions(max_outer=0)
    with pytest.raises(InvalidParameterError):
        SolverOptions(p=1.5)


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
    prof = RipProfile(s=10, delta3s=0.25, delta4s=1.0 / 3.0)
    rep = dca_springback(prob, SolverOptions(alpha=alpha), prof=prof)
    assert rep.convergence_alpha_ok is True
    assert rep.posterior_alpha_ok is not None
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
    x = admm_subproblem(prob, np.zeros(2), np.zeros(2), SolverOptions())
    np.testing.assert_allclose(x, b, atol=1e-4)


def test_admm_subproblem_matches_bp_linear_program():
    # with xi = 0 and tau = 0 the subproblem is basis pursuit, an LP
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 4))
    xbar = np.zeros(4)
    xbar[1] = 1.3
    b = A @ xbar
    prob = ProblemInstance(A, b, 0.0)
    x = admm_subproblem(
        prob, np.zeros(4), np.zeros(4), SolverOptions(eps_inner=1e-9, max_inner=5000)
    )
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
    state = fresh_admm_state(prob, opts)
    x1 = admm_subproblem(prob, np.zeros(40), np.zeros(40), opts, warm=state)
    before = state.iterations
    x2 = admm_subproblem(prob, np.zeros(40), np.zeros(40), opts, warm=state)
    assert state.iterations - before <= 1
    np.testing.assert_allclose(x1, x2, atol=1e-4)


def test_admm_l1_orthonormal_design_is_soft_thresholding():
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 4)))
    b = rng.standard_normal(8)
    lam = 0.3
    opts = SolverOptions(reg_lambda=lam, zeta=1.0, eps_outer=1e-10)
    rep = admm_l1(ProblemInstance(Q, b), opts)
    atb = Q.T @ b
    expected = np.sign(atb) * np.maximum(np.abs(atb) - lam, 0.0)
    np.testing.assert_allclose(rep.x_star, expected, atol=1e-6)


def test_admm_l1_small_lambda_square_system():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    b = rng.standard_normal(4)
    rep = admm_l1(ProblemInstance(A, b), SolverOptions(reg_lambda=1e-10, zeta=1e-6))
    np.testing.assert_allclose(rep.x_star, np.linalg.solve(A, b), atol=1e-4)


def test_admm_l1_large_lambda_zero_solution():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((6, 3))
    b = rng.standard_normal(6)
    lam = 2.0 * np.abs(A.T @ b).max()
    rep = admm_l1(ProblemInstance(A, b), SolverOptions(reg_lambda=lam, zeta=1.0))
    np.testing.assert_allclose(rep.x_star, np.zeros(3), atol=1e-8)


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
    opts = SolverOptions(eps_inner=1e-9, max_inner=3000, mu=2.0)
    from itertools import combinations

    from springback.penalties import ThresholdParams, penalty_value

    lam = opts.reg_lambda
    params = ThresholdParams(lam=lam, mu=opts.mu)

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


def test_alpha_subroutine_branches():
    # well-conditioned, sigma-based value above the safeguard -> 0.7
    A = np.eye(3)
    assert alpha_subroutine(A, np.array([0.5, 0.0, 0.0]), 0.0) == pytest.approx(0.7)
    # well-conditioned, safeguard inactive -> sigma-based value
    b = np.zeros(3)
    b[0] = 20.0 / 3.0
    assert alpha_subroutine(A, b, 0.0) == pytest.approx(0.3)
    # ill-conditioned -> floored at omega
    A2 = np.diag([100.0, 1.0])
    b2 = np.array([0.0, 200.0])
    assert alpha_subroutine(A2, b2, 0.0, omega=0.5) == pytest.approx(0.5)
    with pytest.raises(InvalidParameterError):
        alpha_subroutine(A, np.zeros(3), 0.0)


def test_posterior_verify():
    prof = RipProfile(s=20, delta3s=0.25, delta4s=1.0 / 3.0)
    x = np.zeros(5)
    x[0] = 1.0
    assert posterior_verify(prof, 0.6, x)  # bound ~ 0.68468
    assert not posterior_verify(prof, 0.7, x)
    assert posterior_verify(prof, 1e-12, x)
    assert posterior_verify(prof, 5.0, np.zeros(5))


def test_feasibility_at_exit_constrained():
    for seed in range(3):
        prob, _ = _gaussian_instance(32, 100, 5, seed + 20)
        alpha = alpha_subroutine(prob.A, prob.b, prob.tau)
        rep = dca_springback(prob, SolverOptions(alpha=alpha))
        assert rep.residual <= prob.tau + 1e-4 * (1 + np.linalg.norm(prob.b))
