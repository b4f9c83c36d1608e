"""Sparse recovery solvers behind a uniform report interface.

The main solver is ``dca_springback``: an outer difference-of-convex loop
that linearizes the concave part of the springback penalty and solves each
convex subproblem with a scaled ADMM on the noise-ball-constrained model.
Six baselines accompany it: unconstrained ADMM for the l1 (lasso) model,
DCA wrappers for the transformed-l1 / MCP / l1-minus-l2 penalties, IRLS for
the smoothed lp quasi-norm, and accelerated iterative hard thresholding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bounds import RipProfile, alpha_posterior_bound, convergence_alpha_bound
from .errors import InvalidParameterError, NumericError
from .linalg import (
    GramRidgeSolver,
    SpdFactor,
    as_matrix,
    as_vector,
    l2_ball_project,
    singular_extremes,
)
from .penalties import PenaltyKind, ThresholdParams, dc_concave_gradient, penalty_value

__all__ = [
    "ProblemInstance",
    "SolverOptions",
    "SolverStatus",
    "SolverReport",
    "AdmmState",
    "dca_springback",
    "admm_subproblem",
    "admm_l1",
    "dca_unconstrained",
    "irls_lp",
    "aiht",
    "hard_threshold",
    "alpha_subroutine",
    "posterior_verify",
]

_TINY = 1e-300

# Fixed algorithm constants.  RHO and ZETA_INNER are the constraint and
# splitting penalties of the springback inner ADMM (the soft threshold there is
# 1/ZETA_INNER, which a unit penalty keeps usable); ADMM_MAX caps the lasso
# ADMM baseline; TL1_BETA is the transformed-l1 shape; IRLS_* set the initial
# smoothing, the stopping tolerance and the sweep cap of irls_lp.
RHO = 1e5
ZETA_INNER = 1.0
ADMM_MAX = 5000
TL1_BETA = 1.0
IRLS_EPS0 = 1.0
IRLS_TOL = 1e-8
IRLS_MAX = 1000


@dataclass(frozen=True)
class ProblemInstance:
    """A recovery instance: sensing matrix, observation, noise radius.

    b may be zero for degenerate instances (e.g. a zero ground truth); the
    solvers then return the zero vector.  A, b and ground_truth are stored as
    read-only views, so a solver that writes into a shared instance fails at
    the offending line.
    """

    A: np.ndarray
    b: np.ndarray
    tau: float = 0.0
    ground_truth: np.ndarray | None = None

    def __post_init__(self):
        A = as_matrix(self.A)
        b = as_vector(self.b)
        if A.shape[0] != b.shape[0]:
            raise InvalidParameterError(
                f"A has {A.shape[0]} rows but b has length {b.shape[0]}"
            )
        if self.tau < 0:
            raise InvalidParameterError("tau must be nonnegative")
        if self.ground_truth is not None:
            g = as_vector(self.ground_truth)
            if g.shape[0] != A.shape[1]:
                raise InvalidParameterError("ground_truth length must match A columns")
            object.__setattr__(self, "ground_truth", _read_only(g))
        object.__setattr__(self, "A", _read_only(A))
        object.__setattr__(self, "b", _read_only(b))


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class SolverOptions:
    """Shared solver parameters; defaults follow the standard experiment setup.

    zeta is the splitting penalty of the lasso ADMM (the l1 baseline and the
    DCA baselines); the springback inner ADMM uses the fixed RHO, ZETA_INNER.
    """

    alpha: float = 0.7
    zeta: float = 1e-5
    eps_outer: float = 1e-5
    max_outer: int = 10
    eps_inner: float = 1e-5
    max_inner: int = 500
    reg_lambda: float = 1e-6
    sparsity_estimate: int = 1
    p: float = 0.5
    mu: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "zeta", "eps_outer", "eps_inner", "reg_lambda", "mu"):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(f"{name} must be positive")
        for name in ("max_outer", "max_inner", "sparsity_estimate"):
            if getattr(self, name) < 1:
                raise InvalidParameterError(f"{name} must be a positive integer")
        if not (0.0 < self.p < 1.0):
            raise InvalidParameterError("p must lie in (0, 1)")


class SolverStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    INFEASIBLE_START = "infeasible_start"
    NUMERIC_FAILURE = "numeric_failure"


@dataclass
class SolverReport:
    x_star: np.ndarray
    outer_iterations: int
    inner_iterations_total: int
    objective_trace: list[float]
    residual: float
    status: SolverStatus
    posterior_alpha_ok: bool | None = None
    convergence_alpha_ok: bool | None = None


@dataclass
class AdmmState:
    """Warm-start state of the constrained inner ADMM, updated in place."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    u: np.ndarray
    eta: np.ndarray
    solver: GramRidgeSolver
    iterations: int = 0


def _report(prob, x, outer, inner, trace, status, **flags) -> SolverReport:
    """Report of a finished solve, with residual ||A x - b||_2."""
    residual = float(np.linalg.norm(prob.A @ x - prob.b))
    return SolverReport(x, outer, inner, trace, residual, status, **flags)


def _soft(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _rel_change(new: np.ndarray, old: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(new)), float(np.linalg.norm(old)), _TINY)
    return float(np.linalg.norm(new - old)) / denom


def _check_finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"{what} produced non-finite values")
    return x


def fresh_admm_state(prob: ProblemInstance, opts: SolverOptions) -> AdmmState:
    """Cold state with the cached x-update factorization for the instance."""
    m, n = prob.A.shape
    return AdmmState(
        x=np.zeros(n),
        y=np.zeros(n),
        z=np.zeros(m),
        u=np.zeros(n),
        eta=np.zeros(m),
        solver=GramRidgeSolver(prob.A, RHO, ZETA_INNER),
    )


def admm_subproblem(
    prob: ProblemInstance,
    xk: np.ndarray,
    xi: np.ndarray,
    opts: SolverOptions,
    warm: AdmmState | None = None,
) -> np.ndarray:
    """Scaled ADMM for min ||x||_1 - <x - xk, xi> s.t. ||Ax - b||_2 <= tau.

    The stopping test requires the relative x-change, the x/y consensus gap,
    and the constraint residual to be small together; the change test alone
    fires spuriously in the first iterations when the soft threshold keeps
    both iterates at zero.
    """
    A, b, tau = prob.A, prob.b, prob.tau
    xk = as_vector(xk)
    xi = as_vector(xi)
    st = warm if warm is not None else fresh_admm_state(prob, opts)
    rho, zeta, eps = RHO, ZETA_INNER, opts.eps_inner
    for _ in range(opts.max_inner):
        x_old = st.x
        rhs = rho * (A.T @ (b + st.z - st.eta)) + xi + zeta * (st.y - st.u)
        x = _check_finite(st.solver.solve(rhs), "inner ADMM x-update")
        y = _soft(x + st.u, 1.0 / zeta)
        Ax = A @ x
        if tau == 0.0:
            z = np.zeros_like(b)
        else:
            z = l2_ball_project(Ax - b + st.eta, tau)
        st.u = st.u + x - y
        st.eta = st.eta + Ax - b - z
        st.x, st.y, st.z = x, y, z
        st.iterations += 1
        xnorm = float(np.linalg.norm(x))
        if (
            _rel_change(x, x_old) < eps
            and float(np.linalg.norm(x - y)) <= eps * max(1.0, xnorm)
            and float(np.linalg.norm(Ax - b)) <= tau + 1e-6
        ):
            break
    return st.x.copy()


def _dca_iterates(x: np.ndarray, opts: SolverOptions, step):
    """The outer DCA loop shared by every difference-of-convex solver.

    ``step`` maps the iterate x^k to the solution x^{k+1} of the convex
    subproblem linearized at x^k.  Starting from x, yields (x^{k+1},
    converged) per outer step, for at most opts.max_outer steps; converged
    means min(delta, delta / ||x^k||) <= eps_outer with delta = ||x^{k+1} -
    x^k||, and ends the loop.
    """
    for _ in range(opts.max_outer):
        x_new = step(x)
        delta = float(np.linalg.norm(x_new - x))
        xnorm = float(np.linalg.norm(x))
        converged = (min(delta, delta / xnorm) if xnorm > 0 else delta) <= opts.eps_outer
        x = x_new
        yield x, converged
        if converged:
            return


def dca_springback(
    prob: ProblemInstance,
    opts: SolverOptions,
    prof: RipProfile | None = None,
    posterior_eps: float = 0.0,
) -> SolverReport:
    """Difference-of-convex algorithm for the constrained springback model.

    Each outer step linearizes the concave part at x^k (xi = alpha x^k) and
    hands the resulting convex subproblem to the warm-started inner ADMM.
    The objective trace records F at the inner solutions; the infeasible
    zero start itself is excluded because F(0) = 0 carries no information
    about the constrained objective.
    """
    A, b, tau = prob.A, prob.b, prob.tau
    alpha = opts.alpha
    params = ThresholdParams(alpha=alpha)
    conv_ok = None
    if float(np.linalg.norm(b)) + tau > 0:
        conv_ok = alpha <= convergence_alpha_bound(A, b, tau)
    state = fresh_admm_state(prob, opts)

    def step(x):
        return admm_subproblem(prob, x, alpha * x, opts, warm=state)

    x = np.zeros(A.shape[1])
    trace: list[float] = []
    status = SolverStatus.MAX_ITER
    infeasible = False
    try:
        for x, converged in _dca_iterates(x, opts, step):
            if not trace:  # feasibility is judged at the first outer step
                infeasible = float(np.linalg.norm(A @ x - b)) > tau + 1e-4
            trace.append(penalty_value(PenaltyKind.SPRINGBACK, x, params))
            if converged:
                status = SolverStatus.CONVERGED
    except NumericError:
        status = SolverStatus.NUMERIC_FAILURE
    if infeasible and status is not SolverStatus.NUMERIC_FAILURE:
        status = SolverStatus.INFEASIBLE_START
    posterior = None
    if prof is not None:
        posterior = posterior_verify(prof, alpha, x, posterior_eps)
    return _report(
        prob, x, len(trace), state.iterations, trace, status,
        posterior_alpha_ok=posterior, convergence_alpha_ok=conv_ok,
    )


@dataclass
class _LassoState:
    """Warm-start state of the lasso ADMM, updated in place; y is the sparse
    iterate and solver the cached (A^T A + zeta I) factor."""

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    zeta: float
    solver: GramRidgeSolver
    iterations: int = 0


def _lasso_state(A: np.ndarray, zeta: float) -> _LassoState:
    n = A.shape[1]
    return _LassoState(np.zeros(n), np.zeros(n), np.zeros(n), zeta, GramRidgeSolver(A, 1.0, zeta))


def _lasso_admm(
    A: np.ndarray,
    b: np.ndarray,
    lam: float,
    linear: np.ndarray | None,
    st: _LassoState,
    eps: float,
    max_iter: int,
    trace: list[float] | None = None,
) -> bool:
    """Two-block ADMM for min 0.5||Ax-b||^2 + lam||x||_1 - <linear, x>
    (Boyd et al. 2011, section 6.4), continued from the warm state ``st``.

    Runs at most max_iter iterations and returns whether the stopping test
    fired.  With ``trace`` given, appends 0.5||Ay-b||^2 + lam||y||_1 at every
    sparse iterate y.
    """
    zeta = st.zeta
    x, y, u = st.x, st.y, st.u
    rhs_const = A.T @ b if linear is None else A.T @ b + linear
    for _ in range(max_iter):
        x_old = x
        x = _check_finite(st.solver.solve(rhs_const + zeta * (y - u)), "lasso ADMM x-update")
        y = _soft(x + u, lam / zeta)
        u = u + x - y
        st.x, st.y, st.u = x, y, u
        st.iterations += 1
        if trace is not None:
            r = A @ y - b
            trace.append(0.5 * float(r @ r) + lam * float(np.abs(y).sum()))
        if _rel_change(x, x_old) < eps and float(np.linalg.norm(x - y)) <= eps * max(
            1.0, float(np.linalg.norm(x))
        ):
            return True
    return False


def admm_l1(prob: ProblemInstance, opts: SolverOptions) -> SolverReport:
    """ADMM for the unconstrained l1 model 0.5||Ax-b||^2 + lam||x||_1."""
    A, b = prob.A, prob.b
    st = _lasso_state(A, opts.zeta)
    trace: list[float] = []
    status = SolverStatus.MAX_ITER
    try:
        if _lasso_admm(A, b, opts.reg_lambda, None, st, opts.eps_outer, ADMM_MAX, trace):
            status = SolverStatus.CONVERGED
    except NumericError:
        status = SolverStatus.NUMERIC_FAILURE
    return _report(prob, st.y, st.iterations, st.iterations, trace, status)


def dca_unconstrained(
    kind: PenaltyKind, prob: ProblemInstance, opts: SolverOptions
) -> SolverReport:
    """DCA for unconstrained models 0.5||Ax-b||^2 + lam R(x) with R one of
    the transformed l1, MCP, or l1-minus-l2 penalties.

    The concave part is linearized via its gradient, leaving an l1-regularized
    least-squares subproblem (weight lam for l1-2/MCP, lam (beta+1)/beta for
    the transformed l1) handled by the lasso ADMM core with warm restarts.
    """
    if kind not in (PenaltyKind.L1_MINUS_2, PenaltyKind.TL1, PenaltyKind.MCP):
        raise InvalidParameterError(f"no DCA baseline for {kind!r}")
    A, b = prob.A, prob.b
    lam = opts.reg_lambda
    l1_weight = lam * (TL1_BETA + 1.0) / TL1_BETA if kind is PenaltyKind.TL1 else lam
    params = ThresholdParams(
        lam=lam, alpha=opts.alpha, mu=opts.mu, beta=TL1_BETA, p=opts.p
    )
    st = _lasso_state(A, opts.zeta)

    def step(x):
        g = lam * dc_concave_gradient(kind, x, params)
        _lasso_admm(A, b, l1_weight, g, st, opts.eps_inner, opts.max_inner)
        return st.y

    x = np.zeros(A.shape[1])
    trace: list[float] = []
    status = SolverStatus.MAX_ITER
    try:
        for x, converged in _dca_iterates(x, opts, step):
            r = A @ x - b
            trace.append(0.5 * float(r @ r) + lam * penalty_value(kind, x, params))
            if converged:
                status = SolverStatus.CONVERGED
    except NumericError:
        status = SolverStatus.NUMERIC_FAILURE
    return _report(prob, x, len(trace), st.iterations, trace, status)


def irls_lp(prob: ProblemInstance, opts: SolverOptions) -> SolverReport:
    """Iteratively reweighted least squares for the smoothed lp model
    0.5||Ax-b||^2 + lam sum_j (x_j^2 + eps^2)^{p/2}.

    Each sweep solves a weighted ridge problem through its m x m dual form;
    the smoothing eps shrinks geometrically as the iterates settle.
    """
    A, b = prob.A, prob.b
    m, n = A.shape
    lam, p = opts.reg_lambda, opts.p
    x = np.zeros(n)
    eps_s = IRLS_EPS0
    trace: list[float] = []
    status = SolverStatus.MAX_ITER
    it = 0
    eye = np.eye(m)
    try:
        for it in range(1, IRLS_MAX + 1):
            w = 0.5 * p * (x * x + eps_s * eps_s) ** (0.5 * p - 1.0)
            d = 2.0 * lam * w
            Ad = A / d
            t = SpdFactor(eye + Ad @ A.T).solve(b)
            x_new = _check_finite(Ad.T @ t, "IRLS ridge solve")
            r = A @ x_new - b
            trace.append(
                0.5 * float(r @ r)
                + lam * float(np.sum((x_new * x_new + eps_s * eps_s) ** (0.5 * p)))
            )
            change = float(np.linalg.norm(x_new - x))
            x = x_new
            if change < IRLS_TOL:
                status = SolverStatus.CONVERGED
                break
            if change < np.sqrt(eps_s):
                eps_s = max(0.1 * eps_s, 1e-8)
    except NumericError:
        status = SolverStatus.NUMERIC_FAILURE
    return _report(prob, x, it, it, trace, status)


def hard_threshold(v: np.ndarray, s: int) -> np.ndarray:
    """Keep the s largest-magnitude entries of v, zeroing the rest.

    Ties are broken stably (lower index wins) and exact zeros are never
    counted, so the result has exactly min(s, nnz(v)) nonzeros.
    """
    v = as_vector(v)
    if s < 0:
        raise InvalidParameterError("s must be nonnegative")
    out = np.zeros_like(v)
    if s == 0:
        return out
    order = np.argsort(-np.abs(v), kind="stable")
    keep = order[:s]
    keep = keep[v[keep] != 0.0]
    out[keep] = v[keep]
    return out


def aiht(prob: ProblemInstance, opts: SolverOptions) -> SolverReport:
    """Accelerated iterative hard thresholding with adaptive step size.

    The gradient step uses mu = ||g_S||^2 / ||A g_S||^2 on the working
    support S; an overrelaxation step doubles the move and is kept only
    when it lowers the residual.
    """
    A, b = prob.A, prob.b
    s = opts.sparsity_estimate
    n = A.shape[1]
    x = np.zeros(n)
    r = b.copy()
    rnorm = float(np.linalg.norm(r))
    trace: list[float] = [rnorm]
    status = SolverStatus.MAX_ITER
    it = 0
    for it in range(1, opts.max_inner + 1):
        g = A.T @ r
        support = np.flatnonzero(x)
        if support.size == 0:
            support = np.flatnonzero(hard_threshold(g, s))
        gS = np.zeros(n)
        gS[support] = g[support]
        AgS = A @ gS
        denom = float(AgS @ AgS)
        if denom <= 0.0:
            status = SolverStatus.CONVERGED
            break
        step = float(gS @ gS) / denom
        x_new = hard_threshold(x + step * g, s)
        r_new = b - A @ x_new
        x_acc = hard_threshold(x_new + (x_new - x), s)
        r_acc = b - A @ x_acc
        if float(np.linalg.norm(r_acc)) < float(np.linalg.norm(r_new)):
            x_new, r_new = x_acc, r_acc
        _check_finite(x_new, "AIHT iterate")
        change = float(np.linalg.norm(x_new - x))
        x, r = x_new, r_new
        rnorm_new = float(np.linalg.norm(r))
        trace.append(rnorm_new)
        if change <= opts.eps_outer * max(1.0, float(np.linalg.norm(x))) or abs(
            rnorm - rnorm_new
        ) <= 1e-12 * max(1.0, rnorm):
            status = SolverStatus.CONVERGED
            rnorm = rnorm_new
            break
        rnorm = rnorm_new
    return _report(prob, x, it, it, trace, status)


def alpha_subroutine(
    A, b, tau: float, omega: float = 0.5, cond_threshold: float = 5.0
) -> float:
    """Data-driven choice of the springback curvature alpha.

    Well-conditioned A: min(0.7, 2 sigma_min / (||b|| + tau)).  Coherent A
    (condition number above the threshold): the same value floored at omega,
    since the sigma-based bound collapses while larger alpha still works.
    """
    A = as_matrix(A)
    b = as_vector(b)
    if omega <= 0 or cond_threshold <= 0:
        raise InvalidParameterError("omega and cond_threshold must be positive")
    denom = float(np.linalg.norm(b)) + tau
    if denom <= 0:
        raise InvalidParameterError("||b||_2 + tau must be positive")
    smin, smax = singular_extremes(A)
    base = min(0.7, 2.0 * smin / denom)
    if smin > 0 and smax / smin <= cond_threshold:
        return base
    return max(omega, base)


def posterior_verify(
    prof: RipProfile, alpha: float, x_star, eps: float = 0.0
) -> bool:
    """Check alpha against the posterior bound evaluated at ||x*||_2 + eps."""
    x_star = as_vector(x_star)
    if eps < 0:
        raise InvalidParameterError("eps must be nonnegative")
    norm = float(np.linalg.norm(x_star)) + eps
    if norm <= 0:
        return True
    return alpha <= alpha_posterior_bound(prof, norm)
