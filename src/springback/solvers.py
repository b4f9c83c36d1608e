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
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericError
from .linalg import (
    GramRidgeSolver,
    SpdFactor,
    as_matrix,
    as_vector,
    singular_extremes,
)
from .penalties import (
    PenaltyKind,
    ThresholdParams,
    dc_concave_gradient,
    penalty_value,
)

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
]

_TINY = 1e-300

# Fixed algorithm constants.  RHO and ZETA_INNER are the constraint and
# splitting penalties of the springback inner ADMM.  The consensus penalty
# ZETA_INNER is 1, which keeps the soft threshold 1/ZETA_INNER usable and lets
# admm_subproblem drop its unit factors.  ZETA_LASSO is the splitting penalty
# of the lasso ADMM; it equals ZETA_INNER / RHO, so that both loops take their
# x-update from the instance's one gram_solver.  LAMBDA is the weight of the
# unconstrained models
# 0.5||Ax-b||^2 + LAMBDA R(x) (admm_l1, dca_unconstrained, irls_lp); ADMM_MAX
# caps the lasso ADMM baseline; MAX_OUTER caps every DCA loop; AIHT_MAX caps
# aiht; IRLS_* set the lp exponent, the initial smoothing, the stopping
# tolerance and the sweep cap of irls_lp; ALPHA_MAX caps the curvature
# alpha_subroutine picks; COND_THRESHOLD is the condition number above which
# alpha_subroutine treats A as coherent, and OMEGA the default floor of alpha
# there; LASSO_BLOCK is the number of lasso ADMM iterations between two
# evaluations of the inner ADMM loops' stopping tests (16 and 64 measured the
# same on the lasso).
RHO = 1e5
ZETA_INNER = 1.0
ZETA_LASSO = 1e-5
LAMBDA = 1e-6
ADMM_MAX = 5000
MAX_OUTER = 10
AIHT_MAX = 500
IRLS_P = 0.5
IRLS_EPS0 = 1.0
IRLS_TOL = 1e-8
IRLS_MAX = 1000
ALPHA_MAX = 0.7
COND_THRESHOLD = 5.0
OMEGA = 0.5
LASSO_BLOCK = 32

# Absolute slacks on the constraint ||Ax - b||_2 <= tau.
FEAS_TOL_INNER = 1e-6  # inner ADMM stop: tight, it certifies a subproblem solution
FEAS_TOL_START = 1e-4  # infeasible-start flag: looser, a solve cut at max_inner ends near the ball


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
        if not 0.0 <= self.tau < math.inf:
            raise InvalidParameterError("tau must be nonnegative and finite")
        if self.ground_truth is not None:
            g = as_vector(self.ground_truth)
            if g.shape[0] != A.shape[1]:
                raise InvalidParameterError("ground_truth length must match A columns")
            object.__setattr__(self, "ground_truth", _read_only(g))
        object.__setattr__(self, "A", _read_only(A))
        object.__setattr__(self, "b", _read_only(b))

    @functools.cached_property
    def gram_solver(self) -> GramRidgeSolver:
        """The (A^T A + ZETA_LASSO I) solver that springback's inner ADMM,
        admm_l1 and the dca_unconstrained baselines share, with its operator
        H, built on first use inside the solver that needs it, so that a Gram
        overflow is that solver's numeric failure.  With ZETA_LASSO = 1/RHO
        its offset_solve(None, r) is springback's (RHO A^T A + I)^-1 r."""
        return GramRidgeSolver(self.A, 1.0, ZETA_LASSO)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class SolverOptions:
    """Shared solver parameters; defaults follow the standard experiment setup.

    The penalties and weights no experiment varies are module constants:
    RHO, ZETA_INNER, ZETA_LASSO and LAMBDA.
    """

    alpha: float = ALPHA_MAX
    eps_outer: float = 1e-5
    eps_inner: float = 1e-5
    max_inner: int = 500
    sparsity_estimate: int = 1

    def __post_init__(self):
        for name in ("alpha", "eps_outer", "eps_inner"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidParameterError(f"{name} must be positive and finite")
        for name in ("max_inner", "sparsity_estimate"):
            if getattr(self, name) < 1:
                raise InvalidParameterError(f"{name} must be a positive integer")


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


@dataclass
class AdmmState:
    """Warm-start state of the constrained inner ADMM."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    u: np.ndarray
    eta: np.ndarray
    iterations: int = 0


def _report(prob, x, outer, inner, trace, status) -> SolverReport:
    """Report of a finished solve, with residual ||A x - b||_2."""
    residual = float(np.linalg.norm(prob.A @ x - prob.b))
    return SolverReport(x, outer, inner, trace, residual, status)


def _check_finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NumericError(f"{what} produced non-finite values")
    return x


def _block_tests(X: np.ndarray, Y: np.ndarray, k: int, eps: float, work: np.ndarray):
    """The stopping tests both inner ADMM loops share, for rows 1..k of a
    block's history arrays, whose row 0 holds the iterate the block starts
    from; called under np.errstate(all="ignore").

    Returns (end, passed).  end is the row before the first row from 1 on
    whose ||x|| is not finite and whose entries confirm it, or k; row 0's x
    enters only row 1's change test, which a non-finite one fails.
    passed[i - 1] says whether row i in 1..end has ||x - x_old|| /
    max(||x||, ||x_old||) < eps and ||x - y|| <= eps max(1, ||x||), bit for
    bit as a per-iteration loop computes them: np.vecdot of a row is
    ndarray.dot of it.
    """
    vecdot, maximum, subtract = np.vecdot, np.maximum, np.subtract
    xnorm = np.sqrt(vecdot(X[: k + 1], X[: k + 1]))
    end = k
    for i in np.flatnonzero(~np.isfinite(xnorm[1:])):
        if not np.isfinite(X[i + 1]).all():
            end = int(i)
            break
    new, old = slice(1, end + 1), slice(0, end)
    dx = subtract(X[new], X[old], work[:end])
    passed = np.sqrt(vecdot(dx, dx)) / maximum(maximum(xnorm[new], xnorm[old]), _TINY) < eps
    if passed.any():  # the later tests matter only where this one passes
        gap = subtract(X[new], Y[new], work[:end])
        passed &= np.sqrt(vecdot(gap, gap)) <= eps * maximum(1.0, xnorm[new])
    return end, passed


def fresh_admm_state(prob: ProblemInstance) -> AdmmState:
    """Cold state for the instance."""
    m, n = prob.A.shape
    return AdmmState(np.zeros(n), np.zeros(n), np.zeros(m), np.zeros(n), np.zeros(m))


def admm_subproblem(
    prob: ProblemInstance,
    xi: np.ndarray,
    opts: SolverOptions,
    warm: AdmmState | None = None,
) -> np.ndarray:
    """Scaled ADMM for min ||x||_1 - <x, xi> s.t. ||Ax - b||_2 <= tau.

    This is the DCA subproblem linearized at x^k, less the constant
    <x^k, xi>, which does not move the argmin.  The stopping test requires the
    relative x-change, the x/y consensus gap, and the constraint residual to
    be small together; the change test alone fires spuriously in the first
    iterations when the soft threshold keeps both iterates at zero.  The warm
    state gets the last finite iterate and the completed iterations on every
    exit, a NumericError from a non-finite x-update included; its arrays are
    copies, so no step touches an array a caller holds.

    With ZETA_INNER = 1 the x-update is (RHO A^T A + I)^-1 rhs with
    rhs = RHO A^T (b + z - eta) + xi + (y - u), computed as
    rhs - A^T (H rhs) through the instance's gram_solver (ZETA_LASSO = 1/RHO),
    and the soft threshold is 1.  At tau = 0 the ball is the origin, so z
    stays the zero vector and drops out of both sums.

    The iterations run in blocks of LASSO_BLOCK, as in _lasso_admm: iteration
    k of a block writes x, y, u, eta, A x (and z at tau > 0) into row k of
    per-call history arrays, and after the block _block_tests and one
    row-wise ||A x - b|| <= tau + FEAS_TOL_INNER give every row's stopping
    test.  The first row that passes ends the call.  A row whose x is not
    finite ends the call at the row before, with NumericError: found after
    the block, or at once at tau > 0, where the ball projection needs ||z||
    and a non-finite x makes z non-finite.  An x-update returned in an array
    other than its row (a wrapped solver) is copied into the row, checked,
    and ends the block there.
    """
    A, b, tau = prob.A, prob.b, prob.tau
    At = A.T
    xi = as_vector(xi)
    st = warm if warm is not None else fresh_admm_state(prob)
    step = prob.gram_solver.offset_solve
    # Locally bound ufuncs with a positional out (the keyword for maximum and
    # minimum) and 0-d array constants are the forms numpy dispatches fastest.
    add, subtract, maximum, minimum = np.add, np.subtract, np.maximum, np.minimum
    rho, eps, feas = np.array(RHO), opts.eps_inner, tau + FEAS_TOL_INNER
    lo, hi = np.array(-1.0), np.array(1.0)  # the soft threshold's clamp
    scale = np.array(0.0)  # the ball projection's tau / ||z||
    m, n = A.shape
    X, Y, U = (np.empty((LASSO_BLOCK + 1, n)) for _ in range(3))
    Z, ETA, AX = (np.empty((LASSO_BLOCK + 1, m)) for _ in range(3))
    X[0], Y[0], U[0], Z[0], ETA[0] = st.x, st.y, st.u, st.z, st.eta
    xs, ys, us, zs, etas, axs = (list(V) for V in (X, Y, U, Z, ETA, AX))  # row views
    rhs, p, clamped, diff = (np.empty(n) for _ in range(4))
    w, r = np.empty(m), np.empty(m)
    work, rwork = np.empty((LASSO_BLOCK, n)), np.empty((LASSO_BLOCK, m))
    max_inner = opts.max_inner
    done, last = 0, 0  # the iterations completed, the row holding the state
    try:
        while done < max_inner:
            bad = 0  # the row left unfinished on a non-finite x or z, if any
            for k in range(1, min(LASSO_BLOCK, max_inner - done) + 1):
                eta, eta_k, u = etas[k - 1], etas[k], us[k - 1]
                if tau == 0.0:
                    subtract(b, eta, w)
                else:
                    add(b, zs[k - 1], w)
                    w -= eta
                At.dot(w, rhs)
                rhs *= rho
                rhs += xi
                rhs += subtract(ys[k - 1], u, diff)
                row, y, Ax = xs[k], ys[k], axs[k]
                x = step(None, rhs, row)
                if x is not row:  # a wrapped solver: check this row now
                    np.copyto(row, x)
                    if not np.isfinite(row).all():
                        bad = k
                        break
                add(x, u, p)
                subtract(p, minimum(maximum(p, lo, out=clamped), hi, out=clamped), y)
                A.dot(x, Ax)
                add(eta, Ax, eta_k)
                eta_k -= b
                if tau != 0.0:  # z = projection of A x - b + eta onto the tau-ball
                    z = zs[k]
                    add(subtract(Ax, b, r), eta, z)
                    znorm = math.sqrt(z.dot(z))
                    if not math.isfinite(znorm) and not np.isfinite(z).all():
                        bad = k
                        break
                    if znorm > tau:
                        scale[()] = tau / znorm
                        z *= scale
                    eta_k -= z
                subtract(p, y, us[k])
                if x is not row:
                    break
            top = k - 1 if bad else k  # the last row computed in full
            # Silent, as the Python float arithmetic of the scalar tests was
            with np.errstate(all="ignore"):
                end, passed = _block_tests(X, Y, top, eps, work)
                if passed.any():
                    res = subtract(AX[1 : end + 1], b, rwork[:end])
                    passed &= np.sqrt(np.vecdot(res, res)) <= feas
                fired = np.flatnonzero(passed)
            failed = end < k
            if fired.size:
                end = int(fired[0]) + 1
            done, last = done + end, end
            if fired.size:
                break
            if failed:
                raise NumericError("inner ADMM produced non-finite values")
            X[0], Y[0], U[0], Z[0], ETA[0] = xs[end], ys[end], us[end], zs[end], etas[end]
            last = 0
    finally:
        st.x, st.y, st.u, st.eta = (V[last].copy() for V in (X, Y, U, ETA))
        if tau != 0.0:  # at tau = 0 z is never written
            st.z = Z[last].copy()
        st.iterations += done
    return st.x.copy()


def _dca_iterates(x: np.ndarray, opts: SolverOptions, step):
    """The outer DCA loop shared by every difference-of-convex solver.

    ``step`` maps the iterate x^k to the solution x^{k+1} of the convex
    subproblem linearized at x^k.  Starting from x, yields (x^{k+1},
    converged) per outer step, for at most MAX_OUTER steps; converged
    means min(delta, delta / ||x^k||) <= eps_outer with delta = ||x^{k+1} -
    x^k||, and ends the loop.
    """
    for _ in range(MAX_OUTER):
        x_new = step(x)
        delta = float(np.linalg.norm(x_new - x))
        xnorm = float(np.linalg.norm(x))
        converged = (min(delta, delta / xnorm) if xnorm > 0 else delta) <= opts.eps_outer
        x = x_new
        yield x, converged
        if converged:
            return


def dca_springback(prob: ProblemInstance, opts: SolverOptions) -> SolverReport:
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
    state = fresh_admm_state(prob)

    def step(x):
        return admm_subproblem(prob, alpha * x, opts, warm=state)

    x = np.zeros(A.shape[1])
    trace: list[float] = []
    status = SolverStatus.MAX_ITER
    infeasible = False
    try:
        for x, converged in _dca_iterates(x, opts, step):
            if not trace:  # feasibility is judged at the first outer step
                infeasible = float(np.linalg.norm(A @ x - b)) > tau + FEAS_TOL_START
            trace.append(penalty_value(PenaltyKind.SPRINGBACK, x, params))
            if converged:
                status = SolverStatus.CONVERGED
    except NumericError:
        status = SolverStatus.NUMERIC_FAILURE
    if infeasible and status is not SolverStatus.NUMERIC_FAILURE:
        status = SolverStatus.INFEASIBLE_START
    return _report(prob, x, len(trace), state.iterations, trace, status)


@dataclass
class _LassoState:
    """Warm-start state of the lasso ADMM; y is the sparse iterate and solver
    the (A^T A + zeta I) factor, built by the first call unless the caller
    gives it one (the instance's gram_solver)."""

    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    zeta: float
    solver: GramRidgeSolver | None = None
    iterations: int = 0


def _lasso_state(n: int, zeta: float) -> _LassoState:
    return _LassoState(np.zeros(n), np.zeros(n), np.zeros(n), zeta)


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
    sparse iterate y.  ``st`` gets the last finite iterate and the completed
    iterations on every exit, as in admm_subproblem; the state arrays are
    copies, so no step touches an array a caller holds.

    The x-update (A^T A + zeta I)^-1 (A^T b + linear + zeta (y - u)) is split
    into its constant part x_c, solved once per call, and x_c + (y - u) -
    A^T H (y - u) through the solver's precomputed operator H.  The scaled
    dual is u = clamp(x + u, -t, t), so y = (x + u) - u is the soft threshold.

    The iterations run in blocks of LASSO_BLOCK.  Iteration k of a block
    writes x, u, y (and A y for the trace) into row k of per-call history
    arrays, whose row 0 holds the iterate the block starts from.  After the
    block, _block_tests and row-wise calls give every row's stopping test and
    trace value, bit for bit as a per-iteration loop computes them (a row sum
    of |y| is the vector's sum).  The first row whose stopping test fires
    ends the call, and the rows after it are discarded.  A row whose norm is
    not finite and whose entries confirm it ends the call at the row before,
    with NumericError; the block's later rows, computed from it, may raise
    numpy RuntimeWarnings first.  An x-update returned in an array other than its
    row (a wrapped solver) is copied into the row and ends the block there.
    """
    zeta = st.zeta
    if st.solver is None:
        st.solver = GramRidgeSolver(A, 1.0, zeta)
    step = st.solver.offset_solve
    n = st.x.size
    X, Y, U = (np.empty((LASSO_BLOCK + 1, n)) for _ in range(3))
    X[0], Y[0], U[0] = st.x, st.y, st.u
    xs, ys, us = list(X), list(Y), list(U)  # row views, made once
    R = np.empty((LASSO_BLOCK + 1, b.size)) if trace is not None else None
    rs = list(R) if trace is not None else None
    p, d = (np.empty(n) for _ in range(2))
    work = np.empty((LASSO_BLOCK, n))
    x_c = st.solver.solve(A.T @ b if linear is None else A.T @ b + linear)
    thresh = lam / zeta
    lo, hi = np.array(-thresh), np.array(thresh)  # the clamp of u
    add, subtract, maximum, minimum = np.add, np.subtract, np.maximum, np.minimum
    done, last = 0, 0  # the iterations completed, the row holding the state
    try:
        while done < max_iter:
            for k in range(1, min(LASSO_BLOCK, max_iter - done) + 1):
                row = xs[k]
                x = step(x_c, subtract(ys[k - 1], us[k - 1], d), row)
                add(x, us[k - 1], p)
                minimum(maximum(p, lo, out=us[k]), hi, out=us[k])
                subtract(p, us[k], ys[k])
                if rs is not None:
                    A.dot(ys[k], rs[k])
                if x is not row:  # a wrapped solver: check this row now
                    np.copyto(row, x)
                    break
            # Silent, as the Python float arithmetic of the scalar tests was
            with np.errstate(all="ignore"):
                end, passed = _block_tests(X, Y, k, eps, work)
                failed = end < k
                fired = np.flatnonzero(passed)
                if fired.size:
                    end = int(fired[0]) + 1
                if rs is not None:
                    r = R[1 : end + 1]
                    r -= b
                    l1 = np.abs(Y[1 : end + 1], work[:end]).sum(axis=1)
                    trace.extend((0.5 * np.vecdot(r, r) + lam * l1).tolist())
            done, last = done + end, end
            if fired.size:
                return True
            if failed:
                raise NumericError("lasso ADMM x-update produced non-finite values")
            X[0], Y[0], U[0] = xs[end], ys[end], us[end]
            last = 0
        return False
    finally:
        st.x, st.y, st.u = xs[last].copy(), ys[last].copy(), us[last].copy()
        st.iterations += done


def admm_l1(prob: ProblemInstance, opts: SolverOptions) -> SolverReport:
    """ADMM for the unconstrained l1 model 0.5||Ax-b||^2 + LAMBDA||x||_1."""
    A, b = prob.A, prob.b
    st = _lasso_state(A.shape[1], ZETA_LASSO)
    trace: list[float] = []
    status = SolverStatus.MAX_ITER
    try:
        st.solver = prob.gram_solver
        if _lasso_admm(A, b, LAMBDA, None, st, opts.eps_outer, ADMM_MAX, trace):
            status = SolverStatus.CONVERGED
    except NumericError:
        status = SolverStatus.NUMERIC_FAILURE
    return _report(prob, st.y, st.iterations, st.iterations, trace, status)


def dca_unconstrained(
    kind: PenaltyKind, prob: ProblemInstance, opts: SolverOptions
) -> SolverReport:
    """DCA for unconstrained models 0.5||Ax-b||^2 + lam R(x), lam = LAMBDA, with
    R the transformed l1 (beta = 1), MCP (mu = 1/alpha) or l1-minus-l2 penalty.

    The concave part is linearized via its gradient, leaving an l1-regularized
    least-squares subproblem (weight lam for l1-2/MCP, lam (beta+1)/beta for
    the transformed l1) handled by the lasso ADMM core with warm restarts.
    """
    if kind not in (PenaltyKind.L1_MINUS_2, PenaltyKind.TL1, PenaltyKind.MCP):
        raise InvalidParameterError(f"no DCA baseline for {kind!r}")
    A, b = prob.A, prob.b
    lam = LAMBDA
    params = ThresholdParams(mu=1.0 / opts.alpha)
    beta = params.beta
    l1_weight = lam * (beta + 1.0) / beta if kind is PenaltyKind.TL1 else lam
    st = _lasso_state(A.shape[1], ZETA_LASSO)

    def step(x):
        g = lam * dc_concave_gradient(kind, x, params)
        _lasso_admm(A, b, l1_weight, g, st, opts.eps_inner, opts.max_inner)
        return st.y

    x = np.zeros(A.shape[1])
    trace: list[float] = []
    status = SolverStatus.MAX_ITER
    try:
        st.solver = prob.gram_solver
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
    0.5||Ax-b||^2 + LAMBDA sum_j (x_j^2 + eps^2)^{p/2}.

    Each sweep solves a weighted ridge problem through its m x m dual form;
    the smoothing eps shrinks geometrically as the iterates settle.
    """
    A, b = prob.A, prob.b
    m, n = A.shape
    lam, p = LAMBDA, IRLS_P
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
            t = SpdFactor(_check_finite(eye + Ad @ A.T, "IRLS normal matrix")).solve(b)
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
        it -= 1  # report the completed sweeps
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
    when it lowers the residual.  Runs at most AIHT_MAX iterations.
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
    try:  # hard_threshold takes a non-finite input for a caller error
        for it in range(1, AIHT_MAX + 1):
            g = _check_finite(A.T @ r, "AIHT gradient")
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
            x_new = hard_threshold(_check_finite(x + step * g, "AIHT step"), s)
            r_new = b - A @ x_new
            x_acc = hard_threshold(_check_finite(x_new + (x_new - x), "AIHT step"), s)
            r_acc = b - A @ x_acc
            if float(np.linalg.norm(r_acc)) < float(np.linalg.norm(r_new)):
                x_new, r_new = x_acc, r_acc
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
    except NumericError:
        status = SolverStatus.NUMERIC_FAILURE
        it -= 1  # report the completed iterations
    return _report(prob, x, it, it, trace, status)


def alpha_subroutine(A, b, tau: float, omega: float = OMEGA) -> float:
    """Data-driven choice of the springback curvature alpha, the only place
    alpha is decided.

    Well-conditioned A: min(ALPHA_MAX, 2 sigma_min / (||b|| + tau)), the
    convergence bound, capped.  Coherent A (condition number above
    COND_THRESHOLD): that value floored at omega, since the sigma-based bound
    collapses while larger alpha still works.  A zero observation gets ALPHA_MAX.
    """
    A = as_matrix(A)
    b = as_vector(b)
    if not 0 < omega < math.inf:
        raise InvalidParameterError("omega must be positive and finite")
    if not 0 <= tau < math.inf:
        raise InvalidParameterError("tau must be nonnegative and finite")
    bnorm = float(np.linalg.norm(b))
    if bnorm == math.inf:  # ||b||^2 overflowed; ||b|| itself need not
        scale = float(np.abs(b).max())
        bnorm = scale * float(np.linalg.norm(b / scale))
    denom = bnorm + tau
    if denom == 0:
        return ALPHA_MAX
    smin, smax = singular_extremes(A)
    base = min(ALPHA_MAX, 2.0 * smin / denom)
    if smin > 0 and smax / smin <= COND_THRESHOLD:
        return base
    return max(omega, base)
