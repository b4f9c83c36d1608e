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

from .errors import InvalidParameterError, NumericError, check_integer, check_positive
from .linalg import (
    GramRidgeSolver,
    SpdFactor,
    as_matrix,
    as_vector,
    safe_norm,
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

# Fixed algorithm constants.  RHO is the constraint penalty of the springback
# inner ADMM; its splitting penalty is 1, so admm_subproblem soft-thresholds
# at 1 and has no unit factors.  ZETA_LASSO is the splitting penalty of the
# lasso ADMM; it is 1 / RHO, so that every loop takes its x-update from the
# instance's one gram_solver.  LAMBDA is the weight of the unconstrained models
# 0.5||Ax-b||^2 + LAMBDA R(x) (admm_l1, dca_unconstrained, irls_lp); ADMM_MAX
# caps the lasso ADMM baseline; MAX_OUTER caps every DCA loop; AIHT_MAX caps
# aiht; IRLS_* set the lp exponent, the initial smoothing, the stopping
# tolerance and the sweep cap of irls_lp; ALPHA_MAX caps the curvature
# alpha_subroutine picks; COND_THRESHOLD is the condition number above which
# alpha_subroutine treats A as coherent, and OMEGA the default floor of alpha
# there; ADMM_BLOCK is the block length of _admm_blocks, the driver of every
# inner ADMM loop (16 and 64 measured the same on the lasso).
RHO = 1e5
ZETA_LASSO = 1 / RHO
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
ADMM_BLOCK = 32

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
        check_positive("tau", self.tau, zero_ok=True)
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
        admm_l1 and the dca_unconstrained baselines share, with its operators
        H and F = [H, -M], built on first use inside the solver that needs
        it, so that a Gram overflow is that solver's numeric failure.  As
        ZETA_LASSO = 1/RHO, offset_solve(H, r, out, ((r, q, out),)) is
        springback's (RHO A^T A + I)^-1 r, and offset_solve(F, c, out,
        (([c - u; w], q, out),)) its (RHO A^T A + I)^-1 (RHO A^T w + c - u) + u."""
        return GramRidgeSolver(self.A, ZETA_LASSO)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class SolverOptions:
    """Shared solver parameters; defaults follow the standard experiment setup.

    The penalties and weights no experiment varies are module constants:
    RHO, ZETA_LASSO and LAMBDA.
    """

    alpha: float = ALPHA_MAX
    eps_outer: float = 1e-5
    eps_inner: float = 1e-5
    max_inner: int = 500
    sparsity_estimate: int = 1

    def __post_init__(self):
        for name in ("alpha", "eps_outer", "eps_inner"):
            check_positive(name, getattr(self, name))
        for name in ("max_inner", "sparsity_estimate"):
            check_integer(f"{name} must be a positive integer", getattr(self, name))


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
    """Warm-start state of every inner ADMM row (_lasso_admm's uses x, y, u)."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    u: np.ndarray
    eta: np.ndarray
    iterations: int = 0


def _check_finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NumericError(f"{what} produced non-finite values")
    return x


def _history(states, names) -> dict[str, np.ndarray]:
    """Per-call (ADMM_BLOCK + 1, k, size) history arrays of the iterates
    ``names`` of the k warm states, in names order: slot 0 holds the states'
    iterates, one row each."""
    hist = {}
    for name in names:
        V = hist[name] = np.empty((ADMM_BLOCK + 1, len(states), getattr(states[0], name).size))
        for r, st in enumerate(states):
            V[0, r] = getattr(st, name)
    return hist


def _admm_blocks(states, hist, eps, max_iter, block, feasible=None) -> list[SolverStatus]:
    """The block driver of the three inner ADMM loops, over a stack of k rows:
    runs each row at most max_iter iterations from its warm state in
    ``states`` and returns per row CONVERGED when its stopping test fired,
    MAX_ITER when it did not, and NUMERIC_FAILURE when its iterate turned
    non-finite.

    ``hist``, from _history, holds the history arrays of the iterates (x and
    y first); slot 0 holds the iterates the block starts from.
    ``block(count, rows)`` runs count iterations of the listed rows, the j-th
    writing slot j, in full: it never stops early.

    After each block, row-wise calls give every slot's stopping test,
    ||x - x_old|| / max(||x||, ||x_old||) < eps, ||x - y|| <= eps max(1, ||x||)
    and ``feasible(count)`` where given, as a per-iteration ``and``, and bit
    for bit as a per-iteration loop computes them (np.vecdot of a row is
    ndarray.dot of it).  A row's first slot that passes ends that row, and
    its later slots are discarded.  The scan is the one place a row fails:
    its first slot whose ||x|| is not finite and whose entries confirm it
    ends the row at the slot before with NUMERIC_FAILURE, and the slots
    after it, computed on from a non-finite x, are discarded.  Slot 0's x
    enters only slot 1's change test, which a non-finite one fails.  A row
    that ends leaves the stack, whose other rows carry on, and its state gets
    copies of the kept slot and its completed iterations.  Blocks and tests
    run silent, as the Python float arithmetic of scalar tests was: the scan
    finds non-finite values, and the rows that ended compute on unread.
    """
    X, Y = list(hist.values())[:2]
    work = np.empty((ADMM_BLOCK,) + X.shape[1:])
    vecdot, maximum, subtract, nonzero = np.vecdot, np.maximum, np.subtract, np.count_nonzero
    status = [SolverStatus.MAX_ITER] * len(states)
    rows = list(range(len(states)))  # the rows still running
    done = 0  # the iterations every running row completed

    def leave(r, slot):
        for name, V in hist.items():
            setattr(states[r], name, V[slot, r].copy())
        states[r].iterations += done + slot

    while rows and done < max_iter:
        count = min(ADMM_BLOCK, max_iter - done)
        new, old = slice(1, count + 1), slice(0, count)
        with np.errstate(all="ignore"):
            block(count, rows)
            xnorm = np.sqrt(vecdot(X[: count + 1], X[: count + 1]))
            dx = subtract(X[new], X[old], work[:count])
            passed = np.sqrt(vecdot(dx, dx)) / maximum(maximum(xnorm[new], xnorm[old]), _TINY) < eps
            if nonzero(passed):
                gap = subtract(X[new], Y[new], work[:count])
                passed &= np.sqrt(vecdot(gap, gap)) <= eps * maximum(1.0, xnorm[new])
            if feasible is not None and nonzero(passed):
                passed &= feasible(count)
        going = rows  # a block with no stop and finite norms
        if nonzero(passed) or nonzero(np.isfinite(xnorm[new])) < passed.size:
            going = []
            for r in rows:
                end = count
                for i in np.flatnonzero(~np.isfinite(xnorm[new, r])):
                    if not np.isfinite(X[i + 1, r]).all():
                        end = int(i)
                        break
                fired = np.flatnonzero(passed[:end, r])
                if fired.size:
                    status[r] = SolverStatus.CONVERGED
                    leave(r, int(fired[0]) + 1)
                elif end < count:
                    status[r] = SolverStatus.NUMERIC_FAILURE
                    leave(r, end)
                else:
                    going.append(r)
        done += count
        for V in hist.values():
            V[0] = V[count]
        rows = going
    for r in rows:
        leave(r, 0)
    return status


def _prox_rows(hist):
    """For the loops that compute only p = x + u: a history array P of p and
    a function that fills x slots 1..j as P - U_prev."""
    X, U = hist["x"], hist["u"]
    P = np.empty_like(X)

    def fill_x(j):
        np.subtract(P[1 : j + 1], U[:j], X[1 : j + 1])

    return P, fill_x


def fresh_admm_state(prob: ProblemInstance) -> AdmmState:
    """Cold state for the instance."""
    m, n = prob.A.shape
    return AdmmState(np.zeros(n), np.zeros(n), np.zeros(m), np.zeros(n), np.zeros(m))


def admm_subproblem(
    prob: ProblemInstance,
    xi: np.ndarray,
    opts: SolverOptions,
    *,
    warm: AdmmState | None = None,
) -> np.ndarray:
    """Scaled ADMM for min ||x||_1 - <x, xi> s.t. ||Ax - b||_2 <= tau.

    This is the DCA subproblem linearized at x^k, less the constant
    <x^k, xi>, which does not move the argmin.  The stopping test requires the
    relative x-change, the x/y consensus gap, and the constraint residual to
    be small together; the change test alone fires spuriously in the first
    iterations when the soft threshold keeps both iterates at zero.  The warm
    state gets the last finite iterate and the completed iterations on
    return and on the NumericError of a non-finite x-update; its arrays are
    copies, so no step touches an array a caller holds.

    At splitting penalty 1 the x-update is (RHO A^T A + I)^-1 (RHO A^T w + v)
    with w = b + z - eta and v = xi + y - u, and the soft threshold is 1.
    At tau > 0 it is computed as rhs - A^T (H rhs), rhs = RHO A^T w + v,
    through the instance's gram_solver (ZETA_LASSO = 1/RHO).  At tau = 0 the
    ball is the origin and z stays the zero vector; the subproblem is basis
    pursuit (Boyd et al. 2011, section 6.2) and runs in m-space: the
    x-update is v - A^T q with q = H v - M w (the gram_solver's F [v; w]),
    so that A x = w + ZETA_LASSO q and eta takes ZETA_LASSO q.  Its loop
    forms neither RHO A^T w nor A x, computes only p = x + u, with
    u = clamp(p) and y = p - u, and fills its x rows once per block.

    The iterations run through _admm_blocks as a stack of one row, whose
    1-D slot views the loop computes on and the x-update writes into, and
    whose stopping test here also asks ||A x - b|| <= tau + FEAS_TOL_INNER,
    with A x - b = eta - eta_prev at tau = 0.  A non-finite x is found when
    its block ends.  At tau > 0 a finite x whose A x overflows makes z
    non-finite, which the ball projection meets: it marks that x non-finite,
    so that the same scan ends the row at the iteration before.
    """
    A, b, tau = prob.A, prob.b, prob.tau
    At = A.T
    m, n = A.shape
    xi = as_vector(xi)
    if xi.shape[0] != n:
        raise InvalidParameterError(f"A has {n} columns but xi has length {xi.shape[0]}")
    st = warm if warm is not None else fresh_admm_state(prob)
    solver = prob.gram_solver
    step = solver.offset_solve
    # Locally bound ufuncs with a positional out (the keyword for maximum and
    # minimum) and 0-d array constants are the forms numpy dispatches fastest.
    add, subtract, maximum, minimum = np.add, np.subtract, np.maximum, np.minimum
    feas = tau + FEAS_TOL_INNER
    lo, hi = np.array(-1.0), np.array(1.0)  # the soft threshold's clamp
    q = np.empty(m)
    rwork = np.empty((ADMM_BLOCK, 1, m))

    if tau == 0.0:  # z is unwritten
        hist = _history([st], ("x", "y", "u", "eta"))
        P, fill_x = _prox_rows(hist)
        ETA = hist["eta"]
        ys, us, etas, ps = (list(V[:, 0]) for V in (hist["y"], hist["u"], ETA, P))
        vw, c = np.empty(n + m), np.empty(n)
        v, w = vw[:n], vw[n:]
        zeta = np.array(solver.zeta)
        F, xrows = solver.F, [((vw, q, p),) for p in ps]  # per slot, made once

        def block(count, _):
            for k in range(1, count + 1):
                y, u, p = ys[k - 1], us[k - 1], ps[k]
                subtract(b, etas[k - 1], w)
                subtract(add(xi, y, c), u, v)
                step(F, c, p, xrows[k])
                minimum(maximum(p, lo, out=us[k]), hi, out=us[k])
                subtract(p, us[k], ys[k])
                np.multiply(q, zeta, etas[k])
            fill_x(count)

        def feasible(end):
            res = subtract(ETA[1 : end + 1], ETA[:end], rwork[:end])
            return np.sqrt(np.vecdot(res, res)) <= feas

    else:
        hist = _history([st], ("x", "y", "u", "eta", "z"))
        xs, ys, us, etas, zs = (list(V[:, 0]) for V in hist.values())
        rho = np.array(RHO)
        scale = np.array(0.0)  # the ball projection's tau / ||z||
        AX = np.empty((ADMM_BLOCK + 1, 1, m))
        axs = list(AX[:, 0])  # row views, made once
        rhs_n, p, clamped, diff = (np.empty(n) for _ in range(4))
        w_m, r = np.empty(m), np.empty(m)
        H, xrows = solver.H, [((rhs_n, q, x),) for x in xs]  # per slot, made once

        def block(count, _):
            rhs, w = rhs_n, w_m  # locals: the in-place operators below assign them
            for k in range(1, count + 1):
                eta, eta_k, u = etas[k - 1], etas[k], us[k - 1]
                add(b, zs[k - 1], w)
                w -= eta
                At.dot(w, rhs)
                rhs *= rho
                rhs += xi
                rhs += subtract(ys[k - 1], u, diff)
                x, y, Ax = xs[k], ys[k], axs[k]
                step(H, rhs, x, xrows[k])
                add(x, u, p)
                subtract(p, minimum(maximum(p, lo, out=clamped), hi, out=clamped), y)
                A.dot(x, Ax)
                add(eta, Ax, eta_k)
                eta_k -= b
                z = zs[k]  # the projection of A x - b + eta onto the tau-ball
                add(subtract(Ax, b, r), eta, z)
                znorm = math.sqrt(z.dot(z))
                if not math.isfinite(znorm) and not np.isfinite(z).all():
                    x[0] = math.nan  # A x overflowed: the scan ends the row before this x
                if znorm > tau:
                    scale[()] = tau / znorm
                    z *= scale
                eta_k -= z
                subtract(p, y, us[k])

        def feasible(end):
            res = subtract(AX[1 : end + 1], b, rwork[:end])
            return np.sqrt(np.vecdot(res, res)) <= feas

    (status,) = _admm_blocks([st], hist, opts.eps_inner, opts.max_inner, block, feasible)
    if status is SolverStatus.NUMERIC_FAILURE:
        raise NumericError("inner ADMM produced non-finite values")
    return st.x.copy()


def _outer(prob: ProblemInstance, cap: int, step, traces, states=None) -> list[SolverReport]:
    """The outer loop of every solver, over rows run in lockstep: one report
    per row of ``traces``.

    Every row starts from x^0 = 0.  Each round, ``step(rows, xs)`` takes the
    indices of the rows still running and their iterates, appends to their
    traces itself, and returns per row (x, stop), or None for a row whose
    step met a non-finite value; a NumericError it raises is a None for each
    of its rows.  A row's first stop converges, ``cap`` >= 1 steps without
    one end at MAX_ITER, and a None ends the row at its last completed iterate
    with NUMERIC_FAILURE; the other rows carry on.  A report holds its row's
    iterate, its residual ||A x - b||_2 and the completed steps; its inner
    iterations are those of the row's warm inner state in ``states`` when
    given, and the step count otherwise.
    """
    k = len(traces)
    xs = [np.zeros(prob.A.shape[1]) for _ in range(k)]
    done, status = [0] * k, [SolverStatus.MAX_ITER] * k
    rows = list(range(k))
    while rows:
        try:
            outcomes = step(rows, [xs[r] for r in rows])
        except NumericError:
            outcomes = [None] * len(rows)
        going = []
        for r, outcome in zip(rows, outcomes):
            if outcome is None:
                status[r] = SolverStatus.NUMERIC_FAILURE
                continue
            xs[r], stop = outcome
            done[r] += 1
            if stop:
                status[r] = SolverStatus.CONVERGED
            elif done[r] < cap:
                going.append(r)
        rows = going
    reports = []
    for r in range(k):
        inner = done[r] if states is None else states[r].iterations
        residual = float(np.linalg.norm(prob.A @ xs[r] - prob.b))
        reports.append(SolverReport(xs[r], done[r], inner, traces[r], residual, status[r]))
    return reports


def _solo(step):
    """A one-row solver's ``step(x)``, (x, stop) or None, as _outer's."""
    return lambda rows, xs: [step(xs[0])]


def _dca_settled(x_new: np.ndarray, x: np.ndarray, eps: float) -> bool:
    """The DCA stop: min(delta, delta / ||x^k||) <= eps, with
    delta = ||x^{k+1} - x^k|| (delta alone when x^k = 0)."""
    delta = float(np.linalg.norm(x_new - x))
    xnorm = float(np.linalg.norm(x))
    return (min(delta, delta / xnorm) if xnorm > 0 else delta) <= eps


def dca_springback(prob: ProblemInstance, opts: SolverOptions) -> SolverReport:
    """Difference-of-convex algorithm for the constrained springback model.

    Each outer step linearizes the concave part at x^k (xi = alpha x^k) and
    hands the resulting convex subproblem to the warm-started inner ADMM.
    The objective trace records F at the inner solutions; the infeasible
    zero start itself is excluded because F(0) = 0 carries no information
    about the constrained objective.  An x^1 more than FEAS_TOL_START outside
    the noise ball reports INFEASIBLE_START in place of any status but
    NUMERIC_FAILURE.
    """
    A, b, tau = prob.A, prob.b, prob.tau
    alpha = opts.alpha
    params = ThresholdParams(alpha=alpha)
    state = fresh_admm_state(prob)
    trace: list[float] = []
    infeasible = None  # judged at the first outer step

    def step(x):
        nonlocal infeasible
        x_new = admm_subproblem(prob, alpha * x, opts, warm=state)
        if infeasible is None:
            infeasible = float(np.linalg.norm(A @ x_new - b)) > tau + FEAS_TOL_START
        trace.append(penalty_value(PenaltyKind.SPRINGBACK, x_new, params))
        return x_new, _dca_settled(x_new, x, opts.eps_outer)

    (report,) = _outer(prob, MAX_OUTER, _solo(step), [trace], [state])
    if infeasible and report.status is not SolverStatus.NUMERIC_FAILURE:
        report.status = SolverStatus.INFEASIBLE_START
    return report


def _lasso_admm(
    A: np.ndarray,
    b: np.ndarray,
    lams,
    linears,
    solver: GramRidgeSolver,
    states,
    eps: float,
    max_iter: int,
) -> list[SolverStatus]:
    """Two-block ADMM for a stack of lasso problems on one A and b, row r
    being min 0.5||Ax-b||^2 + lams[r] ||x||_1 - <linears[r], x> (Boyd et al.
    2011, section 6.4; a linear term None is none), continued from the warm
    AdmmState ``states[r]``, of which it reads and writes x, y and u, with
    ``solver`` the GramRidgeSolver of A and the splitting penalty zeta.

    Runs each row at most max_iter iterations through _admm_blocks and
    returns per row its status there: CONVERGED when the stopping test
    fired, MAX_ITER, or NUMERIC_FAILURE.

    The x-update (A^T A + zeta I)^-1 (A^T b + linear + zeta (y - u)) is split
    into its constant part x_c, solved once per call, and x_c + (y - u) -
    A^T H (y - u) through the solver's precomputed operator H.  The scaled
    dual is u = clamp(x + u, -t, t), so y = (x + u) - u is the soft
    threshold.  An iteration never forms x: it computes
    p = x + u = (x_c + y) - A^T H (y - u), then u = clamp(p) and y = p - u,
    and the block fills its x slots once, as p - u_prev.

    Each elementwise update runs once for the whole stack, with the clamp
    bounds as full per-row arrays, while the x-update makes one
    matrix-vector product pair per running row: every row is bit for bit
    the run it makes alone, as a stack of one.  The rows that have ended
    are still updated elementwise, silently, and never read.
    """
    step, H = solver.offset_solve, solver.H
    k, (m, n) = len(states), A.shape
    hist = _history(states, ("x", "y", "u"))
    P, fill_x = _prox_rows(hist)
    ys, us, ps = list(hist["y"]), list(hist["u"]), list(P)
    C, D, Q = np.empty((k, n)), np.empty((k, n)), np.empty((k, m))
    # per slot, every row's views (d, q, p) for the x-update, made once
    slots = ADMM_BLOCK + 1
    views = list(zip(list(D) * slots, list(Q) * slots, P.reshape(-1, n)))
    views = [views[j * k : j * k + k] for j in range(slots)]
    Atb = A.T @ b
    XC = np.array([solver.solve(Atb if g is None else Atb + g) for g in linears])
    HI = np.empty((k, n))  # the clamp of u: t = lam / zeta per row
    HI[:] = np.array([[lam / solver.zeta] for lam in lams])
    LO = -HI
    add, subtract, maximum, minimum = np.add, np.subtract, np.maximum, np.minimum

    def block(count, rows):
        calls = views if len(rows) == k else [[v[r] for r in rows] for v in views]
        for j, Y, U, Pj, U1, Y1 in zip(range(1, count + 1), ys, us, ps[1:], us[1:], ys[1:]):
            add(XC, Y, C)
            subtract(Y, U, D)
            step(H, C, Pj, calls[j])
            minimum(maximum(Pj, LO, out=U1), HI, out=U1)
            subtract(Pj, U1, Y1)
        fill_x(count)

    return _admm_blocks(states, hist, eps, max_iter, block)


def admm_l1(prob: ProblemInstance, opts: SolverOptions) -> SolverReport:
    """ADMM for the unconstrained l1 model 0.5||Ax-b||^2 + LAMBDA||x||_1.

    One outer step: the lasso ADMM, a stack of one, from the zero state to
    its own stop or ADMM_MAX iterations; the trace holds the objective at its
    final y.  A row that turns non-finite makes the step None (x^0 = 0).
    """
    A, b = prob.A, prob.b
    st = fresh_admm_state(prob)
    trace: list[float] = []

    def step(_):
        solver = prob.gram_solver
        (end,) = _lasso_admm(A, b, [LAMBDA], [None], solver, [st], opts.eps_outer, ADMM_MAX)
        if end is SolverStatus.NUMERIC_FAILURE:
            return None
        r = A.dot(st.y) - b
        trace.append(0.5 * float(r.dot(r)) + LAMBDA * float(np.abs(st.y).sum()))
        return st.y, end is SolverStatus.CONVERGED

    return _outer(prob, 1, _solo(step), [trace], [st])[0]


def dca_unconstrained(
    kinds: tuple[PenaltyKind, ...], prob: ProblemInstance, opts: SolverOptions
) -> list[SolverReport]:
    """DCA for unconstrained models 0.5||Ax-b||^2 + lam R(x), lam = LAMBDA, with
    R the transformed l1 (beta = 1), MCP (mu = 1/alpha) or l1-minus-l2 penalty:
    one report per PenaltyKind of the ordered tuple ``kinds``, in its order.

    The concave part is linearized via its gradient, leaving an l1-regularized
    least-squares subproblem (weight lam for l1-2/MCP, lam (beta+1)/beta for
    the transformed l1) handled by the lasso ADMM core with warm restarts.
    The kinds run as one stack of lasso rows on the instance's A, b and
    gram_solver, in lockstep outer steps: each unsettled row takes its linear
    term, the stack runs until every row has stopped, and each row then
    records its objective and asks the DCA stop.  A row that has settled or
    failed leaves the stack, so each report is bit for bit that of its kind
    run alone, as ``dca_unconstrained((kind,), prob, opts)``.
    """
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in (PenaltyKind.L1_MINUS_2, PenaltyKind.TL1, PenaltyKind.MCP):
            raise InvalidParameterError(f"no DCA baseline for {kind!r}")
    A, b = prob.A, prob.b
    lam = LAMBDA
    params = ThresholdParams(mu=1.0 / opts.alpha)
    beta = params.beta
    weights = [lam * (beta + 1.0) / beta if kind is PenaltyKind.TL1 else lam for kind in kinds]
    states = [fresh_admm_state(prob) for _ in kinds]
    traces: list[list[float]] = [[] for _ in kinds]

    def step(rows, xs):
        gs = [lam * dc_concave_gradient(kinds[r], x, params) for r, x in zip(rows, xs)]
        ends = _lasso_admm(
            A, b, [weights[r] for r in rows], gs, prob.gram_solver,
            [states[r] for r in rows], opts.eps_inner, opts.max_inner,
        )
        outcomes = []
        for r, x, end in zip(rows, xs, ends):
            if end is SolverStatus.NUMERIC_FAILURE:
                outcomes.append(None)
                continue
            x_new = states[r].y
            res = A @ x_new - b
            traces[r].append(0.5 * float(res @ res) + lam * penalty_value(kinds[r], x_new, params))
            outcomes.append((x_new, _dca_settled(x_new, x, opts.eps_outer)))
        return outcomes

    return _outer(prob, MAX_OUTER, step, traces, states)


def irls_lp(prob: ProblemInstance, opts: SolverOptions) -> SolverReport:
    """Iteratively reweighted least squares for the smoothed lp model
    0.5||Ax-b||^2 + LAMBDA sum_j (x_j^2 + eps^2)^{p/2}.

    Each sweep solves a weighted ridge problem through its m x m dual form;
    the smoothing eps shrinks geometrically as the iterates settle.
    """
    A, b = prob.A, prob.b
    lam, p = LAMBDA, IRLS_P
    eps_s = IRLS_EPS0
    trace: list[float] = []
    eye = np.eye(A.shape[0])

    def sweep(x):
        nonlocal eps_s
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
        if change < IRLS_TOL:
            return x_new, True
        if change < np.sqrt(eps_s):
            eps_s = max(0.1 * eps_s, 1e-8)
        return x_new, False

    return _outer(prob, IRLS_MAX, _solo(sweep), [trace])[0]


def hard_threshold(v: np.ndarray, s: int) -> np.ndarray:
    """Keep the s largest-magnitude entries of v, zeroing the rest.

    Ties are broken stably (lower index wins) and exact zeros are never
    counted, so the result has exactly min(s, nnz(v)) nonzeros.
    """
    v = as_vector(v)
    check_integer("s must be nonnegative", s, least=0)
    return _top_s(v, s)


def _top_s(v: np.ndarray, s: int) -> np.ndarray:
    """hard_threshold's kernel, for a finite vector and s >= 0, unchecked."""
    out = np.zeros_like(v)
    keep = np.argsort(-np.abs(v), kind="stable")[:s]
    keep = keep[v[keep] != 0.0]
    out[keep] = v[keep]
    return out


def aiht(prob: ProblemInstance, opts: SolverOptions) -> SolverReport:
    """Accelerated iterative hard thresholding with adaptive step size.

    The gradient step uses mu = ||g_S||^2 / ||A g_S||^2 on the working
    support S; an overrelaxation step doubles the move and is kept only
    when it lowers the residual.  Runs at most AIHT_MAX iterations.  Its
    norms are sqrt(v.dot(v)), the expression np.linalg.norm evaluates.
    """
    A, b = prob.A, prob.b
    s = opts.sparsity_estimate
    n = A.shape[1]
    r = b.copy()
    rnorm = math.sqrt(r.dot(r))
    trace: list[float] = [rnorm]

    def iteration(x):  # checked first: _top_s takes finite input only
        nonlocal r, rnorm
        g = _check_finite(A.T @ r, "AIHT gradient")
        support = np.flatnonzero(x)
        if support.size == 0:
            support = np.flatnonzero(_top_s(g, s))
        gS = np.zeros(n)
        gS[support] = g[support]
        AgS = A @ gS
        denom = float(AgS @ AgS)
        if denom <= 0.0:
            return x, True
        step = float(gS @ gS) / denom
        x_new = _top_s(_check_finite(x + step * g, "AIHT step"), s)
        r_new = b - A @ x_new
        x_acc = _top_s(_check_finite(x_new + (x_new - x), "AIHT step"), s)
        r_acc = b - A @ x_acc
        new_norm, acc_norm = math.sqrt(r_new.dot(r_new)), math.sqrt(r_acc.dot(r_acc))
        if acc_norm < new_norm:
            x_new, r_new, new_norm = x_acc, r_acc, acc_norm
        dx = x_new - x
        change = math.sqrt(dx.dot(dx))
        last, r, rnorm = rnorm, r_new, new_norm
        trace.append(rnorm)
        settled = abs(last - rnorm) <= 1e-12 * max(1.0, last)
        return x_new, change <= opts.eps_outer * max(1.0, math.sqrt(x_new.dot(x_new))) or settled

    return _outer(prob, AIHT_MAX, _solo(iteration), [trace])[0]


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
    check_positive("omega", omega)
    check_positive("tau", tau, zero_ok=True)
    denom = safe_norm(b) + tau
    if denom == 0:
        return ALPHA_MAX
    smin, smax = singular_extremes(A)
    base = min(ALPHA_MAX, 2.0 * smin / denom)
    if smin > 0 and smax / smin <= COND_THRESHOLD:
        return base
    return max(omega, base)
