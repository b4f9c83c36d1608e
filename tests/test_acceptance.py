"""Acceptance suite.

Each test checks one acceptance criterion end to end and prints a single
PASS/FAIL line (written to the real stdout so it is visible regardless of
pytest's capture settings).
"""

import time
from itertools import combinations

import numpy as np
import pytest

from springback.bench import ExperimentSpec, emit_results, load_config, run_experiment
from springback.cli import main as cli_main
from springback.penalties import firm_threshold, soft_threshold, springback_threshold
from springback.sensing import (
    EnsembleKind,
    EnsembleSpec,
    SignalSpec,
    add_noise_snr,
    gen_matrix,
    gen_signal,
    gen_support,
)
from springback.solvers import (
    ProblemInstance,
    SolverOptions,
    _dca_iterates,
    admm_subproblem,
    alpha_subroutine,
    dca_springback,
    fresh_admm_state,
)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_report(capfd):
    """Let _report bypass output capture so every verdict line is visible."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(num: int, label: str, ok: bool):
    line = f"ACCEPTANCE {num:2d} {label}: {'PASS' if ok else 'FAIL'}"
    with _CAPTURE.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_toy_thresholds(capfd):
    t0 = time.perf_counter()
    rc = cli_main(["bounds", "--toy"])
    out = capfd.readouterr().out
    elapsed = time.perf_counter() - t0
    printed = {}
    for line in out.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 2:
            printed[parts[0]] = float(parts[1])
    expected = {
        "l1": 0.1385,
        "l0.2": 0.0271,
        "l0.5": 0.2333,
        "l0.999": 0.1391,
        "tl1": 0.0807,
        "l1-l2": 2.8652e-4,
    }
    ok = rc == 0 and elapsed < 1.0
    for name, value in expected.items():
        tol = 1e-2 if name == "l1-l2" else 1e-3
        ok = ok and name in printed and abs(printed[name] - value) <= tol * value
    _report(1, "toy-example noise thresholds", ok)


def test_criterion_02_prox_grid_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    grid = np.arange(-5.0, 5.0 + 1e-12, 1e-4)
    ok = True
    cases = 0
    while cases < 200:
        lam = rng.uniform(0.05, 1.0)
        alpha = rng.uniform(0.05, 3.0)
        scale = 1.0 - lam * alpha
        if not (0.1 <= scale < 1.0):
            continue
        cases += 1
        # keep the true minimizer well inside the grid range
        wmax = 0.95 * (4.9 * scale + lam)
        w = rng.uniform(-wmax, wmax)
        vals = lam * (np.abs(grid) - 0.5 * alpha * grid * grid) + 0.5 * (grid - w) ** 2
        best = grid[int(np.argmin(vals))]
        star = springback_threshold(w, lam, alpha)
        ok = ok and abs(star - best) <= 2e-4
    ok = ok and (time.perf_counter() - t0) < 10.0
    _report(2, "springback prox vs grid oracle", ok)


def test_criterion_03_operator_identities():
    rng = np.random.default_rng(30)
    ok = True
    for _ in range(10000):
        mu = rng.uniform(0.3, 3.0)
        lam = mu * rng.uniform(0.05, 0.9)
        w = rng.uniform(-mu, mu)
        ok = ok and springback_threshold(w, lam, 1.0 / mu) == firm_threshold(w, lam, mu)
    for w in rng.uniform(-5, 5, 1000):
        ok = ok and abs(springback_threshold(w, 0.25, 1e-9) - soft_threshold(w, 0.25)) <= 1e-6
        ok = ok and soft_threshold(-w, 0.25) == -soft_threshold(w, 0.25)
        ok = ok and firm_threshold(-w, 0.3, 0.9) == -firm_threshold(w, 0.3, 0.9)
        ok = ok and springback_threshold(-w, 0.25, 0.5) == -springback_threshold(w, 0.25, 0.5)
    _report(3, "thresholding operator identities", ok)


def _dca_iterate_history(prob, opts):
    """Outer DCA iterates x^1..x^K with F values, from the solver's DCA loop
    stepping through the public subproblem."""
    state = fresh_admm_state(prob, opts)

    def step(x):
        return admm_subproblem(prob, x, opts.alpha * x, opts, warm=state)

    return [
        (x, float(np.abs(x).sum() - 0.5 * opts.alpha * (x @ x)))
        for x, _ in _dca_iterates(np.zeros(prob.A.shape[1]), opts, step)
    ]


_RUN_CACHE = []


def _descent_runs():
    if not _RUN_CACHE:
        for seed in range(50):
            A = gen_matrix(EnsembleSpec(EnsembleKind.GAUSSIAN, m=64, n=250, seed=seed))
            xbar = gen_signal(SignalSpec(n=250, sparsity=10, seed=seed + 5000))
            b = A @ xbar
            prob = ProblemInstance(A, b, 0.0, xbar)
            alpha = alpha_subroutine(A, b, 0.0)
            opts = SolverOptions(alpha=alpha, eps_inner=1e-9, max_inner=20000)
            _RUN_CACHE.append((prob, opts, _dca_iterate_history(prob, opts)))
    return _RUN_CACHE


def test_criterion_04_dc_descent():
    t0 = time.perf_counter()
    ok = True
    for prob, opts, history in _descent_runs():
        ok = ok and all(f >= -1e-8 for _, f in history)
        for (x0, f0), (x1, f1) in zip(history, history[1:]):
            gap = f0 - f1 - 0.5 * opts.alpha * float(np.sum((x1 - x0) ** 2))
            ok = ok and gap >= -1e-6
    ok = ok and (time.perf_counter() - t0) < 120.0
    _report(4, "DC descent property", ok)


def test_criterion_05_iterate_norm_bound():
    # Expected red: the bound ||x|| <= (||b||+tau)/sigma_min(A) rests on
    # min ||Ax||/||x|| = sigma_min(A), which holds only for matrices with full
    # column rank.  For a wide sensing matrix the minimum over the null space
    # is zero, and on these 64x250 instances even the ground-truth signal
    # violates the bound on roughly half of random draws (557/1000 measured),
    # so no solver iterating toward it can satisfy the check.
    ok = True
    for prob, _, history in _descent_runs():
        smin = float(np.linalg.svd(prob.A, compute_uv=False)[-1])
        ceiling = (float(np.linalg.norm(prob.b)) + prob.tau) / smin + 1e-3
        ok = ok and all(float(np.linalg.norm(x)) <= ceiling for x, _ in history)
    _report(5, "outer iterate norm bound", ok)


def test_criterion_06_gaussian_exact_recovery_sweep():
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=64, n=160),
        sparsity=10,
        sweep_axis="s",
        sweep_values=tuple(range(6, 41, 2)),
        solvers=("springback",),
        trials=20,
        master_seed=1,
    )
    rows, _ = run_experiment(spec)
    rates = {row.sweep_value: row.success_rate for row in rows}
    ok = rates[6.0] >= 0.9 and rates[40.0] <= 0.1
    values = sorted(rates)
    flip = 2.0 / spec.trials
    ok = ok and all(rates[b] <= rates[a] + flip for a, b in zip(values, values[1:]))
    ok = ok and (time.perf_counter() - t0) < 600.0
    _report(6, "Gaussian 64x160 recovery sweep", ok)


def test_criterion_07_coherence_robustness():
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        ensemble=EnsembleSpec(EnsembleKind.OVERSAMPLED_DCT, m=100, n=1500, refinement=4),
        sparsity=15,
        sweep_axis="refinement",
        sweep_values=(4, 16),
        sep_factor=2,
        solvers=("springback", "irls_lp"),
        trials=20,
        master_seed=2,
    )
    rows, _ = run_experiment(spec)
    rates = {(r.solver_id, r.sweep_value): r.success_rate for r in rows}
    spb_drop = rates[("springback", 4.0)] - rates[("springback", 16.0)]
    irls_drop = rates[("irls_lp", 4.0)] - rates[("irls_lp", 16.0)]
    ok = abs(spb_drop) <= 0.25 and irls_drop > 0.4
    ok = ok and (time.perf_counter() - t0) < 1800.0
    _report(7, "coherence robustness (F=4 vs F=16)", ok)


def _small_oracle_instance(rng):
    """Unit-column instance whose square submatrices are all well conditioned.

    The objective restricted to the feasible affine set is concave on each
    orthant cell, so its candidate minimizers are the basic solutions with at
    most m nonzeros.  The conditioning floor keeps every basic solution at a
    moderate norm, which keeps the enumeration optimum finite and attainable.
    """
    while True:
        m = int(rng.integers(2, 4))
        n = int(rng.integers(m + 1, 7))
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
        if any(
            np.linalg.svd(A[:, T], compute_uv=False)[-1] < 0.5
            for T in combinations(range(n), m)
        ):
            continue
        xbar = np.zeros(n)
        xbar[int(rng.integers(n))] = rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.2)
        return A, xbar


def test_criterion_08_small_instance_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(80)
    ok = True
    for _ in range(30):
        A, xbar = _small_oracle_instance(rng)
        m, n = A.shape
        b = A @ xbar
        prob = ProblemInstance(A, b, 0.0, xbar)
        alpha = alpha_subroutine(A, b, 0.0)
        opts = SolverOptions(alpha=alpha, eps_inner=1e-9, max_inner=5000)
        rep = dca_springback(prob, opts)

        def objective(x):
            return float(np.abs(x).sum() - 0.5 * alpha * (x @ x))

        best = np.inf
        for k in range(1, m + 1):
            for T in combinations(range(n), k):
                sol, *_ = np.linalg.lstsq(A[:, list(T)], b, rcond=None)
                x = np.zeros(n)
                x[list(T)] = sol
                if np.linalg.norm(A @ x - b) <= 1e-8 * max(1.0, np.linalg.norm(b)):
                    best = min(best, objective(x))
        ok = ok and abs(objective(rep.x_star) - best) <= 1e-3
    ok = ok and (time.perf_counter() - t0) < 60.0
    _report(8, "small-instance support-enumeration oracle", ok)


def test_criterion_09_statistical_generators():
    A = gen_matrix(EnsembleSpec(EnsembleKind.GAUSSIAN, m=100, n=120, seed=90))
    var_ok = abs(A.ravel().var() * 100 - 1.0) <= 0.1
    rng = np.random.default_rng(91)
    clean = rng.standard_normal(1500)
    snr_ok = True
    for snr in (5.0, 20.0, 40.0):
        noisy, _ = add_noise_snr(clean, snr, seed=92)
        e = noisy - clean
        realized = 10 * np.log10(float(clean @ clean) / float(e @ e))
        snr_ok = snr_ok and abs(realized - snr) <= 1.0
    sep_ok = True
    for seed in range(10000):
        sup = gen_support(SignalSpec(n=200, sparsity=8, min_separation=12, seed=seed))
        sep_ok = sep_ok and sup.size == 8 and int(np.diff(sup).min()) >= 12
    _report(9, "statistical generator checks", var_ok and snr_ok and sep_ok)


def test_criterion_10_determinism(tmp_path, monkeypatch):
    spec = ExperimentSpec(
        ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=24, n=60),
        sparsity=4,
        sweep_axis="s",
        sweep_values=(3, 6),
        solvers=("springback", "admm_l1", "aiht"),
        trials=3,
        master_seed=3,
    )
    rows1, recs1 = run_experiment(spec)
    emit_results(rows1, recs1, str(tmp_path / "run1"), spec)
    # rerun from the emitted manifest
    loaded = load_config(str(tmp_path / "run1" / "manifest.cfg"))
    rows2, recs2 = run_experiment(loaded)
    emit_results(rows2, recs2, str(tmp_path / "run2"), loaded)
    with open(tmp_path / "run1" / "summary.csv", "rb") as fh:
        s1 = fh.read()
    with open(tmp_path / "run2" / "summary.csv", "rb") as fh:
        s2 = fh.read()
    # parallel execution must agree with serial
    monkeypatch.setenv("SPRINGBACK_WORKERS", "4")
    rows3, _ = run_experiment(spec)
    _report(10, "manifest rerun and parallel determinism", s1 == s2 and rows1 == rows3)
