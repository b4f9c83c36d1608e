"""Benchmark harness: sweep execution, aggregation, and result persistence.

An experiment is a sweep over one axis (sparsity s, refinement factor F,
SNR in dB, or measurement count m) with a fixed matrix ensemble and a set of
solvers.  Every trial derives its random seeds from (master seed, sweep
index, trial index), so trials are order-independent and individually
reproducible.  Results are written as plain CSV plus a manifest that can be
fed back to rerun the experiment bit-identically.
"""

from __future__ import annotations

import configparser
import csv
import io
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError, SpringbackError
from .penalties import PenaltyKind
from .sensing import EnsembleKind, EnsembleSpec, SignalSpec, add_noise_snr, gen_matrix, gen_signal
from .solvers import (
    ProblemInstance,
    SolverOptions,
    SolverStatus,
    admm_l1,
    aiht,
    alpha_subroutine,
    dca_springback,
    dca_unconstrained,
    irls_lp,
)

__all__ = [
    "SOLVERS",
    "SOLVER_IDS",
    "SWEEP_AXES",
    "ExperimentSpec",
    "TrialRecord",
    "SummaryRow",
    "solver_options",
    "trial_setup",
    "run_trial",
    "run_experiment",
    "summarize",
    "emit_results",
    "parse_records",
    "parse_summary",
    "load_config",
    "preset_spec",
    "PRESETS",
]

# Solver id -> solve(prob, opts).  Each entry looks its function up by name
# when called, so a wrapper later set on the module attribute sees the call.
SOLVERS = {
    "springback": lambda p, o: dca_springback(p, o),
    "admm_l1": lambda p, o: admm_l1(p, o),
    "irls_lp": lambda p, o: irls_lp(p, o),
    "aiht": lambda p, o: aiht(p, o),
    "dca_tl1": lambda p, o: dca_unconstrained(PenaltyKind.TL1, p, o),
    "dca_l12": lambda p, o: dca_unconstrained(PenaltyKind.L1_MINUS_2, p, o),
    "dca_mcp": lambda p, o: dca_unconstrained(PenaltyKind.MCP, p, o),
}
SOLVER_IDS = tuple(SOLVERS)

SWEEP_AXES = ("s", "refinement", "snr", "m")

# Fallback curvature for degenerate trials (zero observation), matching the
# safeguard value of the alpha subroutine.
_ALPHA_FALLBACK = 0.7


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one benchmark sweep."""

    ensemble: EnsembleSpec
    sparsity: int
    sweep_axis: str
    sweep_values: tuple
    solvers: tuple = SOLVER_IDS
    trials: int = 100
    snr_db: float | None = None
    min_separation: int = 0
    sep_factor: int = 0
    omega: float = 0.5
    success_tol: float = 1e-3
    master_seed: int = 0
    literal_acceptance: bool = False

    def __post_init__(self):
        if self.sweep_axis not in SWEEP_AXES:
            raise InvalidParameterError(f"unknown sweep axis {self.sweep_axis!r}")
        if len(self.sweep_values) == 0:
            raise InvalidParameterError("sweep_values must be nonempty")
        if len({float(v) for v in self.sweep_values}) != len(self.sweep_values):
            raise InvalidParameterError("sweep_values must be distinct")
        if self.trials < 1:
            raise InvalidParameterError("trials must be >= 1")
        if self.success_tol <= 0:
            raise InvalidParameterError("success_tol must be positive")
        for sid in self.solvers:
            if sid not in SOLVERS:
                raise InvalidParameterError(f"unknown solver id {sid!r}")
        if self.sep_factor < 0 or self.min_separation < 0:
            raise InvalidParameterError("separation settings must be nonnegative")


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    solver_id: str
    s: int
    sweep_value: float
    relative_error: float
    absolute_error: float
    success: bool
    accepted: bool | None
    wall_time: float
    status: str
    alpha_used: float


@dataclass(frozen=True)
class SummaryRow:
    solver_id: str
    sweep_value: float
    success_rate: float
    acceptance_rate: float | None
    mean_error: float
    mean_log_error: float


def _derive_seed(master: int, sweep_index: int, trial_index: int, stream: int) -> int:
    """Seed of one random stream of one trial.  Keyed spawning makes trials
    order-independent: any worker can draw (sweep, trial) without running
    earlier trials first."""
    ss = np.random.SeedSequence(master, spawn_key=(sweep_index, trial_index, stream))
    return int(ss.generate_state(1, np.uint64)[0])


def _resolve_point(spec: ExperimentSpec, sweep_index: int):
    """Concrete (ensemble, s, min_separation, snr_db) at one sweep point."""
    value = spec.sweep_values[sweep_index]
    ens = spec.ensemble
    s = spec.sparsity
    snr = spec.snr_db
    if spec.sweep_axis == "s":
        s = int(value)
    elif spec.sweep_axis == "refinement":
        ens = replace(ens, refinement=int(value))
    elif spec.sweep_axis == "snr":
        snr = float(value)
    elif spec.sweep_axis == "m":
        ens = replace(ens, m=int(value))
    sep = spec.min_separation
    if spec.sep_factor > 0:
        sep = spec.sep_factor * ens.refinement
    return ens, s, sep, snr


def solver_options(prob: ProblemInstance, sparsity: int, omega: float) -> SolverOptions:
    """Options every solver gets on an instance: alpha from the alpha
    subroutine (the fallback for a zero observation), mu = 1/alpha, the looser
    outer tolerance when the instance is noisy (tau > 0), and the sparsity
    estimate max(s, 1)."""
    A, b, tau = prob.A, prob.b, prob.tau
    if float(np.linalg.norm(b)) + tau > 0:
        alpha = alpha_subroutine(A, b, tau, omega=omega)
    else:
        alpha = _ALPHA_FALLBACK
    return SolverOptions(
        alpha=alpha,
        eps_outer=1e-3 if tau > 0 else 1e-5,
        sparsity_estimate=max(sparsity, 1),
        mu=1.0 / alpha,
    )


def trial_setup(
    spec: ExperimentSpec, sweep_index: int, trial_index: int
) -> tuple[ProblemInstance, SolverOptions, int]:
    """The instance, solver options and sparsity s of one trial."""
    ens, s, sep, snr = _resolve_point(spec, sweep_index)
    mseed = _derive_seed(spec.master_seed, sweep_index, trial_index, 0)
    sseed = _derive_seed(spec.master_seed, sweep_index, trial_index, 1)
    nseed = _derive_seed(spec.master_seed, sweep_index, trial_index, 2)
    A = gen_matrix(replace(ens, seed=mseed))
    xbar = gen_signal(SignalSpec(n=ens.n, sparsity=s, min_separation=sep, seed=sseed))
    clean = A @ xbar
    tau = 0.0
    b = clean
    if snr is not None and np.any(clean):
        b, tau = add_noise_snr(clean, snr, nseed)
    prob = ProblemInstance(A, b, tau, xbar)
    return prob, solver_options(prob, s, spec.omega), s


def run_trial(spec: ExperimentSpec, sweep_index: int, trial_index: int) -> list[TrialRecord]:
    """Generate one instance and run every configured solver on it.

    A solver that fails numerically is recorded as numeric_failure; any
    other error (a bug, such as writing into the read-only instance) raises.
    """
    prob, opts, s = trial_setup(spec, sweep_index, trial_index)
    xbar = prob.ground_truth
    value = float(spec.sweep_values[sweep_index])
    xnorm = float(np.linalg.norm(xbar))
    records = []
    errors = {}
    for sid in spec.solvers:
        t0 = time.perf_counter()
        try:
            report = SOLVERS[sid](prob, opts)
            status = report.status.value
            x_star = report.x_star
        except (SpringbackError, np.linalg.LinAlgError):
            status = SolverStatus.NUMERIC_FAILURE.value
            x_star = np.zeros(xbar.shape[0])
        wall = time.perf_counter() - t0
        abs_err = float(np.linalg.norm(x_star - xbar))
        rel_err = abs_err / xnorm if xnorm > 0 else float("nan")
        success = rel_err < spec.success_tol if xnorm > 0 else abs_err < spec.success_tol
        errors[sid] = abs_err
        records.append(
            TrialRecord(
                trial_index=trial_index,
                solver_id=sid,
                s=s,
                sweep_value=value,
                relative_error=rel_err,
                absolute_error=abs_err,
                success=bool(success),
                accepted=None,
                wall_time=wall,
                status=status,
                alpha_used=opts.alpha,
            )
        )
    if "springback" in errors and "admm_l1" in errors:
        if spec.literal_acceptance:
            accepted = errors["springback"] <= errors["admm_l1"] / 10.0
        else:
            accepted = errors["springback"] <= 10.0 * errors["admm_l1"]
        records = [
            replace(r, accepted=bool(accepted)) if r.solver_id == "springback" else r
            for r in records
        ]
    return records


def run_experiment(spec: ExperimentSpec) -> tuple[list[SummaryRow], list[TrialRecord]]:
    """Run the full sweep and aggregate.

    Trials are independent work items; SPRINGBACK_WORKERS > 1 runs them on a
    thread pool.  Aggregation folds records in ascending (sweep, trial) order
    regardless of completion order, so parallel and serial runs agree.
    """
    items = [
        (si, ti)
        for si in range(len(spec.sweep_values))
        for ti in range(spec.trials)
    ]
    workers = int(os.environ.get("SPRINGBACK_WORKERS", "1"))
    results: dict[tuple[int, int], list[TrialRecord]] = {}
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for key, recs in zip(items, pool.map(lambda it: run_trial(spec, *it), items)):
                results[key] = recs
    else:
        for key in items:
            results[key] = run_trial(spec, *key)
    records = [r for key in sorted(results) for r in results[key]]
    return summarize(records), records


def summarize(records: list[TrialRecord]) -> list[SummaryRow]:
    """Aggregate per (solver, sweep value), in the order the records first
    name each pair; rates are exact integer ratios."""
    groups: dict[tuple[str, float], list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.solver_id, r.sweep_value), []).append(r)
    rows = []
    for (sid, value), recs in groups.items():
        n = len(recs)
        successes = sum(r.success for r in recs)
        flagged = [r.accepted for r in recs if r.accepted is not None]
        acc_rate = sum(flagged) / n if flagged else None
        errs = np.array(
            [
                r.relative_error if np.isfinite(r.relative_error) else r.absolute_error
                for r in recs
            ]
        )
        rows.append(
            SummaryRow(
                solver_id=sid,
                sweep_value=value,
                success_rate=successes / n,
                acceptance_rate=acc_rate,
                mean_error=float(errs.mean()),
                mean_log_error=float(np.log(np.maximum(errs, 1e-300)).mean()),
            )
        )
    return rows


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


_RECORD_FIELDS = (
    "trial_index", "solver_id", "s", "sweep_value", "relative_error",
    "absolute_error", "success", "accepted", "wall_time", "status", "alpha_used",
)
_SUMMARY_FIELDS = (
    "solver_id", "sweep_value", "success_rate", "acceptance_rate",
    "mean_error", "mean_log_error",
)

_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render success-rate curves from a benchmark summary CSV.\"\"\"
import csv
import sys

import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "summary.csv"
curves = {}
with open(path, newline="") as fh:
    for row in csv.DictReader(fh):
        curves.setdefault(row["solver_id"], []).append(
            (float(row["sweep_value"]), float(row["success_rate"]))
        )
for solver, pts in curves.items():
    pts.sort()
    plt.plot([p[0] for p in pts], [p[1] for p in pts], marker="o", label=solver)
plt.xlabel("sweep value")
plt.ylabel("success rate")
plt.ylim(-0.05, 1.05)
plt.legend()
plt.tight_layout()
plt.savefig("success_rates.png", dpi=150)
print("wrote success_rates.png")
"""


def emit_results(rows, records, out_dir: str, spec: ExperimentSpec | None = None) -> dict:
    """Write records.csv, summary.csv, a plot script, and a rerun manifest.

    Returns the mapping of artifact names to paths.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
        paths = {}
        rec_path = os.path.join(out_dir, "records.csv")
        with open(rec_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(_RECORD_FIELDS)
            for r in records:
                w.writerow([_fmt(getattr(r, f)) for f in _RECORD_FIELDS])
        paths["records"] = rec_path
        sum_path = os.path.join(out_dir, "summary.csv")
        with open(sum_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(_SUMMARY_FIELDS)
            for r in rows:
                w.writerow([_fmt(getattr(r, f)) for f in _SUMMARY_FIELDS])
        paths["summary"] = sum_path
        plot_path = os.path.join(out_dir, "plot_success.py")
        with open(plot_path, "w") as fh:
            fh.write(_PLOT_SCRIPT)
        paths["plot"] = plot_path
        if spec is not None:
            man_path = os.path.join(out_dir, "manifest.cfg")
            with open(man_path, "w") as fh:
                fh.write(dump_config(spec))
            paths["manifest"] = man_path
        return paths
    except OSError as exc:
        raise OSError(f"cannot write benchmark results under {out_dir!r}: {exc}") from exc


def parse_records(path: str) -> list[TrialRecord]:
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(
                TrialRecord(
                    trial_index=int(row["trial_index"]),
                    solver_id=row["solver_id"],
                    s=int(row["s"]),
                    sweep_value=float(row["sweep_value"]),
                    relative_error=float(row["relative_error"]),
                    absolute_error=float(row["absolute_error"]),
                    success=bool(int(row["success"])),
                    accepted=None if row["accepted"] == "" else bool(int(row["accepted"])),
                    wall_time=float(row["wall_time"]),
                    status=row["status"],
                    alpha_used=float(row["alpha_used"]),
                )
            )
    return records


def parse_summary(path: str) -> list[SummaryRow]:
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append(
                SummaryRow(
                    solver_id=row["solver_id"],
                    sweep_value=float(row["sweep_value"]),
                    success_rate=float(row["success_rate"]),
                    acceptance_rate=None
                    if row["acceptance_rate"] == ""
                    else float(row["acceptance_rate"]),
                    mean_error=float(row["mean_error"]),
                    mean_log_error=float(row["mean_log_error"]),
                )
            )
    return rows


def dump_config(spec: ExperimentSpec) -> str:
    """Serialize a spec in the INI grammar accepted by load_config."""
    cp = configparser.ConfigParser()
    cp["ensemble"] = {
        "kind": spec.ensemble.kind.value,
        "m": str(spec.ensemble.m),
        "n": str(spec.ensemble.n),
        "refinement": str(spec.ensemble.refinement),
    }
    cp["signal"] = {
        "sparsity": str(spec.sparsity),
        "min_separation": str(spec.min_separation),
        "sep_factor": str(spec.sep_factor),
    }
    exp = {
        "sweep_axis": spec.sweep_axis,
        "sweep_values": " ".join(_fmt(float(v)) for v in spec.sweep_values),
        "solvers": " ".join(spec.solvers),
        "trials": str(spec.trials),
        "omega": _fmt(spec.omega),
        "success_tol": _fmt(spec.success_tol),
        "master_seed": str(spec.master_seed),
        "literal_acceptance": str(int(spec.literal_acceptance)),
    }
    if spec.snr_db is not None:
        exp["snr_db"] = _fmt(spec.snr_db)
    cp["experiment"] = exp
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# The sections and keys load_config reads; anything else is a typo.
_CONFIG_KEYS = {
    "ensemble": {"kind", "m", "n", "refinement"},
    "signal": {"sparsity", "min_separation", "sep_factor"},
    "experiment": {
        "sweep_axis", "sweep_values", "solvers", "trials", "snr_db", "omega",
        "success_tol", "master_seed", "literal_acceptance",
    },
}


def load_config(path_or_text: str, is_text: bool = False) -> ExperimentSpec:
    """Read an experiment spec from an INI config file (or literal text).

    Unknown sections and keys are rejected rather than silently defaulted.
    """
    cp = configparser.ConfigParser()
    if is_text:
        cp.read_string(path_or_text)
    else:
        if not os.path.exists(path_or_text):
            raise FileNotFoundError(f"config file not found: {path_or_text}")
        cp.read(path_or_text)
    for section in cp.sections():
        if section not in _CONFIG_KEYS:
            raise InvalidParameterError(f"unknown config section [{section}]")
        unknown = sorted(set(cp.options(section)) - _CONFIG_KEYS[section])
        if unknown:
            raise InvalidParameterError(
                f"unknown config key(s) in [{section}]: {', '.join(unknown)}"
            )
    try:
        ens = EnsembleSpec(
            kind=EnsembleKind(cp["ensemble"]["kind"]),
            m=cp["ensemble"].getint("m"),
            n=cp["ensemble"].getint("n"),
            refinement=cp["ensemble"].getint("refinement", fallback=1),
        )
        exp = cp["experiment"]
        sig = cp["signal"] if cp.has_section("signal") else {}
        snr = exp.get("snr_db", fallback=None)
        return ExperimentSpec(
            ensemble=ens,
            sparsity=int(sig.get("sparsity", "0")),
            sweep_axis=exp["sweep_axis"],
            sweep_values=tuple(float(v) for v in exp["sweep_values"].split()),
            solvers=tuple(exp.get("solvers", " ".join(SOLVER_IDS)).split()),
            trials=exp.getint("trials", fallback=100),
            snr_db=None if snr in (None, "") else float(snr),
            min_separation=int(sig.get("min_separation", "0")),
            sep_factor=int(sig.get("sep_factor", "0")),
            omega=exp.getfloat("omega", fallback=0.5),
            success_tol=exp.getfloat("success_tol", fallback=1e-3),
            master_seed=exp.getint("master_seed", fallback=0),
            literal_acceptance=bool(exp.getint("literal_acceptance", fallback=0)),
        )
    except (KeyError, ValueError) as exc:
        raise InvalidParameterError(f"invalid experiment config: {exc}") from exc


def preset_spec(
    name: str,
    trials: int | None = None,
    master_seed: int = 0,
    literal_shape: bool = False,
    literal_acceptance: bool = False,
) -> ExperimentSpec:
    """Preconfigured sweeps mirroring the four standard experiment figures.

    fig4: incoherent Gaussian success-rate sweep over s.
    fig5: coherent oversampled-DCT sweep over the refinement factor F.
    fig7: noisy Gaussian error sweep over the SNR (literal_shape keeps the
          overdetermined 128x64 shape as printed in the source experiment).
    fig8: noisy theory-validation sweep over s with acceptance rates.
    """
    if name == "fig4":
        spec = ExperimentSpec(
            ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=64, n=160),
            sparsity=10,
            sweep_axis="s",
            sweep_values=tuple(range(6, 41, 2)),
            omega=0.5,
        )
    elif name == "fig5":
        spec = ExperimentSpec(
            ensemble=EnsembleSpec(
                EnsembleKind.OVERSAMPLED_DCT, m=100, n=1500, refinement=4
            ),
            sparsity=15,
            sweep_axis="refinement",
            sweep_values=(4, 6, 8, 10, 12, 16),
            sep_factor=2,
            omega=0.5,
        )
    elif name == "fig7":
        m, n = (128, 64) if literal_shape else (64, 128)
        spec = ExperimentSpec(
            ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=m, n=n),
            sparsity=25,
            sweep_axis="snr",
            sweep_values=(10, 20, 30, 40, 50),
            omega=0.4,
        )
    elif name == "fig8":
        spec = ExperimentSpec(
            ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=50, n=160),
            sparsity=20,
            sweep_axis="s",
            sweep_values=tuple(range(10, 41, 5)),
            solvers=("springback", "admm_l1", "dca_l12"),
            snr_db=45.0,
            omega=0.4,
        )
    else:
        raise InvalidParameterError(f"unknown preset {name!r}")
    updates = {"literal_acceptance": literal_acceptance, "master_seed": master_seed}
    if trials is not None:
        updates["trials"] = trials
    return replace(spec, **updates)


PRESETS = ("fig4", "fig5", "fig7", "fig8")
