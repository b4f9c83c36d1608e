"""Benchmark harness: sweep execution, aggregation, and result persistence.

An experiment is a sweep over one axis (sparsity s, refinement factor F,
SNR in dB, or measurement count m) with a fixed matrix ensemble and a set of
solvers.  Every trial derives its random seeds from (master seed, sweep
index, trial index), so trials are order-independent and individually
reproducible.  Results are written as plain CSV plus a manifest that can be
fed back to rerun the experiment bit-identically.
"""

from __future__ import annotations

import atexit
import configparser
import csv
import enum
import io
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import InvalidParameterError, check_integer, check_positive
from .penalties import PenaltyKind
from .sensing import (
    EnsembleKind,
    EnsembleSpec,
    SignalSpec,
    add_noise_snr,
    gen_matrix,
    gen_signal,
    snr_ratio,
)
from .solvers import (
    OMEGA,
    ProblemInstance,
    SolverOptions,
    SolverReport,
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
    "solve_trial",
    "run_trial",
    "run_experiment",
    "summarize",
    "emit_results",
    "write_csv",
    "read_csv",
    "load_config",
    "preset_spec",
    "PRESETS",
]

# The DCA baselines' penalties: solve_trial runs the ids a trial names as
# one stack, one dca_unconstrained call.
_DCA_KINDS = {
    "dca_tl1": PenaltyKind.TL1,
    "dca_l12": PenaltyKind.L1_MINUS_2,
    "dca_mcp": PenaltyKind.MCP,
}

# Lone solver id -> solve(prob, opts).  Each entry looks its function up by
# name when called, so a wrapper later set on the module attribute sees every
# call that solve_trial makes in this process; a sweep's are not (see _Lanes).
SOLVERS = {
    "springback": lambda p, o: dca_springback(p, o),
    "admm_l1": lambda p, o: admm_l1(p, o),
    "irls_lp": lambda p, o: irls_lp(p, o),
    "aiht": lambda p, o: aiht(p, o),
}
SOLVER_IDS = (*SOLVERS, *_DCA_KINDS)

SWEEP_AXES = ("s", "refinement", "snr", "m")


def _check_solvers(solvers: tuple[str, ...]) -> None:
    """Raise InvalidParameterError unless ``solvers`` is a nonempty tuple of
    distinct ids from SOLVER_IDS: the rule of a spec's and solve_trial's ids."""
    if not solvers:
        raise InvalidParameterError("solvers must be nonempty")
    for sid in solvers:
        if sid not in SOLVER_IDS:
            raise InvalidParameterError(f"unknown solver id {sid!r}")
    if len(set(solvers)) != len(solvers):
        raise InvalidParameterError("solvers must be distinct")


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one benchmark sweep.  A sweep value replaces
    sparsity, ensemble.refinement, snr_db or ensemble.m, by the axis, so
    the field the axis replaces is never read (fig4's and fig8's sparsity,
    fig5's refinement).  The separation is min_separation, or sep_factor *
    refinement when sep_factor > 0; a spec may set one of the two, not both."""

    ensemble: EnsembleSpec
    sparsity: int
    sweep_axis: str
    sweep_values: tuple[float, ...]
    solvers: tuple[str, ...] = SOLVER_IDS
    trials: int = 100
    snr_db: float | None = None
    min_separation: int = 0
    sep_factor: int = 0
    omega: float = OMEGA
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
        if self.sweep_axis != "snr" and not all(float(v).is_integer() for v in self.sweep_values):
            raise InvalidParameterError(f"sweep_values on the {self.sweep_axis!r} axis must be integers")
        check_integer("trials must be >= 1", self.trials)
        check_positive("success_tol", self.success_tol)
        _check_solvers(self.solvers)
        check_integer(
            "separation settings must be nonnegative", self.sep_factor, self.min_separation, least=0
        )
        if self.sep_factor > 0 and self.min_separation > 0:
            raise InvalidParameterError("set min_separation or sep_factor, not both")
        check_positive("omega", self.omega)
        seed = self.master_seed
        check_integer(f"master_seed must be nonnegative, got {seed}", seed, least=0)
        if not isinstance(self.literal_acceptance, bool):
            raise InvalidParameterError(f"literal_acceptance must be a bool, got {self.literal_acceptance!r}")
        for index in range(len(self.sweep_values)):  # every point is valid before a trial runs
            _, _, snr = _resolve_point(self, index)
            if snr is not None:
                snr_ratio(snr)


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


def _trial_seeds(master: int, sweep_index: int, trial_index: int) -> list[int]:
    """The matrix, signal and noise seeds of one trial, the children of the
    SeedSequence keyed by (sweep, trial): keyed spawning makes trials
    order-independent, each drawn without running earlier trials first."""
    ss = np.random.SeedSequence(master, spawn_key=(sweep_index, trial_index))
    return [int(c.generate_state(1, np.uint64)[0]) for c in ss.spawn(3)]


def _resolve_point(spec: ExperimentSpec, sweep_index: int):
    """Concrete (ensemble, SignalSpec, snr_db) at one sweep point."""
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
    sep = spec.sep_factor * ens.refinement if spec.sep_factor > 0 else spec.min_separation
    return ens, SignalSpec(n=ens.n, sparsity=s, min_separation=sep), snr


def solver_options(prob: ProblemInstance, sparsity: int, omega: float) -> SolverOptions:
    """Options every solver gets on an instance: alpha from the alpha
    subroutine, the looser outer tolerance when the instance is noisy
    (tau > 0), and the sparsity estimate max(s, 1)."""
    return SolverOptions(
        alpha=alpha_subroutine(prob.A, prob.b, prob.tau, omega=omega),
        eps_outer=1e-3 if prob.tau > 0 else 1e-5,
        sparsity_estimate=max(sparsity, 1),
    )


def trial_setup(
    spec: ExperimentSpec, sweep_index: int, trial_index: int
) -> tuple[ProblemInstance, SolverOptions, int]:
    """The instance, solver options and sparsity s of one trial: sweep
    index and trial index each an integer in range for ``spec``."""
    points = len(spec.sweep_values)
    for what, index, count in (("sweep", sweep_index, points), ("trial", trial_index, spec.trials)):
        message = f"{what} index must be an integer in [0, {count}), got {index!r}"
        check_integer(message, index, least=0)
        if index >= count:
            raise InvalidParameterError(message)
    ens, sig, snr = _resolve_point(spec, sweep_index)
    mseed, sseed, nseed = _trial_seeds(spec.master_seed, sweep_index, trial_index)
    A = gen_matrix(ens, mseed)
    xbar = gen_signal(sig, sseed)
    clean = A @ xbar
    tau = 0.0
    b = clean
    if snr is not None and np.any(clean):
        b, tau = add_noise_snr(clean, snr, nseed)
    prob = ProblemInstance(A, b, tau, xbar)
    return prob, solver_options(prob, sig.sparsity, spec.omega), sig.sparsity


def solve_trial(
    solvers: tuple[str, ...], prob: ProblemInstance, opts: SolverOptions
) -> dict[str, tuple[SolverReport, float]]:
    """Run the solver ids ``solvers`` on one instance: per id, its report and
    its wall time in seconds.  The ids follow a spec's rule: nonempty, known
    and distinct.

    The DCA ids among them run as one stack of lasso rows, a single
    dca_unconstrained call made in the place of the first, in their order
    here, and each gets the stack's wall time divided by their number; each
    such report is bit for bit the one a stack of its kind alone returns.
    Every other id runs alone through SOLVERS.  Every solver runs in the
    caller's process, one after another, with the caller's BLAS threads (in
    a sweep, a solver lane's: see _Lanes).
    A solver reports its own numeric failure; any error it raises, a
    NumericError included, is a bug and raises here.
    """
    _check_solvers(solvers)
    dca = [sid for sid in solvers if sid in _DCA_KINDS]
    results: dict[str, tuple[SolverReport, float]] = {}
    for sid in solvers:
        if sid in results:
            continue
        group = dca if sid in _DCA_KINDS else [sid]
        t0 = time.perf_counter()
        if group is dca:
            reports = dca_unconstrained(tuple(_DCA_KINDS[g] for g in dca), prob, opts)
        else:
            reports = [SOLVERS[sid](prob, opts)]
        wall = (time.perf_counter() - t0) / len(group)
        results.update((g, (report, wall)) for g, report in zip(group, reports))
    return results


def _solve(spec: ExperimentSpec, solvers: tuple[str, ...], sweep_index: int, trial_index: int):
    """Draw a trial's instance and run the ids ``solvers`` on it: (s, alpha,
    ||x_bar||, {id: (||x* - x_bar||, status, wall time)}) by solve_trial."""
    prob, opts, s = trial_setup(spec, sweep_index, trial_index)
    outcomes = {
        sid: (float(np.linalg.norm(report.x_star - prob.ground_truth)), report.status, wall)
        for sid, (report, wall) in solve_trial(solvers, prob, opts).items()
    }
    return s, opts.alpha, float(np.linalg.norm(prob.ground_truth)), outcomes


def run_trial(
    spec: ExperimentSpec, sweep_index: int, trial_index: int, *, _lanes: _Lanes | None = None
) -> list[TrialRecord]:
    """Generate one instance, run every configured solver on it through
    solve_trial, and keep one record per solver in the spec's order.

    The DCA baselines run as one stack, and each of their records holds the
    stack's wall time divided by their number.  A record's status is its
    report's; any error a solver raises (a bug, such as a write into the
    read-only instance, or a NumericError that escaped it) raises here.

    Every solver runs in the caller's process, with the caller's BLAS
    threads, unless run_experiment passes ``_lanes`` (see _Lanes).
    """
    solve = _solve if _lanes is None else _lanes.run
    s, alpha, xnorm, outcomes = solve(spec, spec.solvers, sweep_index, trial_index)
    accepted = None
    if "springback" in outcomes and "admm_l1" in outcomes:
        spb, l1 = outcomes["springback"][0], outcomes["admm_l1"][0]
        accepted = spb <= l1 / 10.0 if spec.literal_acceptance else spb <= 10.0 * l1
    records = []
    for sid in spec.solvers:
        abs_err, status, wall = outcomes[sid]
        rel_err = abs_err / xnorm if xnorm > 0 else float("nan")
        success = rel_err < spec.success_tol if xnorm > 0 else abs_err < spec.success_tol
        records.append(
            TrialRecord(
                trial_index=trial_index,
                solver_id=sid,
                s=s,
                sweep_value=float(spec.sweep_values[sweep_index]),
                relative_error=rel_err,
                absolute_error=abs_err,
                success=bool(success),
                accepted=accepted if sid == "springback" else None,
                wall_time=wall,
                status=status.value,
                alpha_used=alpha,
            )
        )
    return records


# Run by each lane's interpreter: argv[1] is the directory that holds this
# package, argv[2] the file descriptor of the lane's end of its pipe.
_LANE_MAIN = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from springback.bench import _serve_lane; _serve_lane(int(sys.argv[2]))"
)

# Set in each lane's environment only, never in the caller's: one BLAS
# thread per lane, so the two lanes' products do not wake helper threads
# that compete with each other for the cores.
_LANE_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _serve_lane(fd: int) -> None:
    """A lane's loop: for each (spec, solver ids, sweep index, trial index)
    received on the connection at file descriptor fd, send back _solve's
    tuple for those ids, or the error it raised, which the caller raises
    again with its own type.  Returns when the caller closes its end."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    with multiprocessing.connection.Connection(fd) as conn:
        while True:
            try:
                spec, solvers, sweep_index, trial_index = conn.recv()
            except EOFError:
                return
            try:
                reply = _solve(spec, solvers, sweep_index, trial_index)
            except Exception as exc:  # raised again in the caller
                reply = exc
            conn.send(reply)


class _Lanes:
    """The solver lanes: two interpreters that solve every trial of
    run_experiment, lane 0 the DCA ids and lane 1 the other solvers, each
    with one BLAS thread.  Each lane draws the trial's instance itself and
    returns its solves; run_trial makes every record, accepted included, in
    a process that draws no instance and makes no BLAS call.  The records
    are bit for bit those run_trial makes alone with one BLAS thread, but
    for the wall times, whatever the caller's thread count; a wrapper set on
    a module attribute in the caller misses the lanes' solvers.

    Each lane is a plain subprocess, not a multiprocessing spawn, so that it
    imports the package from this file's directory whatever sys.path holds
    later, never reruns the caller's __main__, and needs no resource
    tracker.  A lane starts (about 0.25 s) when it is first sent a trial, so
    a lane whose side no sweep names never starts; the lanes a trial needs
    all start before either is sent it, and so import side by side.
    ``processes`` and ``conns`` map each started lane to its process and its
    pipe.  Every busy lane's reply is read before any lane's error raises,
    so no reply outlives its trial.  A send or receive that fails (a lane
    died, or an interrupt cut the exchange short) closes the lanes: close
    kills every lane and forgets it, and the next trial starts anew the
    lanes it needs.  A process has one _Lanes, _shared_lanes, kept across
    sweeps; it closes when the process exits.
    """

    def __init__(self):
        self.conns, self.processes = {}, {}
        atexit.register(self.close)

    def _start(self, lane: int) -> None:
        package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        conn, child = multiprocessing.connection.Pipe()
        with child:
            process = subprocess.Popen(
                [sys.executable, "-c", _LANE_MAIN, package_dir, str(child.fileno())],
                pass_fds=(child.fileno(),), env=dict(os.environ, **_LANE_ENV),
            )
        self.processes[lane], self.conns[lane] = process, conn

    def close(self) -> None:
        for lane, process in self.processes.items():
            self.conns[lane].close()
            process.kill()
        for process in self.processes.values():
            process.wait()
        self.conns.clear()
        self.processes.clear()

    def run(self, spec: ExperimentSpec, solvers: tuple[str, ...], sweep_index: int, trial_index: int):
        """_solve's tuple of one trial for the ids ``solvers``: lane 0 solves
        the DCA ids among them and lane 1 the others, each on the whole spec,
        and a lane whose side names no id gets no message.  The lanes draw
        one instance, so s, alpha and ||x_bar|| are the first lane's.  The
        first error a lane raised raises here with its own type."""
        dca = tuple(sid for sid in solvers if sid in _DCA_KINDS)
        rest = tuple(sid for sid in solvers if sid not in dca)
        busy = [(lane, ids) for lane, ids in enumerate((dca, rest)) if ids]
        for lane, _ in busy:
            if lane not in self.processes:
                self._start(lane)
        try:
            for lane, ids in busy:
                self.conns[lane].send((spec, ids, sweep_index, trial_index))
            replies = []
            for lane, _ in busy:
                replies.append(self.conns[lane].recv())
        except BaseException as exc:
            process = self.processes[lane]
            self.close()
            if isinstance(exc, (EOFError, OSError)):
                raise ChildProcessError(f"solver lane {lane} exited with status {process.returncode}") from exc
            raise
        outcomes = {}
        for reply in replies:
            if isinstance(reply, Exception):
                raise reply
            outcomes.update(reply[3])
        return (*replies[0][:3], outcomes)


# Kept across sweeps: callers such as the benchmark run one sweep per trial.
_shared_lanes = _Lanes()


def run_experiment(spec: ExperimentSpec) -> tuple[list[SummaryRow], list[TrialRecord]]:
    """Run the full sweep, one run_trial call per trial in ascending (sweep,
    trial) order, each solved in the solver lanes (see _Lanes), and
    aggregate."""
    # A lane that died since the last sweep, or any lane in a forked child,
    # where poll() finds no such child and reads 0 (so kill() sends nothing).
    if any(p.poll() is not None for p in _shared_lanes.processes.values()):
        _shared_lanes.close()
    records = [
        r
        for si in range(len(spec.sweep_values))
        for ti in range(spec.trials)
        for r in run_trial(spec, si, ti, _lanes=_shared_lanes)
    ]
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
    if isinstance(v, enum.Enum):
        return v.value
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _parse(text: str | None, tp):
    """Value of declared type tp from the text _fmt wrote: bool is 0/1, an
    empty X | None is None, and tuple[X, ...] is space separated."""
    if text is None:
        raise ValueError("missing value")
    if type(None) in get_args(tp):
        if text == "":
            return None
        tp = get_args(tp)[0]  # X of X | None
    if tp is bool:
        if text not in ("0", "1"):
            raise ValueError(f"expected 0 or 1, got {text!r}")
        return text == "1"
    if get_origin(tp) is tuple:
        return tuple(get_args(tp)[0](t) for t in text.split())
    return tp(text)


def emit_results(rows, records, out_dir: str, spec: ExperimentSpec | None = None) -> dict:
    """Write records.csv, summary.csv, and (given a spec) a rerun manifest.

    Returns the mapping of artifact names to paths.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
        paths = {}
        for name, cls, items in (("records", TrialRecord, records), ("summary", SummaryRow, rows)):
            paths[name] = os.path.join(out_dir, f"{name}.csv")
            with open(paths[name], "w", newline="") as fh:
                write_csv(fh, cls, items)
        if spec is not None:
            paths["manifest"] = os.path.join(out_dir, "manifest.cfg")
            with open(paths["manifest"], "w") as fh:
                fh.write(dump_config(spec))
        return paths
    except OSError as exc:
        raise OSError(f"cannot write benchmark results under {out_dir!r}: {exc}") from exc


def write_csv(fh, cls, items, line_end: str = "\r\n") -> None:
    """Write items of dataclass cls as CSV, one column per field."""
    names = [f.name for f in fields(cls)]
    w = csv.writer(fh, lineterminator=line_end)
    w.writerow(names)
    for item in items:
        w.writerow([_fmt(getattr(item, n)) for n in names])


def read_csv(path: str, cls) -> list:
    """Read a CSV written by write_csv back into instances of cls.  A missing
    column or an unparsable cell raises InvalidParameterError."""
    types = get_type_hints(cls)
    columns = [(f.name, types[f.name]) for f in fields(cls)]
    items = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name, _ in columns if name not in (reader.fieldnames or ())]
        if missing:
            raise InvalidParameterError(f"{path}: missing column(s) {', '.join(missing)}")
        for row in reader:
            values = {}
            for name, tp in columns:
                try:
                    values[name] = _parse(row[name], tp)
                except ValueError as exc:
                    raise InvalidParameterError(
                        f"{path} line {reader.line_num}, column {name}: {exc}"
                    ) from exc
            items.append(cls(**values))
    return items


# Manifest layout, section -> keys in write order.  Keys name ExperimentSpec
# fields; [ensemble] holds exactly EnsembleSpec's fields.  A None value
# (snr_db when unset) is not written.
_CONFIG = {
    "ensemble": tuple(f.name for f in fields(EnsembleSpec)),
    "signal": ("sparsity", "min_separation", "sep_factor"),
    "experiment": (
        "sweep_axis", "sweep_values", "solvers", "trials", "omega",
        "success_tol", "master_seed", "literal_acceptance", "snr_db",
    ),
}


def dump_config(spec: ExperimentSpec) -> str:
    """Serialize a spec in the INI grammar accepted by load_config."""
    cp = configparser.ConfigParser()
    for section, keys in _CONFIG.items():
        obj = spec.ensemble if section == "ensemble" else spec
        types = get_type_hints(type(obj))
        cp.add_section(section)
        for key in keys:
            value = getattr(obj, key)
            if get_origin(types[key]) is tuple:
                value = " ".join(_fmt(get_args(types[key])[0](v)) for v in value)
            if value is not None:
                cp.set(section, key, _fmt(value))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def load_config(path: str) -> ExperimentSpec:
    """Read an experiment spec from an INI config file.

    A missing key takes the dataclass default; sparsity, which has none, is
    0 on the s axis and required on the others.  Unknown sections and keys
    are rejected, not defaulted.  A file that cannot be opened raises its OSError.
    """
    cp = configparser.ConfigParser()
    ens, exp = {}, {}
    try:
        with open(path) as fh:
            cp.read_file(fh)
        for section in cp.sections():
            if section not in _CONFIG:
                raise InvalidParameterError(f"unknown config section [{section}]")
            unknown = sorted(set(cp.options(section)) - set(_CONFIG[section]))
            if unknown:
                raise InvalidParameterError(
                    f"unknown config key(s) in [{section}]: {', '.join(unknown)}"
                )
            target, cls = (ens, EnsembleSpec) if section == "ensemble" else (exp, ExperimentSpec)
            types = get_type_hints(cls)
            for key, text in cp.items(section):
                target[key] = _parse(text, types[key])
        if exp.get("sweep_axis") == "s":  # s sets the sparsity; no other axis does
            exp.setdefault("sparsity", 0)
        return ExperimentSpec(ensemble=EnsembleSpec(**ens), **exp)
    except (configparser.Error, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"invalid experiment config: {exc}") from exc


# The preset sweeps of the standard experiment figures, built and validated
# once.  fig4 and fig5 floor alpha at the default omega, solvers.OMEGA; fig7
# and fig8 at 0.4.
_FIG7 = ExperimentSpec(
    ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=64, n=128),
    sparsity=25,
    sweep_axis="snr",
    sweep_values=(10, 20, 30, 40, 50),
    omega=0.4,
)
_PRESETS = {
    # incoherent Gaussian success-rate sweep over s
    "fig4": ExperimentSpec(
        ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=64, n=160),
        sparsity=10,
        sweep_axis="s",
        sweep_values=tuple(range(6, 41, 2)),
    ),
    # coherent oversampled-DCT sweep over the refinement factor F
    "fig5": ExperimentSpec(
        ensemble=EnsembleSpec(EnsembleKind.OVERSAMPLED_DCT, m=100, n=1500, refinement=4),
        sparsity=15,
        sweep_axis="refinement",
        sweep_values=(4, 6, 8, 10, 12, 16),
        sep_factor=2,
    ),
    "fig7": _FIG7,  # noisy Gaussian error sweep over the SNR
    # fig7 at the overdetermined 128x64 shape printed in the source experiment
    "fig7-literal": replace(_FIG7, ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=128, n=64)),
    # noisy theory-validation sweep over s with acceptance rates
    "fig8": ExperimentSpec(
        ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=50, n=160),
        sparsity=20,
        sweep_axis="s",
        sweep_values=tuple(range(10, 41, 5)),
        solvers=("springback", "admm_l1", "dca_l12"),
        snr_db=45.0,
        omega=0.4,
    ),
}
PRESETS = tuple(_PRESETS)


def preset_spec(
    name: str, trials: int | None = None, master_seed: int = 0, literal_acceptance: bool = False
) -> ExperimentSpec:
    """The preset sweep ``name``, one of PRESETS, at this master seed and
    acceptance rule, and at ``trials`` trials (None keeps the preset's)."""
    if name not in _PRESETS:
        raise InvalidParameterError(f"unknown preset {name!r}")
    spec = _PRESETS[name]
    trials = spec.trials if trials is None else trials
    return replace(spec, trials=trials, master_seed=master_seed, literal_acceptance=literal_acceptance)
