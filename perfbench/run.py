"""The springback benchmark: sweep throughput on preset workloads.

Run from the repository root:

    python3 perfbench/run.py --workload gauss-fig4 --seed 0 --seconds 45 --trace 0

One run measures units back to back (one closed-loop client): one sweep
point of the workload's preset with one trial, for one master seed, in
rounds that cover every sweep point once, as many rounds as lasted
``--seconds`` when the benchmark was defined.  Each unit goes through the
public harness: ``bench.preset_spec`` -> ``bench.run_experiment`` ->
``bench.emit_results``.  Its summary.csv rates and records.csv outcomes are
checked against the reference captured by ``capture.py``.  A calibration
kernel is timed after each unit.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` runs half as many rounds, reruns them with every
layer wrapped by ``tracing.Tracer`` and reports the per-layer metrics.  The
last line of standard output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``.  METRICS.md defines every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from tracing import PER_LAYER_UNITS, Tracer, layer_metrics, span_table
from workloads import (
    OUT_DIR,
    WORKLOADS,
    Calibration,
    Workload,
    import_springback,
    load_reference,
    mismatched_keys,
    record_outcomes,
    springback_outcomes,
    stable_tol,
    summary_rows,
    unit_key,
    unit_spec,
    units,
)

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 3

# The warm-up unit is the same for every seed, so that setup_s measures
# set-up rather than how hard the first instance is.
WARMUP_MASTER_SEED = 0

# Run by each fresh interpreter: import, build the spec, one warm-up trial.
SETUP_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
from springback import bench
spec = bench.preset_spec(sys.argv[2], trials=1, master_seed=int(sys.argv[3]))
bench.run_trial(spec, 0, 0)
"""

END_TO_END_UNITS = {"setup_s": "s", "norm_trials_per_s": "trials/s", "peak_rss_mb": "MiB"}

# Printed by name on every run but not listed in BENCHMARK.json.  The wall
# clock rate follows the shared machine's speed, which swings by up to 2x
# within seconds; norm_trials_per_s is the same rate with the run's share
# of that swing taken out.  The output check already gates every success and acceptance bit
# exactly, the rates' spread across seeds comes from the instances drawn,
# and failed_frac reads 0 on a correct run.
OUTCOME_UNITS = {
    "trials_per_s": "trials/s",
    "calibration_ms": "ms",
    "springback_success_rate": "fraction",
    "springback_accept_rate": "fraction",
    "failed_frac": "fraction",
}


@dataclass
class Unit:
    """One measured unit: its point and master seed, wall time and checked outcome."""

    point: int
    master_seed: int
    attempted: int
    trials: int = 0
    wall_s: float = 0.0
    calibration_s: float = 0.0  # the calibration kernel's time right after it
    failed: list = field(default_factory=list)
    outcomes: tuple = (0, 0, 0)


@dataclass
class Harness:
    """Runs and checks the units of one workload."""

    bench: object
    workload: Workload
    reference: dict
    out_dir: str

    def unit(self, point: int, master_seed: int) -> Unit:
        """Run, time and check one unit.  A raised error fails all its solves."""
        spec = unit_spec(self.bench, self.workload.preset, point, master_seed)
        unit = Unit(point, master_seed, attempted=len(spec.solvers))
        t0 = time.perf_counter()
        try:
            rows, records = self.bench.run_experiment(spec)
            self.bench.emit_results(rows, records, self.out_dir, spec)
        except Exception:
            unit.wall_s = time.perf_counter() - t0
            traceback.print_exc()
            unit.failed = [f"unit {point}/{master_seed} raised"] * unit.attempted
            return unit
        unit.wall_s = time.perf_counter() - t0
        unit.trials = 1
        bad = mismatched_keys(
            summary_rows(os.path.join(self.out_dir, "summary.csv")),
            record_outcomes(os.path.join(self.out_dir, "records.csv"), stable_tol(spec)),
            self.reference[unit_key(spec.sweep_values[0], master_seed)],
        )
        bad |= {f"{r.solver_id},{r.sweep_value:.17g}" for r in records if r.status == "numeric_failure"}
        unit.failed = [f"{k} (master seed {master_seed})" for k in sorted(bad)]
        unit.outcomes = springback_outcomes(spec, records)
        return unit

    def run(self, plan: list[tuple[int, int]], calibrate=None) -> list[Unit]:
        """Run the units of ``plan`` in order.  With ``calibrate``, time the
        calibration kernel after each unit."""
        done = []
        for point, master_seed in plan:
            done.append(self.unit(point, master_seed))
            if calibrate:
                done[-1].calibration_s = calibrate()
        return done


def measure_setup(root: str, workload: Workload) -> float:
    """Median wall time of a fresh interpreter importing springback, building
    the spec and finishing one warm-up trial."""
    src = os.path.join(root, "src")
    cmd = [sys.executable, "-c", SETUP_PROBE, src, workload.preset, str(WARMUP_MASTER_SEED)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def blas_info() -> dict:
    """OpenBLAS version and the thread count in effect (read, never set)."""
    import numpy as np

    info = {"blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
            "blas_threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ln.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def git_commit(root: str) -> str:
    """HEAD of the checkout when it is a git work tree (not of a repository above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "springback_workers": os.environ["SPRINGBACK_WORKERS"],
        "git_commit": git_commit(root),
        "seed": seed,
    }


def totals(done: list[Unit]) -> tuple[int, int]:
    return sum(u.attempted for u in done), sum(len(u.failed) for u in done)


def end_to_end(done: list[Unit], workload: Workload, setup_s: float) -> dict[str, float]:
    """The wall-clock rate is scaled by the run's mean calibration time over
    the kernel's nominal time, which takes the machine's speed swings out."""
    trials_per_s = sum(u.trials for u in done) / sum(u.wall_s for u in done)
    slowdown = statistics.fmean(u.calibration_s for u in done) / workload.calibration_s
    return {
        "setup_s": setup_s,
        "norm_trials_per_s": trials_per_s * slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def outcomes(done: list[Unit]) -> dict[str, float]:
    ok, acc, n = (sum(u.outcomes[i] for u in done) for i in range(3))
    attempted, failed = totals(done)
    calibrated = [u.calibration_s for u in done if u.calibration_s]
    return {
        "trials_per_s": sum(u.trials for u in done) / sum(u.wall_s for u in done),
        "calibration_ms": 1e3 * statistics.fmean(calibrated) if calibrated else 0.0,
        "springback_success_rate": ok / n if n else 0.0,
        "springback_accept_rate": acc / n if n else 0.0,
        "failed_frac": failed / attempted,
    }


def traced_layers(springback, harness: Harness, done: list[Unit], trace_path: str, header: dict):
    """Rerun the measured units under the tracer; per-layer metrics."""
    tracer = Tracer()
    tracer.install(springback)
    try:
        traced = harness.run([(u.point, u.master_seed) for u in done])
    finally:
        tracer.uninstall()
    table = span_table(tracer.spans)
    metrics = layer_metrics(tracer.spans, table, int(os.environ["SPRINGBACK_WORKERS"]))
    metrics["trace.overhead_frac"] = sum(u.wall_s for u in traced) / sum(u.wall_s for u in done) - 1.0
    for name, row in sorted(table.items()):
        print(f"span {name:<32} calls {row['calls']:>9}  "
              f"busy {row['busy_ms']:>11.1f} ms  self {row['self_ms']:>11.1f} ms")
    absent_layers = tracer.absent_layers()
    if tracer.absent:
        print(f"absent spans: {', '.join(tracer.absent)}; "
              f"absent layers: {', '.join(absent_layers) or 'none'}")
    tracer.write(trace_path, dict(header, absent=tracer.absent, absent_layers=absent_layers,
                                  spans=table, metrics=metrics))
    print(f"trace written to {trace_path}")
    return traced, metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--points", type=int, help="run only the first sweep points (self-test sizes)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    workload = WORKLOADS[args.workload]
    os.environ["SPRINGBACK_WORKERS"] = "1"
    springback = import_springback(root)
    out_dir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    reference = load_reference(workload.preset)
    harness = Harness(springback.bench, workload, reference, out_dir)
    env = environment(root, args.seed)
    print("environment " + json.dumps(env, sort_keys=True))

    setup_s = None if args.trace else measure_setup(root, workload)
    preset = springback.bench.preset_spec(workload.preset)
    calibrate = Calibration(preset.ensemble.m, preset.ensemble.n, workload.calibration_iterations)
    values = preset.sweep_values[: args.points]

    # A traced run spends half its time untraced and half rerunning the same
    # units traced, so it lasts as long as an untraced run.
    rounds = workload.rounds_for(args.seconds / 2 if args.trace else args.seconds)
    plan = units(args.seed, rounds, values, reference)
    try:
        harness.unit(0, WARMUP_MASTER_SEED)
        calibrate()
        done = harness.run(plan, None if args.trace else calibrate)
        print(f"{args.workload}: {rounds} round(s) of {len(values)} point(s), "
              f"{sum(u.wall_s for u in done):.3f} s measured")
        if args.trace:
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
            header = {"workload": args.workload, "environment": env}
            traced, metrics = traced_layers(springback, harness, done, trace_path, header)
            done = done + traced
        else:
            metrics = end_to_end(done, workload, setup_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted, failed = totals(done)
    for u in done:
        print(f"unit point {u.point} master {u.master_seed}: {1e3 * u.wall_s:.1f} ms, "
              f"calibration {1e3 * u.calibration_s:.2f} ms")
        for row in u.failed[:20]:
            print(f"check failed: {row}")
    units_of = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name:<44} {value:.6g} {units_of[name]}")
    for name, value in outcomes(done).items():
        print(f"{name:<44} {value:.6g} {OUTCOME_UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
