"""Workloads, unit pool, calibration and output check shared by the benchmark scripts.

A workload is one experiment preset run through the public harness
(``bench.preset_spec`` -> ``bench.run_experiment`` -> ``bench.emit_results``)
one *unit* at a time.  A unit is the preset's spec cut down to one sweep
point, with one trial, for one master seed of a fixed pool: a single
instance solved by every configured solver.  A run covers every sweep
point equally, in rounds (one unit per point per round), and the benchmark
seed picks each point's master seeds, spread over the pool's easy and hard
instances alike.  References for every (point, master
seed) of the pool are captured by ``capture.py``, so the output of any
benchmark seed can be checked: per solver, the summary.csv rates, and the
status, relative error and (on noisy presets) stable-recovery bit of
records.csv.

The machine the benchmark runs on is shared, and its speed changes by up to
2x within seconds.  So a fixed calibration kernel, which runs numpy and the
interpreter only and never springback code, is timed after every unit, and
the run's rate is also reported scaled by the kernel's mean time over its
nominal time.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, replace

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
OUT_DIR = ".perfbench_out"

# Master seeds 0 .. POOL_SIZE-1 of every sweep point have a captured reference.
POOL_SIZE = 24

# Noise makes a 1e-3 relative error unreachable on the noisy preset, so its
# success test is stable recovery instead: an error within this many times
# the relative noise level 10^(-SNR/20).
NOISY_SUCCESS_FACTOR = 10.0

# The output check compares each solve's relative error in log10, after
# raising it to ERROR_FLOOR (exact recoveries differ only in rounding).
# Relative noise of 1e-14 added to the output of every inner solve, soft and
# hard threshold moved no error by more than 0.0002 decades; noise of 1e-13
# moved one by 0.064 and most by under 0.005.  Neither changed a solve
# status.  So the tolerance leaves room for reordered floating point, while a
# solver that stops early, skips a branch or computes another point shows.
ERROR_FLOOR = 1e-9
ERROR_TOLERANCE_DECADES = 0.1

@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    round_s: float  # one round's wall time on 2 cores when the benchmark was defined
    calibration_iterations: int  # about 30 ms of the calibration kernel
    calibration_s: float  # the calibration kernel's nominal time on that machine

    def rounds_for(self, seconds: float) -> int:
        """Rounds per run: as many as lasted ``seconds`` when the benchmark
        was defined.  The count does not follow the code's speed, so a parent
        commit and a change run the same instances for the same seed."""
        return max(1, min(POOL_SIZE, round(seconds / self.round_s)))


# Why each workload was chosen is stated in BENCHMARK.json and METRICS.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gauss-fig4", "fig4", round_s=15.0, calibration_iterations=2000, calibration_s=0.034),
        # Not in BENCHMARK.json: its few long, BLAS-threaded units spread too
        # far from run to run on a shared 2-core machine (METRICS.md).
        Workload("dct-fig5", "fig5", round_s=14.0, calibration_iterations=500, calibration_s=0.038),
        Workload("noisy-fig8", "fig8", round_s=4.0, calibration_iterations=2000, calibration_s=0.034),
    )
}


def import_springback(root: str):
    """Import the package from ``<root>/src``, never from an installed copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "springback", "__init__.py")):
        raise SystemExit(f"error: no springback package under {src!r}; run from the repository root")
    sys.path.insert(0, src)
    import springback

    return springback


def point_key(value) -> str:
    """A sweep value as summary.csv and records.csv write it."""
    return format(float(value), ".17g")


def unit_key(value, master_seed: int) -> str:
    return f"{point_key(value)}/{master_seed}"


def unit_spec(bench, preset: str, point_index: int, master_seed: int):
    """The preset's spec cut down to one sweep point and one trial."""
    spec = bench.preset_spec(preset, trials=1, master_seed=master_seed)
    return replace(spec, sweep_values=(spec.sweep_values[point_index],))


def hardness(want: dict) -> int:
    """The solves of a reference unit that hit ``max_iter``.  At one sweep
    point this decides most of what one instance costs over another: on
    gauss-fig4 it explains 83 % of the spread of unit times."""
    return sum(record[0] != "converged" for record in want["records"].values())


def units(seed: int, rounds: int, values, reference: dict) -> list[tuple[int, int]]:
    """The (point index, master seed) units of a run, round by round: every
    sweep point once per round.  Each point's master seeds are a systematic
    sample, drawn by ``seed``, of its pool ranked by reference hardness, so
    every run gets the same mix of easy and hard instances."""
    rng = random.Random(seed)
    step = POOL_SIZE / rounds
    masters = []
    for value in values:
        pool = list(range(POOL_SIZE))
        rng.shuffle(pool)
        pool.sort(key=lambda k: hardness(reference[unit_key(value, k)]))
        start = rng.random() * step
        picks = [pool[int(start + r * step)] for r in range(rounds)]
        rng.shuffle(picks)
        masters.append(picks)
    return [(i, masters[i][r]) for r in range(rounds) for i in range(len(values))]


class Calibration:
    """A fixed iterative-thresholding loop on an m x n Gaussian matrix, the
    shape of the workload's instances.  It runs numpy and the interpreter
    only, so a change to springback cannot change its time; the machine
    can."""

    def __init__(self, m: int, n: int, iterations: int):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np, self.iterations = np, iterations
        self.A = rng.standard_normal((m, n)) / math.sqrt(m)
        self.b = self.A @ (rng.standard_normal(n) * (rng.random(n) < 0.1))

    def __call__(self) -> float:
        np, A, b = self.np, self.A, self.b
        x = np.zeros(A.shape[1])
        t0 = time.perf_counter()
        for _ in range(self.iterations):
            x = x - 0.1 * (A.T @ (A @ x - b))
            x = np.sign(x) * np.maximum(np.abs(x) - 1e-4, 0.0)
        return time.perf_counter() - t0


def summary_rows(path: str) -> list[str]:
    """The (solver, sweep point, success rate, acceptance rate) rows of a
    summary.csv, as written; timing and error columns are left out."""
    with open(path, newline="") as fh:
        return [
            ",".join((r["solver_id"], r["sweep_value"], r["success_rate"], r["acceptance_rate"]))
            for r in csv.DictReader(fh)
        ]


def stable_tol(spec) -> float | None:
    """The stable-recovery error bound of a noisy preset; None when noiseless."""
    if spec.snr_db is None:
        return None
    return NOISY_SUCCESS_FACTOR * 10.0 ** (-spec.snr_db / 20.0)


def log_error(relative_error: float) -> float:
    return math.log10(max(relative_error, ERROR_FLOOR))


def record_outcomes(path: str, stable: float | None) -> dict[str, list]:
    """Per "solver,sweep point" of a records.csv (one trial per point):
    [status, log10 relative error, stable-recovery bit or None]."""
    with open(path, newline="") as fh:
        return {
            f"{r['solver_id']},{r['sweep_value']}": [
                r["status"],
                round(log_error(float(r["relative_error"])), 4),
                None if stable is None else int(float(r["relative_error"]) < stable),
            ]
            for r in csv.DictReader(fh)
        }


def reference_path(preset: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{preset}.json")


def load_reference(preset: str) -> dict[str, dict]:
    """Reference summary rows and record outcomes, per unit key."""
    with open(reference_path(preset)) as fh:
        return json.load(fh)["units"]


def mismatched_keys(summary: list[str], records: dict[str, list], want: dict) -> set[str]:
    """The "solver,sweep point" keys whose outcome differs from the reference,
    is missing, or is unexpected.  A summary row must match exactly; a record
    must match in status and stable-recovery bit, and its log10 relative
    error must lie within ERROR_TOLERANCE_DECADES of the reference."""
    def key(row):
        return row.rsplit(",", 2)[0]

    expected = {key(r): r for r in want["summary"]}
    actual = {key(r): r for r in summary}
    bad = {k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k)}
    ref = want["records"]
    for k in ref.keys() | records.keys():
        got, exp = records.get(k), ref.get(k)
        if got is None or exp is None or got[0] != exp[0] or got[2] != exp[2] \
                or abs(got[1] - exp[1]) > ERROR_TOLERANCE_DECADES:
            bad.add(k)
    return bad


def springback_outcomes(spec, records) -> tuple[int, int, int]:
    """(successes, acceptances, trials) of the springback solver.

    Success is summary.csv's test (relative error below ``success_tol``) on
    noiseless presets, and stable recovery on noisy ones.
    """
    tol = stable_tol(spec) or spec.success_tol
    sb = [r for r in records if r.solver_id == "springback"]
    return (
        sum(r.relative_error < tol for r in sb),
        sum(bool(r.accepted) for r in sb),
        len(sb),
    )
