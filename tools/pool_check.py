"""Run the benchmark's output check over every unit of a preset's reference pool.

Runs every (sweep point, master seed) unit of the preset's reference pool in
``perfbench/reference/`` through ``perfbench/run.py``'s own ``Harness.unit``,
so a solve fails here exactly when it fails the benchmark's check: a status,
stable-recovery bit or summary.csv row that differs, a log10 relative error
that moves by more than the check's tolerance, a ``numeric_failure``, or a
missing or extra record.  A unit that raises fails every solver it names.
It prints, per solver, the failed solves and the largest log10 error move
with its unit, to the 1e-4 decades the reference keeps.  A change that
rounds differently shows here, over the whole pool, what the benchmark's
sample of units would show only by chance.

Run from the repository root:

    python3 tools/pool_check.py fig8

Exits with status 1 when any solve fails.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import Harness  # noqa: E402
from workloads import (  # noqa: E402
    POOL_SIZE,
    WORKLOADS,
    import_springback,
    load_reference,
    record_outcomes,
    stable_tol,
    unit_key,
)

# The workload of each preset with a reference pool.
WORKLOAD_OF = {w.preset: w for w in WORKLOADS.values()}


def check(bench, preset: str, out: str) -> tuple[dict, dict]:
    """Per solver: its failed solves, and its largest log10 error move with its unit."""
    harness = Harness(bench, WORKLOAD_OF[preset], load_reference(preset), out)
    spec = bench.preset_spec(preset)
    tol = stable_tol(spec)
    failed = {s: [] for s in spec.solvers}
    moves = {s: (0.0, None) for s in spec.solvers}
    for i, value in enumerate(spec.sweep_values):
        for master in range(POOL_SIZE):
            unit = harness.unit(i, master)
            if not unit.trials:  # it raised
                for s in spec.solvers:
                    failed[s] += unit.failed[:1]
                continue
            # "solver,point (master seed k)", also of a solver only the reference names
            for line in unit.failed:
                failed.setdefault(line.split(",")[0], []).append(line)
            key = unit_key(value, master)
            want = harness.reference[key]["records"]
            got = record_outcomes(os.path.join(out, "records.csv"), tol)
            for k in got.keys() & want.keys():
                s = k.split(",")[0]
                moves[s] = max(moves[s], (abs(got[k][1] - want[k][1]), key), key=lambda m: m[0])
    return failed, moves


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("preset", choices=sorted(WORKLOAD_OF), help="a preset with a reference pool")
    args = parser.parse_args(argv)
    springback = import_springback(ROOT)
    points = len(springback.bench.preset_spec(args.preset).sweep_values)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as out:
        failed, moves = check(springback.bench, args.preset, out)
    print(f"{args.preset}: {points * POOL_SIZE} units, {time.perf_counter() - t0:.0f} s")
    for solver, lines in failed.items():
        move, unit = moves.get(solver, (0.0, None))
        print(f"{solver}: {len(lines)} failed solves; largest log10 error move {move:.2g}"
              + (f" at {unit}" if unit else ""))
        for line in lines:
            print(f"  failed: {line}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
