"""Check chosen solvers against the benchmark's reference pool of a preset.

Runs the named solvers (by default every solver of the preset) over every
(sweep point, master seed) unit of the preset's reference pool in
``perfbench/reference/`` and compares each solve
with the captured reference, as the benchmark's output check does: status,
stable-recovery bit (noisy presets), summary.csv row and log10 relative
error.  It prints, per solver, the mismatches of each kind and the largest
log10 error move with its unit, to the 1e-4 decades the reference keeps.
The acceptance rate ties springback to admm_l1, so it is compared only when
both run.  A change that rounds differently shows here, over the whole pool,
what the benchmark's sample of units would show only by chance.

Run from the repository root:

    python3 tools/pool_check.py fig8
    python3 tools/pool_check.py fig4 --solvers springback,admm_l1,dca_l12

Exits with status 1 when any status, stable bit or summary row differs.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import (  # noqa: E402
    POOL_SIZE,
    import_springback,
    load_reference,
    record_outcomes,
    stable_tol,
    summary_rows,
    unit_key,
    unit_spec,
)

KINDS = ("status", "stable", "summary")


def _row_key(row: str, with_acceptance: bool) -> tuple[str, str]:
    """("solver,sweep point", the compared fields) of a summary row."""
    solver, point, success, acceptance = row.split(",")
    return f"{solver},{point}", success + ("," + acceptance if with_acceptance else "")


def check(bench, preset: str, solvers: tuple[str, ...], out: str) -> dict[str, dict]:
    reference = load_reference(preset)
    with_acceptance = "springback" in solvers and "admm_l1" in solvers
    found = {s: {"status": [], "stable": [], "summary": [], "move": (0.0, None)} for s in solvers}
    for i, value in enumerate(bench.preset_spec(preset).sweep_values):
        for master in range(POOL_SIZE):
            unit = unit_key(value, master)
            want = reference[unit]
            spec = replace(unit_spec(bench, preset, i, master), solvers=solvers)
            bench.emit_results(*bench.run_experiment(spec), out, spec)
            got = record_outcomes(os.path.join(out, "records.csv"), stable_tol(spec))
            rows = dict(_row_key(r, with_acceptance) for r in summary_rows(os.path.join(out, "summary.csv")))
            ref_rows = dict(_row_key(r, with_acceptance) for r in want["summary"])
            for key, (status, log_error, stable) in got.items():
                solver = key.split(",")[0]
                exp = want["records"][key]
                f = found[solver]
                if status != exp[0]:
                    f["status"].append(f"{unit} {exp[0]} -> {status}")
                if stable != exp[2]:
                    f["stable"].append(f"{unit} {exp[2]} -> {stable}")
                if rows[key] != ref_rows[key]:
                    f["summary"].append(f"{unit} {ref_rows[key]} -> {rows[key]}")
                move = abs(log_error - exp[1])
                if move > f["move"][0]:
                    f["move"] = (move, unit)
    return found


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("preset", help="a preset with a reference pool: fig4, fig5 or fig8")
    parser.add_argument("--solvers", help="comma-separated solver ids (default: all of the preset's)")
    args = parser.parse_args(argv)
    springback = import_springback(ROOT)
    preset = springback.bench.preset_spec(args.preset)
    solvers = tuple(args.solvers.split(",")) if args.solvers else preset.solvers
    unknown = [s for s in solvers if s not in preset.solvers]
    if unknown:
        parser.error(f"{args.preset} has no reference for {', '.join(unknown)}; "
                     f"its solvers are {','.join(preset.solvers)}")
    points = len(preset.sweep_values)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as out:
        found = check(springback.bench, args.preset, solvers, out)
    print(f"{args.preset}: {points * POOL_SIZE} units, {time.perf_counter() - t0:.0f} s; "
          f"acceptance {'compared' if 'springback' in solvers and 'admm_l1' in solvers else 'not compared'}")
    bad = False
    for solver, f in found.items():
        counts = ", ".join(f"{len(f[k])} {k}" for k in KINDS)
        move, unit = f["move"]
        print(f"{solver}: {counts} mismatches; largest log10 error move {move:.2g}"
              + (f" at {unit}" if unit else ""))
        for k in KINDS:
            for line in f[k]:
                print(f"  {k}: {line}")
            bad = bad or bool(f[k])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
