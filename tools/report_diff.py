"""Compare every solver report of this tree with another checkout, bit for bit.

Imports the ``springback`` package of this tree and then that of OTHER_TREE,
one after the other in one process, and runs all seven solvers on the first
trials of every sweep point of each preset in that tree's ``bench.PRESETS``
(the same instance, options and seeds ``bench`` uses) through
``bench.solve_trial``, the path ``run_trial`` takes (the DCA baselines as one
stack).  Every ``SolverReport`` field is compared by its bits: x_star by
dtype, shape and bytes, the trace and the residual as float64 bytes, the
status by its value, the iteration counts as integers.  A solver reports its
own numeric failure, so any error one raises stops the comparison with its
traceback.

It then runs each preset's sweep over those trials through the tree's
``bench.run_experiment``, the path ``springback bench`` and the benchmark
take (where a tree runs the DCA stacks in a worker process), and compares
every ``TrialRecord`` field but ``wall_time`` by its bits.  A change that
claims to restructure without touching any result shows 0 differences here.
Last it prints each tree's line count of ``src/springback/*.py``, the net
``src/`` lines a change reports.

Run from the repository root, with the other tree made by, for example,
``git archive HEAD | tar -x -C ../parent``:

    python3 tools/report_diff.py ../parent
    python3 tools/report_diff.py ../parent --trials 3

Exits with status 1 when any report or record differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import importlib
import os
import sys
import time
from pathlib import Path

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bits(value):
    """A value's exact bits, in a form that compares across two imports."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (float, list)):
        return np.asarray(value, dtype=np.float64).tobytes()
    return value


def _import_bench(tree: str):
    """springback.bench from ``<tree>/src``, dropping any copy imported before."""
    src = os.path.join(os.path.abspath(tree), "src")
    if not os.path.isfile(os.path.join(src, "springback", "__init__.py")):
        raise SystemExit(f"error: no springback package under {src!r}")
    for name in [m for m in sys.modules if m == "springback" or m.startswith("springback.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        importlib.invalidate_caches()
        bench = importlib.import_module("springback.bench")
    finally:
        sys.path.remove(src)
    if not bench.__file__.startswith(src + os.sep):
        raise SystemExit(f"error: imported {bench.__file__}, not the package under {src!r}")
    return bench


def reports(tree: str, trials: int) -> dict:
    """(what, preset, sweep value, trial, solver) -> {field: bits} for one
    tree, where ``what`` is "report" for a solver's report and "record" for
    its run_experiment record."""
    bench = _import_bench(tree)
    out = {}
    for preset in bench.PRESETS:
        spec = bench.preset_spec(preset, trials=trials)
        for si, value in enumerate(spec.sweep_values):
            for ti in range(trials):
                prob, opts, _ = bench.trial_setup(spec, si, ti)
                for sid, (rep, _) in bench.solve_trial(bench.SOLVER_IDS, prob, opts).items():
                    out[("report", preset, float(value), ti, sid)] = {
                        f.name: _bits(getattr(rep, f.name)) for f in dataclasses.fields(rep)
                    }
        for rec in bench.run_experiment(spec)[1]:
            out[("record", preset, rec.sweep_value, rec.trial_index, rec.solver_id)] = {
                f.name: _bits(getattr(rec, f.name))
                for f in dataclasses.fields(rec) if f.name != "wall_time"
            }
    return out


def src_lines(tree: str) -> int:
    """Lines of ``<tree>/src/springback/*.py``, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in Path(tree, "src", "springback").glob("*.py"))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_tree", help="root of the checkout to compare against")
    parser.add_argument("--trials", type=int, default=1, help="first trials per sweep point")
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    t0 = time.perf_counter()
    mine = reports(ROOT, args.trials)
    theirs = reports(args.other_tree, args.trials)
    diffs: dict[tuple[str, str], list[str]] = {}
    counts: dict[tuple[str, str], int] = {}
    for key in sorted(set(mine) | set(theirs), key=str):
        group = (key[0], key[4])
        counts[group] = counts.get(group, 0) + 1
        a, b = mine.get(key), theirs.get(key)
        if a is None or b is None:
            what = "missing here" if a is None else "missing in the other tree"
        else:
            what = ", ".join(name for name in sorted(set(a) | set(b)) if a.get(name) != b.get(name))
        if what:
            diffs.setdefault(group, []).append(f"{key[1]} {key[2]:g} trial {key[3]}: {what}")
    presets = sorted({key[1] for key in set(mine) | set(theirs)})
    solvers = {sid for _, sid in counts}
    print(f"{sum(counts.values())} reports and records of {len(solvers)} solvers on "
          f"{','.join(presets)}, {args.trials} trial(s) per point, {time.perf_counter() - t0:.0f} s")
    for (what, sid), n in counts.items():
        lines = diffs.get((what, sid), [])
        print(f"{sid}: {len(lines)} of {n} {what}s differ")
        for line in lines:
            print(f"  {line}")
    here, there = src_lines(ROOT), src_lines(args.other_tree)
    print(f"src/springback/*.py: {here} lines here, {there} in the other tree ({here - there:+d})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
