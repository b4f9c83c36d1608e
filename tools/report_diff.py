"""Compare every solver report of this tree with another checkout, bit for bit.

Imports the ``springback`` package of this tree and then that of OTHER_TREE,
one after the other in one process, and runs all seven solvers on the first
trials of every sweep point of each preset both trees' ``bench.PRESETS`` name
(the same instance, options and seeds ``bench`` uses) through
``bench.solve_trial``, the path ``run_trial`` takes (the DCA baselines as one
stack).  Every ``SolverReport`` field is compared by its bits: x_star by
dtype, shape and bytes, the trace and the residual as float64 bytes, the
status by its value, the iteration counts as integers.  A solver reports its
own numeric failure, so any error one raises stops the comparison with its
traceback.

It then runs each preset's sweep over those trials through the tree's
``bench.run_experiment``, the path ``springback bench`` and the benchmark
take, and compares every ``TrialRecord`` field but ``wall_time`` by its
bits.  A tree may run a sweep's solvers in other processes with their own
BLAS thread count (one per solver lane in this tree, for every sweep), so a
record can differ where its report does not: at shapes whose solves round
differently at another thread count, such as fig5's 100x1500.  It also
compares each of those presets' manifests, ``dump_config(preset_spec(name,
trials=TRIALS))``, byte for byte.  A change that claims to restructure
without touching any spec or result shows 0 differences here.  A preset that
only one tree names is listed and not compared.
It then prints, per preset and solver, the outer steps, the inner iterations
and the inner loops' matrix-vector products summed over the compared
reports, for each tree: the work a change does.  Products are the inner
iterations times the loop's products per iteration (``PRODUCTS``): 2 for
springback at tau = 0 and 4 at tau > 0, tau read from each trial's
instance, and 2 per row for admm_l1 and the DCA baselines; irls_lp and aiht,
which run no inner ADMM loop, print "-".  Both trees are read with this
tree's table, so a change to a loop's products per iteration shows in
PRODUCTS' own diff, not in the other tree's column.
Then it prints each tree's line count of ``src/springback/*.py``, module by
module and in total, the net ``src/`` lines a change reports.  Last it
prints each tree's settable values: the field count of each settings class
in ``SETTINGS`` and the option count of each ``springback`` subcommand that
``cli._build_parser()`` builds, --help excluded, and then each tree's
public-name count: per module the length of its ``__all__`` (for a module
without one, its public names but the modules it imports), and the names
the package re-exports.

Run from the repository root, with the other tree made by, for example,
``git archive HEAD | tar -x -C ../parent``:

    python3 tools/report_diff.py ../parent
    python3 tools/report_diff.py ../parent --trials 3

Exits with status 1 when any report, record or manifest differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import importlib
import inspect
import os
import pkgutil
import sys
import time
from pathlib import Path

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (module, class) of each settings dataclass whose fields settable_values counts
SETTINGS = (
    ("bench", "ExperimentSpec"), ("sensing", "EnsembleSpec"), ("sensing", "SignalSpec"),
    ("solvers", "SolverOptions"), ("penalties", "ThresholdParams"), ("bounds", "RipProfile"),
)

# matrix-vector products per inner iteration of each solver with an inner
# ADMM loop, at tau = 0 and at tau > 0: springback's m-space loop makes F [v; w]
# and A^T q, its l2-ball loop A^T w, H rhs, A^T q and A x, and a lasso row
# H d and A^T q
PRODUCTS = {sid: (2, 2) for sid in ("admm_l1", "dca_tl1", "dca_l12", "dca_mcp")}
PRODUCTS["springback"] = (2, 4)


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


def reports(tree: str, trials: int, presets: list[str]) -> tuple[dict, dict, dict]:
    """(what, preset, sweep value, trial, solver) -> {field: bits} for one
    tree, where ``what`` is "report" for a solver's report and "record" for
    its run_experiment record, preset -> that tree's manifest text, and
    (preset, sweep value, trial) -> the instance's tau."""
    bench = _import_bench(tree)
    out, manifests, taus = {}, {}, {}
    for preset in presets:
        spec = bench.preset_spec(preset, trials=trials)
        manifests[preset] = bench.dump_config(spec)
        for si, value in enumerate(spec.sweep_values):
            for ti in range(trials):
                prob, opts, _ = bench.trial_setup(spec, si, ti)
                taus[preset, float(value), ti] = prob.tau
                for sid, (rep, _) in bench.solve_trial(bench.SOLVER_IDS, prob, opts).items():
                    out[("report", preset, float(value), ti, sid)] = {
                        f.name: _bits(getattr(rep, f.name)) for f in dataclasses.fields(rep)
                    }
        for rec in bench.run_experiment(spec)[1]:
            out[("record", preset, rec.sweep_value, rec.trial_index, rec.solver_id)] = {
                f.name: _bits(getattr(rec, f.name))
                for f in dataclasses.fields(rec) if f.name != "wall_time"
            }
    # the next tree's import drops this module, but its atexit hook would
    # keep these lanes running until the process ends
    bench._shared_lanes.close()
    return out, manifests, taus


def work(found: dict, taus: dict) -> dict[tuple[str, str], tuple[int, int, int | None]]:
    """(preset, solver) -> (outer steps, inner iterations, inner-loop
    matrix-vector products, None for a solver not in PRODUCTS) summed over
    the reports."""
    sums: dict[tuple[str, str], tuple[int, int, int | None]] = {}
    for (what, preset, value, trial, sid), bits in found.items():
        if what == "report":
            outer, inner, products = sums.get((preset, sid), (0, 0, 0))
            steps, iterations = bits["outer_iterations"], bits["inner_iterations_total"]
            if sid in PRODUCTS:
                products += iterations * PRODUCTS[sid][taus[preset, value, trial] > 0]
            else:
                products = None
            sums[preset, sid] = (outer + steps, inner + iterations, products)
    return sums


def src_lines(tree: str) -> dict[str, int]:
    """Lines of each ``<tree>/src/springback/*.py``, as ``wc -l`` counts them."""
    return {p.name: p.read_bytes().count(b"\n") for p in Path(tree, "src", "springback").glob("*.py")}


def settable_values(tree: str) -> dict[str, int]:
    """The field count of each SETTINGS class and the option count of each
    ``springback`` subcommand, --help excluded, in one tree."""
    _import_bench(tree)  # the tree's package, whose submodules load from its src
    counts = {}
    for module, name in SETTINGS:
        cls = getattr(importlib.import_module(f"springback.{module}"), name)
        counts[f"{name} fields"] = len(dataclasses.fields(cls))
    _, commands = importlib.import_module("springback.cli")._build_parser()
    for command, parser in commands.items():
        counts[f"{command} options"] = sum(
            bool(a.option_strings) and not isinstance(a, argparse._HelpAction) for a in parser._actions
        )
    return counts


def public_names(tree: str) -> dict[str, int]:
    """The public-name count of each ``springback`` module and of the
    package's re-exports, in one tree."""
    _import_bench(tree)  # the tree's package, whose submodules load from its src
    package = importlib.import_module("springback")

    def names(mod):
        return [n for n, v in vars(mod).items() if not n.startswith("_") and not inspect.ismodule(v)]

    counts = {}
    for info in pkgutil.iter_modules(package.__path__):
        mod = importlib.import_module(f"springback.{info.name}")
        counts[f"{info.name} names"] = len(getattr(mod, "__all__", names(mod)))
    counts["package re-exports"] = len(names(package))
    return counts


def _print_counts(title: str, here: dict[str, int], there: dict[str, int]) -> None:
    print(f"{title}: here, the other tree, change")
    for name in dict.fromkeys([*here, *there]):
        a, b = here.get(name, 0), there.get(name, 0)
        print(f"  {name:<22} {a:5d} {b:5d} {a - b:+6d}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_tree", help="root of the checkout to compare against")
    parser.add_argument("--trials", type=int, default=1, help="first trials per sweep point")
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    t0 = time.perf_counter()
    named = {tree: _import_bench(tree).PRESETS for tree in (ROOT, args.other_tree)}
    shared = [p for p in named[ROOT] if p in named[args.other_tree]]
    for tree, where in ((ROOT, "this tree"), (args.other_tree, "the other tree")):
        for preset in named[tree]:
            if preset not in shared:
                print(f"{preset}: named in {where} only, not compared")
    mine, my_manifests, my_taus = reports(ROOT, args.trials, shared)
    theirs, their_manifests, their_taus = reports(args.other_tree, args.trials, shared)
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
    solvers = {sid for _, sid in counts}
    print(f"{sum(counts.values())} reports and records of {len(solvers)} solvers on "
          f"{','.join(shared)}, {args.trials} trial(s) per point, {time.perf_counter() - t0:.0f} s")
    for (what, sid), n in counts.items():
        lines = diffs.get((what, sid), [])
        print(f"{sid}: {len(lines)} of {n} {what}s differ")
        for line in lines:
            print(f"  {line}")
    differing = [p for p in shared if my_manifests[p] != their_manifests[p]]
    print(f"{len(differing)} of {len(shared)} manifests differ")
    for preset in differing:
        print(f"  {preset}")
    print("outer steps, inner iterations and inner-loop matrix-vector products summed over the "
          "reports: here | the other tree")
    here, there = work(mine, my_taus), work(theirs, their_taus)
    for key in sorted(set(here) | set(there)):
        sides = [
            "{:6d} {:9d} {:>10}".format(*w[:2], "-" if w[2] is None else w[2])
            for w in (here.get(key, (0, 0, 0)), there.get(key, (0, 0, 0)))
        ]
        print(f"  {key[0]:<12} {key[1]:<11} {sides[0]} | {sides[1]}")
    here, there = src_lines(ROOT), src_lines(args.other_tree)
    print("src/springback lines: here, the other tree, change")
    for name in sorted(set(here) | set(there)) + ["total"]:
        a, b = (sum(v.values()) if name == "total" else v.get(name, 0) for v in (here, there))
        print(f"  {name:<14} {a:5d} {b:5d} {a - b:+6d}")
    _print_counts("settable values", settable_values(ROOT), settable_values(args.other_tree))
    _print_counts("public names", public_names(ROOT), public_names(args.other_tree))
    return 1 if diffs or differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
