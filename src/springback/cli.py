"""Command-line interface.

Subcommands:
  threshold  evaluate a thresholding operator at given points
  bounds     recovery-bound calculators (--toy prints the worked example)
  solve      run one solver on a stored or generated instance
  bench      run a benchmark sweep from a preset or a config file
  report     re-aggregate a stored records.csv into a summary
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import bench as bench_mod
from .bounds import (
    RipProfile,
    recovery_bound,
    rip_condition,
    toy_noise_thresholds,
)
from .errors import InvalidParameterError, SpringbackError
from .penalties import firm_threshold, soft_threshold, springback_threshold
from .sensing import EnsembleKind, EnsembleSpec
from .solvers import OMEGA, ProblemInstance

__all__ = ["main"]


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    top = argparse.ArgumentParser(
        prog="springback", description="Sparse recovery with the springback penalty."
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="evaluate a thresholding operator")
    p.add_argument("kind", choices=("soft", "firm", "springback"))
    p.add_argument("--w", type=float, nargs="+", required=True, help="input points")
    p.add_argument("--lambda", dest="lam", type=float, default=0.25)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--mu", type=float, default=1.0)

    p = sub.add_parser("bounds", help="recovery-bound calculators")
    p.add_argument("--toy", action="store_true", help="print the worked-example threshold table")
    p.add_argument("--s", type=int, default=20)
    p.add_argument("--delta3s", type=float, default=0.25)
    p.add_argument("--delta4s", type=float, default=1.0 / 3.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--tail", type=float, default=0.0)
    p.add_argument("--improved", action="store_true")

    p = sub.add_parser("solve", help="run one solver on an instance")
    p.add_argument("--solver", choices=bench_mod.SOLVER_IDS, default="springback")
    p.add_argument("--npz", help="instance file with arrays A, b and scalars tau, x (optional)")
    p.add_argument(
        "--ensemble",
        choices=[k.value for k in EnsembleKind],
        default="gaussian",
        help="generate an instance instead of loading one",
    )
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--n", type=int, default=250)
    p.add_argument("--s", type=int, default=10)
    p.add_argument("--refinement", type=int, default=1)
    p.add_argument("--min-separation", type=int, default=0)
    p.add_argument("--snr", type=float, help="add noise at this SNR (dB)")
    p.add_argument(
        "--seed", type=int, default=0, help="draw the instance of trial 0 of this master seed"
    )
    p.add_argument("--omega", type=float, default=OMEGA)

    p = sub.add_parser("bench", help="run a benchmark sweep")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=bench_mod.PRESETS)
    src.add_argument("--config", help="experiment config file (INI)")
    p.add_argument("--trials", type=int, help="override the trial count")
    p.add_argument("--seed", type=int, help="master seed (presets only; default 0)")
    p.add_argument("--out", default="bench_out", help="output directory")
    p.add_argument(
        "--literal-acceptance",
        action="store_true",
        help="acceptance = springback error <= ADMM-l1 error / 10",
    )

    p = sub.add_parser("report", help="re-aggregate stored trial records")
    p.add_argument("--records", required=True, help="records.csv from a bench run")
    p.add_argument("--out", help="directory for records.csv and summary.csv (default: summary to stdout)")
    return top, sub.choices


# (command, mode, flags that mode does not read, why).  In a mode, a flag set
# away from its default is an error rather than silently dropped.
_UNREAD_FLAGS = (
    ("bench", lambda a: a.config, ("seed", "literal_acceptance"),
     "preset options; a config file sets its own master_seed and literal_acceptance"),
    ("solve", lambda a: a.npz,
     ("ensemble", "m", "n", "refinement", "snr", "seed", "min_separation"),
     "instance-generation options; --npz loads a stored instance"),
    ("bounds", lambda a: a.toy, ("s", "delta3s", "delta4s", "tau", "tail", "improved"),
     "the worked example fixes its profile; --toy reads only --alpha"),
    ("threshold", lambda a: a.kind != "springback", ("alpha",), "only springback reads --alpha"),
    ("threshold", lambda a: a.kind != "firm", ("mu",), "only firm reads --mu"),
)


def _reject_unread_flags(args, parser: argparse.ArgumentParser) -> None:
    for command, mode, dests, why in _UNREAD_FLAGS:
        if args.command == command and mode(args):
            given = [d for d in dests if getattr(args, d) != parser.get_default(d)]
            if given:
                flags = ", ".join("--" + d.replace("_", "-") for d in given)
                raise InvalidParameterError(f"{flags}: {why}")


def _cmd_threshold(args) -> int:
    if args.kind == "soft":
        out = soft_threshold(args.w, args.lam)
    elif args.kind == "firm":
        out = firm_threshold(args.w, args.lam, args.mu)
    else:
        out = springback_threshold(args.w, args.lam, args.alpha)
    print("\n".join(format(v, ".6g") for v in out))
    return 0


def _cmd_bounds(args) -> int:
    if args.toy:
        rows = toy_noise_thresholds(alpha=args.alpha)
        print("noise thresholds where the springback bound beats the linear bound:")
        for name, value in rows:
            # quoted at the reference table's own precision
            text = f"{value:.4f}" if value >= 1e-3 else f"{value:.4e}"
            print(f"  {name:<8} {text}")
        return 0
    prof = RipProfile(s=args.s, delta3s=args.delta3s, delta4s=args.delta4s)
    if not rip_condition(prof):
        print("RIP condition delta_3s < 3(1 - delta_4s) - 1: FAILS (bounds vacuous)")
        return 1
    rep = recovery_bound(prof, args.alpha, args.tau, args.tail, args.improved)
    print(f"kind            {rep.kind.value}")
    print(f"D1              {rep.d1:.6g}")
    print(f"D2              {rep.d2:.6g}")
    print(f"recovery bound  {rep.bound:.6g}")
    return 0


def _cmd_solve(args) -> int:
    if args.npz:
        try:
            data = np.load(args.npz)
            A, b, tau = data["A"], data["b"], float(data.get("tau", 0.0))
        # no A or b, a bare .npy, not a NumPy file, a tau that is not a scalar
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            raise InvalidParameterError(
                f"{args.npz}: not an .npz archive with arrays A, b and scalar tau ({exc})"
            ) from exc
        prob = ProblemInstance(A, b, tau, data.get("x"))
        opts = bench_mod.solver_options(prob, args.s, args.omega)
    else:
        spec = bench_mod.ExperimentSpec(
            ensemble=EnsembleSpec(
                kind=EnsembleKind(args.ensemble),
                m=args.m,
                n=args.n,
                refinement=args.refinement,
            ),
            sparsity=args.s,
            sweep_axis="s",
            sweep_values=(args.s,),
            snr_db=args.snr,
            min_separation=args.min_separation,
            omega=args.omega,
            master_seed=args.seed,
        )
        prob, opts, _ = bench_mod.trial_setup(spec, 0, 0)
    report, _ = bench_mod.solve_trial((args.solver,), prob, opts)[args.solver]
    xbar = prob.ground_truth
    print(f"solver     {args.solver}")
    print(f"status     {report.status.value}")
    print(f"alpha      {opts.alpha:.6g}")
    print(f"residual   {report.residual:.6g}")
    print(f"iterations {report.inner_iterations_total}")
    if xbar is not None and np.any(xbar):
        rel = float(np.linalg.norm(report.x_star - xbar) / np.linalg.norm(xbar))
        print(f"rel error  {rel:.6g}")
    return 0


def _cmd_bench(args) -> int:
    if args.config:
        spec = bench_mod.load_config(args.config)
        if args.trials is not None:
            spec = replace(spec, trials=args.trials)
    else:
        spec = bench_mod.preset_spec(
            args.preset,
            trials=args.trials,
            master_seed=0 if args.seed is None else args.seed,
            literal_acceptance=args.literal_acceptance,
        )
    rows, records = bench_mod.run_experiment(spec)
    paths = bench_mod.emit_results(rows, records, args.out, spec)
    for row in rows:
        acc = "" if row.acceptance_rate is None else f"  acc={row.acceptance_rate:.2f}"
        print(
            f"{row.solver_id:<12} {spec.sweep_axis}={row.sweep_value:g}  "
            f"success={row.success_rate:.2f}  mean_err={row.mean_error:.3e}{acc}"
        )
    print(f"wrote {paths['records']}, {paths['summary']}, {paths['manifest']}")
    return 0


def _cmd_report(args) -> int:
    records = bench_mod.read_csv(args.records, bench_mod.TrialRecord)
    rows = bench_mod.summarize(records)
    if args.out:
        bench_mod.emit_results(rows, records, args.out)
        print(f"wrote summary for {len(records)} records to {args.out}")
    else:
        bench_mod.write_csv(sys.stdout, bench_mod.SummaryRow, rows, line_end="\n")
    return 0


def main(argv=None) -> int:
    top, commands = _build_parser()
    args = top.parse_args(argv)
    handlers = {
        "threshold": _cmd_threshold,
        "bounds": _cmd_bounds,
        "solve": _cmd_solve,
        "bench": _cmd_bench,
        "report": _cmd_report,
    }
    try:
        _reject_unread_flags(args, commands[args.command])
        return handlers[args.command](args)
    except SpringbackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
