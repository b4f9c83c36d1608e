"""Span tracing of the springback layers, from outside the package.

``Tracer.install`` wraps the public functions listed in ``SPANS`` in every
``springback`` module namespace that binds them (``bench.gen_matrix``,
``sensing.gen_matrix``, ...), and ``Tracer.uninstall`` puts the originals
back.  Each call becomes a span (name, start, end, parent, trial) kept in
memory; ``layer_metrics`` turns the spans into the per-layer metrics and
``write`` stores them when the run ends.  A name that no longer exists is
reported as absent, not as an error.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import sys
import threading
import time

LAYERS = ("sensing", "linalg", "solvers", "bounds", "penalties", "bench")

SOLVER_IDS = ("springback", "admm_l1", "irls_lp", "aiht", "dca_tl1", "dca_l12", "dca_mcp")

_DCA_IDS = {"TL1": "dca_tl1", "L1_MINUS_2": "dca_l12", "MCP": "dca_mcp"}


def _outcome(solver_id, report):
    return (solver_id, report.inner_iterations_total, report.status.value == "converged")


def _solver_outcome(solver_id):
    return lambda before, args, kwargs, report: _outcome(solver_id, report)


def _dca_outcome(before, args, kwargs, report):
    kind = args[0] if args else kwargs["kind"]
    return _outcome(_DCA_IDS.get(kind.name, kind.name), report)


def _warm_iterations(args, kwargs):
    warm = kwargs.get("warm", args[4] if len(args) > 4 else None)
    return warm, (warm.iterations if warm is not None else 0)


def _admm_work(before, args, kwargs, result):
    """(inner iterations, computed flops) of one admm_subproblem call."""
    warm, start = before
    if warm is None:
        return None
    m, n = args[0].A.shape
    iters = warm.iterations - start
    return (iters, iters * (8 * m * n + 2 * m * m))


def _emitted_bytes(before, args, kwargs, paths):
    return sum(os.path.getsize(p) for p in paths.values())


# (span name, module, attribute, pre hook, post hook).  ``pre(args, kwargs)``
# runs before the call; ``post(pre result, args, kwargs, result)`` gives the
# span's value.  A dotted attribute names a method, patched on its class.
SPANS = (
    ("sensing.gen_matrix", "sensing", "gen_matrix", None, None),
    ("sensing.gen_signal", "sensing", "gen_signal", None, None),
    ("sensing.add_noise_snr", "sensing", "add_noise_snr", None, None),
    ("linalg.ridge_factor", "linalg", "GramRidgeSolver.__init__", None, None),
    ("linalg.ridge_solve", "linalg", "GramRidgeSolver.solve", None, None),
    ("linalg.spd_factor", "linalg", "SpdFactor.__init__", None, None),
    ("linalg.svd", "linalg", "singular_extremes", None, None),
    ("linalg.ball_project", "linalg", "l2_ball_project", None, None),
    ("solvers.dca_springback", "solvers", "dca_springback", None, _solver_outcome("springback")),
    ("solvers.admm_l1", "solvers", "admm_l1", None, _solver_outcome("admm_l1")),
    ("solvers.irls_lp", "solvers", "irls_lp", None, _solver_outcome("irls_lp")),
    ("solvers.aiht", "solvers", "aiht", None, _solver_outcome("aiht")),
    ("solvers.dca_unconstrained", "solvers", "dca_unconstrained", None, _dca_outcome),
    ("solvers.admm_subproblem", "solvers", "admm_subproblem", _warm_iterations, _admm_work),
    ("solvers.alpha_subroutine", "solvers", "alpha_subroutine", None, None),
    ("bounds.convergence_alpha_bound", "bounds", "convergence_alpha_bound", None, None),
    ("penalties.dc_gradient", "penalties", "dc_concave_gradient", None, None),
    ("bench.run_experiment", "bench", "run_experiment", None, None),
    ("bench.run_trial", "bench", "run_trial", None, None),
    ("bench.summarize", "bench", "summarize", None, None),
    ("bench.emit", "bench", "emit_results", None, _emitted_bytes),
)


def _hook(fn, *args):
    """Run a pre/post hook; a hook that no longer fits the wrapped function's
    signature leaves the span without a value instead of failing the call."""
    if fn is None:
        return None
    try:
        return fn(*args)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


PER_LAYER_UNITS = {
    "sensing.gen_ms": "ms/trial",
    "linalg.ridge_factor.calls": "calls/trial",
    "linalg.ridge_factor.ms": "ms",
    "linalg.ridge_solve.calls": "calls/trial",
    "linalg.ridge_solve.us": "us",
    "linalg.spd_factor.calls": "calls/trial",
    "linalg.spd_factor.us": "us",
    "linalg.svd.calls_per_trial": "calls/trial",
    "linalg.svd.ms": "ms",
    "linalg.ball_project.calls": "calls/trial",
    "linalg.ball_project.us": "us",
}
for _sid in SOLVER_IDS:
    PER_LAYER_UNITS[f"solvers.{_sid}.ms"] = "ms"
    PER_LAYER_UNITS[f"solvers.{_sid}.iters"] = "iterations"
    PER_LAYER_UNITS[f"solvers.{_sid}.converged_frac"] = "fraction"
PER_LAYER_UNITS.update({
    "solvers.admm_subproblem.calls": "calls/trial",
    "solvers.admm_subproblem.iter_us": "us",
    "solvers.admm_subproblem.gflops_computed": "GFLOP/s",
    "solvers.alpha_subroutine.ms": "ms",
    "bounds.convergence_alpha_bound.ms": "ms",
    "penalties.dc_gradient.calls": "calls/trial",
    "penalties.dc_gradient.us": "us",
    "bench.run_trial.ms_p50": "ms",
    "bench.run_trial.ms_tail": "ms",
    "bench.run_trial.tail_pct": "%",
    "bench.run_trial.samples": "count",
    "bench.run_trial.self_ms": "ms/trial",
    "bench.summarize.ms": "ms",
    "bench.emit.ms": "ms",
    "bench.emit.bytes": "bytes",
    "bench.pool_efficiency": "fraction",
    "trace.overhead_frac": "fraction",
})

SENSING_GEN = ("sensing.gen_matrix", "sensing.gen_signal", "sensing.add_noise_snr")
SOLVER_SPANS = ("solvers.dca_springback", "solvers.admm_l1", "solvers.irls_lp", "solvers.aiht",
                "solvers.dca_unconstrained")

# Span = (id, name, start, end, parent id, trial id, value)
ID, NAME, START, END, PARENT, TRIAL, VALUE = range(7)


class Tracer:
    """Wraps the SPANS names of one package and collects their spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._experiment = None  # open run_experiment span: parent of pool-thread trials
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, pre, post):
        tracer, local, spans, ids = self, self._local, self.spans, self._ids
        opens_trial = name == "bench.run_trial"
        is_experiment = name == "bench.run_experiment"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else tracer._experiment
            outer_trial = getattr(local, "trial", None)
            trial = sid if opens_trial else outer_trial
            local.trial = trial
            if is_experiment:
                tracer._experiment = sid
            before = _hook(pre, args, kwargs)
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                local.trial = outer_trial
                if is_experiment:
                    tracer._experiment = None
                value = _hook(post, before, args, kwargs, result) if result is not None else None
                spans.append((sid, name, t0, t1, parent, trial, value))

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        prefix = package.__name__
        modules = [m for k, m in sorted(sys.modules.items()) if k == prefix or k.startswith(prefix + ".")]
        for name, modname, attr, pre, post in SPANS:
            module = getattr(package, modname, None)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, "__dict__", {}).get(method)
                if original is None:
                    self.absent.append(name)
                    continue
                self._patch(owner, method, self._wrap(name, original, pre, post), original)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original, pre, post)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapped, original)

    def absent_layers(self) -> list[str]:
        """Layers none of whose spans could be installed."""
        present = {name.split(".")[0] for name, *_ in SPANS if name not in self.absent}
        return [layer for layer in LAYERS if layer not in present]

    def _patch(self, owner, key, wrapped, original) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path: str, header: dict) -> None:
        """Store the header and every span, one JSON array per line."""
        t0 = min((s[START] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fields = ["id", "name", "start_s", "end_s", "parent", "trial", "value"]
            fh.write(json.dumps(dict(header, span_fields=fields)) + "\n")
            for s in sorted(self.spans):
                start, end = round(s[START] - t0, 9), round(s[END] - t0, 9)
                fh.write(json.dumps([s[ID], s[NAME], start, end, s[PARENT], s[TRIAL], s[VALUE]]) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def span_table(spans) -> dict[str, dict]:
    """Per span name: call count, busy ms and self ms (busy minus the part of
    its interval that child spans cover)."""
    children: dict[int, list] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s[NAME], {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
        busy = s[END] - s[START]
        row["calls"] += 1
        row["busy_ms"] += 1e3 * busy
        row["self_ms"] += 1e3 * (busy - _union_length(children.get(s[ID], [])))
    return table


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it; the median
    when there are fewer than twenty samples."""
    return max(50.0, 100.0 * (samples - 10) / samples) if samples else 50.0


def layer_metrics(spans, table: dict[str, dict], workers: int) -> dict[str, float]:
    """The per-layer metrics of the traced run, from its spans and span table."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def busy(group):
        return sum(s[END] - s[START] for s in group)

    def ratio(a, b):
        return a / b if b else 0.0

    trial_spans = named("bench.run_trial")
    trials = len(trial_spans)

    def calls_and_time(prefix, group, unit, scale):
        return {
            f"{prefix}.calls": ratio(len(group), trials),
            f"{prefix}.{unit}": ratio(scale * busy(group), len(group)),
        }

    out = {"sensing.gen_ms": ratio(1e3 * busy(named(*SENSING_GEN)), trials)}
    out.update(calls_and_time("linalg.ridge_factor", named("linalg.ridge_factor"), "ms", 1e3))
    out.update(calls_and_time("linalg.ridge_solve", named("linalg.ridge_solve"), "us", 1e6))
    ridge_ids = {s[ID] for s in named("linalg.ridge_factor")}
    irls = [s for s in named("linalg.spd_factor") if s[PARENT] not in ridge_ids]
    out.update(calls_and_time("linalg.spd_factor", irls, "us", 1e6))
    svd = named("linalg.svd")
    out["linalg.svd.calls_per_trial"] = ratio(len(svd), trials)
    out["linalg.svd.ms"] = ratio(1e3 * busy(svd), len(svd))
    out.update(calls_and_time("linalg.ball_project", named("linalg.ball_project"), "us", 1e6))

    solves: dict[str, list] = {sid: [] for sid in SOLVER_IDS}
    for s in named(*SOLVER_SPANS):
        if s[VALUE] is not None:
            solves.setdefault(s[VALUE][0], []).append(s)
    for sid in SOLVER_IDS:
        runs = solves[sid]
        out[f"solvers.{sid}.ms"] = ratio(1e3 * busy(runs), len(runs))
        out[f"solvers.{sid}.iters"] = ratio(sum(s[VALUE][1] for s in runs), len(runs))
        out[f"solvers.{sid}.converged_frac"] = ratio(sum(s[VALUE][2] for s in runs), len(runs))

    admm = named("solvers.admm_subproblem")
    counted = [s for s in admm if s[VALUE] is not None]
    out["solvers.admm_subproblem.calls"] = ratio(len(admm), trials)
    out["solvers.admm_subproblem.iter_us"] = ratio(1e6 * busy(counted), sum(s[VALUE][0] for s in counted))
    flops = sum(s[VALUE][1] for s in counted)
    out["solvers.admm_subproblem.gflops_computed"] = ratio(flops / 1e9, busy(counted))
    for name in ("solvers.alpha_subroutine", "bounds.convergence_alpha_bound", "bench.summarize"):
        out[f"{name}.ms"] = ratio(1e3 * busy(named(name)), len(named(name)))
    out.update(calls_and_time("penalties.dc_gradient", named("penalties.dc_gradient"), "us", 1e6))

    trial_ms = sorted(1e3 * (s[END] - s[START]) for s in trial_spans)
    pct = tail_percentile(trials)
    out["bench.run_trial.ms_p50"] = _percentile(trial_ms, 50.0)
    out["bench.run_trial.ms_tail"] = _percentile(trial_ms, pct)
    out["bench.run_trial.tail_pct"] = pct
    out["bench.run_trial.samples"] = float(trials)
    out["bench.run_trial.self_ms"] = ratio(table.get("bench.run_trial", {}).get("self_ms", 0.0), trials)
    emits = named("bench.emit")
    out["bench.emit.ms"] = ratio(1e3 * busy(emits), len(emits))
    out["bench.emit.bytes"] = ratio(sum(s[VALUE] or 0 for s in emits), len(emits))
    out["bench.pool_efficiency"] = ratio(busy(trial_spans), workers * busy(named("bench.run_experiment")))
    return out
