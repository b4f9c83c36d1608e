"""Tests for the benchmark harness: trials, aggregation, persistence."""

import contextlib
import functools
import importlib.util
import os
import signal
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from springback import bench, linalg
from springback.bench import (
    ExperimentSpec,
    SummaryRow,
    TrialRecord,
    dump_config,
    emit_results,
    load_config,
    parse_records,
    parse_summary,
    preset_spec,
    run_experiment,
    run_trial,
    summarize,
)
from springback.errors import InvalidParameterError, NumericError, SpringbackError
from springback.penalties import PenaltyKind
from springback.sensing import EnsembleKind, EnsembleSpec
from springback.solvers import ALPHA_MAX, OMEGA, ProblemInstance, SolverStatus, dca_unconstrained


def _load_text(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return load_config(str(path))


def _small_spec(**kw):
    base = dict(
        ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=20, n=50),
        sparsity=3,
        sweep_axis="s",
        sweep_values=(3,),
        solvers=("springback", "admm_l1"),
        trials=2,
        master_seed=7,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        _small_spec(sweep_axis="bogus")
    with pytest.raises(InvalidParameterError):
        _small_spec(trials=0)
    with pytest.raises(InvalidParameterError):
        _small_spec(solvers=("nope",))
    # a spec with no solver would write a header-only summary
    with pytest.raises(InvalidParameterError, match="solvers must be nonempty"):
        _small_spec(solvers=())
    # a repeated id would write its records twice per trial
    with pytest.raises(InvalidParameterError, match="solvers must be distinct"):
        _small_spec(solvers=("springback", "admm_l1", "springback"))
    with pytest.raises(InvalidParameterError):
        _small_spec(sweep_values=())
    # duplicates compare as floats: 3 and 3.0 name the same sweep point
    for values in ((3, 3), (3, 3.0), (2, 3, 2)):
        with pytest.raises(InvalidParameterError):
            _small_spec(sweep_values=values)
    with pytest.raises(InvalidParameterError, match="master_seed"):
        _small_spec(master_seed=-1)
    for omega in (0.0, -0.5):
        with pytest.raises(InvalidParameterError, match="omega"):
            _small_spec(omega=omega)
    for setting in ("sep_factor", "min_separation"):
        for value in (-1, np.nan, 2.5, True):
            with pytest.raises(InvalidParameterError, match="separation settings"):
                _small_spec(**{setting: value})
    # sep_factor sets the separation, so a min_separation beside it would
    # never be read: a DCT ensemble at refinement 2 would run at 4, not 7
    dct = EnsembleSpec(EnsembleKind.OVERSAMPLED_DCT, m=20, n=100, refinement=2)
    with pytest.raises(InvalidParameterError, match="min_separation or sep_factor, not both"):
        _small_spec(ensemble=dct, min_separation=7, sep_factor=2)
    assert _small_spec(ensemble=dct, min_separation=0, sep_factor=2).sep_factor == 2
    assert _small_spec(ensemble=dct, min_separation=7, sep_factor=0).min_separation == 7
    # the integer settings take integers only: NaN passes every ordering test
    for value in (np.nan, np.inf, 2.5, 3.0, True):
        with pytest.raises(InvalidParameterError, match="trials"):
            _small_spec(trials=value)
        with pytest.raises(InvalidParameterError, match="master_seed"):
            _small_spec(master_seed=value)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["omega", "success_tol"])
def test_spec_rejects_non_finite(name, value):
    with pytest.raises(InvalidParameterError, match=name):
        _small_spec(**{name: value})


# int() would truncate 2.5 and raise OverflowError on inf
@pytest.mark.parametrize("value", [2.5, np.inf, np.nan])
@pytest.mark.parametrize("axis", ["s", "refinement", "m"])
def test_spec_rejects_non_integer_values_on_integer_axes(axis, value):
    # refinement 3 needs the oversampled DCT: a spec builds every sweep point
    dct = EnsembleSpec(EnsembleKind.OVERSAMPLED_DCT, m=20, n=50)
    with pytest.raises(InvalidParameterError, match="integers"):
        _small_spec(ensemble=dct, sweep_axis=axis, sweep_values=(3, value))
    _small_spec(ensemble=dct, sweep_axis=axis, sweep_values=(3, 4.0))
    _small_spec(sweep_axis="snr", sweep_values=(3, 2.5))


def test_spec_builds_every_sweep_point():
    # a point that could draw no instance fails when the spec is made,
    # before any trial runs
    dct = EnsembleSpec(EnsembleKind.OVERSAMPLED_DCT, m=20, n=50)
    for kw, match in (
        (dict(sweep_axis="m", sweep_values=(20, 0)), "m and n must be positive"),
        (dict(sweep_values=(3, 51)), "sparsity must lie"),
        (dict(snr_db=-np.inf), "SNR must be finite"),
        (dict(sweep_axis="snr", sweep_values=(20.0, 4000.0)), "SNR 4000 dB is out of range"),
        (dict(ensemble=dct, sweep_axis="refinement", sweep_values=(2, 0)), "refinement"),
        # sep_factor 2 at F = 8: 5 indices 16 apart need 65 > 50 columns
        (dict(ensemble=dct, sweep_axis="refinement", sweep_values=(2, 8), sep_factor=2,
              sparsity=5), "cannot place 5 indices"),
    ):
        with pytest.raises(InvalidParameterError, match=match):
            _small_spec(**kw)


def test_m_sweep_axis_sets_the_row_count():
    spec = _small_spec(sweep_axis="m", sweep_values=(12, 20), solvers=("aiht",))
    for si, m in enumerate((12, 20)):
        prob, _, s = bench.trial_setup(spec, si, 0)
        assert prob.A.shape == (m, 50) and s == spec.sparsity
    _, records = run_experiment(spec)
    assert [r.sweep_value for r in records] == [12.0, 12.0, 20.0, 20.0]


def _solo(sid, prob, opts):
    """The report of solver id ``sid`` run alone: a DCA id as a stack of its
    kind only, any other through its SOLVERS entry."""
    if sid in bench._DCA_KINDS:
        return dca_unconstrained((bench._DCA_KINDS[sid],), prob, opts)[0]
    return bench.SOLVERS[sid](prob, opts)


def _strip_time(records):
    return [
        (r.trial_index, r.solver_id, r.s, r.sweep_value, r.relative_error,
         r.absolute_error, r.success, r.accepted, r.status, r.alpha_used)
        for r in records
    ]


def test_run_trial_deterministic_and_complete():
    spec = _small_spec()
    recs1 = run_trial(spec, 0, 0)
    recs2 = run_trial(spec, 0, 0)
    assert _strip_time(recs1) == _strip_time(recs2)
    assert [r.solver_id for r in recs1] == list(spec.solvers)
    for r in recs1:
        assert r.success == (r.relative_error < spec.success_tol)
    spb = next(r for r in recs1 if r.solver_id == "springback")
    assert spb.accepted is not None


def test_run_trial_runs_the_dca_baselines_as_one_stack(monkeypatch):
    # the DCA ids a spec names run as one dca_unconstrained call, in the
    # spec's order and in the place of the first; the records keep the
    # spec's order, each grouped record holds the stack's wall time over
    # their number, and each report is that of its solver run alone
    calls, order = [], []
    stack, solo = bench.dca_unconstrained, bench.SOLVERS["aiht"]

    def recording(kinds, prob, opts):
        calls.append(tuple(kinds))
        order.append("dca")
        return stack(kinds, prob, opts)

    def aiht(prob, opts):
        order.append("aiht")
        return solo(prob, opts)

    monkeypatch.setattr(bench, "dca_unconstrained", recording)
    monkeypatch.setitem(bench.SOLVERS, "aiht", aiht)
    spec = _small_spec(solvers=("dca_mcp", "aiht", "dca_tl1"))
    recs = run_trial(spec, 0, 0)
    assert calls == [(PenaltyKind.MCP, PenaltyKind.TL1)] and order == ["dca", "aiht"]
    assert [r.solver_id for r in recs] == list(spec.solvers)
    assert recs[0].wall_time == recs[2].wall_time > 0.0
    prob, opts, _ = bench.trial_setup(spec, 0, 0)
    results = bench.solve_trial(spec.solvers, prob, opts)
    for sid in spec.solvers:
        report = _solo(sid, prob, opts)
        assert results[sid][0].x_star.tobytes() == report.x_star.tobytes()
        assert results[sid][0].status is report.status


def test_numeric_error_escaping_the_dca_stack_raises_from_run_trial(monkeypatch):
    # every solver reports its own numeric failure, so a NumericError that
    # leaves the stack is a bug: it raises with its own type, in place of
    # the stack's records (a lane's error raises in run_experiment with its
    # own type too: test_an_error_in_a_lane_raises_its_own_type)
    def numeric(kinds, prob, opts):
        raise NumericError("non-finite iterate")

    monkeypatch.setattr(bench, "dca_unconstrained", numeric)
    spec = _small_spec(solvers=("dca_l12", "aiht", "dca_tl1"))
    with pytest.raises(NumericError, match="non-finite iterate"):
        run_trial(spec, 0, 0)


def test_trial_seeds_order_independent():
    spec = _small_spec(sweep_values=(3, 5))
    keys = [(si, ti) for si in range(2) for ti in range(2)]
    forward = {key: _strip_time(run_trial(spec, *key)) for key in keys}
    backward = {key: _strip_time(run_trial(spec, *key)) for key in reversed(keys)}
    assert forward == backward
    seeds = {bench._derive_seed(7, si, ti, stream) for si, ti in keys for stream in range(3)}
    assert len(seeds) == 12


_ORDER_SPEC = _small_spec(
    ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=10, n=24), sparsity=2, sweep_values=(2, 3)
)
_ORDER_KEYS = [(si, ti) for si in range(2) for ti in range(2)]


@functools.cache
def _ascending_records():
    return [_strip_time(run_trial(_ORDER_SPEC, *key)) for key in _ORDER_KEYS]


@settings(max_examples=10, deadline=None)
@given(order=st.permutations(_ORDER_KEYS))
def test_trial_records_do_not_depend_on_call_order(order):
    records = {key: _strip_time(run_trial(_ORDER_SPEC, *key)) for key in order}
    assert [records[key] for key in _ORDER_KEYS] == _ascending_records()


def test_solver_writing_into_instance_raises(monkeypatch):
    def vandal(prob, opts):
        prob.A[0, 0] = 0.0

    monkeypatch.setitem(bench.SOLVERS, "aiht", vandal)
    with pytest.raises(ValueError, match="read-only") as exc:
        run_trial(_small_spec(solvers=("aiht",)), 0, 0)
    assert not isinstance(exc.value, SpringbackError)


def test_run_trial_records_a_failure_only_from_its_report(monkeypatch):
    # a record's status is its report's, and its error that of the report's
    # x*; any error a solver raises, a NumericError included, raises
    solo = bench.SOLVERS["aiht"]

    def failing(prob, opts):
        return replace(solo(prob, opts), status=SolverStatus.NUMERIC_FAILURE)

    def numeric(prob, opts):
        raise NumericError("non-finite iterate")

    def invalid(prob, opts):
        raise InvalidParameterError("a bug inside a solver")

    spec = _small_spec(solvers=("aiht",))
    (plain,) = run_trial(spec, 0, 0)
    monkeypatch.setitem(bench.SOLVERS, "aiht", failing)
    (rec,) = run_trial(spec, 0, 0)
    assert rec.status == "numeric_failure"
    assert rec.absolute_error == plain.absolute_error and rec.success == plain.success
    monkeypatch.setitem(bench.SOLVERS, "aiht", numeric)
    with pytest.raises(NumericError, match="non-finite iterate"):
        run_trial(spec, 0, 0)
    monkeypatch.setitem(bench.SOLVERS, "aiht", invalid)
    with pytest.raises(InvalidParameterError, match="a bug"):
        run_trial(spec, 0, 0)


def test_degenerate_zero_signal_trial():
    spec = _small_spec(sparsity=0, sweep_values=(0,))
    recs = run_trial(spec, 0, 0)
    for r in recs:
        assert np.isnan(r.relative_error)
        assert r.success  # absolute error criterion for a zero ground truth
        assert r.alpha_used == ALPHA_MAX


def test_run_trial_computes_one_svd_per_springback_trial(monkeypatch):
    """The alpha subroutine's singular values are the only ones a trial
    computes; no solver recomputes them."""
    original = linalg.singular_extremes
    calls = []

    def counted(A):
        calls.append(A.shape)
        return original(A)

    for name, mod in list(sys.modules.items()):
        if name.startswith("springback") and getattr(mod, "singular_extremes", None) is original:
            monkeypatch.setattr(mod, "singular_extremes", counted)
    for ti in range(2):
        calls.clear()
        recs = run_trial(_small_spec(solvers=bench.SOLVER_IDS), 0, ti)
        assert [r.solver_id for r in recs] == list(bench.SOLVER_IDS)
        assert calls == [(20, 50)]


def test_acceptance_rule_variants():
    spec = _small_spec()
    loose = next(
        r for r in run_trial(spec, 0, 0) if r.solver_id == "springback"
    )
    literal = next(
        r
        for r in run_trial(_small_spec(literal_acceptance=True), 0, 0)
        if r.solver_id == "springback"
    )
    assert loose.accepted in (True, False)
    assert literal.accepted in (True, False)


def test_run_experiment_single_row():
    spec = _small_spec(trials=1, solvers=("aiht",))
    rows, records = run_experiment(spec)
    assert len(rows) == 1 and len(records) == 1
    assert rows[0].success_rate in (0.0, 1.0)


def test_run_experiment_rates_are_exact_counts():
    spec = _small_spec(trials=4, sweep_values=(2, 30))
    rows, records = run_experiment(spec)
    for row in rows:
        matching = [
            r
            for r in records
            if r.solver_id == row.solver_id and r.sweep_value == row.sweep_value
        ]
        assert len(matching) == 4
        assert row.success_rate == sum(r.success for r in matching) / 4


def test_snr_sweep_resolves_noise_level():
    spec = _small_spec(sweep_axis="snr", sweep_values=(20.0, 60.0), trials=2)
    rows, records = run_experiment(spec)
    # lighter noise -> smaller mean error for the constrained solver
    by_snr = {
        row.sweep_value: row.mean_error
        for row in rows
        if row.solver_id == "springback"
    }
    assert by_snr[60.0] < by_snr[20.0]


def test_emit_and_parse_round_trip(tmp_path):
    spec = _small_spec()
    rows, records = run_experiment(spec)
    paths = emit_results(rows, records, str(tmp_path / "out"), spec)
    assert parse_summary(paths["summary"]) == rows
    assert parse_records(paths["records"]) == records


def test_emit_empty_records(tmp_path):
    paths = emit_results([], [], str(tmp_path / "empty"))
    with open(paths["records"]) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1 and lines[0].startswith("trial_index,")


def test_manifest_round_trip(tmp_path):
    spec = _small_spec()
    text = dump_config(spec)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    loaded = load_config(str(cfg))
    assert loaded == spec
    # rerunning the loaded spec reproduces the summary
    assert run_experiment(loaded)[0] == run_experiment(spec)[0]
    # every preset, with either acceptance rule, reads back as the spec that
    # wrote it (sweep values compared as floats)
    for name in bench.PRESETS:
        for literal in (False, True):
            spec = preset_spec(name, literal_acceptance=literal)
            loaded = _load_text(tmp_path, dump_config(spec))
            floats = tuple(float(v) for v in spec.sweep_values)
            assert loaded == replace(spec, sweep_values=floats), (name, literal)
            assert [type(v) for v in loaded.sweep_values] == [float] * len(floats)


_FIG8_MANIFEST = """\
[ensemble]
kind = gaussian
m = 50
n = 160
refinement = 1

[signal]
sparsity = 20
min_separation = 0
sep_factor = 0

[experiment]
sweep_axis = s
sweep_values = 10 15 20 25 30 35 40
solvers = springback admm_l1 dca_l12
trials = 3
omega = 0.40000000000000002
success_tol = 0.001
master_seed = 0
literal_acceptance = 0
snr_db = 45

"""


def test_artifact_layouts_are_pinned(tmp_path):
    spec = preset_spec("fig8", trials=3)
    paths = emit_results([], [], str(tmp_path), spec)
    with open(paths["manifest"], "rb") as fh:
        assert fh.read() == _FIG8_MANIFEST.encode()
    with open(paths["records"], "rb") as fh:
        assert fh.read() == (
            b"trial_index,solver_id,s,sweep_value,relative_error,absolute_error,"
            b"success,accepted,wall_time,status,alpha_used\r\n"
        )
    with open(paths["summary"], "rb") as fh:
        assert fh.read() == (
            b"solver_id,sweep_value,success_rate,acceptance_rate,mean_error,"
            b"mean_log_error\r\n"
        )


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config("/nonexistent/experiment.cfg")
    with pytest.raises(IsADirectoryError):
        load_config(str(tmp_path))


def test_load_config_missing_keys_take_spec_defaults(tmp_path):
    spec = _load_text(
        tmp_path,
        "[ensemble]\nkind = gaussian\nm = 20\nn = 50\n"
        "[experiment]\nsweep_axis = s\nsweep_values = 3\n",
    )
    assert spec == ExperimentSpec(
        ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=20, n=50),
        sparsity=0,
        sweep_axis="s",
        sweep_values=(3.0,),
    )
    text = dump_config(_small_spec(snr_db=30.0))
    for key, bad in (("trials", "x"), ("literal_acceptance", "2"), ("snr_db", "loud")):
        good = next(line for line in text.splitlines() if line.startswith(f"{key} ="))
        with pytest.raises(InvalidParameterError, match="invalid experiment config"):
            _load_text(tmp_path, text.replace(good, f"{key} = {bad}"))
    with pytest.raises(InvalidParameterError, match="invalid experiment config"):
        _load_text(tmp_path, text + "trials = 3\n")
    with pytest.raises(InvalidParameterError, match="invalid experiment config"):
        _load_text(tmp_path, "[experiment]\nsweep_axis = s\nsweep_values = 3\n")


def test_load_config_requires_sparsity_off_the_s_axis(tmp_path):
    # only the s axis sets the sparsity; elsewhere a missing one would run
    # every trial on the zero signal
    text = (
        "[ensemble]\nkind = gaussian\nm = 20\nn = 50\n"
        "[experiment]\nsweep_axis = m\nsweep_values = 20\n"
    )
    with pytest.raises(InvalidParameterError, match="sparsity"):
        _load_text(tmp_path, text)
    spec = _load_text(tmp_path, text + "[signal]\nsparsity = 3\n")
    assert spec.sparsity == 3 and spec.sweep_axis == "m"


def test_load_config_rejects_both_separation_settings(tmp_path):
    text = dump_config(_small_spec(min_separation=2))
    assert "min_separation = 2\n" in text and "sep_factor = 0\n" in text
    assert _load_text(tmp_path, text).min_separation == 2
    with pytest.raises(InvalidParameterError, match="min_separation or sep_factor, not both"):
        _load_text(tmp_path, text.replace("sep_factor = 0\n", "sep_factor = 2\n"))


def test_load_config_rejects_a_blank_solver_list(tmp_path):
    text = dump_config(_small_spec())
    assert "solvers = springback admm_l1\n" in text
    with pytest.raises(InvalidParameterError, match="solvers must be nonempty"):
        _load_text(tmp_path, text.replace("solvers = springback admm_l1\n", "solvers =\n"))


def test_load_config_rejects_unknown_sections_and_keys(tmp_path):
    text = dump_config(_small_spec())
    assert _load_text(tmp_path, text).trials == 2
    with pytest.raises(InvalidParameterError, match="trails"):
        _load_text(tmp_path, text.replace("trials =", "trails ="))
    with pytest.raises(InvalidParameterError, match="experimnt"):
        _load_text(tmp_path, text + "\n[experimnt]\ntrials = 5\n")


def test_presets():
    fig4 = preset_spec("fig4", trials=5)
    assert fig4.sweep_axis == "s" and fig4.trials == 5
    assert fig4.sweep_values[0] == 6 and fig4.sweep_values[-1] == 40
    fig5 = preset_spec("fig5")
    assert fig5.sweep_axis == "refinement" and fig5.sep_factor == 2
    fig7 = preset_spec("fig7")
    assert (fig7.ensemble.m, fig7.ensemble.n) == (64, 128)
    assert preset_spec("fig7-literal") == replace(
        fig7, ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=128, n=64)
    )
    fig8 = preset_spec("fig8")
    assert fig8.snr_db == 45.0 and "dca_l12" in fig8.solvers
    with pytest.raises(InvalidParameterError):
        preset_spec("fig99")


def test_summarize_handles_acceptance_column():
    spec = _small_spec(sweep_values=(5, 3))
    _, records = run_experiment(spec)
    rows = summarize(records)
    # rows follow the records: sweep points in spec order, then solvers
    assert [(r.sweep_value, r.solver_id) for r in rows] == [
        (v, sid) for v in (5.0, 3.0) for sid in spec.solvers
    ]
    spb = next(r for r in rows if r.solver_id == "springback")
    other = next(r for r in rows if r.solver_id == "admm_l1")
    assert spb.acceptance_rate is not None
    assert other.acceptance_rate is None


# The solver lanes: inside run_experiment, every trial runs in two other
# interpreters, its DCA stack in lane 0 and its other solvers in lane 1.


def _bits(records):
    """Every field of each record but wall_time, floats by their bytes."""
    return [
        tuple(
            np.float64(value).tobytes() if isinstance(value, float) else value
            for value in (getattr(r, f.name) for f in fields(TrialRecord) if f.name != "wall_time")
        )
        for r in records
    ]


def _alone(spec):
    """run_experiment's records, made by run_trial in this process."""
    return [
        r
        for si in range(len(spec.sweep_values))
        for ti in range(spec.trials)
        for r in run_trial(spec, si, ti)
    ]


def _lane_pids():
    """{lane: pid} of every lane the shared lanes have started."""
    return {lane: p.pid for lane, p in bench._shared_lanes.processes.items()}


class _Hung(Exception):
    pass


@contextlib.contextmanager
def _deadline(seconds):
    """Raise _Hung in the block if it runs longer than ``seconds``."""

    def expire(signum, frame):
        raise _Hung(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def _mixed_solvers(draw):
    """Solver ids with at least one DCA baseline and one other solver, in any order."""
    dca = draw(st.lists(st.sampled_from(tuple(bench._DCA_KINDS)), min_size=1, unique=True))
    others = ("springback", "admm_l1", "irls_lp", "aiht")
    rest = draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
    return tuple(draw(st.permutations(dca + rest)))


@settings(max_examples=12, deadline=None)
@given(
    solvers=_mixed_solvers(),
    values=st.lists(st.integers(0, 6), min_size=1, max_size=2, unique=True),
    snr_db=st.sampled_from((None, 40.0)),
    master_seed=st.integers(0, 2**16),
    literal=st.booleans(),
)
def test_run_experiment_records_are_those_of_run_trial(solvers, values, snr_db, master_seed, literal):
    # the worker's stack and this process's solvers make the records that
    # run_trial makes alone, bit for bit, accepted included; only the wall
    # times differ
    spec = _small_spec(
        solvers=solvers, sweep_values=tuple(values), snr_db=snr_db,
        master_seed=master_seed, literal_acceptance=literal,
    )
    _, records = run_experiment(spec)
    assert _bits(records) == _bits(_alone(spec))
    assert all(r.wall_time > 0.0 for r in records)


@pytest.mark.parametrize("literal", (False, True))
def test_accepted_does_not_depend_on_the_lane_split(literal):
    # run_trial makes accepted from the solves, wherever each was made: a
    # stand-in for the lanes that solves every id in its own _solve call,
    # springback and admm_l1 apart, gives the records run_trial makes alone
    solved = []

    def run(spec, solvers, si, ti):
        solves = [bench._solve(spec, (sid,), si, ti) for sid in solvers]
        solved.extend(tuple(outcomes) for *_, outcomes in solves)
        merged = {sid: outcome for *_, outcomes in solves for sid, outcome in outcomes.items()}
        return (*solves[0][:3], merged)

    spec = _small_spec(
        solvers=("admm_l1", "dca_l12", "springback", "aiht"), sweep_values=(3, 5),
        literal_acceptance=literal,
    )
    for si, ti in _ORDER_KEYS:
        solved.clear()
        records = run_trial(spec, si, ti, _lanes=SimpleNamespace(run=run))
        assert solved == [(sid,) for sid in spec.solvers]
        assert records[2].accepted is not None
        assert _bits(records) == _bits(run_trial(spec, si, ti))


def test_run_experiment_hands_run_trial_the_lanes(monkeypatch):
    # perfbench's tracer wraps bench.run_trial and divides its per-trial
    # metrics by those calls: one call per trial, through the module
    # attribute, with the lanes whatever solvers the sweep names
    calls = []
    original = bench.run_trial

    def recording(spec, si, ti, **kw):
        calls.append((si, ti, kw.get("_lanes")))
        return original(spec, si, ti, **kw)

    monkeypatch.setattr(bench, "run_trial", recording)
    for solvers in (("springback", "dca_l12"), ("dca_l12", "dca_tl1"), ("springback", "aiht")):
        calls.clear()
        run_experiment(_small_spec(solvers=solvers, sweep_values=(2, 3)))
        assert [call[:2] for call in calls] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for *_, lanes in calls:
            assert lanes is bench._shared_lanes
    assert all(p.poll() is None for p in bench._shared_lanes.processes.values())


@pytest.mark.parametrize("idle", (0, 1))
def test_an_idle_lane_gets_no_message(monkeypatch, idle):
    # a sweep whose solvers all sit on one side never starts the other lane
    # on fresh lanes, and sends it nothing once a mixed sweep has started
    # it: with the idle lane's send raising, the sweep still makes
    # run_trial's records
    spec = _small_spec(solvers=("aiht", "springback") if idle == 0 else ("dca_mcp", "dca_l12"))
    lanes = bench._shared_lanes
    lanes.close()
    with _deadline(60):
        _, records = run_experiment(spec)
    busy = _lane_pids()
    assert sorted(busy) == sorted(lanes.conns) == [1 - idle]
    assert _bits(records) == _bits(_alone(spec))
    run_experiment(_small_spec(solvers=("aiht", "dca_l12"), trials=1))
    pids = _lane_pids()
    assert sorted(pids) == [0, 1] and pids[1 - idle] == busy[1 - idle]

    def unreachable(obj):
        raise AssertionError(f"lane {idle} was sent {obj!r}")

    monkeypatch.setattr(lanes.conns[idle], "send", unreachable)
    with _deadline(60):
        _, records = run_experiment(spec)
    assert _lane_pids() == pids and all(p.poll() is None for p in lanes.processes.values())
    assert [r.solver_id for r in records] == list(spec.solvers) * spec.trials
    assert _bits(records) == _bits(_alone(spec))


@pytest.mark.parametrize("solvers", (("springback", "dca_l12"), ("aiht",), ("dca_tl1",)))
def test_a_sweep_builds_no_spec(monkeypatch, solvers):
    # every lane solves its ids on the sweep's own spec, so the sweep's
    # process builds no ExperimentSpec at all, in a sweep of one trial or of
    # four, and ExperimentSpec's checks run only where the spec is made
    calls = []
    post_init = ExperimentSpec.__post_init__

    def counting(self):
        calls.append(self.solvers)
        post_init(self)

    monkeypatch.setattr(ExperimentSpec, "__post_init__", counting)
    counts = []
    for trials, values in ((1, (3,)), (2, (3, 4))):
        spec = _small_spec(solvers=solvers, trials=trials, sweep_values=values)
        calls.clear()
        with _deadline(60):
            run_experiment(spec)
        counts.append(len(calls))
    assert counts == [0, 0]


def test_a_mixed_sweep_generates_no_instance_in_this_process(monkeypatch):
    # each lane draws the trial's instance itself, so this process makes no
    # BLAS call whose helper threads would compete with the lanes
    spec = _small_spec(solvers=("dca_tl1", "springback", "admm_l1"), sweep_values=(2, 3))
    want = _bits(_alone(spec))

    def no_setup(*args):
        raise AssertionError("an instance was generated in the sweep's process")

    monkeypatch.setattr(bench, "trial_setup", no_setup)
    with _deadline(60):
        assert _bits(run_experiment(spec)[1]) == want


def _lane_error(monkeypatch, lane):
    """(solvers, unknown id) of a mixed spec whose unknown id this process
    knows and the given lane's package does not: that lane's solve_trial
    raises KeyError naming it, and the other lane replies as usual."""
    if lane == 0:
        monkeypatch.setitem(bench._DCA_KINDS, "dca_extra", PenaltyKind.TL1)
        solvers, unknown = ("aiht", "dca_extra"), "dca_extra"
    else:
        monkeypatch.setitem(bench.SOLVERS, "extra", bench.SOLVERS["aiht"])
        solvers, unknown = ("extra", "dca_l12"), "extra"
    monkeypatch.setattr(bench, "SOLVER_IDS", (*bench.SOLVER_IDS, unknown))
    return solvers, unknown


@pytest.mark.parametrize("lane", (0, 1))
def test_an_error_in_a_lane_raises_its_own_type(monkeypatch, lane):
    # the sweep raises the lane's KeyError; both lanes live on and serve
    # the next sweep
    solvers, unknown = _lane_error(monkeypatch, lane)
    spec = _small_spec(solvers=solvers)
    run_trial(spec, 0, 0)  # in this process the id is known
    with _deadline(60), pytest.raises(KeyError, match=unknown):
        run_experiment(spec)
    pids = _lane_pids()
    assert sorted(pids) == [0, 1]
    assert all(p.poll() is None for p in bench._shared_lanes.processes.values())
    monkeypatch.undo()
    spec = _small_spec(solvers=("aiht", "dca_tl1"))
    with _deadline(60):
        assert _bits(run_experiment(spec)[1]) == _bits(_alone(spec))
    assert _lane_pids() == pids


@pytest.mark.parametrize("lane", (0, 1))
def test_a_sweep_that_raised_leaves_no_stale_reply(monkeypatch, lane):
    # one lane raises while the other has replied: the next sweep, on other
    # instances, must not take that reply for its own first trial's
    solvers, _ = _lane_error(monkeypatch, lane)
    spec = _small_spec(solvers=solvers, trials=1)
    with _deadline(60), pytest.raises(KeyError):
        run_experiment(spec)
    pids = _lane_pids()
    assert sorted(pids) == [0, 1]
    monkeypatch.undo()
    spec = _small_spec(solvers=("aiht", "dca_l12"), trials=1, master_seed=8)
    with _deadline(60):
        assert _bits(run_experiment(spec)[1]) == _bits(_alone(spec))
    assert _lane_pids() == pids


def _on_second_trial(monkeypatch, fault):
    """Run ``fault(lanes)`` before the lanes are handed the second trial of
    the next sweep; also returns the calls so far and the lanes' processes
    now, which a failure makes the lanes forget."""
    lanes = bench._shared_lanes
    run, calls = lanes.run, []

    def faulty(*args):
        calls.append(None)
        if len(calls) == 2:
            fault(lanes)
        return run(*args)

    monkeypatch.setattr(lanes, "run", faulty)
    return lanes, calls, dict(lanes.processes)


def _all_replaced(old):
    """Both lanes run now, neither under a pid of the processes ``old``."""
    pids = _lane_pids()
    return sorted(pids) == [0, 1] and not set(pids.values()) & {p.pid for p in old.values()}


@pytest.mark.parametrize("lane", (0, 1))
def test_a_lane_killed_mid_sweep_raises(monkeypatch, lane):
    # a lane dies before the second of three trials: the sweep raises
    # instead of waiting for a reply, the other lane is killed too, and the
    # next sweep starts both anew
    spec = _small_spec(solvers=("aiht", "dca_l12"), trials=3)
    run_experiment(replace(spec, trials=1))
    lanes, calls, old = _on_second_trial(
        monkeypatch, lambda lanes: os.kill(lanes.processes[lane].pid, signal.SIGKILL)
    )
    with _deadline(60), pytest.raises(ChildProcessError, match=f"lane {lane} exited with status -9"):
        run_experiment(spec)
    assert len(calls) == 2 and lanes.processes == lanes.conns == {}
    assert sorted(old) == [0, 1] and all(p.poll() is not None for p in old.values())
    with _deadline(60):
        _, records = run_experiment(spec)
    assert _all_replaced(old)
    assert _bits(records) == _bits(_alone(spec))


class _Interrupt(BaseException):
    pass


@pytest.mark.parametrize("lane", (0, 1))
def test_an_interrupt_mid_send_raises_itself_and_closes_both_lanes(monkeypatch, lane):
    # an error that is not a channel error, such as an interrupt that cuts
    # one lane's message of the second of three trials short, raises as
    # itself, not as ChildProcessError; both lanes are killed, and the next
    # sweep starts both anew
    spec = _small_spec(solvers=("aiht", "dca_l12"), trials=3)
    run_experiment(replace(spec, trials=1))

    def interrupt(lanes):
        def interrupted(obj):
            raise _Interrupt("mid-message")

        monkeypatch.setattr(lanes.conns[lane], "send", interrupted)

    lanes, calls, old = _on_second_trial(monkeypatch, interrupt)
    with _deadline(60), pytest.raises(_Interrupt, match="mid-message"):
        run_experiment(spec)
    assert len(calls) == 2 and lanes.processes == lanes.conns == {}
    assert sorted(old) == [0, 1] and all(p.poll() is not None for p in old.values())
    with _deadline(60):
        _, records = run_experiment(spec)
    assert _all_replaced(old)
    assert _bits(records) == _bits(_alone(spec))


def test_a_lane_that_died_between_sweeps_is_replaced():
    # the next sweep finds the dead lane before it sends a trial: it kills
    # the other lane too, starts both anew, and raises nothing
    spec = _small_spec(solvers=("aiht", "dca_l12"))
    run_experiment(replace(spec, trials=1))
    old = dict(bench._shared_lanes.processes)
    assert sorted(old) == [0, 1]
    os.kill(old[1].pid, signal.SIGKILL)
    old[1].wait()
    with _deadline(60):
        _, records = run_experiment(spec)
    assert _bits(records) == _bits(_alone(spec))
    assert _all_replaced(old) and old[0].poll() is not None


_TWO_TRIAL_SWEEP = """\
import multiprocessing.resource_tracker
import sys

sys.path.insert(0, sys.argv[1])
from springback import bench
from springback.sensing import EnsembleKind, EnsembleSpec

spec = bench.ExperimentSpec(
    ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=20, n=50), sparsity=3, sweep_axis="s",
    sweep_values=(3,), solvers=("springback", "dca_l12"), trials=2, master_seed=7,
)
bench.run_experiment(spec)
print(*(p.pid for p in bench._shared_lanes.processes.values()), multiprocessing.resource_tracker._resource_tracker._pid)
"""


def test_the_lanes_end_with_their_interpreter():
    # under -W error an unclosed pipe or a subprocess still running at exit
    # would print a ResourceWarning; both lanes must be gone once the
    # interpreter has exited, and no resource tracker is started
    src = str(Path(bench.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", _TWO_TRIAL_SWEEP, src],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0 and run.stderr == "", run.stderr
    *lanes, tracker = run.stdout.split()
    assert len(lanes) == 2 and tracker == "None"
    for pid in lanes:
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)


# Prints a digest of a two-trial sweep's records, wall times left out, and
# its lanes' pids: for the parent, then for a child forked after that sweep,
# then for the parent again once the child has exited.
_FORKED_SWEEP = """\
import hashlib
import os
import sys
from dataclasses import replace

sys.path.insert(0, sys.argv[1])
from springback import bench
from springback.sensing import EnsembleKind, EnsembleSpec

spec = bench.ExperimentSpec(
    ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=20, n=50), sparsity=3, sweep_axis="s",
    sweep_values=(3,), solvers=("springback", "dca_l12"), trials=2, master_seed=7,
)


def sweep(who):
    records = [replace(r, wall_time=0.0) for r in bench.run_experiment(spec)[1]]
    pids = (bench._shared_lanes.processes[lane].pid for lane in (0, 1))
    print(who, hashlib.sha256(repr(records).encode()).hexdigest(), *pids, flush=True)


sweep("parent")
child = os.fork()
if child == 0:
    sweep("child")
    sys.exit(0)
_, status = os.waitpid(child, 0)
print("status", os.waitstatus_to_exitcode(status), flush=True)
sweep("parent")
"""


def test_a_forked_child_starts_its_own_lanes():
    # in a forked child the parent's lanes are no children of its own: its
    # sweep starts two lanes of its own and sends the parent's nothing, and
    # the parent's lanes live on and serve its next sweep
    src = str(Path(bench.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _FORKED_SWEEP, src], capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    lines = [line.split() for line in run.stdout.splitlines()]
    assert [line[0] for line in lines] == ["parent", "child", "status", "parent"]
    (_, digest, *parent), (_, child_digest, *child), (_, status), (_, again, *later) = lines
    assert status == "0" and child_digest == digest == again
    assert later == parent and not set(child) & set(parent)
    for pid in child:  # the child's lanes ended with it
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)


# Prints, for a 100x300 Gaussian sweep of the solver ids in argv[2], a digest
# of the reports solve_trial makes in this process and one of
# run_experiment's records, wall times left out.
_THREADED_SWEEP = """\
import hashlib
import sys
from dataclasses import fields

import numpy as np

sys.path.insert(0, sys.argv[1])
from springback import bench
from springback.sensing import EnsembleKind, EnsembleSpec

spec = bench.ExperimentSpec(
    ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=100, n=300), sparsity=10, sweep_axis="s",
    sweep_values=(10,), solvers=tuple(sys.argv[2].split()), trials=2, master_seed=0,
)
here, sweep = hashlib.sha256(), hashlib.sha256()
for ti in range(spec.trials):
    prob, opts, _ = bench.trial_setup(spec, 0, ti)
    for sid, (report, _) in sorted(bench.solve_trial(spec.solvers, prob, opts).items()):
        here.update(report.x_star.tobytes())
for r in bench.run_experiment(spec)[1]:
    for f in fields(r):
        if f.name != "wall_time":
            value = getattr(r, f.name)
            sweep.update(np.float64(value).tobytes() if isinstance(value, float) else repr(value).encode())
print(here.hexdigest(), sweep.hexdigest())
"""


@pytest.mark.parametrize("solvers", ("springback dca_l12", "springback", "dca_l12"))
def test_a_mixed_sweep_does_not_depend_on_the_callers_blas_threads(solvers):
    # at 100x300 a solve rounds differently at 1 and 2 BLAS threads; the
    # lanes run one thread each whatever the caller's setting, so the
    # sweep's records are the same bits under both, whether it mixes a DCA
    # baseline with another solver or names one side only
    src = str(Path(bench.__file__).resolve().parents[1])
    digests = {}
    for threads in ("1", "2"):
        run = subprocess.run(
            [sys.executable, "-c", _THREADED_SWEEP, src, solvers],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        assert run.returncode == 0, run.stderr
        digests[threads] = run.stdout.split()
    if digests["1"][0] == digests["2"][0]:
        pytest.skip("in-process solves round the same at 1 and 2 BLAS threads here "
                    "(one CPU, or a BLAS that ignores OPENBLAS_NUM_THREADS)")
    assert digests["1"][1] == digests["2"][1]


def _perfbench_workloads(monkeypatch):
    """perfbench/workloads.py, loaded by path and registered in sys.modules,
    which its dataclasses need while the module runs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


# These two fig8 units stop on the eps_outer edge, so a change to the
# rounding of springback's tau > 0 inner loop can move their status or
# error; run as the benchmark runs a unit, they must match its reference,
# read-only.
@pytest.mark.parametrize("point, sweep_value, master_seed", [(2, 20, 9), (6, 40, 18)])
def test_fig8_edge_units_match_the_benchmark_reference(
    tmp_path, monkeypatch, point, sweep_value, master_seed
):
    workloads = _perfbench_workloads(monkeypatch)
    spec = workloads.unit_spec(bench, "fig8", point, master_seed)
    assert spec.sweep_values == (sweep_value,)
    emit_results(*run_experiment(spec), str(tmp_path), spec)
    want = workloads.load_reference("fig8")[workloads.unit_key(sweep_value, master_seed)]
    bad = workloads.mismatched_keys(
        workloads.summary_rows(str(tmp_path / "summary.csv")),
        workloads.record_outcomes(str(tmp_path / "records.csv"), workloads.stable_tol(spec)),
        want,
    )
    assert sorted(bad) == []
    assert f"springback,{sweep_value}" in want["records"]


# Every solver reports its own numeric failure (solvers._outer catches the
# NumericError of its steps), so no NumericError leaves a solver and a report
# always holds a finite x*: run_trial has no failure path of its own.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(((6, 15), (15, 6), (8, 8))),
    exponent=st.integers(-300, 300),
    noisy=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_no_numeric_error_escapes_a_solver(shape, exponent, noisy, seed):
    m, n = shape
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    xbar = np.zeros(n)
    xbar[rng.choice(n, 2, replace=False)] = rng.standard_normal(2)
    b, tau = A @ xbar, 0.0
    if noisy:
        e = 0.01 * rng.standard_normal(m)
        b, tau = b + e, float(np.linalg.norm(e))
    scale = 10.0**exponent
    prob = ProblemInstance(scale * A, scale * b, scale * tau)
    opts = bench.solver_options(prob, 2, OMEGA)
    for sid in bench.SOLVER_IDS:
        assert np.isfinite(_solo(sid, prob, opts).x_star).all(), sid
    results = bench.solve_trial(bench.SOLVER_IDS, prob, opts)
    assert sorted(results) == sorted(bench.SOLVER_IDS)
    for sid, (report, _) in results.items():
        assert np.isfinite(report.x_star).all(), sid
