"""Tests for the benchmark harness: trials, aggregation, persistence."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sys

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
from springback.errors import InvalidParameterError, SpringbackError
from springback.sensing import EnsembleKind, EnsembleSpec
from springback.solvers import ALPHA_MAX


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
    for name in ("fig4", "fig5", "fig7", "fig8"):
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
    lit = preset_spec("fig7", literal_shape=True)
    assert (lit.ensemble.m, lit.ensemble.n) == (128, 64)
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
