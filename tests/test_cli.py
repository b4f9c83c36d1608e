"""Tests for the command-line interface."""

import numpy as np
import pytest

from springback.cli import main


def test_threshold_springback(capsys):
    rc = main(["threshold", "springback", "--w", "0.5", "--lambda", "0.25", "--alpha", "1.3333"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(0.375, abs=1e-3)


def test_threshold_multiple_points(capsys):
    rc = main(["threshold", "soft", "--w", "0.2", "1.0", "-0.2", "--lambda", "0.25"])
    assert rc == 0
    out = capsys.readouterr().out.split()
    assert [float(v) for v in out] == pytest.approx([0.0, 0.75, 0.0])
    # the dead zone prints an unsigned zero, as firm and springback do
    assert out[2] == "0"


def test_threshold_rejects_flags_its_operator_does_not_read(capsys):
    for argv, flags in ((["soft", "--w", "1.0", "--alpha", "3", "--mu", "9"], "--alpha:"),
                        (["springback", "--w", "1.0", "--mu", "9"], "--mu:"),
                        (["firm", "--w", "0.5", "--alpha", "3"], "--alpha:")):
        assert main(["threshold", *argv]) == 1
        out = capsys.readouterr()
        assert out.err.startswith("error: " + flags) and out.out == ""
    # a flag left at its default is accepted
    assert main(["threshold", "soft", "--w", "1.0", "--alpha", "0.5", "--mu", "1.0"]) == 0


@pytest.mark.parametrize(
    "argv", [["soft", "--w", "1", "--lambda", "nan"], ["springback", "--w", "1", "--alpha", "nan"]]
)
def test_threshold_rejects_nan_parameters(capsys, argv):
    assert main(["threshold", *argv]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and out.out == ""


def test_bounds_toy_table(capsys):
    rc = main(["bounds", "--toy"])
    assert rc == 0
    out = capsys.readouterr().out
    for quoted in ("0.1385", "0.0271", "0.2333", "0.1391", "0.0807", "2.8652e-04"):
        assert quoted in out


def test_bounds_calculator(capsys):
    rc = main(["bounds", "--tau", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1.58944" in out.replace(" ", "")


@pytest.mark.parametrize(
    "argv",
    [["--alpha", "nan"], ["--tau", "nan"], ["--tau", "inf"], ["--tail", "inf"],
     ["--toy", "--alpha", "nan"]],
)
def test_bounds_rejects_non_finite_parameters(capsys, argv):
    assert main(["bounds", *argv]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and out.out == ""


@pytest.mark.parametrize(
    "argv",
    [["--alpha", "1e-320", "--tau", "0.1"], ["--alpha", "1e308", "--tau", "1e308", "--improved"],
     ["--toy", "--alpha", "1e-320"]],
)
def test_bounds_that_overflow_exit_1(capsys, argv):
    assert main(["bounds", *argv]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and "overflows" in out.err and out.out == ""


def test_bounds_rip_failure(capsys):
    rc = main(["bounds", "--delta3s", "0.9", "--delta4s", "0.9"])
    assert rc == 1
    assert "FAILS" in capsys.readouterr().out


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--no-such-flag"])
    assert exc.value.code == 2


def test_solve_generated_instance(capsys):
    rc = main(["solve", "--solver", "aiht", "--m", "32", "--n", "80", "--s", "4", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status" in out and "rel error" in out


def test_solve_npz_instance(tmp_path, capsys):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 20))
    x = np.zeros(20)
    x[3] = 1.0
    path = tmp_path / "inst.npz"
    np.savez(path, A=A, b=A @ x, tau=0.0, x=x)
    rc = main(["solve", "--solver", "springback", "--npz", str(path)])
    assert rc == 0
    assert "residual" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_reports_overflow_as_a_status(tmp_path, capsys):
    # finite data whose ||b||^2 and Gram matrix overflow inside the solve
    A = 1e200 * np.hstack([np.eye(3), np.eye(3)[:, :1], np.zeros((3, 1))])
    path = tmp_path / "inst.npz"
    np.savez(path, A=A, b=1e200 * np.ones(3), tau=0.0)
    rc = main(["solve", "--solver", "springback", "--npz", str(path)])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert "status     numeric_failure" in captured.out
    assert "alpha      0.7" in captured.out


def test_bench_missing_config(capsys):
    rc = main(["bench", "--config", "no_such_file.cfg", "--out", "unused"])
    assert rc == 2
    assert "no_such_file.cfg" in capsys.readouterr().err


def test_bench_preset_and_report(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        ["bench", "--preset", "fig4", "--trials", "1", "--out", str(out)]
    )
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.cfg", "records.csv", "summary.csv"]
    capsys.readouterr()
    rc = main(["report", "--records", str(out / "records.csv")])
    assert rc == 0
    rep = capsys.readouterr().out
    assert rep.startswith("solver_id,")
    assert "springback" in rep
    # stdout carries the summary.csv lines, with "\n" line ends
    with open(out / "summary.csv", newline="") as fh:
        assert rep.split("\n") == fh.read().split("\r\n")


def test_report_rejects_malformed_records(tmp_path, capsys):
    path = tmp_path / "records.csv"
    path.write_text("trial_index,solver_id\n0,springback\n")
    assert main(["report", "--records", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert "missing column(s) s, sweep_value" in err
    header = (
        "trial_index,solver_id,s,sweep_value,relative_error,absolute_error,"
        "success,accepted,wall_time,status,alpha_used\n"
    )
    path.write_text(header + "zero,springback,3,3,0.1,0.1,1,,0.5,converged,0.7\n")
    assert main(["report", "--records", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "column trial_index" in err
    path.write_text(header + "0,springback,3\n")  # a row shorter than its header
    assert main(["report", "--records", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 2, column sweep_value: missing value" in err


def test_bench_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["bench", "--preset", "fig4", "--trials", "1", "--seed", "-1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "master_seed" in err
    assert not out.exists()


_TINY_CONFIG = (
    "[ensemble]\nkind = gaussian\nm = 8\nn = 16\n"
    "[experiment]\nsweep_axis = s\nsweep_values = 2\ntrials = 1\n"
)


def test_bench_config_rejects_preset_flags(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(_TINY_CONFIG)
    out = tmp_path / "run"
    for flags in (["--seed", "7"], ["--literal-acceptance"]):
        rc = main(["bench", "--config", str(cfg), "--out", str(out), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flags[0] in err
        assert not out.exists()


def test_bench_fig7_literal_preset_writes_the_printed_shape(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["bench", "--preset", "fig7-literal", "--trials", "1", "--out", str(out)]) == 0
    manifest = (out / "manifest.cfg").read_text().splitlines()
    assert "m = 128" in manifest and "n = 64" in manifest


def test_bench_config_rejects_nan_success_tol(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(_TINY_CONFIG + "success_tol = nan\n")
    out = tmp_path / "run"
    rc = main(["bench", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "success_tol" in err
    assert not out.exists()


def test_bench_config_rejects_a_blank_solver_list(tmp_path, capsys):
    # no solver would write a header-only summary.csv
    cfg = tmp_path / "t.cfg"
    cfg.write_text(_TINY_CONFIG + "solvers =\n")
    out = tmp_path / "run"
    rc = main(["bench", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "solvers must be nonempty" in captured.err
    assert captured.out == "" and not out.exists()


def test_bench_config_requires_sparsity_off_the_s_axis(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(_TINY_CONFIG.replace("sweep_axis = s\n", "sweep_axis = m\n"))
    out = tmp_path / "run"
    rc = main(["bench", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sparsity" in err
    assert not out.exists()


def test_bench_config_rejects_fractional_sparsity_values(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(_TINY_CONFIG.replace("sweep_values = 2\n", "sweep_values = 2.5 3.5\n"))
    out = tmp_path / "run"
    rc = main(["bench", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "integers" in err
    assert not out.exists()


def test_bench_directory_config(tmp_path, capsys):
    rc = main(["bench", "--config", str(tmp_path), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_bench_unwritable_out(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text(_TINY_CONFIG)
    rc = main(["bench", "--config", str(cfg), "--out", str(cfg / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write benchmark results")


def test_bench_with_a_dead_solver_lane_exits_2(tmp_path, capsys, monkeypatch):
    # a lane that dies before it answers is an OSError (ChildProcessError),
    # so bench reports it as it does a file it cannot read or write
    from springback import bench

    bench._shared_lanes.close()
    monkeypatch.setattr(bench, "_LANE_MAIN", "import os, signal; os.kill(os.getpid(), signal.SIGKILL)")
    cfg = tmp_path / "t.cfg"
    cfg.write_text(_TINY_CONFIG + "solvers = springback\n")  # lane 1 alone
    rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 2
    out = capsys.readouterr()
    assert out.err == "error: solver lane 1 exited with status -9\n" and out.out == ""
    assert bench._shared_lanes.processes == {}
    assert not (tmp_path / "run").exists()


def test_solve_rejects_refinement_off_dct(capsys):
    rc = main(["solve", "--ensemble", "gaussian", "--refinement", "4", "--m", "8", "--n", "16"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "refinement" in err


@pytest.mark.parametrize(
    "name, write",
    [
        ("no_a.npz", lambda p: np.savez(p, b=np.ones(3))),  # archive without A
        ("array.npy", lambda p: np.save(p, np.ones((3, 3)))),  # a bare array
        ("text.npz", lambda p: p.write_text("not numpy\n")),  # not a NumPy file
        ("tau.npz", lambda p: np.savez(p, A=np.eye(3), b=np.ones(3), tau=np.ones(2))),
    ],
)
def test_solve_rejects_malformed_npz(tmp_path, capsys, name, write):
    path = tmp_path / name
    write(path)
    assert main(["solve", "--npz", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("tau", [np.inf, np.nan])
def test_solve_npz_rejects_non_finite_tau(tmp_path, capsys, tau):
    path = tmp_path / "inst.npz"
    rng = np.random.default_rng(0)
    np.savez(path, A=rng.standard_normal((8, 20)), b=rng.standard_normal(8), tau=tau)
    assert main(["solve", "--npz", str(path)]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and "tau" in out.err
    assert "Traceback" not in out.err and out.out == ""


@pytest.mark.parametrize("omega", ["nan", "inf"])
def test_solve_npz_rejects_non_finite_omega(tmp_path, capsys, omega):
    path = tmp_path / "inst.npz"
    rng = np.random.default_rng(0)
    np.savez(path, A=rng.standard_normal((8, 20)), b=rng.standard_normal(8))
    assert main(["solve", "--npz", str(path), "--omega", omega]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and "omega" in out.err
    assert "Traceback" not in out.err and out.out == ""


def test_solve_npz_rejects_generation_flags(tmp_path, capsys):
    path = tmp_path / "inst.npz"
    np.savez(path, A=np.eye(3), b=np.ones(3))
    # a flag left at its default is accepted
    assert main(["solve", "--npz", str(path), "--seed", "0"]) == 0
    capsys.readouterr()
    for flags in (["--ensemble", "oversampled_dct"], ["--m", "99"], ["--n", "7"],
                  ["--refinement", "4"], ["--snr", "10"], ["--seed", "5"],
                  ["--min-separation", "2"]):
        assert main(["solve", "--npz", str(path), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flags[0] in err


def test_bounds_toy_rejects_profile_flags(capsys):
    for flags in (["--s", "5"], ["--delta3s", "0.9"], ["--delta4s", "0.5"],
                  ["--tau", "3"], ["--tail", "0.1"], ["--improved"]):
        assert main(["bounds", "--toy", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flags[0] in err
    assert main(["bounds", "--toy", "--s", "5", "--tau", "3"]) == 1
    assert "--s, --tau:" in capsys.readouterr().err
    # --alpha is read by the worked example
    assert main(["bounds", "--toy", "--alpha", "2"]) == 0


def test_solve_dca_baseline_is_its_grouped_bench_record(monkeypatch, capsys):
    # solve runs dca_tl1 alone; a bench trial runs the three DCA baselines as
    # one stack.  On the same trial both give the same x_star and status.
    from springback import bench
    from springback.penalties import PenaltyKind
    from springback.sensing import EnsembleKind, EnsembleSpec

    calls = []
    original = bench.dca_unconstrained

    def recording(kinds, prob, opts):
        reports = original(kinds, prob, opts)
        calls.append((tuple(kinds), reports))
        return reports

    monkeypatch.setattr(bench, "dca_unconstrained", recording)
    argv = ["solve", "--solver", "dca_tl1", "--m", "32", "--n", "80", "--s", "4", "--seed", "3"]
    assert main(argv) == 0
    printed = dict(line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines())
    spec = bench.ExperimentSpec(
        ensemble=EnsembleSpec(EnsembleKind.GAUSSIAN, m=32, n=80),
        sparsity=4,
        sweep_axis="s",
        sweep_values=(4,),
        master_seed=3,
    )
    records = {r.solver_id: r for r in bench.run_trial(spec, 0, 0)}
    (solo_kinds, (solo,)), (group_kinds, group) = calls
    assert solo_kinds == (PenaltyKind.TL1,)
    assert group_kinds == (PenaltyKind.TL1, PenaltyKind.L1_MINUS_2, PenaltyKind.MCP)
    grouped = group[group_kinds.index(PenaltyKind.TL1)]
    assert solo.x_star.tobytes() == grouped.x_star.tobytes()
    assert solo.status is grouped.status
    assert printed["status"] == records["dca_tl1"].status == grouped.status.value
    assert printed["rel error"] == f"{records['dca_tl1'].relative_error:.6g}"


def test_threshold_firm(capsys):
    # firm: 0 inside lambda, mu (|w| - lambda) / (mu - lambda) up to mu, w beyond
    assert main(["threshold", "firm", "--w", "0.1", "-0.5", "2.0", "--lambda", "0.25"]) == 0
    out = capsys.readouterr().out.split()
    assert [float(v) for v in out] == pytest.approx([0.0, -1.0 / 3.0, 2.0])


@pytest.mark.parametrize("snr", ["nan", "inf", "-inf", "4000", "-4000"])
def test_an_snr_with_no_noise_level_is_an_error(tmp_path, capsys, snr):
    # before a trial runs: solve prints no status, bench writes no directory
    assert main(["solve", f"--snr={snr}", "--m", "8", "--n", "16", "--s", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: SNR") and snr in captured.err
    assert captured.out == ""
    cfg = tmp_path / "t.cfg"
    cfg.write_text(
        _TINY_CONFIG.replace("sweep_axis = s\nsweep_values = 2\n",
                             f"sweep_axis = snr\nsweep_values = 20 {snr}\n")
        + "[signal]\nsparsity = 2\n"
    )
    out = tmp_path / "run"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "SNR" in captured.err and snr in captured.err
    assert captured.out == "" and not out.exists()


def test_bench_config_trials_and_report_out(tmp_path, capsys):
    # --trials overrides a config's count; report --out writes the summary
    # that bench wrote, from the records alone
    cfg = tmp_path / "t.cfg"
    cfg.write_text(_TINY_CONFIG + "solvers = aiht\n")
    run, again = tmp_path / "run", tmp_path / "again"
    assert main(["bench", "--config", str(cfg), "--trials", "3", "--out", str(run)]) == 0
    assert "trials = 3\n" in (run / "manifest.cfg").read_text()
    capsys.readouterr()
    assert main(["report", "--records", str(run / "records.csv"), "--out", str(again)]) == 0
    assert capsys.readouterr().out == f"wrote summary for 3 records to {again}\n"
    assert (again / "summary.csv").read_bytes() == (run / "summary.csv").read_bytes()
    assert (again / "records.csv").read_bytes() == (run / "records.csv").read_bytes()
