"""Tests for the measurement scripts under tools/."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = sorted((ROOT / "tools").glob("*.py"))


def _run_tool(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


# each tool imports what it measures at start-up, so --help fails on an
# import that a rename broke
@pytest.mark.parametrize("tool", [path.name for path in TOOLS])
def test_tool_prints_its_help(tool):
    run = _run_tool(tool, "--help")
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: ")


def test_setup_time_runs_a_pair_of_a_tree_against_itself():
    run = _run_tool("setup_time.py", str(ROOT), "--pairs", "1")
    assert run.returncode == 0, run.stderr
    first, last = run.stdout.splitlines()
    assert first.startswith("pair 1 (this tree first): this ")
    assert first.endswith("; scipy.linalg loaded: this no, other no")
    assert last.startswith("fig8, 1 pairs: median this ")


def test_sweep_memory_reads_the_caller_and_each_lane():
    # a fig8 unit names springback, admm_l1 and dca_l12, so both lanes start
    run = _run_tool("sweep_memory.py", "fig8", "--units", "1")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("fig8: 1 units through run_experiment, ")
    assert re.fullmatch(
        r"this process \(pid \d+\): peak RSS \d+\.\d MiB \(getrusage\), scipy\.linalg not loaded",
        lines[1],
    )
    lanes = [re.fullmatch(r"solver lane (\d) \(pid (\d+)\): VmHWM \d+\.\d MiB", line) for line in lines[2:-1]]
    assert all(lanes), lines
    assert [lane.group(1) for lane in lanes] == ["0", "1"]
    assert len({lane.group(2) for lane in lanes}) == 2
    assert re.fullmatch(r"sum of the peaks: \d+\.\d MiB", lines[-1])


def test_report_diff_finds_no_difference_between_a_tree_and_its_copy(tmp_path):
    # the copy names fig8 alone, so the tool compares fig8 alone
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "springback" / "bench.py", "a") as bench:
        bench.write('\nPRESETS = ("fig8",)\n')
    run = _run_tool("report_diff.py", str(tmp_path), "--trials", "1")
    assert run.returncode == 0, run.stderr
    differ = [line for line in run.stdout.splitlines() if line.endswith(" differ")]
    assert differ
    assert all(re.fullmatch(r"(\w+: )?0 of \d+ \w+ differ", line) for line in differ), differ
    # per solver: outer steps, inner iterations here | the same in the copy
    work = re.findall(r"^  fig8 +\w+ +(\d+) +(\d+) \| +(\d+) +(\d+)$", run.stdout, re.M)
    assert work, run.stdout
    assert all(line[:2] == line[2:] for line in work), work
    # settable values: name, count here, count in the copy, change
    settable = re.findall(r"^  (\w+ (?:fields|options)) +(\d+) +(\d+) +([+-]\d+)$", run.stdout, re.M)
    assert [name for name, *_ in settable] == [
        "ExperimentSpec fields", "EnsembleSpec fields", "SignalSpec fields", "SolverOptions fields",
        "ThresholdParams fields", "RipProfile fields", "threshold options", "bounds options",
        "solve options", "bench options", "report options",
    ], run.stdout
    assert all(here == there != "0" and change == "+0" for _, here, there, change in settable), settable


def test_report_diff_closes_each_trees_lanes():
    # the next tree's import drops springback.bench from sys.modules, so
    # lanes left open would run beside the next tree's until exit
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import report_diff; "
        "report_diff.reports(report_diff.ROOT, 1, ['fig8']); "
        "assert sys.modules['springback.bench']._shared_lanes.processes == {}"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "tools")], capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr


def test_pool_check_finds_no_mismatch_for_admm_l1_on_fig8():
    run = _run_tool("pool_check.py", "fig8", "--solvers", "admm_l1")
    assert run.returncode == 0, run.stderr
    assert any(
        line.startswith("admm_l1: 0 status, 0 stable, 0 summary mismatches;")
        for line in run.stdout.splitlines()
    ), run.stdout
