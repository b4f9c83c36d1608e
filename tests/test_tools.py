"""Tests for the measurement scripts under tools/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_setup_time_runs_a_pair_of_a_tree_against_itself():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "setup_time.py"), str(ROOT), "--pairs", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    first, last = run.stdout.splitlines()
    assert first.startswith("pair 1 (this tree first): this ")
    assert first.endswith("; scipy.linalg loaded: this no, other no")
    assert last.startswith("fig8, 1 pairs: median this ")
