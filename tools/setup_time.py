"""Time a fresh process's set-up in this tree against another checkout, in pairs.

Each probe is a fresh interpreter that runs the benchmark's own set-up probe,
``perfbench/run.py``'s ``SETUP_PROBE`` at its ``WARMUP_MASTER_SEED``: it
imports ``springback`` from a tree's ``src/``, builds the preset's one-trial
spec and runs one in-process ``bench.run_trial(spec, 0, 0)``, the work the
benchmark's ``setup_s`` times, interpreter start included.  Each pair runs
one probe per tree, and the pairs alternate which tree goes first, so that a
drift of the machine's speed falls on both sides.  Per pair it prints both
wall times, their ratio (this tree / the other) and whether each probe
loaded ``scipy.linalg``; last, each tree's median time and the median ratio.

Run from the repository root, with the other tree made by, for example,
``git archive HEAD | tar -x -C ../parent``:

    python3 tools/setup_time.py ../parent
    python3 tools/setup_time.py ../parent --preset fig4 --pairs 20

Exits with status 1 when a probe fails.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import SETUP_PROBE, WARMUP_MASTER_SEED  # noqa: E402

# The benchmark's probe, then the package it imported and whether
# scipy.linalg was loaded.
PROBE = SETUP_PROBE + 'print(bench.__file__, "scipy.linalg" in sys.modules)\n'


def probe(tree: str, preset: str) -> tuple[float, bool]:
    """Wall time of one probe of ``tree`` and whether it loaded scipy.linalg."""
    src = os.path.join(tree, "src")
    t0 = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-c", PROBE, src, preset, str(WARMUP_MASTER_SEED)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.perf_counter() - t0
    if run.returncode != 0:
        print(f"error: the probe of {tree} failed:\n{run.stderr}", file=sys.stderr)
        raise SystemExit(1)
    path, loaded = run.stdout.split()
    if not path.startswith(src + os.sep):
        print(f"error: the probe of {tree} imported {path}", file=sys.stderr)
        raise SystemExit(1)
    return elapsed, loaded == "True"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_tree", help="root of the checkout to compare against")
    parser.add_argument("--preset", default="fig8", help="preset of the trial (default fig8)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of probes (default 10)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    other = os.path.abspath(args.other_tree)
    if not os.path.isfile(os.path.join(other, "src", "springback", "__init__.py")):
        parser.error(f"no springback package under {os.path.join(other, 'src')!r}")
    trees = (ROOT, other)  # side 0 is this tree, side 1 the other, which may be the same
    times: tuple[list[float], list[float]] = ([], [])
    ratios = []
    for pair in range(args.pairs):
        loaded = [False, False]
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            elapsed, loaded[side] = probe(trees[side], args.preset)
            times[side].append(elapsed)
        ratios.append(times[0][-1] / times[1][-1])
        print(
            f"pair {pair + 1} ({'this' if pair % 2 == 0 else 'the other'} tree first): "
            f"this {times[0][-1]:.3f} s, other {times[1][-1]:.3f} s, ratio {ratios[-1]:.3f}; "
            f"scipy.linalg loaded: this {'yes' if loaded[0] else 'no'}, "
            f"other {'yes' if loaded[1] else 'no'}"
        )
    faster = sum(r < 1.0 for r in ratios)
    print(
        f"{args.preset}, {args.pairs} pairs: median this {statistics.median(times[0]):.3f} s, "
        f"other {statistics.median(times[1]):.3f} s, ratio {statistics.median(ratios):.3f}; "
        f"this tree faster in {faster} of {args.pairs}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
