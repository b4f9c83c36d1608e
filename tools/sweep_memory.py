"""Peak memory of a sweep's process and of each solver lane it started.

Runs N units of a preset through ``bench.run_experiment``, as the benchmark
does: unit i is sweep point i mod P (P points) with one trial, at master
seed i div P.  It then prints the peak resident set of this process, from
``getrusage``, which is what the benchmark's ``peak_rss_mb`` reads, and
whether this process loaded ``scipy.linalg``.  Beside it, it prints the
``VmHWM`` (peak resident set, from ``/proc/<pid>/status``) of each lane of
this process's one pair of solver lanes (``bench._shared_lanes``) that is
running when the sweeps end, and the sum of the peaks.  A lane starts at
the first trial that needs it.

Run from the repository root (Linux only):

    python3 tools/sweep_memory.py fig4
    python3 tools/sweep_memory.py fig8 --units 42
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import import_springback, unit_spec  # noqa: E402


def peak_mib(pid: int) -> float | None:
    """VmHWM of a process in MiB, or None once it has exited."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("preset", help="fig4, fig5, fig7 or fig8")
    parser.add_argument("--units", type=int, default=36, help="units to run (default 36)")
    args = parser.parse_args(argv)
    if args.units < 1:
        parser.error("--units must be at least 1")
    bench = import_springback(ROOT).bench
    if args.preset not in bench.PRESETS:
        parser.error(f"unknown preset {args.preset!r}; the presets are {', '.join(bench.PRESETS)}")
    points = len(bench.preset_spec(args.preset).sweep_values)
    t0 = time.perf_counter()
    for i in range(args.units):
        bench.run_experiment(unit_spec(bench, args.preset, i % points, i // points))
    print(f"{args.preset}: {args.units} units through run_experiment, {time.perf_counter() - t0:.1f} s")
    caller = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"this process (pid {os.getpid()}): peak RSS {caller:.1f} MiB (getrusage), "
          f"scipy.linalg {'loaded' if 'scipy.linalg' in sys.modules else 'not loaded'}")
    total = caller
    for lane, process in sorted(bench._shared_lanes.processes.items()):
        peak = peak_mib(process.pid)
        print(f"solver lane {lane} (pid {process.pid}): VmHWM "
              + (f"{peak:.1f} MiB" if peak is not None else "unread, the lane has exited"))
        total += peak or 0.0
    print(f"sum of the peaks: {total:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
