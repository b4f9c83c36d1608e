"""Peak memory of a sweep's process and of each process it starts.

Runs N units of a preset through ``bench.run_experiment``, as the benchmark
does: unit i is sweep point i mod P (P points) with one trial, at master
seed i div P.  It then prints the peak resident set of this process, from
``getrusage``, which is what the benchmark's ``peak_rss_mb`` reads, and
beside it the ``VmHWM`` (peak resident set) of each child process still
alive, from ``/proc/<pid>/status``: the two solver lanes that every sweep
runs in.  A child that exited before the end is not seen.

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


def children() -> list[int]:
    """Pids of this process's live children, ascending."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # exited while listed
            continue
        # the field after ") " is the state, then the parent pid
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            found.append(int(entry))
    return sorted(found)


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
    print(f"this process (pid {os.getpid()}): peak RSS "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MiB (getrusage)")
    pids = children()
    for pid in pids:
        peak = peak_mib(pid)
        if peak is not None:
            print(f"child process (pid {pid}): VmHWM {peak:.1f} MiB")
    if not pids:
        print("no child process")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
