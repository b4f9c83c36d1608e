"""Self-test of the benchmark at tiny sizes.

Runs every workload on one round of the first two sweep points of its
preset, untraced and traced, on the default seed and on another one, and
checks that each run passes the output check and prints every metric of
BENCHMARK.json with its unit.  Also checks that the tracer reports a missing layer as absent and
that the benchmark refuses to run without the package sources.  Run from the repository root (about a minute):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from tracing import Tracer
from workloads import OUT_DIR, WORKLOADS, import_springback

RUN = os.path.join("perfbench", "run.py")  # relative to the checkout the run starts in


def run(workload: str, seed: int, trace: int, cwd: str = ".") -> subprocess.CompletedProcess:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.01", "--trace", str(trace), "--points", "2"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, expected: dict[str, str], label: str) -> list[str]:
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{label}: output check failed: {proc.stdout}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        errors.append(f"{label}: metrics {sorted(set(got) ^ set(expected))} differ from BENCHMARK.json")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            errors.append(f"{label}: {name} is not a number")
        if f"{name} " not in proc.stdout:
            errors.append(f"{label}: {name} not printed by name")
    return errors


def check_absent_layer() -> list[str]:
    """A layer whose names are gone is reported absent, and the rest traced."""
    springback = import_springback(os.getcwd())
    sensing = springback.sensing
    del springback.sensing
    tracer = Tracer()
    try:
        tracer.install(springback)
        springback.linalg.l2_ball_project([3.0, 4.0], 1.0)
    finally:
        tracer.uninstall()
        springback.sensing = sensing
    names = {s[1] for s in tracer.spans}
    if tracer.absent_layers() != ["sensing"] or names != {"linalg.ball_project"}:
        return [f"absent-layer check: absent {tracer.absent_layers()}, traced {sorted(names)}"]
    return []


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {trace: {m["name"]: m["unit"] for m in spec[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        print("BENCHMARK.json names a workload that workloads.WORKLOADS lacks")
        return 1
    errors = check_absent_layer()
    for name in WORKLOADS:
        for seed, trace in ((0, 0), (0, 1), (7, 0)):
            label = f"{name} seed {seed} trace {trace}"
            found = check_result(run(name, seed, trace), units[trace], label)
            print(f"{label}: {'FAILED' if found else 'ok'}", flush=True)
            errors += found

    os.makedirs(OUT_DIR, exist_ok=True)
    lone = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        shutil.copy("BENCHMARK.json", lone)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(lone, path), ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("gauss-fig4", 0, 0, cwd=lone)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append("without the package sources the benchmark did not fail cleanly")
    finally:
        shutil.rmtree(lone)

    for err in errors:
        print(err)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
