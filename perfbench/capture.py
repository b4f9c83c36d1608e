"""Capture the output-check reference of one or more presets.

For every sweep point and every master seed of the pool, runs the unit (the
preset cut down to that point, one trial) and stores in
``perfbench/reference/<preset>.json``, per solver: the success and
acceptance rates of summary.csv, and the status, log10 relative error and
(on noisy presets) stable-recovery bit of records.csv.

Run from the repository root:

    python3 perfbench/capture.py fig4 fig5 fig8
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from workloads import (
    OUT_DIR,
    POOL_SIZE,
    import_springback,
    record_outcomes,
    reference_path,
    stable_tol,
    summary_rows,
    unit_key,
    unit_spec,
)


def capture(springback, preset: str) -> None:
    bench = springback.bench
    out = os.path.join(OUT_DIR, f"capture-{preset}")
    points = bench.preset_spec(preset).sweep_values
    units = {}
    for i, value in enumerate(points):
        t0 = time.perf_counter()
        for master in range(POOL_SIZE):
            spec = unit_spec(bench, preset, i, master)
            rows, records = bench.run_experiment(spec)
            bench.emit_results(rows, records, out, spec)
            units[unit_key(value, master)] = {
                "summary": summary_rows(os.path.join(out, "summary.csv")),
                "records": record_outcomes(os.path.join(out, "records.csv"), stable_tol(spec)),
            }
        print(f"{preset} point {value}: {POOL_SIZE} units in {time.perf_counter() - t0:.3f} s", flush=True)
    shutil.rmtree(out)
    os.makedirs(os.path.dirname(reference_path(preset)), exist_ok=True)
    with open(reference_path(preset), "w") as fh:
        json.dump({"preset": preset, "pool_size": POOL_SIZE, "units": units}, fh, indent=0)
        fh.write("\n")


def main(argv: list[str]) -> int:
    os.environ["SPRINGBACK_WORKERS"] = "1"
    springback = import_springback(os.getcwd())
    for preset in argv or ["fig4", "fig5", "fig8"]:
        capture(springback, preset)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
