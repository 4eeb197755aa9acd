"""Rewrite bench/reference.json from the current code: the final values of each
workload's reference-seed job, which every benchmark run checks its job 0 against.

    python3 bench/record_reference.py

Run it only when a change to se3slam is meant to change outputs, and say so.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from job import run_job
from startup import ROOT, import_package
from tracer import TIMING_TARGETS, Tracer
from workloads import REFERENCE_FILE, WORKLOADS, summary_values

# Outputs are a deterministic function of (scenario, seed) on one machine;
# the tolerance absorbs last-digit differences between numpy/BLAS builds.
RTOL = 1e-6
ATOL = 1e-12


def main() -> None:
    runner, scenario = import_package()
    workdir = ROOT / ".bench_tmp"
    workdir.mkdir(exist_ok=True)
    reference = {}
    for name, workload in WORKLOADS.items():
        path = workload.scenario_path(ROOT, workload.reference_seed, workdir)
        with tempfile.TemporaryDirectory(dir=workdir) as out, Tracer(TIMING_TARGETS) as tracer:
            results = run_job(
                workload, runner, scenario, tracer, path, workload.reference_seed, Path(out)
            )
        reference[name] = {
            "seed": workload.reference_seed,
            "rtol": RTOL,
            "atol": ATOL,
            "runs": [summary_values(r) for r in results],
        }
        print(name, json.dumps(reference[name]["runs"]))
    REFERENCE_FILE.write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
