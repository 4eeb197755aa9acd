"""The benchmark's workloads: which scenario a job runs and how its output is checked.

A job is what ``se3slam run`` does once the interpreter is up: load the
scenario file, override its seed, call ``run()`` (or ``sweep()``), then write
the CSV and the summary. Job 0 of every run uses the workload's reference seed
and is compared with ``reference.json``; later jobs use seeds drawn from the
benchmark's ``--seed`` and are held to the convergence bounds below, which hold
for every seed tried (see README.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

# The generated dense scenario: a tumbling body among 256 landmarks in a
# +-5 m box, Student-t (dof 3) noise on every channel, the bundled gains, and
# short 100-step runs so that per-landmark arrays and the 517-column CSV,
# not the step count, set the cost.
DENSE_SCENARIO = """\
schema_version: 1
name: dense_sweep
seed: {seed}
duration: 0.5
dt: 0.005
attitude_mode: true_attitude
gains: {{k1: 2.0, k2: 1.0, k3: 12.0}}
trajectory:
  family: tumble
  radius: 2.0
  angular_rate: 0.5
  tumble_amplitude: [0.6, 0.4, 0.5]
  initial_position: [2.0, 0.0, 0.5]
landmarks:
  count: 256
  box: {{min: [-5.0, -5.0, -5.0], max: [5.0, 5.0, 5.0]}}
noise:
  omega: {{family: student_t, scale: 0.01, dof: 3.0}}
  velocity: {{family: student_t, scale: 0.01, dof: 3.0}}
  landmark: {{family: student_t, scale: 0.05, dof: 3.0}}
initial_estimate:
  attitude_error_rad: 0.5
  attitude_error_axis: [1.0, 2.0, 3.0]
  position_offset: [0.8, -0.5, 0.4]
  landmark_offset_scale: 1.0
"""


@dataclass(frozen=True)
class Workload:
    name: str
    bundled: str | None  # scenario file under scenarios/, or None if generated
    reference_seed: int
    sweep_size: int  # 0: one run() per job; n: one sweep() over n seeds
    steps: int  # observer steps per run() call
    # Bounds every run must meet whatever its seed (final values of a run).
    max_final_v: float | None = None
    max_final_att_rad: float | None = None
    max_final_rel_map_m: float | None = None
    v_must_decrease: bool = False

    def scenario_path(self, root: Path, seed: int, workdir: Path) -> Path:
        """The scenario file a run of this workload loads; a generated one goes to workdir."""
        if self.bundled is not None:
            return root / "scenarios" / self.bundled
        path = workdir / f"{self.name}.yaml"
        path.write_text(DENSE_SCENARIO.format(seed=seed))
        return path

    def job_seeds(self, seed: int):
        """Scenario seeds of jobs 0, 1, ...; job 0 runs the reference seed."""
        yield self.reference_seed
        rng = np.random.default_rng(seed)
        while True:
            yield int(rng.integers(0, 2**31))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scenario_true",
            bundled="fig3_noisy.yaml",
            reference_seed=42,
            sweep_size=0,
            steps=4000,
            # Ten seeds gave final V <= 6.3e-4, attitude <= 1.0e-3 rad and
            # worst relative-map error <= 2.5e-2 m.
            max_final_v=1e-2,
            max_final_att_rad=1e-2,
            max_final_rel_map_m=0.1,
        ),
        Workload(
            name="scenario_reconstructed",
            bundled="reconstructed.yaml",
            reference_seed=42,
            sweep_size=0,
            steps=4000,
            # Only relative quantities are observable here; ten seeds gave a
            # worst relative-map error <= 4.1e-6 m.
            max_final_rel_map_m=1e-4,
        ),
        Workload(
            name="dense_sweep",
            bundled=None,
            reference_seed=0,
            sweep_size=4,
            steps=100,
            v_must_decrease=True,
        ),
    )
}


def summary_values(result) -> dict:
    """The final-state values of one run that the reference file records."""
    final = result.summary.final
    return {
        "steps": result.summary.steps,
        "degenerate_frames": result.summary.degenerate_frames,
        "final_V": final.lyapunov,
        "final_att_err_rad": final.attitude_error_angle,
        "final_pos_err_m": final.position_error,
        "final_worst_rel_map_err_m": float(np.max(final.relative_map_error)),
    }


def check_run(workload: Workload, result) -> list[str]:
    """Problems with one run() result that must hold for every seed."""
    problems = []
    values = summary_values(result)
    if values["steps"] != workload.steps or len(result.records) != workload.steps + 1:
        problems.append(f"expected {workload.steps} steps, got {values['steps']}")
    if not all(math.isfinite(v) for v in values.values()):
        problems.append(f"non-finite final values: {values}")
        return problems
    limits = (
        ("final_V", workload.max_final_v),
        ("final_att_err_rad", workload.max_final_att_rad),
        ("final_worst_rel_map_err_m", workload.max_final_rel_map_m),
    )
    for key, limit in limits:
        if limit is not None and not values[key] <= limit:
            problems.append(f"{key} = {values[key]:.6g} exceeds {limit:g}")
    if workload.v_must_decrease and not values["final_V"] < result.summary.initial.lyapunov:
        problems.append("energy V did not decrease over the run")
    return problems


def check_reference(results, expected: dict) -> list[str]:
    """Problems comparing reference-seed results with the recorded values."""
    rtol, atol = expected["rtol"], expected["atol"]
    runs = expected["runs"]
    if len(results) != len(runs):
        return [f"expected {len(runs)} runs, got {len(results)}"]
    problems = []
    for i, (result, want) in enumerate(zip(results, runs)):
        got = summary_values(result)
        for key, value in want.items():
            if key in ("steps", "degenerate_frames"):
                ok = got[key] == value
            else:
                ok = math.isclose(got[key], value, rel_tol=rtol, abs_tol=atol)
            if not ok:
                problems.append(f"run {i}: {key} = {got[key]!r}, reference {value!r}")
    return problems
