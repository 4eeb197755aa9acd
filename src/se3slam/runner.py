"""Simulation loop: drives simulator -> observer -> metrics and writes outputs.

A run is a pure function of (scenario, seed): landmark placement, initial
estimate offsets, and measurement noise each draw from an independent child
stream of a single PCG64 seed sequence, so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import __version__
from .liegroup import Pose, exp_so3
from .metrics import ErrorRecord, evaluate
from .observer import ObserverState, resolve_attitude, step
from .scenario import RECONSTRUCTED, Scenario, set_parameter
from .simulator import measure, place_landmarks, truth_at


@dataclass(frozen=True)
class RunSummary:
    initial: ErrorRecord
    final: ErrorRecord
    steps: int
    degenerate_frames: int

    def convergence_factor(self, metric: str) -> float:
        """initial/final ratio for 'lyapunov', 'attitude', 'position', 'map',
        or 'relative_map' (map metrics use the worst landmark)."""
        pick = {
            "lyapunov": lambda r: r.lyapunov,
            "attitude": lambda r: r.attitude_error_angle,
            "position": lambda r: r.position_error,
            "map": lambda r: float(np.max(r.map_error)) if len(r.map_error) else 0.0,
            "relative_map": lambda r: float(np.max(r.relative_map_error))
            if len(r.relative_map_error)
            else 0.0,
        }[metric]
        num, den = pick(self.initial), pick(self.final)
        return np.inf if den == 0.0 else num / den


@dataclass(frozen=True)
class RunResult:
    records: list[ErrorRecord]
    summary: RunSummary
    provenance: dict


def initial_conditions(scenario: Scenario):
    """Landmark truth and initial observer state derived from the scenario seed."""
    lm_seq, init_seq, noise_seq = np.random.SeedSequence(scenario.seed).spawn(3)
    layout = scenario.landmarks
    if layout.positions is not None:
        landmarks = np.array(layout.positions, dtype=float)
    else:
        landmarks = place_landmarks(
            layout.count, layout.box.min, layout.box.max, np.random.default_rng(lm_seq)
        )

    truth0 = truth_at(scenario.trajectory, 0.0, landmarks)
    est = scenario.initial_estimate
    axis = np.asarray(est.attitude_error_axis, dtype=float)
    norm = np.linalg.norm(axis)
    rotvec = (
        est.attitude_error_rad * axis / norm if norm > 0.0 else np.zeros(3)
    )
    dcm0 = exp_so3(rotvec) @ truth0.pose.dcm
    position0 = truth0.pose.position + np.asarray(est.position_offset, dtype=float)
    rng_init = np.random.default_rng(init_seq)
    offsets = rng_init.uniform(
        -est.landmark_offset_scale, est.landmark_offset_scale, landmarks.shape
    )
    state0 = ObserverState(Pose(dcm0, position0), landmarks + offsets, 0.0)
    return landmarks, state0, np.random.default_rng(noise_seq)


def run(scenario: Scenario, scenario_hash: str | None = None) -> RunResult:
    """Execute the full simulate/estimate/score loop for one scenario."""
    landmarks, state, rng_noise = initial_conditions(scenario)
    dt = scenario.dt
    n_steps = int(round(scenario.duration / dt))

    # The truth at t_{k+1} scores step k and drives the measurement of step k+1.
    truth = truth_at(scenario.trajectory, 0.0, landmarks)
    records = [evaluate(state, truth, True)]
    reconstructed_mode = scenario.attitude_mode == RECONSTRUCTED
    last_good = None
    degenerate = 0

    for k in range(n_steps):
        meas = measure(truth, scenario.noise, rng_noise, k * dt)
        if reconstructed_mode:
            c_ba, ok = resolve_attitude(state, meas, fallback=last_good)
            if ok:
                last_good = c_ba
            else:
                degenerate += 1
        else:
            c_ba, ok = truth.pose.dcm, True
        state = step(state, meas, c_ba, scenario.gains, dt)
        truth = truth_at(scenario.trajectory, (k + 1) * dt, landmarks)
        records.append(evaluate(state, truth, ok))

    summary = RunSummary(records[0], records[-1], n_steps, degenerate)
    provenance = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "scenario_sha256": scenario_hash,
        "version": __version__,
    }
    return RunResult(records, summary, provenance)


def sweep(base: Scenario, param_path: str, values) -> list[RunResult]:
    """One deterministic run per value, index-aligned with the input list.

    Every value's scenario is built, and so checked, before the first run."""
    scenarios = [set_parameter(base, param_path, v) for v in values]
    return [run(scenario) for scenario in scenarios]


# 17 significant digits round-trip every float64 exactly.
_fmt = "{:.17g}".format


def csv_lines(records: list[ErrorRecord], decimate: int = 1) -> list[str]:
    """CSV serialization: every ``decimate``-th record plus the final one."""
    if decimate < 1:
        raise ValueError("decimate must be >= 1")
    n_lm = len(records[0].map_error)
    header = (
        ["t", "V", "att_err_rad", "pos_err_m"]
        + [f"map_err_{i + 1}" for i in range(n_lm)]
        + [f"rel_map_err_{i + 1}" for i in range(n_lm)]
        + ["att_source_ok"]
    )
    kept = records[::decimate]
    if kept[-1] is not records[-1]:
        kept.append(records[-1])
    lines = [",".join(header)]
    for r in kept:
        values = [r.time, r.lyapunov, r.attitude_error_angle, r.position_error]
        values += r.map_error.tolist()
        values += r.relative_map_error.tolist()
        flag = ",1" if r.attitude_source_ok else ",0"
        lines.append(",".join(map(_fmt, values)) + flag)
    return lines


def write_csv(records: list[ErrorRecord], path, decimate: int = 1) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(csv_lines(records, decimate)) + "\n")


def summary_lines(result: RunResult) -> list[str]:
    s = result.summary
    lines = [
        f"scenario: {result.provenance['scenario']}",
        f"seed: {result.provenance['seed']}",
        f"scenario_sha256: {result.provenance['scenario_sha256']}",
        f"version: {result.provenance['version']}",
        f"steps: {s.steps}",
        f"degenerate_frames: {s.degenerate_frames}",
        f"initial_V: {_fmt(s.initial.lyapunov)}",
        f"final_V: {_fmt(s.final.lyapunov)}",
        f"initial_att_err_rad: {_fmt(s.initial.attitude_error_angle)}",
        f"final_att_err_rad: {_fmt(s.final.attitude_error_angle)}",
        f"initial_pos_err_m: {_fmt(s.initial.position_error)}",
        f"final_pos_err_m: {_fmt(s.final.position_error)}",
    ]
    for metric in ("lyapunov", "attitude", "position", "map", "relative_map"):
        lines.append(f"convergence_factor_{metric}: {_fmt(s.convergence_factor(metric))}")
    return lines


def write_summary(result: RunResult, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(summary_lines(result)) + "\n")
