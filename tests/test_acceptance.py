"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite also runs (more quietly) under a plain ``pytest``.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import SCENARIO_DIR, random_rotation
from se3slam.attitude import solve_attitude
from se3slam.errors import DegenerateGeometry
from se3slam.liegroup import exp_se3, exp_so3, hat, homogeneous, rotation_angle
from se3slam.observer import Gains, ObserverState, step
from se3slam.runner import csv_lines, run
from se3slam.scenario import load_scenario
from se3slam.simulator import NoiseSpec, TrajectorySpec, measure, truth_at


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def load(name):
    scenario, digest = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    return scenario


@pytest.fixture(scope="module")
def noisefree_result():
    scenario = load("fig3_noisefree")
    t0 = time.perf_counter()
    result = run(scenario)
    return result, time.perf_counter() - t0


def test_criterion_1_noisefree_convergence(noisefree_result):
    result, elapsed = noisefree_result
    first, last = result.summary.initial, result.summary.final
    checks = {
        "final attitude error < 1e-3 rad": last.attitude_error_angle < 1e-3,
        "final position error < 1e-3 m": last.position_error < 1e-3,
        "every final map error < 1e-3 m": bool(np.all(last.map_error < 1e-3)),
        "attitude reduced >= 100x": last.attitude_error_angle
        <= first.attitude_error_angle / 100.0,
        "position reduced >= 100x": last.position_error <= first.position_error / 100.0,
        "map reduced >= 100x": bool(
            np.all(last.map_error <= first.map_error / 100.0)
        ),
        "runtime < 5 s": elapsed < 5.0,
    }
    detail = (
        f"att {last.attitude_error_angle:.2e} rad, pos {last.position_error:.2e} m, "
        f"map {np.max(last.map_error):.2e} m, {elapsed:.2f} s"
    )
    report("criterion 1: noise-free convergence", all(checks.values()),
           detail + "".join(f"; FAILED {k}" for k, v in checks.items() if not v))


def test_criterion_2_lyapunov_monotonicity(noisefree_result):
    result, _ = noisefree_result
    v = result.records.lyapunov
    coarse_ok = bool(np.all(v[1:] <= v[:-1] + 1e-9 * np.maximum(1.0, v[:-1])))

    fine = dataclasses.replace(load("fig3_noisefree"), dt=0.0005)
    vf = run(fine).records.lyapunov
    fine_ok = bool(np.all(vf[1:] <= vf[:-1] + 1e-11 * np.maximum(1.0, vf[:-1])))

    worst = float(np.max(v[1:] - v[:-1] - 1e-9 * np.maximum(1.0, v[:-1])))
    worst_f = float(np.max(vf[1:] - vf[:-1] - 1e-11 * np.maximum(1.0, vf[:-1])))
    report(
        "criterion 2: Lyapunov monotonicity",
        coarse_ok and fine_ok,
        f"margins: dt=0.005 {worst:.2e}, dt=0.0005 {worst_f:.2e}",
    )


def test_criterion_3_equilibrium_fixed_point():
    scenario = load("fig3_noisefree")
    scenario = dataclasses.replace(
        scenario,
        initial_estimate=dataclasses.replace(
            scenario.initial_estimate,
            attitude_error_rad=0.0,
            position_offset=(0.0, 0.0, 0.0),
            landmark_offset_scale=0.0,
        ),
    )
    records = run(scenario).records
    worst = max(
        records.attitude_error_angle.max(),
        records.position_error.max(),
        records.map_error.max(),
    )
    report("criterion 3: equilibrium fixed point", worst < 1e-6, f"worst error {worst:.2e}")


def test_criterion_4_reconstructed_observability_split():
    result = run(load("reconstructed"))
    first, last = result.summary.initial, result.summary.final
    rel_ok = bool(np.all(last.relative_map_error <= first.relative_map_error / 100.0))
    # global map error is recorded but deliberately not asserted: with a
    # reconstructed attitude only relative quantities are observable
    report(
        "criterion 4: reconstructed-attitude observability split",
        rel_ok,
        f"rel map {np.max(first.relative_map_error):.3g} -> {np.max(last.relative_map_error):.3g} m; "
        f"global map (reported only) {np.max(last.map_error):.3g} m",
    )


def _tail_ratios(scenario, seed):
    result = run(dataclasses.replace(scenario, seed=seed))
    records = result.records
    tail = records.time >= scenario.duration - 5.0
    att = np.mean(records.attitude_error_angle[tail])
    lm = np.mean(np.mean(records.map_error[tail], axis=1))
    first = result.summary.initial
    return att / first.attitude_error_angle, lm / np.mean(first.map_error)


@pytest.mark.parametrize("name", ["fig3_noisy", "heavytail"])
def test_criterion_5_noise_robustness(name):
    scenario = load(name)
    ratios = np.array([_tail_ratios(scenario, seed) for seed in range(10)])
    ok = bool(np.all(ratios < 0.2))
    report(
        f"criterion 5: noise robustness ({name})",
        ok,
        f"worst tail/initial ratios att {ratios[:, 0].max():.3g}, map {ratios[:, 1].max():.3g}",
    )


def test_criterion_6_wahba_oracle_equivalence():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 11))
        while True:
            datum = rng.normal(size=(n, 3))
            if np.linalg.matrix_rank(datum, tol=1e-3) >= 2:
                break
        r = random_rotation(rng)
        recovered = solve_attitude(datum @ r.T, datum)
        worst = max(worst, float(np.abs(recovered - r).max()))
    exact_ok = worst < 1e-10

    degenerate_raised = 0
    for _ in range(100):
        direction = rng.normal(size=3)
        scales = rng.uniform(0.5, 2.0, size=(4, 1))
        datum = scales * direction
        try:
            solve_attitude(datum @ random_rotation(rng).T, datum)
        except DegenerateGeometry:
            degenerate_raised += 1
    report(
        "criterion 6: Wahba oracle equivalence",
        exact_ok and degenerate_raised == 100,
        f"worst recovery {worst:.2e}, degenerate raised {degenerate_raised}/100",
    )


def test_criterion_7_lie_group_invariants():
    rng = np.random.default_rng(7)
    import scipy.linalg

    hatvee_ok = all(
        np.array_equal(
            np.array([m[2, 1], m[0, 2], m[1, 0]]), v
        )
        for v in rng.normal(size=(100, 3))
        for m in [hat(v)]
    )

    axis_ok = True
    for axis, closed in [
        ((1, 0, 0), lambda t: np.array([[1, 0, 0], [0, np.cos(t), -np.sin(t)], [0, np.sin(t), np.cos(t)]])),
        ((0, 1, 0), lambda t: np.array([[np.cos(t), 0, np.sin(t)], [0, 1, 0], [-np.sin(t), 0, np.cos(t)]])),
        ((0, 0, 1), lambda t: np.array([[np.cos(t), -np.sin(t), 0], [np.sin(t), np.cos(t), 0], [0, 0, 1]])),
    ]:
        for t in rng.uniform(-np.pi, np.pi, size=20):
            if not np.allclose(exp_so3(np.array(axis) * t), closed(t), atol=1e-12):
                axis_ok = False

    se3_ok = True
    for _ in range(100):
        omega = rng.normal(size=3) * rng.uniform(0, 3)
        v = rng.normal(size=3) * 2
        twist = np.zeros((4, 4))
        twist[:3, :3] = hat(omega)
        twist[:3, 3] = v
        if not np.allclose(homogeneous(*exp_se3(omega, v)), scipy.linalg.expm(twist), atol=1e-10):
            se3_ok = False

    # orthonormality drift after 1e5 observer steps, made by one stacked step
    # call (which has the bits of 1e5 one-step calls); their truth comes from
    # one stacked truth_at and their measurements from one stacked measure,
    # whose rows have the bits of one-instant calls
    spec = TrajectorySpec("tumble", radius=1.0, angular_rate=0.8, tumble_amplitude=(0.3, 0.2, 0.4))
    landmarks = np.array([[0.0, 0.0, 0.0], [2.0, 1.0, -0.5]])
    gains = Gains(2.0, 1.0, 12.0)
    dt = 0.005
    steps = 100_000
    truths = truth_at(spec, np.arange(steps) * dt, landmarks)
    truth0 = truths.row(0)
    state = ObserverState(
        exp_so3([0.2, -0.1, 0.15]) @ truth0.dcm, truth0.position + 0.5, landmarks + 0.3
    )
    meas = measure(truths, NoiseSpec(), np.random.default_rng(0))
    state = step(state, meas, truths.dcm, gains, dt).row(-1)
    drift = float(np.linalg.norm(state.dcm.T @ state.dcm - np.eye(3)))
    drift_ok = drift < 1e-9

    report(
        "criterion 7: Lie-group invariant suite",
        hatvee_ok and axis_ok and se3_ok and drift_ok,
        f"drift after 1e5 steps {drift:.2e}",
    )


@pytest.mark.parametrize("name", ["fig3_noisy", "reconstructed"])
def test_criterion_8_determinism(tmp_path, name):
    from se3slam.cli import main

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    path = str(SCENARIO_DIR / f"{name}.yaml")
    assert main(["run", path, "--out", str(out_a)]) == 0
    assert main(["run", path, "--out", str(out_b)]) == 0
    a = (out_a / f"{name}.csv").read_bytes()
    b = (out_b / f"{name}.csv").read_bytes()
    report(f"criterion 8: byte-identical CSV per (scenario, seed), {name}", a == b,
           f"{len(a)} bytes")


def test_criterion_9_integrator_order():
    base = load("fig3_noisefree")
    tumble = TrajectorySpec(
        "tumble",
        radius=1.5,
        angular_rate=0.9,
        tumble_amplitude=(0.4, 0.3, 0.5),
        initial_position=base.trajectory.initial_position,
        initial_rotation=base.trajectory.initial_rotation,
    )
    scenario = dataclasses.replace(
        base,
        trajectory=tumble,
        duration=2.0,
        initial_estimate=dataclasses.replace(
            base.initial_estimate,
            attitude_error_rad=0.0,
            position_offset=(0.0, 0.0, 0.0),
            landmark_offset_scale=0.0,
        ),
    )

    # compare final pose estimates between runs directly, against a dt/100
    # reference integration of the same scenario
    from se3slam.runner import initial_conditions

    def integrate(dt):
        landmarks, _, state, rng_noise = initial_conditions(dataclasses.replace(scenario, dt=dt))
        n = int(round(scenario.duration / dt))
        truths = truth_at(tumble, np.arange(n) * dt, landmarks)
        meas = measure(truths, scenario.noise, rng_noise)
        return step(state, meas, truths.dcm, scenario.gains, dt).row(-1)

    dt = 0.02
    ref = integrate(dt / 100.0)

    def dist(state):
        return rotation_angle(state.dcm @ ref.dcm.T) + float(
            np.linalg.norm(state.position - ref.position)
        )

    err_full = dist(integrate(dt))
    err_half = dist(integrate(dt / 2.0))
    ratio = err_full / err_half
    report(
        "criterion 9: integrator order",
        1.7 <= ratio <= 2.3,
        f"error ratio dt vs dt/2 = {ratio:.3f}",
    )
