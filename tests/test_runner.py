import dataclasses

import numpy as np
import pytest

from conftest import SCENARIO_DIR
from se3slam import runner
from se3slam.errors import ConfigInvalid
from se3slam.metrics import ErrorRecord, evaluate
from se3slam.observer import resolve_attitude, step
from se3slam.runner import csv_lines, initial_conditions, run, sweep, write_csv
from se3slam.scenario import RECONSTRUCTED, load_scenario, set_parameter
from se3slam.simulator import TrajectorySpec, measure, truth_at


@pytest.fixture(scope="module")
def noisefree():
    scenario, _ = load_scenario(SCENARIO_DIR / "fig3_noisefree.yaml")
    return scenario


@pytest.fixture(scope="module")
def short(noisefree):
    return dataclasses.replace(noisefree, duration=1.0, dt=0.05)


def test_record_count_includes_t0(noisefree):
    scenario = dataclasses.replace(noisefree, duration=1.0, dt=0.5)
    result = run(scenario)
    assert result.summary.steps == 2
    assert len(result.records) == 3
    assert result.records[0].time == 0.0


def test_records_time_ordered(short):
    result = run(short)
    times = [r.time for r in result.records]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_run_deterministic(short):
    a = run(short)
    b = run(short)
    assert csv_lines(a.records) == csv_lines(b.records)


def test_summary_final_matches_last_record(short):
    result = run(short)
    last = result.records[-1]
    assert result.summary.final is last
    assert result.summary.final.lyapunov == last.lyapunov


def test_csv_shape_and_header(short):
    result = run(short)
    lines = csv_lines(result.records)
    header = lines[0].split(",")
    n = 8
    assert header[:4] == ["t", "V", "att_err_rad", "pos_err_m"]
    assert header[4] == "map_err_1" and header[3 + n] == "map_err_8"
    assert header[4 + n] == "rel_map_err_1" and header[-2] == "rel_map_err_8"
    assert header[-1] == "att_source_ok"
    assert len(lines) == len(result.records) + 1
    assert all(len(line.split(",")) == len(header) for line in lines[1:])


def _per_field_row(r):
    # one format call per field, numpy scalars formatted as themselves
    values = [r.time, r.lyapunov, r.attitude_error_angle, r.position_error]
    fields = [f"{x:.17g}" for x in [*values, *r.map_error, *r.relative_map_error]]
    return ",".join(fields + ["1" if r.attitude_source_ok else "0"])


def test_csv_roundtrip_lossless(short, tmp_path):
    result = run(short)
    path = tmp_path / "out.csv"
    write_csv(result.records, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data["V"][0] == result.records[0].lyapunov
    assert data["t"][-1] == result.records[-1].time
    edge = ErrorRecord(
        time=0.1,
        lyapunov=5e-324,
        attitude_error_angle=np.float64(1.0) / 3.0,
        position_error=1e300,
        map_error=np.array([-0.0, np.inf, np.nan]),
        relative_map_error=np.array([2.0**-1030, 1.7976931348623157e308, 123456789.123456789]),
        attitude_source_ok=False,
    )
    assert path.read_text().splitlines()[1:] == [_per_field_row(r) for r in result.records]
    assert csv_lines([edge])[1] == _per_field_row(edge)


def test_decimation_keeps_final(short):
    result = run(short)
    lines = csv_lines(result.records, decimate=7)
    kept = len(result.records[::7])
    expect = kept if result.records[::7][-1] is result.records[-1] else kept + 1
    assert len(lines) == expect + 1
    assert lines[-1] == csv_lines(result.records)[-1]


def test_sweep_singleton_matches_run(short):
    direct = run(set_parameter(short, "gains.k1", 3.0))
    swept = sweep(short, "gains.k1", [3.0])
    assert len(swept) == 1
    assert csv_lines(swept[0].records) == csv_lines(direct.records)


def test_sweep_checks_every_value_before_running(noisefree, monkeypatch):
    calls = []
    monkeypatch.setattr(runner, "run", calls.append)
    with pytest.raises(ConfigInvalid, match="^dt: must be > 0"):
        sweep(noisefree, "dt", [0.005, -1])
    assert calls == []


def test_sweep_zero_noise_matches_noisefree(noisefree):
    scenario, _ = load_scenario(SCENARIO_DIR / "fig3_noisy.yaml")
    scenario = dataclasses.replace(scenario, duration=1.0, dt=0.05, name="fig3_noisefree")
    base = dataclasses.replace(noisefree, duration=1.0, dt=0.05)
    swept = sweep(scenario, "noise.omega.scale", [0.0])
    # zeroing one channel is not enough; zero them all and compare
    zeroed = set_parameter(
        set_parameter(set_parameter(scenario, "noise.omega.scale", 0.0), "noise.velocity.scale", 0.0),
        "noise.landmark.scale",
        0.0,
    )
    assert csv_lines(run(zeroed).records) == csv_lines(run(base).records)
    assert len(swept) == 1


def test_sweep_dt_reduces_final_error(noisefree):
    # order-1 integrator: once the transient has decayed, the residual error
    # on a non-screw trajectory is discretization-dominated and shrinks with dt
    from se3slam.simulator import TrajectorySpec

    tumble = TrajectorySpec(
        "tumble",
        radius=1.5,
        angular_rate=0.9,
        tumble_amplitude=(0.4, 0.3, 0.5),
        initial_pose=noisefree.trajectory.initial_pose,
    )
    scenario = dataclasses.replace(noisefree, trajectory=tumble, duration=8.0)
    results = sweep(scenario, "dt", [0.01, 0.001])
    errs = [r.summary.final.attitude_error_angle for r in results]
    assert errs[1] < errs[0]


def test_provenance_fields(short):
    result = run(short, scenario_hash="abc123")
    assert result.provenance["scenario"] == short.name
    assert result.provenance["seed"] == short.seed
    assert result.provenance["scenario_sha256"] == "abc123"


def reference_records(scenario):
    """The run loop written plainly over the public API, two truth evaluations per step."""
    landmarks, state, rng_noise = initial_conditions(scenario)
    traj, dt = scenario.trajectory, scenario.dt
    records = [evaluate(state, truth_at(traj, 0.0, landmarks))]
    last_good = None
    for k in range(int(round(scenario.duration / dt))):
        truth = truth_at(traj, k * dt, landmarks)
        meas = measure(truth, scenario.noise, rng_noise, k * dt)
        if scenario.attitude_mode == RECONSTRUCTED:
            c_ba, ok = resolve_attitude(state, meas, fallback=last_good)
            last_good = c_ba if ok else last_good
        else:
            c_ba, ok = truth.pose.dcm, True
        state = step(state, meas, c_ba, scenario.gains, dt)
        records.append(evaluate(state, truth_at(traj, (k + 1) * dt, landmarks), ok))
    return records


def _tumble(scenario):
    spec = TrajectorySpec(
        "tumble",
        radius=2.0,
        angular_rate=0.5,
        tumble_amplitude=(0.6, 0.4, 0.5),
        initial_pose=scenario.trajectory.initial_pose,
    )
    return dataclasses.replace(scenario, trajectory=spec)


@pytest.mark.parametrize(
    "name, variant",
    [("fig3_noisy", None), ("heavytail", None), ("reconstructed", None), ("heavytail", _tumble)],
    ids=["fig3_noisy", "heavytail", "reconstructed", "heavytail_tumble"],
)
def test_run_matches_reference_loop(name, variant):
    scenario, _ = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    scenario = dataclasses.replace(scenario, duration=1.0)
    if variant is not None:
        scenario = variant(scenario)
    assert csv_lines(run(scenario).records) == csv_lines(reference_records(scenario))
