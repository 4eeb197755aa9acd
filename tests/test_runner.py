import dataclasses

import numpy as np
import pytest

from conftest import (
    SCENARIO_DIR,
    counted_eigvalsh,
    load_file_module,
    per_field_row,
    reference_resolve_attitude,
    same_records,
    stack_records,
)
from se3slam import attitude, runner
from se3slam.errors import ConfigInvalid, DegenerateGeometry, NonFiniteState
from se3slam.liegroup import Pose
from se3slam.metrics import ErrorRecord, evaluate
from se3slam.observer import Gains, step
from se3slam.runner import initial_conditions, run, sweep, write_csv, write_summary
from se3slam.scenario import (
    RECONSTRUCTED,
    Box,
    InitialEstimate,
    LandmarkLayout,
    load_scenario,
    set_parameter,
)
from se3slam.simulator import ChannelNoise, NoiseSpec, TrajectorySpec, measure, truth_at


BENCH_TRACER = SCENARIO_DIR.parent / "bench" / "tracer.py"
OUTPUT_DIGEST = SCENARIO_DIR.parent / "scripts" / "output_digest.py"
# Landmarks in the circle's plane over 2000 steps, as the digest script runs them.
_in_plane = load_file_module("output_digest", OUTPUT_DIGEST).in_plane


@pytest.fixture(scope="module")
def noisefree():
    scenario, _ = load_scenario(SCENARIO_DIR / "fig3_noisefree.yaml")
    return scenario


@pytest.fixture(scope="module")
def short(noisefree):
    return dataclasses.replace(noisefree, duration=1.0, dt=0.05)


def test_record_count_includes_t0(noisefree):
    scenario = dataclasses.replace(noisefree, duration=0.1, dt=0.05)
    result = run(scenario)
    assert result.summary.steps == 2
    assert len(result.records) == 3
    assert result.records.time[0] == 0.0


def test_run_builds_no_checked_pose(short, monkeypatch):
    # inside the package a pose is plain arrays; Pose checks only at the public API
    calls = []
    check = Pose.__post_init__

    def counted(pose):
        calls.append(pose)
        check(pose)

    monkeypatch.setattr(Pose, "__post_init__", counted)
    run(short)
    assert calls == []


def test_records_time_ordered(short):
    result = run(short)
    assert np.all(np.diff(result.records.time) > 0)


def test_record_time_is_the_scored_instant():
    # each record's t is k * dt, the instant its truth is evaluated at, not a
    # running sum of dt (which ends at 20.000000000000306 here)
    scenario, _ = load_scenario(SCENARIO_DIR / "fig3_noisy.yaml")
    assert np.array_equal(run(scenario).records.time, np.arange(4001) * 0.005)


def test_run_deterministic(short):
    a = run(short)
    b = run(short)
    assert same_records(a.records, b.records)


def test_summary_final_matches_last_record(short):
    result = run(short)
    for got, column in zip(result.summary.final.columns(), result.records.columns()):
        assert np.array_equal(got, column[-1])


def test_write_summary_returns_the_text_written(short, tmp_path):
    result = run(short)
    path = tmp_path / "summary.txt"
    text = write_summary(result, path)
    assert path.read_bytes() == text.encode()
    lines = text.splitlines()
    assert len(lines) == 17 and text.endswith("\n")
    assert lines[0] == f"scenario: {result.provenance['scenario']}"
    assert lines[4] == f"steps: {result.summary.steps}"
    assert float(lines[7].removeprefix("final_V: ")) == result.records.lyapunov[-1]


def test_csv_shape_and_header(short, tmp_path):
    result = run(short)
    write_csv(result.records, tmp_path / "out.csv")
    lines = (tmp_path / "out.csv").read_text().splitlines()
    header = lines[0].split(",")
    n = 8
    assert header[:4] == ["t", "V", "att_err_rad", "pos_err_m"]
    assert header[4] == "map_err_1" and header[3 + n] == "map_err_8"
    assert header[4 + n] == "rel_map_err_1" and header[-2] == "rel_map_err_8"
    assert header[-1] == "att_source_ok"
    assert len(lines) == len(result.records) + 1
    assert all(len(line.split(",")) == len(header) for line in lines[1:])


def test_csv_roundtrip_lossless(short, tmp_path):
    result = run(short)
    path = tmp_path / "out.csv"
    write_csv(result.records, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data["V"][0] == result.records.lyapunov[0]
    assert data["t"][-1] == result.records.time[-1]
    edge = ErrorRecord(
        time=np.array([0.1]),
        lyapunov=np.array([5e-324]),
        attitude_error_angle=np.array([np.float64(1.0) / 3.0]),
        position_error=np.array([1e300]),
        map_error=np.array([[-0.0, np.inf, np.nan]]),
        relative_map_error=np.array([[2.0**-1030, 1.7976931348623157e308, 123456789.123456789]]),
        attitude_source_ok=np.array([False]),
    )
    rows = [per_field_row(result.records.row(i)) for i in range(len(result.records))]
    assert path.read_text().splitlines()[1:] == rows
    write_csv(edge, path)
    assert path.read_text().splitlines()[1:] == [per_field_row(edge.row(0))]


def test_write_csv_streams_blocks_with_the_same_rows(short, tmp_path, monkeypatch):
    records = run(short).records
    monkeypatch.setattr(runner, "CSV_BLOCK_VALUES", 50)  # two 21-value rows per block
    for decimate in (1, 3, 7, 10):  # 3 and 7 leave the final row off the grid, 10 keeps it on
        path = tmp_path / f"every_{decimate}.csv"
        write_csv(records, path, decimate)
        kept = sorted({*range(0, len(records), decimate), len(records) - 1})
        assert path.read_text().splitlines()[1:] == [per_field_row(records.row(i)) for i in kept]
    with pytest.raises(ValueError, match="decimate"):
        write_csv(records, tmp_path / "bad.csv", 0)
    assert not (tmp_path / "bad.csv").exists()


def test_sweep_singleton_matches_run(short):
    direct = run(set_parameter(short, "gains.k1", 3.0))
    swept = sweep(short, "gains.k1", [3.0])
    assert len(swept) == 1
    assert same_records(swept[0].records, direct.records)


def test_sweep_carries_the_scenario_hash(short):
    results = sweep(short, "gains.k1", [1.0, 2.0], scenario_hash="h")
    assert [r.provenance["scenario_sha256"] for r in results] == ["h", "h"]
    assert sweep(short, "gains.k1", [1.0])[0].provenance["scenario_sha256"] is None


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
    assert same_records(run(zeroed).records, run(base).records)
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
        initial_position=noisefree.trajectory.initial_position,
    )
    scenario = dataclasses.replace(noisefree, trajectory=tumble, duration=8.0)
    results = sweep(scenario, "dt", [0.01, 0.001])
    errs = [r.summary.final.attitude_error_angle for r in results]
    assert errs[1] < errs[0]


def _count_box(scenario, count, low, high):
    return dataclasses.replace(scenario, landmarks=LandmarkLayout(count=count, box=Box(low, high)))


def test_count_box_landmarks_are_a_function_of_the_seed(short):
    scenario = _count_box(short, 1, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    landmarks = initial_conditions(scenario)[0]
    assert landmarks.shape == (1, 3)
    assert np.array_equal(initial_conditions(scenario)[0], landmarks)
    reseeded = dataclasses.replace(scenario, seed=scenario.seed + 1)
    assert not np.array_equal(initial_conditions(reseeded)[0], landmarks)


def test_count_box_landmarks_are_uniform_in_the_box(short):
    # ungained, as short's gains at dt = 0.05 are past the explicit-Euler bound of 1000 landmarks
    ungained = dataclasses.replace(short, gains=Gains(0.0, 0.0, 0.0))
    landmarks = initial_conditions(_count_box(ungained, 1000, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))[0]
    assert np.allclose(landmarks.mean(axis=0), 0.5, atol=0.05)
    assert landmarks.min() >= 0.0 and landmarks.max() <= 1.0


def test_count_box_landmarks_in_a_zero_width_box(short):
    landmarks = initial_conditions(_count_box(short, 10, (1.0, 2.0, 3.0), (1.0, 2.0, 3.0)))[0]
    assert np.array_equal(landmarks, np.tile([1.0, 2.0, 3.0], (10, 1)))


def test_provenance_fields(short):
    result = run(short, scenario_hash="abc123")
    assert result.provenance["scenario"] == short.name
    assert result.provenance["seed"] == short.seed
    assert result.provenance["scenario_sha256"] == "abc123"


def reference_records(scenario):
    """The run loop written plainly over the public API, two truth evaluations per
    step, a 1-instant ``measure``, in reconstructed mode conftest's attitude
    solve, then a 1-block ``step`` with the given attitude, scored one instant at
    a time, the k-th new state at the instant (k + 1) * dt of its truth; the
    records are concatenated for comparison."""
    landmarks, _, state, rng_noise = initial_conditions(scenario)
    traj, dt = scenario.trajectory, scenario.dt
    records = [evaluate(state, truth_at(traj, np.zeros(1), landmarks), np.ones(1, bool))]
    last_good = None
    for k in range(int(round(scenario.duration / dt))):
        truth = truth_at(traj, np.array([k * dt]), landmarks)
        meas = measure(truth, scenario.noise, rng_noise)
        if scenario.attitude_mode == RECONSTRUCTED:
            c_ba, ok = reference_resolve_attitude(state, meas, fallback=last_good)
            last_good = c_ba if ok else last_good
        else:
            c_ba, ok = truth.dcm[0], True
        state = step(state, meas, c_ba[None], scenario.gains, dt)[0]
        truth = truth_at(traj, np.array([(k + 1) * dt]), landmarks)
        records.append(evaluate(state, truth, np.array([ok])))
    return stack_records(records)


def _tumble(scenario):
    spec = TrajectorySpec(
        "tumble",
        radius=2.0,
        angular_rate=0.5,
        tumble_amplitude=(0.6, 0.4, 0.5),
        initial_position=scenario.trajectory.initial_position,
    )
    return dataclasses.replace(scenario, trajectory=spec)


BOX = Box((-5.0, -5.0, -5.0), (5.0, 5.0, 5.0))


def _many_landmarks(scenario):
    """1000 landmarks: 25-record blocks, so 90 steps cross 3 block boundaries. The
    step is 1 ms, as the bundled gains put the explicit-Euler bound of 1000
    landmarks at 1.97 ms."""
    layout = LandmarkLayout(count=1000, box=BOX)
    return dataclasses.replace(_tumble(scenario), landmarks=layout, dt=0.001, duration=0.09)


def _many_steps(scenario):
    """8 landmarks: 256-record blocks, so 900 steps cross 3 block boundaries."""
    return dataclasses.replace(scenario, duration=900 * scenario.dt)


def _mixed_noise(scenario):
    """Three noise families, drawn one instant at a time, over 3 block boundaries."""
    noise = NoiseSpec(
        ChannelNoise("gaussian", 0.01),
        ChannelNoise("uniform", 0.02, bias=(0.01, 0.0, -0.02)),
        ChannelNoise("student_t", 0.05, dof=4.0),
    )
    return dataclasses.replace(_many_steps(scenario), noise=noise)


def _zero_scale_with_bias(scenario):
    """A biased zero-scale Gaussian channel that draws nothing, over 3 block boundaries."""
    noise = NoiseSpec(
        ChannelNoise("gaussian", 0.0, bias=(0.002, -0.001, 0.003)),
        ChannelNoise("gaussian", 0.01),
        ChannelNoise("gaussian", 0.05, bias=(0.01, 0.02, -0.01)),
    )
    return dataclasses.replace(_many_steps(scenario), noise=noise)


def _steps_fill_blocks(scenario):
    """8 landmarks: 256-step blocks, so 768 steps fill 3 blocks exactly."""
    return dataclasses.replace(scenario, duration=768 * scenario.dt)


def _records_fill_blocks(scenario):
    """8 landmarks: 256-step blocks, so 767 steps make 768 records, 3 blocks' worth."""
    return dataclasses.replace(scenario, duration=767 * scenario.dt)


def _ends_in_partial_block(n_records, block):
    return n_records > 3 * block and n_records % block


# The block edge each variant must reach, as a test of (records, block).
BLOCK_EDGES = {
    _many_landmarks: _ends_in_partial_block,
    _many_steps: _ends_in_partial_block,
    _mixed_noise: _ends_in_partial_block,
    _zero_scale_with_bias: _ends_in_partial_block,
    _steps_fill_blocks: lambda n_records, block: n_records - 1 == 3 * block,
    _records_fill_blocks: lambda n_records, block: n_records == 3 * block,
}


def _records_and_block(scenario):
    n_records = int(round(scenario.duration / scenario.dt)) + 1
    return n_records, runner.block_records(scenario.landmarks.num_landmarks)


@pytest.mark.parametrize(
    "name, variant",
    [
        ("fig3_noisy", None),
        ("heavytail", None),
        ("reconstructed", None),
        ("heavytail", _tumble),
        ("heavytail", _many_landmarks),
        ("reconstructed", _many_steps),
        ("fig3_noisy", _mixed_noise),
        ("reconstructed", _zero_scale_with_bias),
        ("fig3_noisy", _steps_fill_blocks),
        ("reconstructed", _records_fill_blocks),
        ("reconstructed", _in_plane),
    ],
    ids=[
        "fig3_noisy",
        "heavytail",
        "reconstructed",
        "heavytail_tumble",
        "heavytail_tumble_many_landmarks",
        "reconstructed_many_steps",
        "fig3_noisy_mixed_noise",
        "reconstructed_zero_scale_with_bias",
        "fig3_noisy_768_steps",
        "reconstructed_767_steps",
        "reconstructed_in_plane",
    ],
)
def test_run_matches_reference_loop(name, variant):
    scenario, _ = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    scenario = dataclasses.replace(scenario, duration=1.0)
    if variant is not None:
        scenario = variant(scenario)
    if variant in BLOCK_EDGES:
        assert BLOCK_EDGES[variant](*_records_and_block(scenario))
    with counted_eigvalsh() as eigvalsh_calls:
        records = run(scenario).records
    if variant is _in_plane:
        # one solve per step; once the datum directions are coplanar the
        # certificate cannot settle the rank and eigvalsh does
        assert 0 < len(eigvalsh_calls) < _records_and_block(scenario)[0] - 1
    assert same_records(records, reference_records(scenario))


def _recorded_steps(monkeypatch):
    """The number of steps of each ``step`` call run() makes from now on, in call order."""
    stepped = []

    def counted(state, meas, *args, **kwargs):
        stepped.append(len(meas.omega))
        return step(state, meas, *args, **kwargs)

    monkeypatch.setattr(runner, "step", counted)
    return stepped


@pytest.mark.parametrize("n_steps", [900, 768])
def test_run_measures_once_per_block(monkeypatch, n_steps):
    # the loop holds only the attitude solve and step: a block's steps are
    # measured by one stacked call, and the run's last instant is not measured,
    # so a step count that fills its blocks makes no zero-instant call
    scenario, _ = load_scenario(SCENARIO_DIR / "fig3_noisy.yaml")
    scenario = dataclasses.replace(scenario, duration=n_steps * scenario.dt)
    _, block = _records_and_block(scenario)
    measured = []

    def counted(truth, noise, rng):
        measured.append(len(truth.dcm))
        return measure(truth, noise, rng)

    monkeypatch.setattr(runner, "measure", counted)
    run(scenario)
    assert measured == [block] * (n_steps // block) + [n_steps % block] * bool(n_steps % block)


@pytest.mark.parametrize("name", ["fig3_noisy", "reconstructed"])
def test_run_steps_once_per_block(monkeypatch, name):
    # either attitude mode makes a block's steps in one step call; in
    # reconstructed mode the solves happen inside it
    scenario, _ = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    scenario = dataclasses.replace(scenario, duration=900 * scenario.dt)
    _, block = _records_and_block(scenario)
    stepped = _recorded_steps(monkeypatch)
    run(scenario)
    assert stepped == [block] * (900 // block) + [900 % block]


@pytest.mark.parametrize(
    "name, variant",
    [("fig3_noisy", None), ("reconstructed", None), ("fig3_noisy", _tumble)],
    ids=["fig3_noisy", "reconstructed", "tumble_64_landmarks"],
)
@pytest.mark.parametrize("block", [1, 7, None], ids=["1_step", "7_steps", "one_block"])
def test_run_output_does_not_depend_on_the_blocks(monkeypatch, name, variant, block):
    # an n-step call of every layer has the bits of n 1-step calls, so any
    # split of the run into blocks makes the same records; None: the whole run
    scenario, _ = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    scenario = dataclasses.replace(scenario, duration=1.0)
    if variant is not None:
        layout = LandmarkLayout(count=64, box=BOX)
        scenario = dataclasses.replace(variant(scenario), landmarks=layout)
    expected = run(scenario).records
    n_steps = _records_and_block(scenario)[0] - 1
    size = block or n_steps
    monkeypatch.setattr(runner, "block_records", lambda _: size)
    stepped = _recorded_steps(monkeypatch)
    assert same_records(run(scenario).records, expected)
    assert stepped == [size] * (n_steps // size) + [n_steps % size] * bool(n_steps % size)


def _flaky_solve(failing_calls):
    """attitude.solve_attitude, but its calls numbered in ``failing_calls`` raise."""
    solve, calls = attitude.solve_attitude, []

    def solve_or_fail(body, datum):
        calls.append(None)
        if len(calls) in failing_calls:
            raise DegenerateGeometry("forced")
        return solve(body, datum)

    return solve_or_fail


def _run_with_failing_solves(monkeypatch, scenario, failing_calls):
    """run() and the reference loop's records, each with the same solves forced to fail."""
    monkeypatch.setattr(attitude, "solve_attitude", _flaky_solve(failing_calls))
    result = run(scenario)
    monkeypatch.setattr(attitude, "solve_attitude", _flaky_solve(failing_calls))
    return result, reference_records(scenario)


def test_run_falls_back_to_the_last_good_attitude(monkeypatch):
    # forced failures of the attitude solve, two of them in a row, never the first
    scenario, _ = load_scenario(SCENARIO_DIR / "reconstructed.yaml")
    scenario = dataclasses.replace(scenario, duration=0.1)
    failing_calls = {3, 4, 11}
    result, expected = _run_with_failing_solves(monkeypatch, scenario, failing_calls)
    assert same_records(result.records, expected)
    assert np.count_nonzero(~expected.attitude_source_ok) == len(failing_calls)
    assert result.summary.degenerate_frames == len(failing_calls)


def test_run_carries_the_last_good_attitude_into_the_next_block(monkeypatch):
    # 8 landmarks: 256-step blocks, so solve 257 is the first of block 2; it
    # fails and takes the last good solve of block 1, as the reference loop does
    scenario, _ = load_scenario(SCENARIO_DIR / "reconstructed.yaml")
    scenario = dataclasses.replace(scenario, duration=260 * scenario.dt)
    assert _records_and_block(scenario)[1] == 256
    result, expected = _run_with_failing_solves(monkeypatch, scenario, {255, 256, 257})
    assert same_records(result.records, expected)
    assert np.flatnonzero(~result.records.attitude_source_ok).tolist() == [255, 256, 257]


def test_truth_overflow_mid_run_names_first_bad_time(noisefree):
    # Ungained and started at the truth, the estimate dead-reckons along it and
    # stays finite up to t = 179.5, its innovations near 0; the truth's
    # x = -1e308 + 0.8e308 (cos(w t) - 1) overflows first at t = 180, where
    # w t = pi / 2, in a later block. A tumble of zero amplitude keeps the start
    # attitude, so no body-frame component of the position outgrows its x.
    spec = TrajectorySpec("tumble", radius=0.8e308, angular_rate=np.pi / 360,
                          initial_position=(-1e308, 0.0, 0.0))
    scenario = dataclasses.replace(
        noisefree,
        trajectory=spec,
        gains=Gains(0.0, 0.0, 0.0),
        initial_estimate=InitialEstimate(),
        landmarks=LandmarkLayout(count=256, box=BOX),
        dt=0.5,
        duration=200.0,
    )
    _, block = _records_and_block(scenario)
    assert 360 > 3 * block
    with pytest.raises(NonFiniteState, match=r"position at t=180\.0$"):
        run(scenario)


@pytest.mark.parametrize(
    "name, bias, message",
    [
        ("fig3_noisy", 3e306, "non-finite pose increment at t=7.495"),
        ("reconstructed", 5e306, "non-finite pose increment at t=4.495"),
    ],
)
def test_step_errors_name_an_instant_of_the_record_grid(name, bias, message):
    # step k names the instant of the measurement it read, truth row k's, which
    # is k * dt, the t the CSV writes; a clock summed dt by dt would drift off
    # that grid (to 7.494999999999862 by step 1499). Without k2 and k3 the
    # position estimate dead-reckons on a velocity biased along z until the sum
    # of the 8 innovations, each about as large as the estimate, overflows. Both
    # fail mid-block, and the reconstructed run solves its attitude in every
    # step before it fails.
    scenario, _ = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    velocity = dataclasses.replace(scenario.noise.velocity, bias=(0.0, 0.0, bias))
    scenario = dataclasses.replace(
        scenario,
        gains=Gains(scenario.gains.k1, 0.0, 0.0),
        noise=dataclasses.replace(scenario.noise, velocity=velocity),
    )
    with pytest.raises(NonFiniteState) as info:
        run(scenario)
    assert str(info.value) == message
    t = float(message.rsplit("=", 1)[1])
    k = round(t / scenario.dt)
    assert t == k * scenario.dt and k % _records_and_block(scenario)[1] != 0


def test_score_overflow_names_first_bad_time(short):
    # A landmark 1e200 m out keeps the state finite, but its squared map error
    # overflows V at t = 0; the run's check of its record reports it.
    first, _, *rest = short.landmarks.positions
    positions = (first, (1.0e200, 2.0, 3.0), *rest)
    scenario = dataclasses.replace(short, landmarks=LandmarkLayout(positions=positions))
    with pytest.raises(NonFiniteState, match=r"non-finite error metric at t=0\.0$"):
        run(scenario)


def test_every_name_the_tracer_wraps_resolves():
    # the traced benchmark wraps these names where the package looks them up;
    # a source edit that drops one fails here, not only in a traced run
    tracer = load_file_module("tracer", BENCH_TRACER)
    for module, attr_path, _ in tracer.FULL_TARGETS:
        owner, attr = tracer._resolve(module, attr_path)
        assert callable(owner.__dict__.get(attr)), f"{module}: {attr_path}"
