import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import se3slam
from conftest import random_rotation, truth_at_instant
from se3slam import simulator
from se3slam.errors import NonFiniteState
from se3slam.liegroup import exp_so3, hat, homogeneous
from se3slam.simulator import (
    NOISE_FAMILIES,
    ChannelNoise,
    GroundTruth,
    NoiseSpec,
    TrajectorySpec,
    measure,
    truth_at,
)

ALL_SPECS = [
    TrajectorySpec("circle", initial_position=(1.0, 2.0, 3.0), initial_rotation=(0.1, 0.2, -0.3)),
    TrajectorySpec("circle", radius=1.0, angular_rate=1.0),
    TrajectorySpec("circle", radius=2.0, angular_rate=0.7, vertical_rate=0.3,
                   initial_position=(0.5, 0.0, 0.0), initial_rotation=(0.0, 0.0, 0.4)),
    TrajectorySpec("tumble", radius=1.5, angular_rate=0.9, tumble_amplitude=(0.4, 0.3, 0.5),
                   initial_rotation=(0.2, -0.1, 0.0)),
]


def test_circle_at_rest_holds_its_initial_pose():
    spec = ALL_SPECS[0]
    g = truth_at_instant(spec, 3.7)
    assert np.allclose(g.omega_body, 0.0)
    assert np.allclose(g.velocity_body, 0.0)
    initial = homogeneous(exp_so3(spec.initial_rotation), np.array(spec.initial_position))
    assert np.allclose(homogeneous(g.dcm, g.position), initial)


def test_circle_periodicity():
    spec = ALL_SPECS[1]
    a = truth_at_instant(spec, 0.0)
    b = truth_at_instant(spec, 2 * np.pi)
    assert np.allclose(homogeneous(a.dcm, a.position), homogeneous(b.dcm, b.position), atol=1e-9)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=[s.family for s in ALL_SPECS])
def test_finite_difference_consistency(spec, rng):
    # central difference of the closed-form pose must match the stated rates:
    # d/dt C_ba.T = C_ba.T @ hat(omega), d/dt r_a = C_ba.T @ v_b
    h = 1e-6
    ts = rng.uniform(h, 20.0, size=100)
    blocks = [truth_at(spec, t, np.zeros((0, 3))) for t in (ts, ts + h, ts - h)]
    for i in range(len(ts)):
        g, gp, gm = (block.row(i) for block in blocks)
        rdot_num = (gp.position - gm.position) / (2 * h)
        assert np.allclose(rdot_num, g.dcm.T @ g.velocity_body, atol=1e-6)
        cdot_num = (gp.dcm.T - gm.dcm.T) / (2 * h)
        assert np.allclose(cdot_num, g.dcm.T @ hat(g.omega_body), atol=1e-6)


def test_truth_rejects_negative_time():
    with pytest.raises(ValueError):
        truth_at_instant(ALL_SPECS[1], -0.1)
    with pytest.raises(ValueError):
        truth_at_instant(ALL_SPECS[1], np.nan)


@pytest.mark.parametrize("field", ["radius", "angular_rate", "vertical_rate", "tumble_amplitude"])
def test_trajectory_rejects_non_finite_fields(field):
    # truth_at trusts the spec, so its constructor is where NaN must stop
    value = (0.1, np.nan, 0.2) if field == "tumble_amplitude" else np.inf
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        TrajectorySpec("tumble", **{field: value})


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "spec, t",
    [
        (TrajectorySpec("tumble", angular_rate=1.0, tumble_amplitude=(1e200, 0.0, 0.0)), 0.5),
        (TrajectorySpec("circle", angular_rate=1e200), 0.5),
        (TrajectorySpec("circle", radius=1.7e308, angular_rate=1.0), np.pi),
    ],
    ids=["tumble_amplitude", "angular_rate", "radius"],
)
def test_truth_rejects_overflow_of_finite_fields(spec, t):
    # finite fields whose attitude or position overflows must not yield NaN truth
    assert np.isfinite(truth_at_instant(spec, 0.0).dcm).all()
    with pytest.raises(NonFiniteState):
        truth_at_instant(spec, t)


def test_stacked_truth_rejects_bad_times():
    with pytest.raises(ValueError, match="got -1.0$"):
        truth_at(ALL_SPECS[1], np.array([0.0, 0.5, -1.0, np.nan]), np.zeros((0, 3)))
    with pytest.raises(ValueError, match="1-D"):
        truth_at(ALL_SPECS[1], np.zeros((2, 2)), np.zeros((0, 3)))


def test_stacked_truth_names_first_non_finite_time():
    # c * t overflows once t exceeds 179.77; t = 179.5 is still finite
    spec = TrajectorySpec("circle", vertical_rate=1e306)
    assert np.isfinite(truth_at(spec, np.arange(360) * 0.5, np.zeros((0, 3))).position).all()
    with np.errstate(over="ignore"), pytest.raises(
        NonFiniteState, match=r"position at t=180\.0$"
    ):
        truth_at(spec, np.arange(400) * 0.5, np.zeros((0, 3)))


times = st.one_of(
    st.just(0.0),
    st.floats(1e-12, 1e-9),  # rotation angles below SMALL_ANGLE
    st.floats(0.0, 100.0),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_SPECS), st.lists(times, min_size=1, max_size=16))
def test_stacked_truth_matches_per_time_bit_for_bit(spec, ts):
    # one n-time block against n 1-time blocks, whatever the block length
    landmarks = np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 0.0]])
    stacked = truth_at(spec, np.array(ts), landmarks)
    assert stacked.dcm.shape == (len(ts), 3, 3)
    for i, t in enumerate(ts):
        row, one = stacked.row(i), truth_at(spec, np.array([t]), landmarks).row(0)
        assert np.array_equal(row.dcm, one.dcm)
        assert np.array_equal(row.position, one.position)
        assert np.array_equal(row.omega_body, one.omega_body)
        assert np.array_equal(row.velocity_body, one.velocity_body)
        assert np.array_equal(row.landmarks, one.landmarks)
        # the block's clock and its one stacked C_ba (p_i - r) product, bit for bit
        assert row.time.tobytes() == one.time.tobytes() == np.float64(t).tobytes()
        assert row.landmarks_body.tobytes() == one.landmarks_body.tobytes()
        assert np.allclose(row.landmarks_body, (landmarks - row.position) @ row.dcm.T, atol=1e-12)


def test_truth_at_reuses_the_spec_start_attitude(monkeypatch):
    # the spec keeps the exp_so3(initial_rotation) it checks, so a stacked truth makes
    # its one stacked exponential and none for the start attitude
    spec = ALL_SPECS[3]
    assert spec.initial_dcm == tuple(map(tuple, exp_so3(spec.initial_rotation).tolist()))
    assert "initial_dcm" not in {f.name for f in dataclasses.fields(spec)}
    copy = TrajectorySpec(**dataclasses.asdict(spec))
    assert copy == spec and hash(copy) == hash(spec)
    calls = []
    for name in ("exp_so3", "exp_so3_with_right_jacobian"):
        original = getattr(simulator, name)
        monkeypatch.setattr(simulator, name, lambda a, f=original, n=name: calls.append(n) or f(a))
    for spec in ALL_SPECS:
        calls.clear()
        truth = truth_at(spec, np.linspace(0.0, 2.0, 17), np.zeros((0, 3)))
        stacked = "exp_so3_with_right_jacobian" if spec.family == "tumble" else "exp_so3"
        assert calls == [stacked]
        assert np.array_equal(truth.dcm[0], exp_so3(spec.initial_rotation))


def test_measure_identity_pose():
    landmarks = np.array([[1.0, 2.0, 3.0]])
    g = truth_at(TrajectorySpec("circle"), np.zeros(1), landmarks)
    frame = measure(g, NoiseSpec(), np.random.default_rng(0))
    assert np.array_equal(frame.landmark_obs[0], landmarks)


def test_measure_matches_transcription(rng):
    # the exact observations come from the truth, C_ba (p_i - r) made by truth_at
    landmarks = rng.normal(size=(5, 3))
    g = truth_at(ALL_SPECS[3], rng.uniform(0.0, 20.0, size=1), landmarks)
    frame = measure(g, NoiseSpec(), np.random.default_rng(0))
    assert frame.time is g.time
    (dcm,), (position,) = g.dcm, g.position
    for i in range(5):
        expected = dcm @ (landmarks[i] - position)
        assert np.allclose(frame.landmark_obs[0, i], expected, atol=1e-13)
    assert np.array_equal(frame.omega, g.omega_body)
    assert np.array_equal(frame.velocity, g.velocity_body)


def test_gaussian_noise_scale():
    g = truth_at(TrajectorySpec("circle"), np.zeros(100_000), np.zeros((1, 3)))
    noise = NoiseSpec(omega=ChannelNoise("gaussian", scale=0.2))
    samples = measure(g, noise, np.random.default_rng(7)).omega
    assert np.allclose(samples.std(axis=0), 0.2, rtol=0.03)
    assert np.allclose(samples.mean(axis=0), 0.0, atol=0.01)


def test_bias_is_additive():
    g = truth_at(TrajectorySpec("circle"), np.zeros(1), np.zeros((1, 3)))
    noise = NoiseSpec(velocity=ChannelNoise("none", bias=(0.1, -0.2, 0.3)))
    frame = measure(g, noise, np.random.default_rng(0))
    assert np.allclose(frame.velocity, [[0.1, -0.2, 0.3]])


@pytest.mark.parametrize("family", ["gaussian", "student_t", "uniform"])
def test_zero_scale_channel_draws_nothing(family):
    # a zero-scale channel leaves the generator, and so the other channels'
    # noise, as a channel of family none does
    g = truth_at(ALL_SPECS[3], np.linspace(0.0, 1.0, 5), np.ones((3, 3)))
    landmark = ChannelNoise("gaussian", 0.05)
    bias = (0.1, -0.2, 0.3)
    rngs = np.random.default_rng(5), np.random.default_rng(5)
    zero = measure(g, NoiseSpec(omega=ChannelNoise(family, 0.0, bias=bias), landmark=landmark), rngs[0])
    none = measure(g, NoiseSpec(omega=ChannelNoise("none", bias=bias), landmark=landmark), rngs[1])
    assert np.array_equal(zero.omega, none.omega)
    assert np.array_equal(zero.landmark_obs, none.landmark_obs)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_student_t_requires_dof():
    with pytest.raises(ValueError):
        ChannelNoise("student_t", scale=0.1, dof=2.0)


def test_measurement_stream_deterministic():
    g = truth_at(ALL_SPECS[3], np.ones(1), np.ones((3, 3)))
    noise = NoiseSpec(
        omega=ChannelNoise("gaussian", 0.01),
        velocity=ChannelNoise("uniform", 0.05),
        landmark=ChannelNoise("student_t", 0.1, dof=4.0),
    )
    a = measure(g, noise, np.random.default_rng(99))
    b = measure(g, noise, np.random.default_rng(99))
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.velocity, b.velocity)
    assert np.array_equal(a.landmark_obs, b.landmark_obs)


def _channel(family, scale, dof, bias):
    """A channel of the drawn fields, with the scale of family none 0 and the
    dof of any family but student_t the default, as ChannelNoise requires."""
    scale = 0.0 if family == "none" else scale
    return ChannelNoise(family, scale, dof if family == "student_t" else 3.0, bias)


channels = st.builds(
    _channel,
    st.sampled_from(NOISE_FAMILIES),
    st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
    st.sampled_from([2.5, 3.0, 7.0]),
    st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(*[st.floats(-1.0, 1.0)] * 3)),
)


@settings(max_examples=150, deadline=None)
@given(
    st.builds(NoiseSpec, channels, channels, channels),
    st.integers(0, 6),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_stacked_measure_matches_one_instant_calls(noise, n, n_landmarks, seed):
    # one n-instant block against n 1-instant blocks: the same bits and the
    # same generator state
    rng = np.random.default_rng(seed)
    truth = GroundTruth(
        np.arange(n) * 0.005,
        np.array([random_rotation(rng) for _ in range(n)]).reshape(n, 3, 3),
        rng.normal(size=(n, 3)),
        rng.normal(size=(n, 3)),
        rng.normal(size=(n, 3)),
        rng.normal(size=(n_landmarks, 3)),
        rng.normal(size=(n, n_landmarks, 3)),
    )
    stacked_rng, one_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stacked = measure(truth, noise, stacked_rng)
    assert stacked.landmark_obs.shape == (n, n_landmarks, 3)
    assert stacked.time is truth.time
    for i in range(n):
        one = measure(truth.row(slice(i, i + 1)), noise, one_rng)
        assert stacked.time[i : i + 1] == one.time
        assert np.array_equal(stacked.omega[i : i + 1], one.omega)
        assert np.array_equal(stacked.velocity[i : i + 1], one.velocity)
        assert np.array_equal(stacked.landmark_obs[i : i + 1], one.landmark_obs)
    assert stacked_rng.bit_generator.state == one_rng.bit_generator.state


def test_simulator_does_not_import_observer():
    # a fresh interpreter, so modules loaded by other tests do not count;
    # measure() builds a MeasurementFrame, so that type must live here too
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from se3slam.simulator import NoiseSpec, TrajectorySpec, measure, truth_at\n"
        "truth = truth_at(TrajectorySpec('circle'), np.zeros(1), np.eye(3))\n"
        "measure(truth, NoiseSpec(), np.random.default_rng(0))\n"
        "print('se3slam.observer' in sys.modules)\n"
    )
    src = str(Path(se3slam.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
