import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import se3slam
from conftest import random_rotation
from se3slam.errors import NonFiniteState
from se3slam.liegroup import exp_so3, hat, homogeneous
from se3slam.simulator import (
    ChannelNoise,
    NoiseSpec,
    TrajectorySpec,
    measure,
    place_landmarks,
    truth_at,
)

ALL_SPECS = [
    TrajectorySpec("static", initial_position=(1.0, 2.0, 3.0), initial_rotation=(0.1, 0.2, -0.3)),
    TrajectorySpec("circle", radius=1.0, angular_rate=1.0),
    TrajectorySpec("helix", radius=2.0, angular_rate=0.7, vertical_rate=0.3,
                   initial_position=(0.5, 0.0, 0.0), initial_rotation=(0.0, 0.0, 0.4)),
    TrajectorySpec("tumble", radius=1.5, angular_rate=0.9, tumble_amplitude=(0.4, 0.3, 0.5),
                   initial_rotation=(0.2, -0.1, 0.0)),
]


def test_static_family():
    spec = ALL_SPECS[0]
    g = truth_at(spec, 3.7)
    assert np.allclose(g.omega_body, 0.0)
    assert np.allclose(g.velocity_body, 0.0)
    initial = homogeneous(exp_so3(spec.initial_rotation), np.array(spec.initial_position))
    assert np.allclose(homogeneous(g.dcm, g.position), initial)


def test_circle_periodicity():
    spec = ALL_SPECS[1]
    a = truth_at(spec, 0.0)
    b = truth_at(spec, 2 * np.pi)
    assert np.allclose(homogeneous(a.dcm, a.position), homogeneous(b.dcm, b.position), atol=1e-9)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=[s.family for s in ALL_SPECS])
def test_finite_difference_consistency(spec, rng):
    # central difference of the closed-form pose must match the stated rates:
    # d/dt C_ba.T = C_ba.T @ hat(omega), d/dt r_a = C_ba.T @ v_b
    h = 1e-6
    for t in rng.uniform(h, 20.0, size=100):
        g = truth_at(spec, t)
        gp = truth_at(spec, t + h)
        gm = truth_at(spec, t - h)
        rdot_num = (gp.position - gm.position) / (2 * h)
        assert np.allclose(rdot_num, g.dcm.T @ g.velocity_body, atol=1e-6)
        cdot_num = (gp.dcm.T - gm.dcm.T) / (2 * h)
        assert np.allclose(cdot_num, g.dcm.T @ hat(g.omega_body), atol=1e-6)


def test_truth_rejects_negative_time():
    with pytest.raises(ValueError):
        truth_at(ALL_SPECS[1], -0.1)
    with pytest.raises(ValueError):
        truth_at(ALL_SPECS[1], np.nan)


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
    assert np.isfinite(truth_at(spec, 0.0).dcm).all()
    with pytest.raises(NonFiniteState):
        truth_at(spec, t)


def test_stacked_truth_rejects_bad_times():
    with pytest.raises(ValueError, match="got -1.0$"):
        truth_at(ALL_SPECS[1], np.array([0.0, 0.5, -1.0, np.nan]))
    with pytest.raises(ValueError, match="1-D"):
        truth_at(ALL_SPECS[1], np.zeros((2, 2)))


def test_stacked_truth_names_first_non_finite_time():
    # c * t overflows once t exceeds 179.77; t = 179.5 is still finite
    spec = TrajectorySpec("helix", vertical_rate=1e306)
    assert np.isfinite(truth_at(spec, np.arange(360) * 0.5).position).all()
    with np.errstate(over="ignore"), pytest.raises(
        NonFiniteState, match=r"position at t=180\.0$"
    ):
        truth_at(spec, np.arange(400) * 0.5)


times = st.one_of(
    st.just(0.0),
    st.floats(1e-12, 1e-9),  # rotation angles below SMALL_ANGLE
    st.floats(0.0, 100.0),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_SPECS), st.lists(times, min_size=1, max_size=16))
def test_stacked_truth_matches_per_time_bit_for_bit(spec, ts):
    landmarks = np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 0.0]])
    stacked = truth_at(spec, np.array(ts), landmarks)
    assert stacked.dcm.shape == (len(ts), 3, 3)
    for i, t in enumerate(ts):
        row, one = stacked.row(i), truth_at(spec, t, landmarks)
        assert np.array_equal(row.dcm, one.dcm)
        assert np.array_equal(row.position, one.position)
        assert np.array_equal(row.omega_body, one.omega_body)
        assert np.array_equal(row.velocity_body, one.velocity_body)
        assert np.array_equal(row.landmarks, one.landmarks)


def test_measure_identity_pose():
    landmarks = np.array([[1.0, 2.0, 3.0]])
    g = truth_at(TrajectorySpec("static"), 0.0, landmarks)
    frame = measure(g, NoiseSpec(), np.random.default_rng(0))
    assert np.array_equal(frame.landmark_obs, landmarks)


def test_measure_matches_transcription(rng):
    from se3slam.simulator import GroundTruth

    dcm, position = random_rotation(rng), rng.normal(size=3)
    landmarks = rng.normal(size=(5, 3))
    g = GroundTruth(dcm, position, rng.normal(size=3), rng.normal(size=3), landmarks)
    frame = measure(g, NoiseSpec(), np.random.default_rng(0))
    for i in range(5):
        expected = dcm @ (landmarks[i] - position)
        assert np.allclose(frame.landmark_obs[i], expected, atol=1e-13)
    assert np.array_equal(frame.omega, g.omega_body)
    assert np.array_equal(frame.velocity, g.velocity_body)


def test_gaussian_noise_scale():
    g = truth_at(TrajectorySpec("static"), 0.0, np.zeros((1, 3)))
    noise = NoiseSpec(omega=ChannelNoise("gaussian", scale=0.2))
    rng = np.random.default_rng(7)
    samples = np.array([measure(g, noise, rng).omega for _ in range(100_000)])
    assert np.allclose(samples.std(axis=0), 0.2, rtol=0.03)
    assert np.allclose(samples.mean(axis=0), 0.0, atol=0.01)


def test_bias_is_additive():
    g = truth_at(TrajectorySpec("static"), 0.0, np.zeros((1, 3)))
    noise = NoiseSpec(velocity=ChannelNoise("none", bias=(0.1, -0.2, 0.3)))
    frame = measure(g, noise, np.random.default_rng(0))
    assert np.allclose(frame.velocity, [0.1, -0.2, 0.3])


def test_student_t_requires_dof():
    with pytest.raises(ValueError):
        ChannelNoise("student_t", scale=0.1, dof=2.0)


def test_measurement_stream_deterministic():
    g = truth_at(ALL_SPECS[3], 1.0, np.ones((3, 3)))
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


def test_place_landmarks_deterministic():
    a = place_landmarks(1, [0, 0, 0], [1, 1, 1], np.random.default_rng(3))
    b = place_landmarks(1, [0, 0, 0], [1, 1, 1], np.random.default_rng(3))
    assert np.array_equal(a, b)
    assert a.shape == (1, 3)


def test_place_landmarks_mean():
    pts = place_landmarks(1000, [0, 0, 0], [1, 1, 1], np.random.default_rng(5))
    assert np.allclose(pts.mean(axis=0), 0.5, atol=0.05)
    assert pts.min() >= 0.0 and pts.max() <= 1.0


def test_place_landmarks_degenerate_box():
    pts = place_landmarks(10, [1, 2, 3], [1, 2, 3], np.random.default_rng(0))
    assert np.allclose(pts, [1.0, 2.0, 3.0])


def test_place_landmarks_validation():
    with pytest.raises(ValueError):
        place_landmarks(0, [0, 0, 0], [1, 1, 1], np.random.default_rng(0))
    with pytest.raises(ValueError):
        place_landmarks(3, [0, 0, 0], [-1, 1, 1], np.random.default_rng(0))


def test_simulator_does_not_import_observer():
    # a fresh interpreter, so modules loaded by other tests do not count;
    # measure() builds a MeasurementFrame, so that type must live here too
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from se3slam.simulator import NoiseSpec, TrajectorySpec, measure, truth_at\n"
        "truth = truth_at(TrajectorySpec('static'), 0.0, [[1.0, 0.0, 0.0]])\n"
        "measure(truth, NoiseSpec(), np.random.default_rng(0))\n"
        "print('se3slam.observer' in sys.modules)\n"
    )
    src = str(Path(se3slam.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
