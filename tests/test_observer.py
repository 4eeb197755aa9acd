import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    attitude_error,
    corrected_angular_velocity,
    corrected_velocity,
    innovations,
    landmark_rates,
    random_rotation,
    reference_step,
)
from se3slam import metrics, observer
from se3slam.errors import DegenerateGeometry, EmptyMap, NonFiniteState, ZeroVector
from se3slam.liegroup import compose_raw, exp_se3, exp_so3, hat, reorthonormalize, rotation_angle
from se3slam.observer import DRIFT_TOL, Gains, ObserverState, resolve_attitude, step
from se3slam.simulator import (
    GroundTruth,
    MeasurementFrame,
    NoiseSpec,
    TrajectorySpec,
    measure,
    truth_at,
)

LANDMARKS = np.array(
    [[0.0, 0.0, 0.0], [2.0, -1.0, 0.5], [-1.5, 2.5, 1.0], [0.5, 0.5, -2.0]]
)


def screw_spec():
    # circular path with matched yaw: a constant body twist, so the truth is
    # exactly reproduced by one-step group integration
    return TrajectorySpec(
        "circle", radius=2.0, angular_rate=0.5, initial_position=(2.0, 0.0, 0.5)
    )


def perfect_setup(t=0.0):
    truth = truth_at(screw_spec(), t, LANDMARKS)
    state = ObserverState(truth.dcm, truth.position, LANDMARKS.copy(), t)
    meas = measure(truth, NoiseSpec(), np.random.default_rng(0))
    return truth, state, meas


def random_setup(rng):
    state = ObserverState(random_rotation(rng), rng.normal(size=3), rng.normal(size=(4, 3)), 0.0)
    meas = MeasurementFrame(rng.normal(size=3), rng.normal(size=3), rng.normal(size=(4, 3)))
    return state, meas


def body(state):
    """The estimates resolved in the body frame: (P_hat @ C_ea.T, C_ea @ r_hat)."""
    return state.landmarks @ state.dcm.T, state.dcm @ state.position


def straight_line_residual(state, meas, i):
    # independent scalar transcription of the residual formula
    c = state.dcm
    p = state.landmarks[i]
    r = state.position
    out = np.zeros(3)
    for row in range(3):
        out[row] = (
            c[row, 0] * (p[0] - r[0])
            + c[row, 1] * (p[1] - r[1])
            + c[row, 2] * (p[2] - r[2])
            - meas.landmark_obs[i][row]
        )
    return out


def test_innovation_zero_at_truth():
    _, state, meas = perfect_setup()
    for i in range(len(LANDMARKS)):
        assert np.allclose(innovations(*body(state), meas)[i], 0.0, atol=1e-14)


def test_innovation_direct_substitution():
    state = ObserverState(np.eye(3), np.zeros(3), np.array([[1.0, 0, 0]]))
    meas = MeasurementFrame(np.zeros(3), np.zeros(3), np.zeros((1, 3)))
    assert np.allclose(innovations(*body(state), meas)[0], [1.0, 0.0, 0.0])


def test_innovation_matches_transcription(rng):
    state, meas = random_setup(rng)
    for i in range(4):
        expected = straight_line_residual(state, meas, i)
        assert np.allclose(innovations(*body(state), meas)[i], expected, atol=1e-13)


def test_attitude_error_zero_when_equal(rng):
    c = random_rotation(rng)
    assert np.allclose(attitude_error(c, c), 0.0, atol=1e-15)


def test_attitude_error_sine_magnitude():
    # oracle: symbolic expansion of the z-rotation; skew part has magnitude sin(theta)
    for theta in (0.1, 0.7, 1.3):
        e = attitude_error(exp_so3([0, 0, theta]), np.eye(3))
        assert np.allclose(e, [0.0, 0.0, np.sin(theta)], atol=1e-14)


def test_attitude_error_antisymmetric(rng):
    a, b = random_rotation(rng), random_rotation(rng)
    assert np.allclose(attitude_error(a, b), -np.array(attitude_error(b, a)), atol=1e-14)


def test_corrected_angular_velocity():
    meas = MeasurementFrame(np.array([0.1, 0.2, 0.3]), np.zeros(3), np.zeros((1, 3)))
    gains = Gains(2.0, 1.0, 1.0)
    assert np.allclose(corrected_angular_velocity(meas, np.zeros(3), gains), meas.omega)
    meas0 = MeasurementFrame(np.zeros(3), np.zeros(3), np.zeros((1, 3)))
    assert np.allclose(
        corrected_angular_velocity(meas0, np.array([0, 0, 1.0]), gains), [0, 0, -2.0]
    )
    e = np.array([0.3, -0.1, 0.2])
    single = corrected_angular_velocity(meas0, e, gains)
    double = corrected_angular_velocity(meas0, 2 * e, gains)
    assert np.allclose(double, 2 * np.array(single))


def test_corrected_velocity_all_corrections_off(rng):
    state, meas = random_setup(rng)
    omega_hat = meas.omega.copy()
    w = hat(omega_hat - meas.omega)
    out = corrected_velocity(
        meas, w, body(state)[1], innovations(*body(state), meas), Gains(1.0, 0.0, 0.0)
    )
    assert np.allclose(out, meas.velocity, atol=1e-14)


def test_corrected_velocity_noise_free_reduction():
    # with perfect estimates and landmark 0 at the origin the anchor term
    # equals k3 * C_ba @ p_1 = 0, so v_hat reduces to the measured velocity
    truth, state, meas = perfect_setup(t=0.7)
    gains = Gains(2.0, 1.0, 12.0)
    e = attitude_error(truth.dcm, state.dcm)
    omega_hat = corrected_angular_velocity(meas, e, gains)
    w = hat(omega_hat - meas.omega)
    out = corrected_velocity(meas, w, body(state)[1], innovations(*body(state), meas), gains)
    # oracle: substitution of the exact measurement model
    expected = meas.velocity - gains.k3 * (truth.dcm @ truth.landmarks[0])
    assert np.allclose(out, expected, atol=1e-12)
    assert np.allclose(out, meas.velocity, atol=1e-12)


def test_corrected_velocity_matches_transcription(rng):
    state, meas = random_setup(rng)
    gains = Gains(1.5, 0.7, 2.5)
    omega_hat = rng.normal(size=3)
    c = state.dcm
    total_innov = sum(straight_line_residual(state, meas, i) for i in range(4))
    expected = (
        meas.velocity
        + np.cross(omega_hat - meas.omega, c @ state.position)
        + gains.k2 * total_innov
        - gains.k3 * (c @ state.position + meas.landmark_obs[0])
    )
    w = hat(omega_hat - meas.omega)
    out = corrected_velocity(meas, w, body(state)[1], innovations(*body(state), meas), gains)
    assert np.allclose(out, expected, atol=1e-12)


def test_corrected_velocity_empty_map():
    state = ObserverState(np.eye(3), np.zeros(3), np.zeros((0, 3)))
    meas = MeasurementFrame(np.zeros(3), np.zeros(3), np.zeros((0, 3)))
    with pytest.raises(EmptyMap):
        corrected_velocity(
            meas, hat(np.zeros(3)), body(state)[1], innovations(*body(state), meas), Gains(1, 1, 1)
        )
    with pytest.raises(EmptyMap):
        step(state, meas, np.eye(3), Gains(1, 1, 1), 0.01)


def test_landmark_rate_zero_at_truth():
    truth, state, meas = perfect_setup(t=1.3)
    gains = Gains(2.0, 1.0, 12.0)
    e = attitude_error(truth.dcm, state.dcm)
    omega_hat = corrected_angular_velocity(meas, e, gains)
    rates = landmark_rates(
        body(state)[0], hat(omega_hat - meas.omega), innovations(*body(state), meas), state.dcm, gains
    )
    for i in range(len(LANDMARKS)):
        assert np.allclose(rates[i], 0.0, atol=1e-13)


def test_landmark_rate_direct_substitution():
    state = ObserverState(np.eye(3), np.zeros(3), np.array([[2.0, 0, 0]]))
    meas = MeasurementFrame(np.zeros(3), np.zeros(3), np.array([[1.0, 0, 0]]))
    # omega_hat == omega, s_tilde = (1,0,0), k2 = 1 -> rate = -(1,0,0)
    gains = Gains(1.0, 1.0, 1.0)
    s_tilde = innovations(*body(state), meas)
    out = landmark_rates(body(state)[0], hat(np.zeros(3)), s_tilde, state.dcm, gains)
    assert np.allclose(out[0], [-1.0, 0.0, 0.0])


def test_landmark_rate_matches_transcription(rng):
    state, meas = random_setup(rng)
    gains = Gains(1.0, 0.8, 3.0)
    omega_hat = rng.normal(size=3)
    c = state.dcm
    rates = landmark_rates(
        body(state)[0], hat(omega_hat - meas.omega), innovations(*body(state), meas), state.dcm, gains
    )
    for i in range(4):
        alpha = np.cross(omega_hat - meas.omega, c @ state.landmarks[i]) - gains.k2 * straight_line_residual(state, meas, i)
        assert np.allclose(rates[i], c.T @ alpha, atol=1e-12)


def test_step_equilibrium_on_screw():
    spec = screw_spec()
    truth, state, _ = perfect_setup()
    gains = Gains(2.0, 1.0, 12.0)
    dt = 0.01
    for k in range(200):
        truth = truth_at(spec, k * dt, LANDMARKS)
        meas = measure(truth, NoiseSpec(), np.random.default_rng(0))
        state = step(state, meas, truth.dcm, gains, dt)
    truth_end = truth_at(spec, 200 * dt, LANDMARKS)
    err = metrics.evaluate(state, truth_end)
    assert err.attitude_error_angle < 1e-9
    assert err.position_error < 1e-9
    assert np.allclose(state.landmarks, LANDMARKS, atol=1e-12)


def test_step_local_truncation_order():
    # Richardson comparison against a dt/10 reference over one coarse step
    spec = TrajectorySpec(
        "tumble", radius=1.0, angular_rate=1.0, tumble_amplitude=(0.4, 0.3, 0.5)
    )
    gains = Gains(1.0, 1.0, 1.0)
    state0 = ObserverState(
        exp_so3([0.1, -0.05, 0.2]), np.array([0.3, -0.2, 0.1]), LANDMARKS + 0.1, 0.0
    )

    def advance(dt, n):
        state = state0
        for k in range(n):
            truth = truth_at(spec, k * dt, LANDMARKS)
            meas = measure(truth, NoiseSpec(), np.random.default_rng(0))
            state = step(state, meas, truth.dcm, gains, dt)
        return state

    def dist(a, b):
        return rotation_angle(a.dcm @ b.dcm.T) + np.linalg.norm(
            a.position - b.position
        )

    ref = advance(0.004, 10)
    err_coarse = dist(advance(0.04, 1), ref)
    ref2 = advance(0.002, 10)
    err_half = dist(advance(0.02, 1), ref2)
    # local truncation error of a first-order step drops at least 4x when dt halves
    assert err_coarse / err_half > 3.0


def test_step_lyapunov_non_increasing_from_perturbation():
    spec = screw_spec()
    gains = Gains(2.0, 1.0, 12.0)
    dt = 0.005
    truth = truth_at(spec, 0.0, LANDMARKS)
    state = ObserverState(
        exp_so3([0.2, 0.1, -0.3]) @ truth.dcm,
        truth.position + [0.5, -0.3, 0.2],
        LANDMARKS + np.array([[0.2, -0.1, 0.3]] * len(LANDMARKS)),
        0.0,
    )
    meas = measure(truth, NoiseSpec(), np.random.default_rng(0))
    v_before = metrics.evaluate(state, truth).lyapunov
    new = step(state, meas, truth.dcm, gains, dt)
    v_after = metrics.evaluate(new, truth_at(spec, dt, LANDMARKS)).lyapunov
    assert v_after <= v_before + 1e-9 * max(1.0, v_before)


def test_step_zero_gains_is_dead_reckoning(rng):
    state, _ = random_setup(rng)
    meas = MeasurementFrame(rng.normal(size=3), rng.normal(size=3), rng.normal(size=(4, 3)))
    gains = Gains(0.0, 0.0, 0.0)
    dt = 0.01
    new = step(state, meas, random_rotation(rng), gains, dt)
    from se3slam.liegroup import homogeneous

    expected = compose_raw(state.dcm, state.position, *exp_se3(meas.omega * dt, meas.velocity * dt))
    assert np.allclose(homogeneous(new.dcm, new.position), homogeneous(*expected), atol=1e-12)
    assert np.allclose(new.landmarks, state.landmarks, atol=1e-15)


def test_step_preserves_landmark_count_and_is_deterministic(rng):
    state, meas = random_setup(rng)
    gains = Gains(1.0, 1.0, 1.0)
    c_ba = random_rotation(rng)
    a = step(state, meas, c_ba, gains, 0.01)
    b = step(state, meas, c_ba, gains, 0.01)
    assert len(a.landmarks) == len(state.landmarks)
    assert np.array_equal(a.dcm, b.dcm)
    assert np.array_equal(a.position, b.position)
    assert np.array_equal(a.landmarks, b.landmarks)


def test_step_rotation_stays_orthonormal(rng):
    state, _ = random_setup(rng)
    gains = Gains(1.0, 1.0, 1.0)
    for _ in range(500):
        meas = MeasurementFrame(rng.normal(size=3), rng.normal(size=3), rng.normal(size=(4, 3)))
        state = step(state, meas, random_rotation(rng), gains, 0.005)
    assert np.linalg.norm(state.dcm.T @ state.dcm - np.eye(3)) < 1e-12


def _dead_reckoning(state, meas, dt):
    """compose(X_hat, exp_se3(twist * dt)) as raw (dcm, position): the pose a
    zero-gain step reaches before any projection."""
    return compose_raw(state.dcm, state.position, *exp_se3(meas.omega * dt, meas.velocity * dt))


def test_step_projects_only_a_drifted_attitude(rng, monkeypatch):
    state, meas = random_setup(rng)
    gains, dt = Gains(0.0, 0.0, 0.0), 0.01
    projections = []

    def counted(m):
        projections.append(m)
        return reorthonormalize(m)

    monkeypatch.setattr(observer, "reorthonormalize", counted)
    # on the group: no projection, the Lie-Euler product itself
    dcm, position = _dead_reckoning(state, meas, dt)
    on_group = step(state, meas, np.eye(3), gains, dt)
    assert np.linalg.norm(dcm @ dcm.T - np.eye(3)) <= DRIFT_TOL
    assert projections == []
    assert np.allclose(on_group.dcm, dcm, rtol=0.0, atol=1e-15)
    assert np.allclose(on_group.position, position, rtol=0.0, atol=1e-15)
    # 1e-8 off the group: the product is projected back
    drifted = ObserverState(
        state.dcm + 1e-8 * rng.normal(size=(3, 3)), state.position, state.landmarks
    )
    dcm, position = _dead_reckoning(drifted, meas, dt)
    assert np.linalg.norm(dcm @ dcm.T - np.eye(3)) > 1e-9
    out = step(drifted, meas, np.eye(3), gains, dt)
    assert len(projections) == 1
    assert np.allclose(out.dcm, reorthonormalize(dcm), rtol=0.0, atol=1e-15)
    assert np.allclose(out.position, position, rtol=0.0, atol=1e-15)
    assert np.linalg.norm(out.dcm.T @ out.dcm - np.eye(3)) < 1e-14


@pytest.mark.parametrize(
    "gains, omega, velocity",
    [
        # k1 * dt |e| overflows the SO(3) series
        (Gains(1e108, 1.0, 1.0), np.zeros(3), np.zeros(3)),
        (Gains(1.0, 1.0, 1.0), np.zeros(3), np.array([np.nan, 0.0, 0.0])),
        (Gains(1.0, 1.0, 1.0), np.array([np.inf, 0.0, 0.0]), np.zeros(3)),
    ],
    ids=["series-overflow", "nan-velocity", "inf-omega"],
)
def test_step_non_finite_increment_message(rng, gains, omega, velocity):
    state, meas = random_setup(rng)
    state = ObserverState(state.dcm, state.position, state.landmarks, 0.25)
    bad = MeasurementFrame(omega, velocity, meas.landmark_obs)
    with pytest.raises(NonFiniteState, match=r"^non-finite pose increment at t=0\.25$"):
        step(state, bad, random_rotation(rng), gains, 0.01)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_non_finite_state_message(rng):
    # a finite increment (W acts on the small position), but W acting on the
    # huge landmark overflows its update: dt k1 |P_hat| is 1e312
    state, meas = random_setup(rng)
    far = ObserverState(state.dcm, state.position, np.array([[1e300, 0.0, 0.0]]), 0.5)
    meas = MeasurementFrame(meas.omega, meas.velocity, meas.landmark_obs[:1])
    with pytest.raises(NonFiniteState, match=r"^non-finite state after step at t=0\.5$"):
        step(far, meas, random_rotation(rng), Gains(1e14, 0.0, 0.0), 0.01)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    st.floats(1e-4, 0.05),
    st.sampled_from([0.0, 1e-14, 1e-10, 1e-6]),
)
def test_step_output_stays_on_so3(seed, n_landmarks, gains, dt, off_group):
    rng = np.random.default_rng(seed)
    dcm = random_rotation(rng) + off_group * rng.normal(size=(3, 3))
    state = ObserverState(dcm, 5.0 * rng.normal(size=3), 5.0 * rng.normal(size=(n_landmarks, 3)))
    meas = MeasurementFrame(
        3.0 * rng.normal(size=3), 3.0 * rng.normal(size=3), 5.0 * rng.normal(size=(n_landmarks, 3))
    )
    out = step(state, meas, random_rotation(rng), Gains(*gains), dt)
    assert np.linalg.norm(out.dcm.T @ out.dcm - np.eye(3)) <= 1e-12


def random_block(rng, n, n_landmarks, off_group):
    """A state whose attitude is off SO(3) by about ``off_group``, and n stacked
    measurements and correction attitudes."""
    dcm = random_rotation(rng) + off_group * rng.normal(size=(3, 3))
    landmarks = 5.0 * rng.normal(size=(n_landmarks, 3))
    state = ObserverState(dcm, 5.0 * rng.normal(size=3), landmarks, 0.25)
    meas = MeasurementFrame(
        3.0 * rng.normal(size=(n, 3)),
        3.0 * rng.normal(size=(n, 3)),
        5.0 * rng.normal(size=(n, n_landmarks, 3)),
    )
    return state, meas, np.array([random_rotation(rng) for _ in range(n)])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.integers(1, 40),
    st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    st.floats(1e-4, 0.05),
    st.sampled_from([0.0, 1e-10, 1e-6]),
)
def test_block_step_equals_single_steps_bit_for_bit(seed, n_landmarks, n, gains, dt, off_group):
    rng = np.random.default_rng(seed)
    state, meas, c_ba = random_block(rng, n, n_landmarks, off_group)
    block = step(state, meas, c_ba, Gains(*gains), dt)
    for i in range(n):
        state = step(state, meas.row(i), c_ba[i], Gains(*gains), dt)
        assert_same_states(block, i, state)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    st.floats(1e-4, 0.05),
    st.sampled_from([0.0, 1e-10, 1e-6]),
)
def test_step_matches_the_equations(seed, n_landmarks, gains, dt, off_group):
    # one step against the one-function-per-equation oracle
    rng = np.random.default_rng(seed)
    state, meas, c_ba = random_block(rng, 1, n_landmarks, off_group)
    out = step(state, meas.row(0), c_ba[0], Gains(*gains), dt)
    expected = reference_step(state, meas.row(0), c_ba[0], Gains(*gains), dt)
    assert np.allclose(out.dcm, expected.dcm, rtol=0.0, atol=1e-12)
    assert np.allclose(out.position, expected.position, rtol=0.0, atol=1e-12)
    assert np.allclose(out.landmarks, expected.landmarks, rtol=0.0, atol=1e-12)
    assert out.time == expected.time


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [3, 5], ids=["last-step", "mid-block"])
def test_block_step_raises_where_single_steps_do(rng, n):
    # the map overflows at step 2 (W acting on the 1e300 m landmark); before it
    # C_ba equals the unmoving estimate, so e = 0. A block call names the same
    # step as single calls, whether step 2 ends the block or is followed by more
    state, _, c_ba = random_block(rng, n, 1, 0.0)
    state = ObserverState(state.dcm, state.position, np.array([[1e300, 0.0, 0.0]]), 0.5)
    meas = MeasurementFrame(np.zeros((n, 3)), np.zeros((n, 3)), np.ones((n, 1, 3)))
    c_ba[:2] = state.dcm
    gains, dt = Gains(1e14, 0.0, 0.0), 0.01
    current = state
    with pytest.raises(NonFiniteState) as single:
        for i in range(n):
            current = step(current, meas.row(i), c_ba[i], gains, dt)
    assert str(single.value) == "non-finite state after step at t=0.52"
    with pytest.raises(NonFiniteState, match=r"^non-finite state after step at t=0\.52$"):
        step(state, meas, c_ba, gains, dt)


def test_resolve_attitude_reconstructed_and_fallback(rng):
    truth, state, meas = perfect_setup(t=0.4)
    c, ok = resolve_attitude(meas.landmark_obs, state.landmarks - state.position, state.time, None)
    assert ok
    assert rotation_angle(c @ truth.dcm.T) < 1e-9
    # collinear observations: falls back to the supplied attitude and flags it
    collinear = np.tile(np.array([[1.0, 0, 0]]), (4, 1))
    fb = np.eye(3)
    c2, ok2 = resolve_attitude(collinear, collinear, 0.0, fb)
    assert not ok2
    assert c2 is fb


def test_resolve_attitude_zero_direction_takes_fallback():
    # a landmark estimate at the estimated body position has no datum direction
    _, state, meas = perfect_setup(t=0.4)
    datum = state.landmarks - state.position
    datum[2] = 0.0
    with pytest.raises(ZeroVector):
        resolve_attitude(meas.landmark_obs, datum, state.time, None)
    fb = np.eye(3)
    c, ok = resolve_attitude(meas.landmark_obs, datum, state.time, fb)
    assert not ok
    assert c is fb


def test_resolve_attitude_nan_direction_takes_fallback():
    # a NaN landmark estimate has no datum direction: the solve rejects it as
    # DegenerateGeometry, so a step with a fallback takes it
    _, state, meas = perfect_setup(t=0.4)
    datum = state.landmarks - state.position
    datum[1, 0] = np.nan
    with pytest.raises(DegenerateGeometry, match="non-finite"):
        resolve_attitude(meas.landmark_obs, datum, state.time, None)
    fb = np.eye(3)
    c, ok = resolve_attitude(meas.landmark_obs, datum, state.time, fb)
    assert not ok
    assert c is fb


def test_reconstructed_step_without_fallback_names_the_time(rng):
    # a map collinear as seen from the position, and no earlier solve to fall back on
    state, meas, _ = random_block(rng, 1, 4, 0.0)
    collinear = state.position + np.outer(np.arange(1.0, 5.0), (1.0, 2.0, 3.0))
    state = ObserverState(state.dcm, state.position, collinear, 0.25)
    with pytest.raises(DegenerateGeometry) as raised:
        step(state, meas.row(0), None, Gains(1.0, 1.0, 1.0), 0.01)
    assert str(raised.value) == (
        "attitude solve at t=0.25: fewer than 2 non-collinear datum directions; "
        "the datum directions are the estimated landmarks seen from the estimated position"
    )


def assert_same_states(block, i, state):
    assert np.array_equal(block.dcm[i], state.dcm)
    assert np.array_equal(block.position[i], state.position)
    assert np.array_equal(block.landmarks[i], state.landmarks)
    assert block.time[i] == state.time


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(3, 8),
    st.integers(1, 40),
    st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    st.floats(1e-4, 0.05),
    st.sets(st.integers(1, 39), max_size=5),
    st.integers(1, 38),
)
def test_reconstructed_block_equals_single_steps_bit_for_bit(
    seed, n_landmarks, n, gains, dt, failing, pair
):
    # a zero observation row makes a step's solve fail, never the first step's,
    # and two steps in a row fail from ``pair`` on: those steps (and any whose
    # drawn geometry degenerates) fall back to the last good solve, which each
    # one-instant call carries into the next
    rng = np.random.default_rng(seed)
    state, meas, _ = random_block(rng, n, n_landmarks, 0.0)
    failing = {k for k in failing | {pair, pair + 1} if k < n}
    meas.landmark_obs[sorted(failing), 0] = 0.0
    block, oks, last_good = step(state, meas, None, Gains(*gains), dt)
    assert oks[0] and not oks[sorted(failing)].any()
    fallback = None
    for i in range(n):
        state, ok, fallback = step(state, meas.row(i), None, Gains(*gains), dt, fallback)
        assert_same_states(block, i, state)
        assert ok.tolist() == [oks[i]]
    assert np.array_equal(last_good, fallback)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [4, 6], ids=["last-step", "mid-block"])
def test_reconstructed_block_raises_where_single_steps_do(rng, n):
    # every solve falls back (the 1e300 m landmark's direction has no finite
    # norm) to the estimate's own attitude, so e = 0 and nothing moves until the
    # measured rotation of step 2 turns the estimate; at step 3, W acts on the
    # far landmark and the map overflows. A block call names step 3 as single
    # calls do, whether step 3 ends the block or is followed by more
    state, meas, _ = random_block(rng, n, 3, 0.0)
    landmarks = state.landmarks.copy()
    landmarks[0] = (1e300, 0.0, 0.0)
    state = ObserverState(state.dcm, state.position, landmarks, 0.5)
    omega = np.zeros((n, 3))
    omega[2] = (0.1, 0.2, 0.3)
    meas = MeasurementFrame(omega, np.zeros((n, 3)), meas.landmark_obs)
    gains, dt = Gains(1e14, 0.0, 0.0), 0.01
    current, fallback = state, state.dcm
    with pytest.raises(NonFiniteState) as single:
        for i in range(n):
            current, ok, fallback = step(current, meas.row(i), None, gains, dt, fallback)
            assert not ok[0]
    assert str(single.value) == "non-finite state after step at t=0.53"
    with pytest.raises(NonFiniteState, match=r"^non-finite state after step at t=0\.53$"):
        step(state, meas, None, gains, dt, state.dcm)
