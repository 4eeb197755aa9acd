import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    attitude_error,
    compose_raw,
    corrected_angular_velocity,
    corrected_velocity,
    frames,
    innovations,
    landmark_rates,
    random_rotation,
    reference_step,
)
from se3slam import metrics, observer
from se3slam.errors import DegenerateGeometry, NonFiniteState
from se3slam.liegroup import exp_se3, exp_so3, hat, homogeneous, reorthonormalize, rotation_angle
from se3slam.observer import DRIFT_TOL, Gains, ObserverState, resolve_attitude, step
from se3slam.simulator import (
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
    """The truth at t, a state equal to it, and the exact measurement, each a 1-instant block."""
    truth = truth_at(screw_spec(), np.array([t]), LANDMARKS)
    state = ObserverState(truth.dcm, truth.position, LANDMARKS[None].copy())
    return truth, state, measure(truth, NoiseSpec(), np.random.default_rng(0))


def random_frame(rng):
    """A 1-instant measurement at t = 0 of normal omega, velocity and 4 observations."""
    return MeasurementFrame(
        np.zeros(1), rng.normal(size=(1, 3)), rng.normal(size=(1, 3)), rng.normal(size=(1, 4, 3))
    )


def random_setup(rng):
    """A 1-instant state of 4 landmarks and a random_frame."""
    dcm, position, landmarks = random_rotation(rng), rng.normal(size=3), rng.normal(size=(4, 3))
    return ObserverState(dcm[None], position[None], landmarks[None]), random_frame(rng)


def body(state):
    """The estimates of the state's last instant resolved in the body frame:
    (P_hat @ C_ea.T, C_ea @ r_hat)."""
    c = state.dcm[-1]
    return state.landmarks[-1] @ c.T, c @ state.position[-1]


def straight_line_residual(state, meas, i):
    # independent scalar transcription of the residual formula
    c = state.dcm[-1]
    p = state.landmarks[-1][i]
    r = state.position[-1]
    out = np.zeros(3)
    for row in range(3):
        out[row] = (
            c[row, 0] * (p[0] - r[0])
            + c[row, 1] * (p[1] - r[1])
            + c[row, 2] * (p[2] - r[2])
            - meas.landmark_obs[0][i][row]
        )
    return out


def test_innovation_zero_at_truth():
    _, state, meas = perfect_setup()
    for i in range(len(LANDMARKS)):
        assert np.allclose(innovations(*body(state), meas.landmark_obs[0])[i], 0.0, atol=1e-14)


def test_innovation_direct_substitution():
    state = ObserverState(np.eye(3)[None], np.zeros((1, 3)), np.array([[[1.0, 0, 0]]]))
    assert np.allclose(innovations(*body(state), np.zeros((1, 3)))[0], [1.0, 0.0, 0.0])


def test_innovation_matches_transcription(rng):
    state, meas = random_setup(rng)
    for i in range(4):
        expected = straight_line_residual(state, meas, i)
        assert np.allclose(innovations(*body(state), meas.landmark_obs[0])[i], expected, atol=1e-13)


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
    omega = np.array([0.1, 0.2, 0.3])
    gains = Gains(2.0, 1.0, 1.0)
    assert np.allclose(corrected_angular_velocity(omega, np.zeros(3), gains), omega)
    assert np.allclose(
        corrected_angular_velocity(np.zeros(3), np.array([0, 0, 1.0]), gains), [0, 0, -2.0]
    )
    e = np.array([0.3, -0.1, 0.2])
    single = corrected_angular_velocity(np.zeros(3), e, gains)
    double = corrected_angular_velocity(np.zeros(3), 2 * e, gains)
    assert np.allclose(double, 2 * np.array(single))


def test_corrected_velocity_all_corrections_off(rng):
    state, meas = random_setup(rng)
    (omega,), (velocity,), (obs,) = meas.omega, meas.velocity, meas.landmark_obs
    omega_hat = omega.copy()
    w = hat(omega_hat - omega)
    s_tilde = innovations(*body(state), obs)
    out = corrected_velocity(velocity, obs, w, body(state)[1], s_tilde, Gains(1.0, 0.0, 0.0))
    assert np.allclose(out, velocity, atol=1e-14)


def test_corrected_velocity_noise_free_reduction():
    # with perfect estimates and landmark 0 at the origin the anchor term
    # equals k3 * C_ba @ p_1 = 0, so v_hat reduces to the measured velocity
    truth, state, meas = perfect_setup(t=0.7)
    (omega,), (velocity,), (obs,) = meas.omega, meas.velocity, meas.landmark_obs
    gains = Gains(2.0, 1.0, 12.0)
    e = attitude_error(truth.dcm[0], state.dcm[0])
    omega_hat = corrected_angular_velocity(omega, e, gains)
    w = hat(omega_hat - omega)
    s_tilde = innovations(*body(state), obs)
    out = corrected_velocity(velocity, obs, w, body(state)[1], s_tilde, gains)
    # oracle: substitution of the exact measurement model
    expected = velocity - gains.k3 * (truth.dcm[0] @ truth.landmarks[0])
    assert np.allclose(out, expected, atol=1e-12)
    assert np.allclose(out, velocity, atol=1e-12)


def test_corrected_velocity_matches_transcription(rng):
    state, meas = random_setup(rng)
    (omega,), (velocity,), (obs,) = meas.omega, meas.velocity, meas.landmark_obs
    gains = Gains(1.5, 0.7, 2.5)
    omega_hat = rng.normal(size=3)
    c, position = state.dcm[0], state.position[0]
    total_innov = sum(straight_line_residual(state, meas, i) for i in range(4))
    expected = (
        velocity
        + np.cross(omega_hat - omega, c @ position)
        + gains.k2 * total_innov
        - gains.k3 * (c @ position + obs[0])
    )
    w = hat(omega_hat - omega)
    s_tilde = innovations(*body(state), obs)
    out = corrected_velocity(velocity, obs, w, body(state)[1], s_tilde, gains)
    assert np.allclose(out, expected, atol=1e-12)


def test_corrected_velocity_empty_map():
    state = ObserverState(np.eye(3)[None], np.zeros((1, 3)), np.zeros((1, 0, 3)))
    meas = MeasurementFrame(np.zeros(1), np.zeros((1, 3)), np.zeros((1, 3)), np.zeros((1, 0, 3)))
    obs = meas.landmark_obs[0]
    with pytest.raises(ValueError, match=r"at least one landmark, got shape \(0, 3\)$"):
        corrected_velocity(
            meas.velocity[0], obs, hat(np.zeros(3)), body(state)[1],
            innovations(*body(state), obs), Gains(1, 1, 1),
        )
    empty = r"^landmark_obs must hold at least one landmark, got shape \(1, 0, 3\)$"
    with pytest.raises(ValueError, match=empty):
        step(state, meas, np.eye(3)[None], Gains(1, 1, 1), 0.01)


def test_landmark_rate_zero_at_truth():
    truth, state, meas = perfect_setup(t=1.3)
    (omega,), (obs,) = meas.omega, meas.landmark_obs
    gains = Gains(2.0, 1.0, 12.0)
    e = attitude_error(truth.dcm[0], state.dcm[0])
    omega_hat = corrected_angular_velocity(omega, e, gains)
    rates = landmark_rates(
        body(state)[0], hat(omega_hat - omega), innovations(*body(state), obs), state.dcm[0], gains
    )
    for i in range(len(LANDMARKS)):
        assert np.allclose(rates[i], 0.0, atol=1e-13)


def test_landmark_rate_direct_substitution():
    state = ObserverState(np.eye(3)[None], np.zeros((1, 3)), np.array([[[2.0, 0, 0]]]))
    # omega_hat == omega, s_tilde = (1,0,0), k2 = 1 -> rate = -(1,0,0)
    gains = Gains(1.0, 1.0, 1.0)
    s_tilde = innovations(*body(state), np.array([[1.0, 0, 0]]))
    out = landmark_rates(body(state)[0], hat(np.zeros(3)), s_tilde, state.dcm[0], gains)
    assert np.allclose(out[0], [-1.0, 0.0, 0.0])


def test_landmark_rate_matches_transcription(rng):
    state, meas = random_setup(rng)
    (omega,), (obs,) = meas.omega, meas.landmark_obs
    gains = Gains(1.0, 0.8, 3.0)
    omega_hat = rng.normal(size=3)
    c = state.dcm[0]
    rates = landmark_rates(
        body(state)[0], hat(omega_hat - omega), innovations(*body(state), obs), c, gains
    )
    for i in range(4):
        alpha = np.cross(omega_hat - omega, c @ state.landmarks[0][i]) - gains.k2 * straight_line_residual(state, meas, i)
        assert np.allclose(rates[i], c.T @ alpha, atol=1e-12)


def test_step_equilibrium_on_screw():
    _, state, _ = perfect_setup()
    gains = Gains(2.0, 1.0, 12.0)
    dt = 0.01
    truth = truth_at(screw_spec(), np.arange(201) * dt, LANDMARKS)
    meas = measure(truth.row(slice(0, 200)), NoiseSpec(), np.random.default_rng(0))
    states = step(state, meas, truth.dcm[:200], gains, dt)[0]
    err = metrics.evaluate(states, truth.row(slice(1, None)), np.ones(200, bool)).row(-1)
    assert err.attitude_error_angle < 1e-9
    assert err.position_error < 1e-9
    assert np.allclose(states.landmarks[-1], LANDMARKS, atol=1e-12)


def test_step_local_truncation_order():
    # Richardson comparison against a dt/10 reference over one coarse step
    spec = TrajectorySpec(
        "tumble", radius=1.0, angular_rate=1.0, tumble_amplitude=(0.4, 0.3, 0.5)
    )
    gains = Gains(1.0, 1.0, 1.0)
    state0 = ObserverState(
        exp_so3([0.1, -0.05, 0.2])[None], np.array([[0.3, -0.2, 0.1]]), LANDMARKS[None] + 0.1
    )

    def advance(dt, n):
        truth = truth_at(spec, np.arange(n) * dt, LANDMARKS)
        meas = measure(truth, NoiseSpec(), np.random.default_rng(0))
        return step(state0, meas, truth.dcm, gains, dt)[0]

    def dist(a, b):
        # between the last states of two stacks
        return rotation_angle(a.dcm[-1] @ b.dcm[-1].T) + np.linalg.norm(
            a.position[-1] - b.position[-1]
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
    truth = truth_at(spec, np.array([0.0, dt]), LANDMARKS)
    state = ObserverState(
        exp_so3([0.2, 0.1, -0.3]) @ truth.dcm[:1],
        truth.position[:1] + [0.5, -0.3, 0.2],
        LANDMARKS[None] + np.array([[0.2, -0.1, 0.3]] * len(LANDMARKS)),
    )
    meas = measure(truth.row(slice(0, 1)), NoiseSpec(), np.random.default_rng(0))
    ok = np.ones(1, bool)
    v_before = metrics.evaluate(state, truth.row(slice(0, 1)), ok).lyapunov[0]
    new = step(state, meas, truth.dcm[:1], gains, dt)[0]
    v_after = metrics.evaluate(new, truth.row(slice(1, 2)), ok).lyapunov[0]
    assert v_after <= v_before + 1e-9 * max(1.0, v_before)


def test_step_zero_gains_is_dead_reckoning(rng):
    state, _ = random_setup(rng)
    meas = random_frame(rng)
    gains = Gains(0.0, 0.0, 0.0)
    dt = 0.01
    new = step(state, meas, random_rotation(rng)[None], gains, dt)[0]
    expected = _dead_reckoning(state, meas, dt)
    assert np.allclose(homogeneous(new.dcm[0], new.position[0]), homogeneous(*expected), atol=1e-12)
    assert np.allclose(new.landmarks, state.landmarks, atol=1e-15)


def test_step_preserves_landmark_count_and_is_deterministic(rng):
    state, meas = random_setup(rng)
    gains = Gains(1.0, 1.0, 1.0)
    c_ba = random_rotation(rng)[None]
    a = step(state, meas, c_ba, gains, 0.01)[0]
    b = step(state, meas, c_ba, gains, 0.01)[0]
    assert a.landmarks.shape == state.landmarks.shape
    assert np.array_equal(a.dcm, b.dcm)
    assert np.array_equal(a.position, b.position)
    assert np.array_equal(a.landmarks, b.landmarks)


def test_step_rotation_stays_orthonormal(rng):
    state, _ = random_setup(rng)
    gains = Gains(1.0, 1.0, 1.0)
    for _ in range(500):
        meas = random_frame(rng)
        state = step(state, meas, random_rotation(rng)[None], gains, 0.005)[0]
    assert np.linalg.norm(state.dcm[0].T @ state.dcm[0] - np.eye(3)) < 1e-12


def _dead_reckoning(state, meas, dt):
    """compose(X_hat, exp_se3(twist * dt)) as raw (dcm, position), from the
    state's last instant and the 1-instant ``meas``: the pose a zero-gain step
    reaches before any projection."""
    twist = meas.omega[0] * dt, meas.velocity[0] * dt
    return compose_raw(state.dcm[-1], state.position[-1], *exp_se3(*twist))


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
    on_group = step(state, meas, np.eye(3)[None], gains, dt)[0]
    assert np.linalg.norm(dcm @ dcm.T - np.eye(3)) <= DRIFT_TOL
    assert projections == []
    assert np.allclose(on_group.dcm[0], dcm, rtol=0.0, atol=1e-15)
    assert np.allclose(on_group.position[0], position, rtol=0.0, atol=1e-15)
    # 1e-8 off the group: the product is projected back
    drifted = ObserverState(
        state.dcm + 1e-8 * rng.normal(size=(3, 3)), state.position, state.landmarks
    )
    dcm, position = _dead_reckoning(drifted, meas, dt)
    assert np.linalg.norm(dcm @ dcm.T - np.eye(3)) > 1e-9
    out = step(drifted, meas, np.eye(3)[None], gains, dt)[0]
    assert len(projections) == 1
    assert np.allclose(out.dcm[0], reorthonormalize(dcm), rtol=0.0, atol=1e-15)
    assert np.allclose(out.position[0], position, rtol=0.0, atol=1e-15)
    assert np.linalg.norm(out.dcm[0].T @ out.dcm[0] - np.eye(3)) < 1e-14


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
    bad = MeasurementFrame(np.array([0.25]), omega[None], velocity[None], meas.landmark_obs)
    with pytest.raises(NonFiniteState, match=r"^non-finite pose increment at t=0\.25$"):
        step(state, bad, random_rotation(rng)[None], gains, 0.01)


def test_step_non_finite_state_message(rng):
    # a finite increment (W acts on the small position), but W acting on the
    # huge landmark overflows its update: dt k1 |P_hat| is 1e312
    state, meas = random_setup(rng)
    far = ObserverState(state.dcm, state.position, np.array([[[1e300, 0.0, 0.0]]]))
    meas = MeasurementFrame(np.array([0.5]), meas.omega, meas.velocity, meas.landmark_obs[:, :1])
    with pytest.raises(NonFiniteState, match=r"^non-finite state after step at t=0\.5$"):
        step(far, meas, random_rotation(rng)[None], Gains(1e14, 0.0, 0.0), 0.01)


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
    state = ObserverState(
        dcm[None], 5.0 * rng.normal(size=(1, 3)), 5.0 * rng.normal(size=(1, n_landmarks, 3))
    )
    meas = MeasurementFrame(
        np.zeros(1),
        3.0 * rng.normal(size=(1, 3)),
        3.0 * rng.normal(size=(1, 3)),
        5.0 * rng.normal(size=(1, n_landmarks, 3)),
    )
    (out,) = step(state, meas, random_rotation(rng)[None], Gains(*gains), dt)[0].dcm
    assert np.linalg.norm(out.T @ out - np.eye(3)) <= 1e-12


def random_block(rng, n, n_landmarks, off_group):
    """A 1-instant state whose attitude is off SO(3) by about ``off_group``, and
    n stacked measurements, taken at 0.25, 0.26, ..., and correction attitudes."""
    dcm = random_rotation(rng) + off_group * rng.normal(size=(3, 3))
    landmarks = 5.0 * rng.normal(size=(1, n_landmarks, 3))
    state = ObserverState(dcm[None], 5.0 * rng.normal(size=(1, 3)), landmarks)
    meas = MeasurementFrame(
        np.arange(25, 25 + n) * 0.01,
        3.0 * rng.normal(size=(n, 3)),
        3.0 * rng.normal(size=(n, 3)),
        5.0 * rng.normal(size=(n, n_landmarks, 3)),
    )
    return state, meas, np.array([random_rotation(rng) for _ in range(n)])


# The landmark counts of the kernel properties: a few, and dense_sweep's 256.
LANDMARK_COUNTS = st.integers(1, 8) | st.just(256)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    LANDMARK_COUNTS,
    st.integers(1, 40),
    st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    st.floats(1e-4, 0.05),
    st.sampled_from([0.0, 1e-10, 1e-6]),
)
def test_block_step_equals_single_steps_bit_for_bit(seed, n_landmarks, n, gains, dt, off_group):
    # one n-block against n 1-blocks, each continuing from the states the last
    # returned, and against two blocks split at ``n // 2``
    rng = np.random.default_rng(seed)
    state, meas, c_ba = random_block(rng, n, n_landmarks, off_group)
    block = step(state, meas, c_ba, Gains(*gains), dt)[0]
    if n > 1:
        head = step(state, frames(meas, 0, n // 2), c_ba[: n // 2], Gains(*gains), dt)[0]
        tail = step(head, frames(meas, n // 2, n), c_ba[n // 2 :], Gains(*gains), dt)[0]
        assert np.array_equal(tail.dcm, block.dcm[n // 2 :])
        assert np.array_equal(tail.position, block.position[n // 2 :])
        assert np.array_equal(tail.landmarks, block.landmarks[n // 2 :])
    for i in range(n):
        state = step(state, frames(meas, i), c_ba[i : i + 1], Gains(*gains), dt)[0]
        assert_same_states(block, i, state)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    LANDMARK_COUNTS,
    st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    st.floats(1e-4, 0.05),
    st.sampled_from([0.0, 1e-10, 1e-6]),
)
def test_step_matches_the_equations(seed, n_landmarks, gains, dt, off_group):
    # one step against the one-function-per-equation oracle
    rng = np.random.default_rng(seed)
    state, meas, c_ba = random_block(rng, 1, n_landmarks, off_group)
    out = step(state, meas, c_ba, Gains(*gains), dt)[0]
    expected = reference_step(state, meas, c_ba, Gains(*gains), dt)
    # v_hat sums l innovations, so the position's rounding grows with l past 8
    # (1.4e-12 on a 2700 m position at l = 256, gains 10 and dt 0.05)
    position_tol = 1e-12 * max(1.0, n_landmarks / 8)
    assert np.allclose(out.dcm, expected.dcm, rtol=0.0, atol=1e-12)
    assert np.allclose(out.position, expected.position, rtol=0.0, atol=position_tol)
    assert np.allclose(out.landmarks, expected.landmarks, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 5], ids=["last-step", "mid-block"])
def test_block_step_raises_where_single_steps_do(rng, n):
    # the map overflows at step 2 (W acting on the 1e300 m landmark); before it
    # C_ba equals the unmoving estimate, so e = 0. A block call names the same
    # step as 1-block calls, whether step 2 ends the block or is followed by more
    state, _, c_ba = random_block(rng, n, 1, 0.0)
    state = ObserverState(state.dcm, state.position, np.array([[[1e300, 0.0, 0.0]]]))
    times = np.arange(50, 50 + n) * 0.01
    meas = MeasurementFrame(times, np.zeros((n, 3)), np.zeros((n, 3)), np.ones((n, 1, 3)))
    c_ba[:2] = state.dcm
    gains, dt = Gains(1e14, 0.0, 0.0), 0.01
    current = state
    with pytest.raises(NonFiniteState) as single:
        for i in range(n):
            current = step(current, frames(meas, i), c_ba[i : i + 1], gains, dt)[0]
    assert str(single.value) == "non-finite state after step at t=0.52"
    with pytest.raises(NonFiniteState, match=r"^non-finite state after step at t=0\.52$"):
        step(state, meas, c_ba, gains, dt)


def test_resolve_attitude_reconstructed_and_fallback(rng):
    truth, state, meas = perfect_setup(t=0.4)
    datum = state.landmarks[0] - state.position[0]
    c, ok = resolve_attitude(meas.landmark_obs[0], datum, meas.time[0], None)
    assert ok
    assert rotation_angle(c @ truth.dcm[0].T) < 1e-9
    # collinear observations: falls back to the supplied attitude and flags it
    collinear = np.tile(np.array([[1.0, 0, 0]]), (4, 1))
    fb = np.eye(3)
    c2, ok2 = resolve_attitude(collinear, collinear, 0.0, fb)
    assert not ok2
    assert c2 is fb


def test_resolve_attitude_zero_direction_takes_fallback():
    # a landmark estimate at the estimated body position has no datum direction
    _, state, meas = perfect_setup(t=0.4)
    datum = state.landmarks[0] - state.position[0]
    datum[2] = 0.0
    with pytest.raises(DegenerateGeometry, match="near-zero norm"):
        resolve_attitude(meas.landmark_obs[0], datum, meas.time[0], None)
    fb = np.eye(3)
    c, ok = resolve_attitude(meas.landmark_obs[0], datum, meas.time[0], fb)
    assert not ok
    assert c is fb


def test_resolve_attitude_nan_direction_takes_fallback():
    # a NaN landmark estimate has no datum direction: the solve rejects it as
    # DegenerateGeometry, so a step with a fallback takes it
    _, state, meas = perfect_setup(t=0.4)
    datum = state.landmarks[0] - state.position[0]
    datum[1, 0] = np.nan
    with pytest.raises(DegenerateGeometry, match="non-finite"):
        resolve_attitude(meas.landmark_obs[0], datum, meas.time[0], None)
    fb = np.eye(3)
    c, ok = resolve_attitude(meas.landmark_obs[0], datum, meas.time[0], fb)
    assert not ok
    assert c is fb


def test_reconstructed_step_without_fallback_names_the_time(rng):
    # a map collinear as seen from the position, and no earlier solve to fall back on
    state, meas, _ = random_block(rng, 1, 4, 0.0)
    collinear = state.position + np.outer(np.arange(1.0, 5.0), (1.0, 2.0, 3.0))
    state = ObserverState(state.dcm, state.position, collinear[None])
    with pytest.raises(DegenerateGeometry) as raised:
        step(state, meas, None, Gains(1.0, 1.0, 1.0), 0.01)
    assert str(raised.value) == (
        "attitude solve at t=0.25: fewer than 2 non-collinear datum directions; "
        "the datum directions are the estimated landmarks seen from the estimated position"
    )


def assert_same_states(block, i, state):
    """Instant i of the stacked states ``block`` is the last of ``state``, bit for bit."""
    assert np.array_equal(block.dcm[i], state.dcm[-1])
    assert np.array_equal(block.position[i], state.position[-1])
    assert np.array_equal(block.landmarks[i], state.landmarks[-1])


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
    # 1-block call carries into the next
    rng = np.random.default_rng(seed)
    state, meas, _ = random_block(rng, n, n_landmarks, 0.0)
    failing = {k for k in failing | {pair, pair + 1} if k < n}
    meas.landmark_obs[sorted(failing), 0] = 0.0
    block, oks, last_good = step(state, meas, None, Gains(*gains), dt)
    assert oks[0] and not oks[sorted(failing)].any()
    fallback = None
    for i in range(n):
        state, ok, fallback = step(state, frames(meas, i), None, Gains(*gains), dt, fallback)
        assert_same_states(block, i, state)
        assert ok.tolist() == [oks[i]]
    assert np.array_equal(last_good, fallback)


@pytest.mark.parametrize("n", [4, 6], ids=["last-step", "mid-block"])
def test_reconstructed_block_raises_where_single_steps_do(rng, n):
    # every solve falls back (the 1e300 m landmark's direction has no finite
    # norm) to the estimate's own attitude, so e = 0 and nothing moves until the
    # measured rotation of step 2 turns the estimate; at step 3, W acts on the
    # far landmark and the map overflows. A block call names step 3 as 1-block
    # calls do, whether step 3 ends the block or is followed by more
    state, meas, _ = random_block(rng, n, 3, 0.0)
    landmarks = state.landmarks.copy()
    landmarks[0, 0] = (1e300, 0.0, 0.0)
    state = ObserverState(state.dcm, state.position, landmarks)
    omega = np.zeros((n, 3))
    omega[2] = (0.1, 0.2, 0.3)
    times = np.arange(50, 50 + n) * 0.01
    meas = MeasurementFrame(times, omega, np.zeros((n, 3)), meas.landmark_obs)
    gains, dt = Gains(1e14, 0.0, 0.0), 0.01
    current, fallback = state, state.dcm[0]
    with pytest.raises(NonFiniteState) as single:
        for i in range(n):
            current, ok, fallback = step(current, frames(meas, i), None, gains, dt, fallback)
            assert not ok[0]
    assert str(single.value) == "non-finite state after step at t=0.53"
    with pytest.raises(NonFiniteState, match=r"^non-finite state after step at t=0\.53$"):
        step(state, meas, None, gains, dt, state.dcm[0])


@pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
def test_step_rejects_a_dt_that_is_not_finite_and_positive(rng, dt):
    # before any arithmetic: a NaN dt would otherwise surface as a non-finite
    # increment, and an infinite one as a warning first
    state, meas, c_ba = random_block(rng, 2, 4, 0.0)
    message = r"^dt must be finite and positive, got"
    for attitudes in (c_ba, None):
        with pytest.raises(ValueError, match=message):
            step(state, meas, attitudes, Gains(1.0, 1.0, 1.0), dt)
    with pytest.raises(ValueError, match=message):
        reference_step(state, frames(meas, 0), c_ba[:1], Gains(1.0, 1.0, 1.0), dt)


def test_true_attitude_step_returns_flags_and_the_fallback(rng):
    # one return shape in both modes: with true attitudes every flag is True
    # and the fallback comes back as given
    state, meas, c_ba = random_block(rng, 5, 4, 0.0)
    for fallback in (None, random_rotation(rng)):
        _, oks, last_good = step(state, meas, c_ba, Gains(1.0, 1.0, 1.0), 0.01, fallback)
        assert oks.dtype == bool and oks.tolist() == [True] * 5
        assert last_good is fallback


OBS_SHAPE = r"landmark_obs must be \(n, l, 3\) with n >= 1"
DCM_SHAPE = r"state.dcm must be \(m, 3, 3\) with m >= 1"


@pytest.mark.parametrize(
    "form, message",
    [
        ("scalar-t", r"^t must be a 1-D array of times, got shape \(\)$"),
        ("unstacked-truth", r"^truth.dcm must be \(n, 3, 3\), got shape \(3, 3\)$"),
        ("unstacked-meas", rf"^{OBS_SHAPE}, got shape \(4, 3\)$"),
        ("unstacked-meas-reconstructed", rf"^{OBS_SHAPE}, got shape \(4, 3\)$"),
        ("empty-block", rf"^{OBS_SHAPE}, got shape \(0, 2, 3\)$"),
        ("empty-block-reconstructed", rf"^{OBS_SHAPE}, got shape \(0, 2, 3\)$"),
        ("unstacked-c_ba", r"^c_ba must be \(1, 3, 3\) or None, got shape \(3, 3\)$"),
        ("unstacked-time", r"^time must be \(1,\), got shape \(\)$"),
        ("float-time", r"^time must be \(1,\), got shape \(\)$"),
        ("list-omega", r"^omega must be \(1, 3\), got shape \(3,\)$"),
        ("list-landmark_obs", rf"^{OBS_SHAPE}, got shape \(4, 3\)$"),
        ("list-c_ba", r"^c_ba must be \(1, 3, 3\) or None, got shape \(3, 3\)$"),
        ("unstacked-state", rf"^{DCM_SHAPE}, got shape \(3, 3\)$"),
        ("unstacked-state-reconstructed", rf"^{DCM_SHAPE}, got shape \(3, 3\)$"),
        ("empty-state", rf"^{DCM_SHAPE}, got shape \(0, 3, 3\)$"),
        ("unstacked-position", r"^state.position must be \(1, 3\), got shape \(3,\)$"),
        ("unstacked-landmarks", r"^state.landmarks must be \(1, 4, 3\), got shape \(4, 3\)$"),
        ("short-map", r"^state.landmarks must be \(1, 4, 3\), got shape \(1, 3, 3\)$"),
        ("unstacked-omega", r"^omega must be \(1, 3\), got shape \(3,\)$"),
        ("unstacked-velocity", r"^velocity must be \(1, 3\), got shape \(3,\)$"),
        ("unstacked-omega-reconstructed", r"^omega must be \(1, 3\), got shape \(3,\)$"),
        ("short-velocity", r"^velocity must be \(1, 3\), got shape \(0, 3\)$"),
        ("wide-omega", r"^omega must be \(1, 3\), got shape \(1, 4\)$"),
    ],
)
def test_one_instant_forms_raise(rng, form, message):
    # truth_at, measure and step take stacked blocks only; a one-instant
    # argument, or a field of the wrong shape spelled as a float or a list, is
    # an error, not an n-block read another way
    state, meas, c_ba = random_block(rng, 1, 4, 0.0)
    truth = truth_at(screw_spec(), np.zeros(1), LANDMARKS)
    gains, dt = Gains(1.0, 1.0, 1.0), 0.01

    def with_fields(**fields):
        return dataclasses.replace(meas, **fields)

    def with_state(**fields):
        return step(dataclasses.replace(state, **fields), meas, c_ba, gains, dt)

    one_instant = MeasurementFrame(
        meas.time[0], meas.omega[0], meas.velocity[0], meas.landmark_obs[0]
    )
    unstacked = ObserverState(state.dcm[0], state.position[0], state.landmarks[0])

    # n = 0: a block of no instants has no state to return
    empty = MeasurementFrame(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 2, 3)))

    calls = {
        "scalar-t": lambda: truth_at(screw_spec(), 0.0, LANDMARKS),
        "unstacked-truth": lambda: measure(truth.row(0), NoiseSpec(), np.random.default_rng(0)),
        "unstacked-meas": lambda: step(state, one_instant, c_ba, gains, dt),
        "unstacked-meas-reconstructed": lambda: step(state, one_instant, None, gains, dt),
        "empty-block": lambda: step(state, empty, c_ba[:0], gains, dt),
        "empty-block-reconstructed": lambda: step(state, empty, None, gains, dt),
        "unstacked-time": lambda: step(state, with_fields(time=meas.time[0]), c_ba, gains, dt),
        "float-time": lambda: step(state, with_fields(time=0.25), c_ba, gains, dt),
        "list-omega": lambda: step(state, with_fields(omega=[0.1, 0.2, 0.3]), c_ba, gains, dt),
        "list-landmark_obs": lambda: step(
            state, with_fields(landmark_obs=meas.landmark_obs[0].tolist()), c_ba, gains, dt
        ),
        "list-c_ba": lambda: step(state, meas, c_ba[0].tolist(), gains, dt),
        "unstacked-state": lambda: step(unstacked, meas, c_ba, gains, dt),
        "unstacked-state-reconstructed": lambda: step(unstacked, meas, None, gains, dt),
        "empty-state": lambda: with_state(
            dcm=state.dcm[:0], position=state.position[:0], landmarks=state.landmarks[:0]
        ),
        "unstacked-position": lambda: with_state(position=state.position[0]),
        "unstacked-landmarks": lambda: with_state(landmarks=state.landmarks[0]),
        "short-map": lambda: with_state(landmarks=state.landmarks[:, :3]),
        "unstacked-c_ba": lambda: step(state, meas, c_ba[0], gains, dt),
        "unstacked-omega": lambda: step(state, with_fields(omega=meas.omega[0]), c_ba, gains, dt),
        "unstacked-velocity": lambda: step(
            state, with_fields(velocity=meas.velocity[0]), c_ba, gains, dt
        ),
        "unstacked-omega-reconstructed": lambda: step(
            state, with_fields(omega=meas.omega[0]), None, gains, dt
        ),
        "short-velocity": lambda: step(
            state, with_fields(velocity=meas.velocity[:0]), c_ba, gains, dt
        ),
        "wide-omega": lambda: step(state, with_fields(omega=np.zeros((1, 4))), c_ba, gains, dt),
    }
    with pytest.raises(ValueError, match=message):
        calls[form]()


def test_step_reads_fields_spelled_as_lists_as_their_arrays(rng):
    # a hand-built frame, state or c_ba of nested lists and floats steps as
    # the arrays it spells, in both attitude modes
    state, meas, c_ba = random_block(rng, 3, 4, 0.0)
    fields = meas.time, meas.omega, meas.velocity, meas.landmark_obs
    listed_meas = MeasurementFrame(*(x.tolist() for x in fields))
    listed_state = ObserverState(*(x.tolist() for x in (state.dcm, state.position, state.landmarks)))
    for attitudes, listed in ((c_ba, c_ba.tolist()), (None, None)):
        expected, expected_oks, _ = step(state, meas, attitudes, Gains(1.0, 1.0, 1.0), 0.01)
        states, oks, _ = step(listed_state, listed_meas, listed, Gains(1.0, 1.0, 1.0), 0.01)
        assert np.array_equal(states.dcm, expected.dcm)
        assert np.array_equal(states.position, expected.position)
        assert np.array_equal(states.landmarks, expected.landmarks)
        assert np.array_equal(oks, expected_oks)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(*[st.floats(0.0, 50.0)] * 3),
    st.one_of(st.integers(1, 40), st.sampled_from([8, 256, 387, 388])),
)
def test_fastest_rate_is_the_largest_eigenvalue_of_the_error_matrix(gains, num_landmarks):
    # Linearized with the attitude exact and no rotation, one axis of the position
    # error r and the map errors p_i follows d/dt r = k2 sum_i (p_i - r) - k3 r and
    # d/dt p_i = -k2 (p_i - r), that is d/dt [r, p] = -E [r, p]; the attitude error
    # decays at k1.
    k1, k2, k3 = gains
    rates = k2 * np.eye(num_landmarks + 1)
    rates[0, 0] = num_landmarks * k2 + k3
    rates[0, 1:] = rates[1:, 0] = -k2
    expected = max(k1, np.linalg.eigvals(rates).real.max())
    rate = observer.fastest_rate(Gains(k1, k2, k3), num_landmarks)
    assert rate == pytest.approx(expected, rel=1e-9, abs=1e-12)
