import math
from pathlib import Path

import numpy as np
import pytest

from se3slam import attitude
from se3slam.errors import DegenerateGeometry, EmptyMap, NonFiniteState
from se3slam.liegroup import compose_raw, exp_se3, exp_so3, hat, reorthonormalize, rotation_drift, vee
from se3slam.metrics import ErrorRecord
from se3slam.observer import DRIFT_TOL, ObserverState

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_rotation(rng, max_angle=np.pi):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return exp_so3(axis * rng.uniform(0.0, max_angle))


def stack_records(records) -> ErrorRecord:
    """One stacked ErrorRecord from single-instant records, row i from records[i]."""
    return ErrorRecord(*map(np.array, zip(*(r.columns() for r in records))))


# The observer written one function per equation, as the module docstring of
# se3slam.observer states them: the oracle that step is held to.


def innovations(body_landmarks, body_position, meas):
    """All landmark residuals stacked as an (l, 3) array, from the estimates in
    the body frame: body_landmarks = P_hat @ C_ea.T, body_position = C_ea @ r_hat."""
    return body_landmarks - body_position - meas.landmark_obs


def attitude_error(c_ba, c_ea):
    """vee of the skew part of C_ba @ C_ea.T; zero iff the attitudes agree."""
    (_, m01, m02), (m10, _, m12), (m20, m21, _) = (c_ba @ c_ea.T).tolist()
    s01, s02, s12 = 0.5 * (m01 - m10), 0.5 * (m02 - m20), 0.5 * (m12 - m21)
    return tuple(vee([[0.0, s01, s02], [-s01, 0.0, s12], [-s02, -s12, 0.0]]).tolist())


def corrected_angular_velocity(meas, e, gains):
    (o0, o1, o2), (e0, e1, e2), k1 = meas.omega.tolist(), e, gains.k1
    return o0 - k1 * e0, o1 - k1 * e1, o2 - k1 * e2


def corrected_velocity(meas, w, body_position, s_tilde, gains):
    """Velocity input of the pose update, given w = hat(omega_hat - omega_meas),
    body_position = C_ea @ r_hat and the innovations; k3 anchors on landmark 0."""
    if len(s_tilde) == 0:
        raise EmptyMap("corrected_velocity needs at least one landmark")
    (x, y, z), (w0, w1, w2), (w3, w4, w5), (w6, w7, w8) = body_position, *w.tolist()
    (v0, v1, v2), (s0, s1, s2) = meas.velocity.tolist(), s_tilde.sum(axis=0).tolist()
    (a0, a1, a2), k2, k3 = meas.landmark_obs[0].tolist(), gains.k2, gains.k3
    return (
        v0 + (w0 * x + w1 * y + w2 * z) + k2 * s0 - k3 * (x + a0),
        v1 + (w3 * x + w4 * y + w5 * z) + k2 * s1 - k3 * (y + a1),
        v2 + (w6 * x + w7 * y + w8 * z) + k2 * s2 - k3 * (z + a2),
    )


def landmark_rates(body_landmarks, w, s_tilde, c_ea, gains):
    """(l, 3) datum-frame velocities of the landmark estimates, given body_landmarks
    = P_hat @ C_ea.T, w = hat(omega_hat - omega_meas) and the innovations."""
    return (body_landmarks @ w.T - gains.k2 * s_tilde) @ c_ea


def reference_step(state, meas, c_ba, gains, dt):
    """One Lie-Euler step of the equations above, for one instant, with the checks
    and messages of ``se3slam.observer.step``."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    c_ea, position = state.dcm, state.position
    body_landmarks, body_position = state.landmarks @ c_ea.T, (c_ea @ position).tolist()
    o0, o1, o2 = corrected_angular_velocity(meas, attitude_error(c_ba, c_ea), gains)
    m0, m1, m2 = meas.omega.tolist()
    w = hat((o0 - m0, o1 - m1, o2 - m2))
    s_tilde = innovations(body_landmarks, body_position, meas)
    v0, v1, v2 = corrected_velocity(meas, w, body_position, s_tilde, gains)
    try:
        motion = exp_se3((o0 * dt, o1 * dt, o2 * dt), (v0 * dt, v1 * dt, v2 * dt))
    except NonFiniteState:
        raise NonFiniteState(f"non-finite pose increment at t={state.time}") from None
    dcm, position = compose_raw(c_ea, position, *motion)
    if rotation_drift(dcm.tolist()) > DRIFT_TOL:
        dcm = reorthonormalize(dcm)
    new_landmarks = state.landmarks + dt * landmark_rates(body_landmarks, w, s_tilde, c_ea, gains)
    if not (np.isfinite(new_landmarks).all() and all(map(math.isfinite, position.tolist()))):
        raise NonFiniteState(f"non-finite state after step at t={state.time}")
    return ObserverState(dcm, position, new_landmarks, state.time + dt)


def reference_resolve_attitude(state, meas, fallback=None):
    """The attitude of reconstructed mode for one instant, solved from the
    observations and the map of ``state`` seen from its position, plus a health
    flag, with the fallback and message of ``se3slam.observer.step``."""
    try:
        return attitude.solve_attitude(meas.landmark_obs, state.landmarks - state.position), True
    except DegenerateGeometry as exc:
        if fallback is not None:
            return fallback, False
        raise type(exc)(
            f"attitude solve at t={state.time}: {exc}; the datum directions are the "
            "estimated landmarks seen from the estimated position"
        ) from None
