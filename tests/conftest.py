import contextlib
import importlib.util
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from se3slam import attitude
from se3slam.errors import DegenerateGeometry, NonFiniteState
from se3slam.liegroup import exp_se3, exp_so3, hat, reorthonormalize, rotation_drift, vee
from se3slam.metrics import ErrorRecord
from se3slam.observer import DRIFT_TOL, ObserverState
from se3slam.simulator import MeasurementFrame, truth_at

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_rotation(rng, max_angle=np.pi):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return exp_so3(axis * rng.uniform(0.0, max_angle))


def load_file_module(name, path):
    """The module at ``path``, a file outside the package, run once."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def counted_eigvalsh():
    """A list that grows by one for each np.linalg.eigvalsh call in the block."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(None)
        return eigvalsh(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "eigvalsh", counted):
        yield calls


def truth_at_instant(spec, t, landmarks=np.zeros((0, 3))):
    """The ground truth at the one time t: row 0 of a 1-time block."""
    return truth_at(spec, np.array([t]), landmarks).row(0)


def frames(meas, start, stop=None):
    """The stacked measurements at instants start ... stop - 1 of ``meas``, or
    the 1-instant block at ``start`` alone."""
    k = slice(start, start + 1 if stop is None else stop)
    return MeasurementFrame(meas.time[k], meas.omega[k], meas.velocity[k], meas.landmark_obs[k])


def per_field_row(r) -> str:
    """The CSV row of the one-instant record r by one format call per field,
    numpy scalars formatted as themselves: the oracle the CSV writer is held to."""
    values = [r.time, r.lyapunov, r.attitude_error_angle, r.position_error]
    fields = [f"{x:.17g}" for x in [*values, *r.map_error, *r.relative_map_error]]
    return ",".join(fields + ["1" if r.attitude_source_ok else "0"])


def stack_records(records) -> ErrorRecord:
    """One stacked ErrorRecord from stacked records, their rows in turn."""
    return ErrorRecord(*map(np.concatenate, zip(*(r.columns() for r in records))))


# The observer written one function per equation, as the module docstring of
# se3slam.observer states them: the oracle that step is held to. Each equation
# takes the arrays of one instant.


def innovations(body_landmarks, body_position, obs):
    """All landmark residuals stacked as an (l, 3) array, from the estimates in
    the body frame: body_landmarks = P_hat @ C_ea.T, body_position = C_ea @ r_hat,
    and the (l, 3) observations."""
    return body_landmarks - body_position - obs


def attitude_error(c_ba, c_ea):
    """vee of the skew part of C_ba @ C_ea.T; zero iff the attitudes agree."""
    (_, m01, m02), (m10, _, m12), (m20, m21, _) = (c_ba @ c_ea.T).tolist()
    s01, s02, s12 = 0.5 * (m01 - m10), 0.5 * (m02 - m20), 0.5 * (m12 - m21)
    return tuple(vee([[0.0, s01, s02], [-s01, 0.0, s12], [-s02, -s12, 0.0]]).tolist())


def corrected_angular_velocity(omega, e, gains):
    (o0, o1, o2), (e0, e1, e2), k1 = omega.tolist(), e, gains.k1
    return o0 - k1 * e0, o1 - k1 * e1, o2 - k1 * e2


def corrected_velocity(velocity, obs, w, body_position, s_tilde, gains):
    """Velocity input of the pose update, given the measured velocity and
    observations, w = hat(omega_hat - omega_meas), body_position = C_ea @ r_hat
    and the innovations; k3 anchors on landmark 0."""
    if len(s_tilde) == 0:
        raise ValueError(f"s_tilde must hold at least one landmark, got shape {s_tilde.shape}")
    (x, y, z), (w0, w1, w2), (w3, w4, w5), (w6, w7, w8) = body_position, *w.tolist()
    (v0, v1, v2), (s0, s1, s2) = velocity.tolist(), s_tilde.sum(axis=0).tolist()
    (a0, a1, a2), k2, k3 = obs[0].tolist(), gains.k2, gains.k3
    return (
        v0 + (w0 * x + w1 * y + w2 * z) + k2 * s0 - k3 * (x + a0),
        v1 + (w3 * x + w4 * y + w5 * z) + k2 * s1 - k3 * (y + a1),
        v2 + (w6 * x + w7 * y + w8 * z) + k2 * s2 - k3 * (z + a2),
    )


def landmark_rates(body_landmarks, w, s_tilde, c_ea, gains):
    """(l, 3) datum-frame velocities of the landmark estimates, given body_landmarks
    = P_hat @ C_ea.T, w = hat(omega_hat - omega_meas) and the innovations."""
    return (body_landmarks @ w.T - gains.k2 * s_tilde) @ c_ea


def compose_raw(dcm_a, position_a, dcm_b, position_b):
    """(dcm, position) of the product a @ b of two poses given as raw arrays."""
    return dcm_b @ dcm_a, dcm_a.T @ position_b + position_a


def reference_step(state, meas, c_ba, gains, dt):
    """One Lie-Euler step of the equations above, in the forms ``se3slam.observer.step``
    takes for one step: from the last instant of the stacked ``state``, with the
    1-instant ``meas`` and ``c_ba`` (1, 3, 3). Returns the new state as a
    1-instant stack, with the checks and messages of ``step``, which name the
    measurement's instant."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    c_ea, position, landmarks = state.dcm[-1], state.position[-1], state.landmarks[-1]
    (t,), (omega,), (velocity,), (obs,) = meas.time, meas.omega, meas.velocity, meas.landmark_obs
    body_landmarks, body_position = landmarks @ c_ea.T, (c_ea @ position).tolist()
    o0, o1, o2 = corrected_angular_velocity(omega, attitude_error(c_ba[0], c_ea), gains)
    m0, m1, m2 = omega.tolist()
    w = hat((o0 - m0, o1 - m1, o2 - m2))
    s_tilde = innovations(body_landmarks, body_position, obs)
    v0, v1, v2 = corrected_velocity(velocity, obs, w, body_position, s_tilde, gains)
    try:
        motion = exp_se3((o0 * dt, o1 * dt, o2 * dt), (v0 * dt, v1 * dt, v2 * dt))
    except NonFiniteState:
        raise NonFiniteState(f"non-finite pose increment at t={t}") from None
    dcm, position = compose_raw(c_ea, position, *motion)
    if rotation_drift(dcm.tolist()) > DRIFT_TOL:
        dcm = reorthonormalize(dcm)
    new_landmarks = landmarks + dt * landmark_rates(body_landmarks, w, s_tilde, c_ea, gains)
    if not (np.isfinite(new_landmarks).all() and all(map(math.isfinite, position.tolist()))):
        raise NonFiniteState(f"non-finite state after step at t={t}")
    return ObserverState(dcm[None], position[None], new_landmarks[None])


def reference_resolve_attitude(state, meas, fallback=None):
    """The attitude of reconstructed mode for the 1-instant ``meas``, solved from
    the observations and the map of the last instant of the stacked ``state``
    seen from its position, plus a health flag, with the fallback and message
    of ``se3slam.observer.step``."""
    datum = state.landmarks[-1] - state.position[-1]
    try:
        return attitude.solve_attitude(meas.landmark_obs[0], datum), True
    except DegenerateGeometry as exc:
        if fallback is not None:
            return fallback, False
        raise type(exc)(
            f"attitude solve at t={meas.time[0]}: {exc}; the datum directions are the "
            "estimated landmarks seen from the estimated position"
        ) from None
